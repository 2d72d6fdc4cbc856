"""Quantum value types: kets, density operators, ensembles, measurements, channels.

Every type verifies its physical invariants on construction (trace 1,
hermiticity, positivity, completeness, ...). Amplitude/matrix accessors
return copies and are meant for debugging and verification only; program
observables should be extracted through measurement operations.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    DimMismatch,
    IncompleteMeasurement,
    InvalidState,
    ZeroVector,
)
from . import linalg
from .linalg import ATOL_PHYSICAL, basis_ket, check_dim, dagger


@dataclass(frozen=True)
class Violation:
    condition: str
    residual: float

    def __str__(self) -> str:
        return f"{self.condition} (residual {self.residual:.3e})"


@dataclass(frozen=True)
class ValidationReport:
    subject: str
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return f"{self.subject}: ok"
        return f"{self.subject}: " + "; ".join(str(v) for v in self.violations)


class Ket:
    """Unit complex vector; the pure state of one or more registers.

    Constructors normalize (|a|^2 sums to 1); a numerically zero input
    raises ZeroVector. A 2-dimensional Ket is a single qubit.
    """

    __slots__ = ("_amps",)

    def __init__(self, amplitudes):
        v = np.asarray(amplitudes, dtype=complex).reshape(-1)
        check_dim(v.size)
        n = float(np.linalg.norm(v))
        if n < 1e-12:
            raise ZeroVector("all amplitudes are (numerically) zero")
        if abs(n - 1.0) > 1e-15:
            v = v / n
        object.__setattr__(self, "_amps", v)

    @property
    def dim(self) -> int:
        return self._amps.size

    @property
    def amplitudes(self) -> np.ndarray:
        """Debug-only view of the hidden state (copy)."""
        return self._amps.copy()

    @classmethod
    def basis(cls, dim: int, index: int) -> "Ket":
        return cls(basis_ket(dim, index))

    def to_density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self._amps, self._amps.conj()), validate=False)

    def fidelity(self, other: "Ket") -> float:
        """|<self|other>|; 1 iff equal up to global phase."""
        if self.dim != other.dim:
            raise DimMismatch(f"dims {self.dim} != {other.dim}")
        return float(abs(np.vdot(self._amps, other._amps)))

    def __repr__(self) -> str:
        return f"Ket(dim={self.dim})"


class DensityOperator:
    """Positive, trace-1 complex matrix; a (possibly mixed) program state.

    A state is held either as its dense matrix or by its support (see
    `support`): the sorted indices S and the |S| x |S| block on S, every
    other entry +0.0. A support-held state (`from_support`) builds its
    dense matrix on first read of `_mat`, as the zero matrix with the
    block written on S x S."""

    __slots__ = ("_dense", "_dim", "_rows", "_block")

    def __init__(self, matrix, *, validate: bool = True):
        m = linalg.as_matrix(matrix)
        if m.shape[0] != m.shape[1]:
            raise DimMismatch(f"density operator must be square, got {m.shape}")
        check_dim(m.shape[0])
        if validate:
            report = validate_density_matrix(m)
            if not report.ok:
                raise InvalidState(str(report))
        self._dense, self._dim, self._rows, self._block = m, m.shape[0], None, None

    @classmethod
    def from_support(cls, dim: int, rows: np.ndarray, block: np.ndarray) -> "DensityOperator":
        """The state that is `block` on the sorted indices `rows` of a
        `dim`-dimensional space and zero elsewhere, unvalidated. Each index
        in `rows` must hold an entry with nonzero bits in its row or column
        of the block, so that the support is the one `support` reads."""
        self = object.__new__(cls)
        self._dense, self._dim, self._rows, self._block = None, dim, rows, block
        return self

    @property
    def _mat(self) -> np.ndarray:
        if self._dense is None:
            m = np.zeros((self._dim, self._dim), dtype=complex)
            m[self._rows[:, None], self._rows] = self._block
            self._dense = m
        return self._dense

    @property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, block): the sorted indices S of the rows and columns that
        hold an entry whose bits are not zero (a -0.0 counts), and the
        matrix's block on S x S; every entry outside S x S is +0.0. Held
        for a state built `from_support`, else read from the matrix."""
        if self._rows is not None:
            return self._rows, self._block
        m = np.ascontiguousarray(self._dense)
        rows = np.arange(self._dim) if m.all() else linalg.nonzero_lines(m)
        return rows, m if len(rows) == self._dim else m[rows[:, None], rows]

    def diagonal(self) -> np.ndarray:
        """The real diagonal, read from the support when one is held. It
        is the real part of complex storage in both cases (a strided
        view), so a dot product with it sums in the same order."""
        if self._rows is None:
            return self._dense.diagonal().real
        out = np.zeros(self._dim, dtype=complex)
        out[self._rows] = self._block.diagonal()
        return out.real

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def matrix(self) -> np.ndarray:
        """Debug-only view of the hidden state (copy)."""
        return self._mat.copy()

    @property
    def trace(self) -> float:
        return float(self._mat.trace().real)

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


def validate_density_matrix(m: np.ndarray) -> ValidationReport:
    violations = []
    tr = complex(m.trace())
    if abs(tr - 1.0) > ATOL_PHYSICAL:
        violations.append(Violation("UnitTrace", abs(tr - 1.0)))
    herm = float(np.abs(m - dagger(m)).max())
    if herm > ATOL_PHYSICAL:
        violations.append(Violation("Hermitian", herm))
    lo = linalg.min_eigenvalue((m + dagger(m)) / 2.0)
    if lo < -ATOL_PHYSICAL:
        violations.append(Violation("Positive", -lo))
    return ValidationReport("DensityOperator", tuple(violations))


_SQRT2 = np.sqrt(2.0)


# Projectors onto |+> and |-> (outcome 0 is |+>), read-only because every
# plus-minus measurement shares them.
PLUS_MINUS = tuple(np.outer(v, v.conj())
                   for v in np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2)
for _p in PLUS_MINUS:
    _p.setflags(write=False)


class MeasurementSet:
    """Operators {M_i} with sum_i M_i†M_i = I; outcome labels are 0..m-1.
    Completeness is decided once, when the set is built, over read-only
    copies of the operators, so the verdict stays true of them."""

    __slots__ = ("_ops", "_name", "_report")

    def __init__(self, operators, *, name: str = "measurement", require_complete: bool = True):
        ops = tuple(linalg.read_only(linalg.as_matrix(m)) for m in operators)
        if not ops:
            raise IncompleteMeasurement("measurement needs at least one operator")
        d = ops[0].shape[0]
        for m in ops:
            if m.shape != (d, d):
                raise DimMismatch("all measurement operators must be square with equal dim")
        check_dim(d)
        object.__setattr__(self, "_ops", ops)
        object.__setattr__(self, "_name", name)
        residual = linalg.completeness_residual(ops)
        violations = ((Violation("IncompleteMeasurement", residual),)
                      if residual > ATOL_PHYSICAL else ())
        report = ValidationReport(f"MeasurementSet({name})", violations)
        object.__setattr__(self, "_report", report)
        if require_complete and not report.ok:
            raise IncompleteMeasurement(str(report))

    @property
    def dim(self) -> int:
        return self._ops[0].shape[0]

    @property
    def n_outcomes(self) -> int:
        return len(self._ops)

    @property
    def name(self) -> str:
        return self._name

    @property
    def operators(self) -> tuple[np.ndarray, ...]:
        return tuple(m.copy() for m in self._ops)

    def validate(self) -> ValidationReport:
        return self._report

    @classmethod
    def computational(cls, dim: int = 2) -> "MeasurementSet":
        """Projective measurement {|i><i|} in the computational basis."""
        ops = [np.diag((np.arange(dim) == i).astype(complex)) for i in range(dim)]
        return cls(ops, name=f"computational(dim={dim})")

    @classmethod
    def plus_minus(cls) -> "MeasurementSet":
        """Projective measurement onto |+> and |-> (outcome 0 is |+>)."""
        return cls(PLUS_MINUS, name="plus_minus")

    def __repr__(self) -> str:
        return f"MeasurementSet({self._name}, dim={self.dim}, outcomes={self.n_outcomes})"


class SuperOperator:
    """Kraus family {E_i} with sum_i E_i†E_i <= I; models an open-system channel."""

    __slots__ = ("_kraus", "_name")

    def __init__(self, kraus, *, name: str = "channel"):
        ops = tuple(linalg.read_only(linalg.as_matrix(e)) for e in kraus)
        if not ops:
            raise InvalidState("superoperator needs at least one Kraus operator")
        d = ops[0].shape[0]
        for e in ops:
            if e.shape != (d, d):
                raise DimMismatch("all Kraus operators must be square with equal dim")
        check_dim(d)
        object.__setattr__(self, "_kraus", ops)
        object.__setattr__(self, "_name", name)
        report = self.validate()
        if not report.ok:
            raise InvalidState(str(report))

    @property
    def dim(self) -> int:
        return self._kraus[0].shape[0]

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return tuple(e.copy() for e in self._kraus)

    @property
    def name(self) -> str:
        return self._name

    def validate(self) -> ValidationReport:
        # sum E†E <= I  <=>  all eigenvalues of I - sum E†E are >= -tol.
        gap = np.eye(self.dim) - sum(dagger(e) @ e for e in self._kraus)
        lo = linalg.min_eigenvalue((gap + dagger(gap)) / 2.0)
        if lo < -ATOL_PHYSICAL:
            return ValidationReport(f"SuperOperator({self._name})",
                                    (Violation("KrausBound", -lo),))
        return ValidationReport(f"SuperOperator({self._name})")

    @classmethod
    def identity(cls, dim: int = 2) -> "SuperOperator":
        return cls([np.eye(dim, dtype=complex)], name="identity")

    def __repr__(self) -> str:
        return f"SuperOperator({self._name}, dim={self.dim}, kraus={len(self._kraus)})"
