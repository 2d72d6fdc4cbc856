"""Quantum value types: density operators and channels, the reports of
their invariants, and the plus-minus projectors.

Each type verifies its physical invariants on construction (trace 1,
hermiticity and positivity of a state, the Kraus bound of a channel).
Matrix accessors return copies and are meant for debugging and
verification only; programs observe a state through the engine's
measurement sites.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimMismatch, InvalidState
from . import linalg
from .linalg import ATOL_PHYSICAL, check_dim, dagger


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
