"""Array-level helpers for dense complex linear algebra.

Conventions used throughout the package:

* States and operators are dense ``numpy`` arrays of ``complex128``.
* Qubit 0 is the most significant bit of a basis index (the leftmost
  tensor factor), so in ``np.kron(a, b)`` ``a`` acts on the high bits.
* ``positions`` arguments are qubit indices into an ``n``-qubit space.
"""
from __future__ import annotations

import numpy as np

from ..errors import CapacityExceeded, DimMismatch, NotUnitary

# Dense simulation guarantee: up to 12 qubits. Larger requests are refused
# rather than silently thrashing (density matrices scale as 4^n).
MAX_QUBITS = 12
MAX_DIM = 1 << MAX_QUBITS

# Step limits of a run, here rather than in the engine so that the CLI's
# help text reads them without loading the engine.
DEFAULT_STEP_LIMIT = 10**6                 # per shot in sampled mode
DEFAULT_DISTRIBUTION_STEP_LIMIT = 10_000   # per run in distribution mode

ATOL_UNITARY = 1e-10   # unitarity residuals
ATOL_PHYSICAL = 1e-9   # trace / norm / completeness residuals


def as_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    return m


def nonzero_lines(m: np.ndarray) -> np.ndarray:
    """The sorted indices i at which row i or column i of the square
    complex matrix m holds an entry whose bits are not zero (a -0.0
    counts)."""
    # reduced along each axis of the 64-bit words, so no temporary is as
    # large as m; an entry is the column pair (real, imaginary) of words
    words = np.ascontiguousarray(m).view(np.uint64)
    columns = np.bitwise_or.reduce(words, axis=0)
    return np.flatnonzero(np.bitwise_or.reduce(words, axis=1) | columns[0::2] | columns[1::2])


def read_only(a) -> np.ndarray:
    """A read-only copy of `a`, so a value checked once stays as checked."""
    a = np.array(a)
    a.flags.writeable = False
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.asarray(m).conj().T


def unitary_residual(m: np.ndarray) -> float:
    """Spectral-norm distance of m†m from the identity."""
    m = as_matrix(m)
    return completeness_residual([m]) if m.shape[0] == m.shape[1] else float("inf")


def completeness_residual(operators) -> float:
    """Spectral-norm distance of sum_i M_i†M_i from the identity: the
    largest |eigenvalue| of that Hermitian difference. It is inf when the
    sum has an entry that is not finite (a non-finite entry, or finite
    ones whose products overflow) or the eigensolver fails; floating-point
    errors are ignored on the way, so no such input warns."""
    with np.errstate(all="ignore"):
        acc = sum(dagger(m) @ m for m in operators)
        if not np.isfinite(acc).all():
            return float("inf")
        try:
            r = float(np.abs(np.linalg.eigvalsh(acc - np.eye(acc.shape[0]))).max())
        except np.linalg.LinAlgError:
            return float("inf")
    return r if np.isfinite(r) else float("inf")


def require_unitary(m: np.ndarray, atol: float = ATOL_UNITARY, what: str = "matrix") -> np.ndarray:
    m = as_matrix(m)
    r = unitary_residual(m)
    if r > atol:
        raise NotUnitary(f"{what} is not unitary (residual {r:.3e} > {atol:g})")
    return m


def min_eigenvalue(hermitian: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(hermitian).min())


def check_dim(dim: int) -> int:
    if dim < 1:
        raise DimMismatch(f"dimension must be >= 1, got {dim}")
    if dim > MAX_DIM:
        raise CapacityExceeded(f"dimension {dim} exceeds dense cap {MAX_DIM} ({MAX_QUBITS} qubits)")
    return dim


def num_qubits(dim: int) -> int:
    n = int(dim).bit_length() - 1
    if 1 << n != dim:
        raise DimMismatch(f"dimension {dim} is not a power of 2")
    return n


def _gate_tensor(u: np.ndarray, k: int) -> np.ndarray:
    return np.asarray(u, dtype=complex).reshape((2,) * (2 * k))


def _apply_on_axes(tensor: np.ndarray, gate: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Contract a k-qubit gate into the given axes of a 2^… tensor."""
    k = len(axes)
    gt = _gate_tensor(gate, k)
    out = np.tensordot(gt, tensor, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(out, tuple(range(k)), axes)


def embed(op: np.ndarray, positions: tuple[int, ...], n: int) -> np.ndarray:
    """Dense 2^n matrix acting as `op` on `positions` and identity elsewhere."""
    op = as_matrix(op)
    k = len(positions)
    if op.shape != (1 << k, 1 << k):
        raise DimMismatch(f"operator shape {op.shape} does not fit {k} qubit(s)")
    if len(set(positions)) != k or any(not 0 <= p < n for p in positions):
        raise DimMismatch(f"bad qubit positions {positions} for n={n}")
    dim = check_dim(1 << n)
    # Apply the operator to the row axes of an identity matrix.
    eye = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    out = _apply_on_axes(eye, op, tuple(positions))
    return out.reshape(dim, dim)
