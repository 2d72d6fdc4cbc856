"""Array-level helpers for dense complex linear algebra.

Conventions used throughout the package:

* States and operators are dense ``numpy`` arrays of ``complex128``.
* Qubit 0 is the most significant bit of a basis index (the leftmost
  tensor factor), so ``tensor(a, b)`` puts ``a`` on the high bits.
* ``positions`` arguments are qubit indices into an ``n``-qubit space.
"""
from __future__ import annotations

import numpy as np

from ..errors import CapacityExceeded, DimMismatch, NotUnitary

# Dense simulation guarantee: up to 12 qubits. Larger requests are refused
# rather than silently thrashing (density matrices scale as 4^n).
MAX_QUBITS = 12
MAX_DIM = 1 << MAX_QUBITS

ATOL_ALGEBRA = 1e-12   # pure algebra (tensor assoc., round trips)
ATOL_UNITARY = 1e-10   # unitarity residuals
ATOL_PHYSICAL = 1e-9   # trace / norm / completeness residuals


def as_matrix(entries) -> np.ndarray:
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise DimMismatch(f"expected a 2-D matrix, got shape {m.shape}")
    return m


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
    largest |eigenvalue| of that Hermitian difference (inf if not finite,
    decided before any product so that an overflowing entry warns of
    nothing)."""
    if not all(np.isfinite(m).all() for m in operators):
        return float("inf")
    acc = sum(dagger(m) @ m for m in operators)
    r = float(np.abs(np.linalg.eigvalsh(acc - np.eye(acc.shape[0]))).max())
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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))
    check_dim(max(out.shape))
    return out


def basis_ket(dim: int, index: int) -> np.ndarray:
    check_dim(dim)
    if not 0 <= index < dim:
        raise DimMismatch(f"basis index {index} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


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


def partial_trace(mat: np.ndarray, keep: tuple[int, ...], n: int) -> np.ndarray:
    """Trace out every qubit not in `keep` (order of `keep` is preserved)."""
    keep = tuple(keep)
    t = np.asarray(mat, dtype=complex).reshape((2,) * (2 * n))
    row = list(range(n))
    col = [n + q for q in range(n)]
    for q in range(n):
        if q not in keep:
            col[q] = row[q]  # tie row and column axes -> trace over qubit q
    out = np.einsum(t, row + col, [row[q] for q in keep] + [col[q] for q in keep])
    d = 1 << len(keep)
    return out.reshape(d, d)


def trace_inner(a: np.ndarray, rho: np.ndarray) -> float:
    """Real part of tr(a @ rho) without forming the product."""
    return float(np.einsum("ij,ji->", a, rho).real)
