"""Array-level helpers and limits: the dense cap on the state space,
matrix conversion and support scans, and the unitarity and completeness
residuals the checker and the channels read.

Operators are ``complex128`` matrices; states are held by their support
(`types.DensityOperator`) and run as factors (`kernels`, whose
docstring states the qubit order).
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

