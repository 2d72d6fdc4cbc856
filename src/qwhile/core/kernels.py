"""Kernels: each operator the package applies, applied to a state's
factor V, a 2^n x r complex array with rho = V V† (one row per basis
index of the n-qubit space, one column per term), from the left only,
so a step costs 2^n * r rather than 4^n. Only `embed` builds an
operator as a dense 2^n matrix: its kernel applied to the identity. The
engine's `KernelTable`, BB84's outcome tables and synthesis's
`reconstruct` take their kernels from here.

Qubit order: basis index x of the n-qubit space holds qubit q at bit
n-1-q, so qubit 0 is the most significant (the leftmost tensor factor:
in ``np.kron(a, b)``, ``a`` acts on the high bits). An operator on the
qubits `positions` reads positions[0] as the most significant bit of
its local index.

Kernels. `operator_kernel` and `site_kernel` classify each operator by
its exact zero pattern, never by the size of the space, and refuse a
space beyond the dense cap (`linalg.check_dim`) before they build
anything of its size:

* diagonal    (Z, S, T, phase oracles): V * d, d the full-space diagonal.
* monomial    (X, CNOT, permutation oracles): one gather of V's rows
              through a precomputed permutation of the basis, times
              phases unless all are 1.
* general     (H, dense gates): one contraction on the target row axes
              (reshape and matmul when the targets are adjacent, in any
              order; tensordot over their axes otherwise).
* reset       (q := |0>): per qubit of the register, least significant
              first, V -> [P0 V | K V] with P0 = |0><0|, K = |0><1|,
              keeping only the columns that are not exactly zero (so a
              qubit in a definite state keeps the column count).
* diagonal site (every Kraus operator diagonal, `computational`
              included): probabilities from the row norms |V|^2; collapse
              zeroes the rows outside an operator with one nonzero entry,
              else applies the diagonal kernel, and rescales to norm 1.
* general site: p_i = ||M_i V||^2 through each operator's kernel;
              collapse applies M_i and rescales.

Rank rule: only a reset adds columns. When V then has more columns than
nonzero rows S, V_S is replaced by R†, where R is the triangular factor
of a QR decomposition of V_S† (R† R = V_S V_S†), so r never exceeds the
number of nonzero rows.
"""
from __future__ import annotations

import numpy as np

from ..errors import DimMismatch, IncompleteMeasurement
from .linalg import as_matrix, check_dim, nonzero_lines, read_only
from .types import DensityOperator


def _bit_maps(positions: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(local, spread): local[x] is the local index that basis state x has
    on `positions`; spread[l] is local index l's bits placed at their
    positions in an n-qubit index (zero elsewhere)."""
    k = len(positions)
    x, lidx = np.arange(1 << n), np.arange(1 << k)
    local = np.zeros(1 << n, dtype=np.intp)
    spread = np.zeros(1 << k, dtype=np.intp)
    for j, p in enumerate(positions):
        local |= ((x >> (n - 1 - p)) & 1) << (k - 1 - j)
        spread |= ((lidx >> (k - 1 - j)) & 1) << (n - 1 - p)
    return local, spread


class Diagonal:
    """E diagonal: E V = V * d with d the full-space diagonal."""

    __slots__ = ("d",)

    def __init__(self, diagonal: np.ndarray, positions: tuple[int, ...], n: int):
        self.d = diagonal[_bit_maps(positions, n)[0]][:, None]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v * self.d


class Monomial:
    """E with one nonzero per row and column, E[a, s(a)] = e_a:
    (E V)[a] = e_a V[s(a)], one gather through the basis permutation s."""

    __slots__ = ("src", "phases")

    def __init__(self, op: np.ndarray, positions: tuple[int, ...], n: int):
        local, spread = _bit_maps(positions, n)
        cols = np.argmax(op != 0, axis=1)
        self.src = (np.arange(1 << n) & ~spread[-1]) | spread[cols[local]]
        phases = op[np.arange(len(op)), cols][local]
        self.phases = None if (phases == 1).all() else phases[:, None]

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = v[self.src]
        if self.phases is not None:
            out *= self.phases
        return out


class General:
    """Any other E, contracted with V's target row axes: one matmul on V
    viewed as (rows above, targets, rows below and columns) when the
    targets are adjacent (in any order), else one tensordot over them."""

    __slots__ = ("op", "shape", "axes")

    def __init__(self, op: np.ndarray, positions: tuple[int, ...], n: int):
        k, lo = len(positions), min(positions)
        if max(positions) - lo == k - 1:
            order = list(np.argsort(positions))
            op = op.reshape((2,) * (2 * k)).transpose(order + [k + i for i in order])
            self.op, self.shape, self.axes = op.reshape(1 << k, 1 << k), (1 << lo, 1 << k, -1), None
        else:
            self.op, self.shape, self.axes = op.reshape((2,) * (2 * k)), (2,) * n + (-1,), positions

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.axes is None:
            return np.matmul(self.op, v.reshape(self.shape)).reshape(v.shape)
        k = len(self.axes)
        out = np.tensordot(self.op, v.reshape(self.shape), axes=(range(k, 2 * k), self.axes))
        return np.moveaxis(out, range(k), self.axes).reshape(v.shape)


def operator_kernel(op, positions: tuple[int, ...], n: int) -> Diagonal | Monomial | General:
    """The kernel applying V -> E V, where E acts as `op` on the qubits
    `positions` of an n-qubit space, chosen by op's exact zero pattern
    (never by size)."""
    op = _fitted(op, positions, n)
    if _is_diagonal(op):
        return Diagonal(np.diagonal(op), positions, n)
    nonzero = op != 0
    if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        return Monomial(op, positions, n)
    return General(op, positions, n)


def _fitted(op, positions: tuple[int, ...], n: int) -> np.ndarray:
    """A read-only copy of `op`, so a kernel never shares a caller's array,
    once the n-qubit space is within the dense cap and `op` fits the
    qubits `positions` of it."""
    check_dim(1 << n)
    op = read_only(as_matrix(op))
    k = len(positions)
    if op.shape != (1 << k, 1 << k):
        raise DimMismatch(f"operator shape {op.shape} does not fit {k} qubit(s)")
    if len(set(positions)) != k or any(not 0 <= p < n for p in positions):
        raise DimMismatch(f"bad qubit positions {positions} for n={n}")
    return op


def _is_diagonal(op: np.ndarray) -> bool:
    return not op[~np.eye(len(op), dtype=bool)].any()


class Reset:
    """q := |0> on a register: for each of its qubits, least significant
    first, V -> [P0 V | K V] without the columns that are exactly zero,
    then the rank rule (module docstring)."""

    __slots__ = ("shapes",)

    def __init__(self, positions: tuple[int, ...], n: int):
        # V viewed as (rows above, the qubit's bit, rows below, columns)
        self.shapes = [(1 << q, 2, 1 << (n - 1 - q), -1) for q in reversed(positions)]

    def apply(self, v: np.ndarray) -> np.ndarray:
        for shape in self.shapes:
            t = v.reshape(shape)
            ones = t[:, 1].any(axis=(0, 1))  # columns K V keeps
            if not ones.any():
                continue  # P0 V = V and K V = 0
            zeros = t[:, 0].any(axis=(0, 1))  # columns P0 V keeps
            out = np.zeros(t.shape[:3] + (int(zeros.sum() + ones.sum()),), dtype=complex)
            out[:, 0] = np.concatenate((t[:, 0][..., zeros], t[:, 1][..., ones]), axis=-1)
            v = out.reshape(len(v), -1)
        return _within_rank(v)


def _within_rank(v: np.ndarray) -> np.ndarray:
    """V, or when it has more columns than nonzero rows S, the factor whose
    block on S is R† for the triangular factor R of a QR of V_S†."""
    if v.shape[1] == 1:
        return v
    rows = np.flatnonzero(v.any(axis=1))
    if v.shape[1] <= len(rows):
        return v
    out = np.zeros((len(v), len(rows)), dtype=complex)
    out[rows] = np.linalg.qr(v[rows].conj().T, mode="r").conj().T
    return out


def state_of(v: np.ndarray) -> DensityOperator:
    """The density operator V V† of the factor v, held by its support:
    the block V_S V_S† on v's nonzero rows S (less any row whose block
    entries all underflowed to zero bits), zero elsewhere."""
    rows = np.flatnonzero(v.any(axis=1))
    block = v[rows]
    block = block @ block.conj().T
    if np.count_nonzero(block.diagonal()) < len(rows):
        keep = nonzero_lines(block)
        rows, block = rows[keep], block[keep[:, None], keep]
    return DensityOperator(len(v), rows, block)


def _norm2(v: np.ndarray) -> float:
    """tr(V V†), the squared Frobenius norm of V."""
    return float(np.vdot(v, v).real)


def _normalized(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise IncompleteMeasurement(f"measurement probabilities sum to {total}")
    return p / total


class DiagonalSite:
    """A measurement whose Kraus operators are all diagonal. Probabilities
    come from the row norms of V. An outcome whose operator has one
    nonzero entry, at local index l, keeps V's rows on l; any other goes
    through the diagonal kernel; either is rescaled to norm 1. `diags`
    holds one local diagonal per outcome."""

    __slots__ = ("positions", "local", "weights", "outcomes")

    def __init__(self, diags: np.ndarray, positions: tuple[int, ...], n: int):
        self.positions = positions
        self.local = _bit_maps(positions, n)[0]
        self.weights = np.abs(diags) ** 2
        # per outcome: its one nonzero local index, or the diagonal kernel
        self.outcomes: list[int | Diagonal] = []
        for d in diags:
            nz = np.flatnonzero(d)
            self.outcomes.append(int(nz[0]) if len(nz) == 1 else Diagonal(d, positions, n))

    def probabilities(self, v: np.ndarray) -> np.ndarray:
        rows = (v * v.conj()).real.sum(axis=1)
        p = np.bincount(self.local, weights=rows, minlength=1 << len(self.positions))
        return _normalized(self.weights @ p)

    def collapse(self, v: np.ndarray, outcome: int) -> np.ndarray:
        basis = self.outcomes[outcome]
        if isinstance(basis, Diagonal):
            post = basis.apply(v)
        else:
            post = np.where((self.local == basis)[:, None], v, 0.0)
        return post / np.sqrt(_norm2(post))


class GeneralSite:
    """Any other measurement: p_i = ||M_i V||^2 and collapse through each
    operator's kernel."""

    __slots__ = ("ops",)

    def __init__(self, operators, positions: tuple[int, ...], n: int):
        self.ops = [operator_kernel(m, positions, n) for m in operators]

    def probabilities(self, v: np.ndarray) -> np.ndarray:
        return _normalized(np.array([_norm2(op.apply(v)) for op in self.ops]))

    def collapse(self, v: np.ndarray, outcome: int) -> np.ndarray:
        post = self.ops[outcome].apply(v)
        return post / np.sqrt(_norm2(post))


def site_kernel(operators, positions: tuple[int, ...], n: int) -> DiagonalSite | GeneralSite:
    """The kernel of a measurement with the given Kraus operators on
    `positions`: diagonal when every operator is, general otherwise."""
    ops = [_fitted(m, positions, n) for m in operators]
    if all(_is_diagonal(m) for m in ops):
        return DiagonalSite(np.array([np.diagonal(m) for m in ops]), positions, n)
    return GeneralSite(ops, positions, n)


def embed(op, positions: tuple[int, ...], n: int) -> np.ndarray:
    """The dense 2^n matrix acting as `op` on `positions` and as the
    identity elsewhere: op's kernel applied to the identity."""
    return operator_kernel(op, positions, n).apply(np.eye(1 << n, dtype=complex))
