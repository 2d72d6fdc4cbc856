"""Two-level factoring of unitaries and their CNOT + single-qubit circuits.

two_level_decompose reduces U column by column with rotations that each
touch only two coordinates, giving at most d(d-1)/2 factors whose
in-order product is U. two_level_to_circuit realizes one factor by
walking a Gray code from index i to index j: multi-controlled X steps
bring the pair onto basis states that differ in one bit, a controlled
2x2 block acts there, and the walk is undone. Multi-controlled gates
expand recursively (square-root trick) into CNOTs and exact 1-qubit
gates, so the whole circuit is basic-ready before any approximation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core import gates
from ..core.linalg import num_qubits, require_unitary
from ..errors import DimMismatch
from .sequences import GateOp, GateSequence, controlled_ops, unitary_sqrt

IDENTITY_TOL = 1e-12


@dataclass(frozen=True)
class TwoLevelFactor:
    """Unitary acting as `block` on span{|i>, |j>} and as identity elsewhere."""

    dim: int
    i: int
    j: int
    block: np.ndarray  # 2x2; rows/cols ordered (i, j)

    def __post_init__(self):
        if not 0 <= self.i < self.j < self.dim:
            raise DimMismatch(f"bad index pair ({self.i}, {self.j}) for dim {self.dim}")

    def is_identity(self, tol: float = IDENTITY_TOL) -> bool:
        return bool(np.abs(self.block - np.eye(2)).max() <= tol)


def two_level_decompose(u: np.ndarray) -> list[TwoLevelFactor]:
    """Ordered factors whose product (first @ second @ ...) equals u."""
    u = require_unitary(u, what="decomposition input")
    d = u.shape[0]
    if d == 2:
        f = TwoLevelFactor(2, 0, 1, u.copy())
        return [] if f.is_identity() else [f]

    left: list[TwoLevelFactor] = []   # rotations applied to u, in order
    work = u.copy()

    def rotate(i: int, j: int, block: np.ndarray) -> None:
        """Apply the two-level factor (i, j, block) to work: it only
        changes rows i and j."""
        left.append(TwoLevelFactor(d, i, j, block))
        work[[i, j]] = block @ work[[i, j]]

    for c in range(d - 2):
        for r in range(c + 1, d):
            a, b = work[c, c], work[r, c]
            if abs(b) <= IDENTITY_TOL:
                continue
            n = np.hypot(abs(a), abs(b))
            # Sends (a, b) to (n, 0); pivot stays real nonnegative.
            rotate(c, r, np.array([[np.conj(a), np.conj(b)], [b, -a]]) / n)
        # Unitarity forces |work[c, c]| = 1; absorb a leftover phase so the
        # processed row/column is exactly e_c.
        pivot = work[c, c]
        if abs(pivot - 1.0) > IDENTITY_TOL:
            rotate(c, c + 1, np.array([[np.conj(pivot), 0.0], [0.0, 1.0]], dtype=complex))
    # work == L_k ... L_1 u is now diag(1, .., 1, B), so
    # u == L_1† .. L_k† diag(B): daggered rotations in order, then the block.
    factors = [TwoLevelFactor(f.dim, f.i, f.j, f.block.conj().T.copy()) for f in left]
    factors.append(TwoLevelFactor(d, d - 2, d - 1, work[d - 2:, d - 2:].copy()))
    return [f for f in factors if not f.is_identity()]


def gray_path(i: int, j: int, n_bits: int) -> list[int]:
    """Basis-index walk from i to j flipping one bit per step (MSB first)."""
    path = [i]
    cur = i
    for bit in range(n_bits - 1, -1, -1):  # bit 0 = LSB; walk from MSB down
        mask = 1 << bit
        if (cur ^ j) & mask:
            cur ^= mask
            path.append(cur)
    return path


def _toggled_controls(code: int, flip_bit: int, n: int) -> tuple[list[int], list[int]]:
    """Control qubits (and those requiring value 0) for a transition at flip_bit."""
    controls, zeros = [], []
    for bit in range(n):
        if bit == flip_bit:
            continue
        qubit = n - 1 - bit  # bit b of the index is qubit n-1-b (qubit 0 = MSB)
        controls.append(qubit)
        if not (code >> bit) & 1:
            zeros.append(qubit)
    return controls, zeros


def multi_controlled_ops(u: np.ndarray, controls: list[int], target: int) -> list[GateOp]:
    """C^k(u) for all-ones controls, via the square-root recursion."""
    if not controls:
        return [GateOp("u2", (target,), np.asarray(u, dtype=complex))]
    if len(controls) == 1:
        if np.allclose(u, gates.X, atol=1e-14):
            return [GateOp("CNOT", (controls[0], target), gates.CNOT)]
        return controlled_ops(u, controls[0], target)
    v = unitary_sqrt(u)
    head, last = controls[:-1], controls[-1]
    ops = multi_controlled_ops(v, [last], target)
    ops += multi_controlled_ops(gates.X, head, last)
    ops += multi_controlled_ops(v.conj().T, [last], target)
    ops += multi_controlled_ops(gates.X, head, last)
    ops += multi_controlled_ops(v, head, target)
    return ops


def _controlled_on_code(u: np.ndarray, code: int, flip_bit: int, n: int) -> list[GateOp]:
    """Apply u on the qubit for flip_bit, controlled on the other bits of code."""
    controls, zeros = _toggled_controls(code, flip_bit, n)
    target = n - 1 - flip_bit
    wrap = [GateOp("X", (q,), gates.X) for q in zeros]
    return wrap + multi_controlled_ops(u, controls, target) + list(reversed(wrap))


def two_level_to_circuit(factor: TwoLevelFactor) -> GateSequence:
    """Exact CNOT + single-qubit circuit for one two-level factor."""
    n = num_qubits(factor.dim)
    if n == 1:
        return GateSequence((GateOp("u2", (0,), factor.block.copy()),))
    path = gray_path(factor.i, factor.j, n)
    # Walk |i> next to |j>: each step swaps two adjacent-in-path basis states.
    steps: list[list[GateOp]] = []
    for t in range(len(path) - 2):
        flip_bit = (path[t] ^ path[t + 1]).bit_length() - 1
        steps.append(_controlled_on_code(gates.X, path[t] | path[t + 1], flip_bit, n))
    a, b = path[-2], path[-1]
    flip_bit = (a ^ b).bit_length() - 1
    block = factor.block
    if (a >> flip_bit) & 1:
        # |i> landed on the bit-1 side: swap the block's basis roles.
        block = gates.X @ block @ gates.X
    ops: list[GateOp] = []
    for s in steps:
        ops += s
    ops += _controlled_on_code(block, a | b, flip_bit, n)
    for s in reversed(steps):
        ops += s  # each step is a controlled-X, an involution: reapplying undoes it
    return GateSequence(tuple(ops))
