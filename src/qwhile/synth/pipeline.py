"""End-to-end synthesis: factor a unitary, then approximate every
non-basic single-qubit gate over the basic alphabet.

The reported eps_total sums the achieved per-gate distances (each at
most epsilon when the recursion depth suffices). Operator-norm errors
add across a product of unitaries, and embedding a one-qubit gate into
the full register preserves the distance, so the reconstruction error
of the final sequence never exceeds eps_total.
"""
from __future__ import annotations

import numpy as np

from ..core.linalg import num_qubits, require_unitary
from ..errors import QwhileError
from .qsd import qsd_decompose
from .sequences import GateOp, GateSequence, GateSet, strip_phase
from .sk import SKNet, _canonical_key, default_net, solovay_kitaev
from .two_level import two_level_decompose, two_level_to_circuit

METHODS = ("qr", "qsd")

# Factor expansions re-emit the same few 2x2 matrices (square roots,
# basis-change blocks) hundreds of times; approximate each distinct
# matrix once per (net, epsilon), remembering at most this many
# per net in net.approximations.
_SK_CACHE_MAX = 4096


def _approximate_single_qubit(op: GateOp, basic: GateSet, epsilon: float,
                              net: SKNet) -> tuple[list[GateOp], float]:
    name = basic.match_single_qubit(op.matrix)
    if name is not None:
        return [GateOp(name, op.qubits, basic[name])], 0.0
    cache = net.approximations
    key = (epsilon, _canonical_key(strip_phase(op.matrix)))
    hit = cache.get(key)
    if hit is None:
        approx = solovay_kitaev(op.matrix, epsilon, net)
        hit = (tuple(o.name for o in approx.ops), approx.eps_total)
        if len(cache) < _SK_CACHE_MAX:
            cache[key] = hit
    names, err = hit
    # alphabet matrices are shared read-only across ops
    ops = [GateOp(nm, op.qubits, net.alphabet[nm]) for nm in names]
    return ops, err


def synthesize(u: np.ndarray, method: str = "qsd", epsilon: float = 1e-3,
               net: SKNet | None = None) -> GateSequence:
    """Decompose a unitary into basic gates; 'qr' uses two-level factors
    with Gray-code circuits, 'qsd' the cosine-sine recursion. Every
    emitted gate is drawn from `GateSet.default()`: a one-qubit gate
    outside it becomes a word of `net`, the default net over that set's
    one-qubit gates unless given."""
    if method not in METHODS:
        raise QwhileError(f"unknown method {method!r}; expected one of {METHODS}")
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise QwhileError(f"epsilon must be a finite positive number, got {epsilon!r}")
    u = require_unitary(u, what="synthesis input")
    if u.shape[0] < 2:
        raise QwhileError(f"synthesis input is {len(u)}x{len(u)}; it needs at least one qubit")
    basic = GateSet.default()
    net = net or default_net()
    n = num_qubits(u.shape[0])

    if n == 1:
        exact = GateSequence((GateOp("u2", (0,), u.copy()),))
    elif method == "qr":
        ops: list[GateOp] = []
        # product(factors) = u, so the last factor acts on the state first
        for factor in reversed(two_level_decompose(u)):
            ops += two_level_to_circuit(factor).ops
        exact = GateSequence(tuple(ops))
    else:
        exact = qsd_decompose(u, basic)

    final: list[GateOp] = []
    eps_total = 0.0
    for op in exact.ops:
        if len(op.qubits) != 1:
            if op.name not in basic:
                raise QwhileError(f"multi-qubit gate {op.name!r} outside the basic set")
            final.append(op)
            continue
        replaced, err = _approximate_single_qubit(op, basic, epsilon, net)
        final.extend(replaced)
        eps_total += err
    return GateSequence(tuple(final), eps_total=eps_total)
