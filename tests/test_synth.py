"""Synthesis: the reconstruction contract of both methods, the memo
tables kept on the Solovay-Kitaev net that owns them, and the net itself
against a frozen word-by-word build."""
import numpy as np
import pytest

from qwhile.synth import (
    GateSequence,
    GateSet,
    SKNet,
    TwoLevelFactor,
    build_net,
    default_net,
    phase_dist,
    qsd_decompose,
    reconstruct,
    strip_phase,
    synthesize,
    two_level_decompose,
    two_qubit_ops,
    two_level_to_circuit,
)
from qwhile.core import gates
from qwhile.synth.sequences import controlled_ops
from qwhile.synth.sk import _canonical_key, _canonical_keys
from qwhile.synth.two_level import IDENTITY_TOL


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def names(seq) -> list[str]:
    return [op.name for op in seq.ops]


def test_approximations_persist_on_the_reused_net(rng):
    net = default_net()
    u = haar_unitary(rng, 4)
    first = synthesize(u, epsilon=1e-2)
    assert net is default_net()
    filled = dict(net.approximations)
    assert filled  # the first call stored its approximations on the net
    second = synthesize(u, epsilon=1e-2)
    assert net.approximations == filled  # all hits, nothing new
    assert names(second) == names(first)
    assert second.eps_total == first.eps_total


def test_a_fresh_net_starts_empty_and_gives_the_same_words(rng):
    shared = default_net()
    fresh = SKNet(shared.alphabet, shared.max_word_length, shared.words,
                  shared.matrices, shared.eps0)
    assert fresh.approximations == {}
    u = haar_unitary(rng, 4)
    assert names(synthesize(u, epsilon=1e-2, net=fresh)) == names(
        synthesize(u, epsilon=1e-2, net=shared))
    assert fresh.approximations


def test_inverse_letters():
    net = default_net()
    table = net.inverse_letters
    assert net.inverse_letters is table
    assert set(table) == set(net.alphabet)
    for name, inv in table.items():
        assert phase_dist(net.alphabet[inv], net.alphabet[name].conj().T) <= 1e-10


def exact_factors(u: np.ndarray, method: str) -> GateSequence:
    """The exact circuit each method hands to Solovay-Kitaev."""
    if method == "qsd":
        return qsd_decompose(u)
    ops = []
    # product(factors) = u, so the last factor acts on the state first
    for factor in reversed(two_level_decompose(u)):
        ops += two_level_to_circuit(factor).ops
    return GateSequence(tuple(ops))


# 3-qubit QR emits about 320k gates, so only QSD runs at 3 qubits
@pytest.mark.parametrize("method,n", [("qr", 1), ("qr", 2), ("qsd", 1), ("qsd", 2), ("qsd", 3)])
def test_synthesis_stays_within_its_error_budget(method, n):
    u = haar_unitary(np.random.default_rng(60 + n), 1 << n)
    seq = synthesize(u, method=method, epsilon=1e-2)
    assert set(seq.gate_counts) <= set(GateSet.default().names)
    # the sum of per-gate errors bounds the reconstruction error, up to
    # rounding (a 1-qubit case measured 1.01e-3 against 1.01e-3)
    assert phase_dist(reconstruct(seq, n), u) <= seq.eps_total * (1 + 1e-9)
    if n > 1 or method == "qr":
        assert phase_dist(reconstruct(exact_factors(u, method), n), u) <= 1e-9


@pytest.mark.parametrize("n", [3, 4])
def test_qr_exact_factors_at_three_and_four_qubits(n):
    # factors here are controlled on 2 and 3 qubits, which runs the
    # multi-controlled square-root recursion
    u = haar_unitary(np.random.default_rng(60 + n), 1 << n)
    assert phase_dist(reconstruct(exact_factors(u, "qr"), n), u) <= 1e-12


SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


@pytest.mark.parametrize("swapped, gates", [(False, ["u2", "u2"]),
                                            (True, ["u2", "u2", "CNOT", "CNOT", "CNOT"])])
def test_two_qubit_ops_on_a_tensor_product_and_a_swapped_one(swapped, gates):
    rng = np.random.default_rng(5)
    u = np.kron(haar_unitary(rng, 2), haar_unitary(rng, 2))
    if swapped:
        u = SWAP @ u
    ops = two_qubit_ops(u, 0, 1)
    assert [op.name for op in ops] == gates
    assert phase_dist(reconstruct(GateSequence(tuple(ops)), 2), u) <= 1e-12


def dense_product_factors(u: np.ndarray) -> list[TwoLevelFactor]:
    """Two-level factoring as it was first written: each rotation applied
    to the work matrix as a product with its dense d x d embedding."""
    def embedded(f: TwoLevelFactor) -> np.ndarray:
        m = np.eye(f.dim, dtype=complex)
        m[np.ix_([f.i, f.j], [f.i, f.j])] = f.block
        return m

    d = len(u)
    if d == 2:
        return [] if TwoLevelFactor(2, 0, 1, u).is_identity() else [TwoLevelFactor(2, 0, 1, u)]
    left, work = [], u.copy()
    for c in range(d - 2):
        for r in range(c + 1, d):
            a, b = work[c, c], work[r, c]
            if abs(b) <= IDENTITY_TOL:
                continue
            n = np.hypot(abs(a), abs(b))
            left.append(TwoLevelFactor(d, c, r, np.array([[np.conj(a), np.conj(b)], [b, -a]]) / n))
            work = embedded(left[-1]) @ work
        pivot = work[c, c]
        if abs(pivot - 1.0) > IDENTITY_TOL:
            block = np.array([[np.conj(pivot), 0.0], [0.0, 1.0]], dtype=complex)
            left.append(TwoLevelFactor(d, c, c + 1, block))
            work = embedded(left[-1]) @ work
    factors = [TwoLevelFactor(f.dim, f.i, f.j, f.block.conj().T) for f in left]
    factors.append(TwoLevelFactor(d, d - 2, d - 1, work[d - 2:, d - 2:]))
    return [f for f in factors if not f.is_identity()]


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_two_level_factors_are_bit_identical_to_the_dense_product_loop(d):
    rng = np.random.default_rng(1700 + d)
    for _ in range(20):
        u = haar_unitary(rng, d)
        got, want = two_level_decompose(u), dense_product_factors(u)
        assert [(f.dim, f.i, f.j) for f in got] == [(f.dim, f.i, f.j) for f in want]
        assert all(f.block.tobytes() == g.block.tobytes() for f, g in zip(got, want))


# --- the base net against a frozen word-by-word build --------------------------


def reference_key(su2: np.ndarray) -> bytes:
    """The canonical key one matrix at a time: the sign of the first
    component above 1e-9 (real part, then imaginary part) is made
    positive, then the entries are rounded to 7 decimals."""
    flat = su2.reshape(-1)
    sign = 1.0
    for z in flat:
        if abs(z.real) > 1e-9:
            sign = np.sign(z.real)
            break
        if abs(z.imag) > 1e-9:
            sign = np.sign(z.imag)
            break
    return (np.round(sign * flat, 7) + 0.0).tobytes()


def reference_net(alphabet: dict, max_word_length: int, samples: int = 500, seed: int = 2024):
    """(words, matrices, eps0) of the base net built one word at a time."""
    canon = {name: strip_phase(np.asarray(m, dtype=complex)) for name, m in alphabet.items()}
    words, mats = [()], [np.eye(2, dtype=complex)]
    seen = {reference_key(mats[0])}
    frontier = [((), mats[0])]
    for _ in range(max_word_length):
        new_frontier = []
        for word, mat in frontier:
            for name, gm in canon.items():
                m2 = strip_phase(gm @ mat)
                key = reference_key(m2)
                if key in seen:
                    continue
                seen.add(key)
                words.append(word + (name,))
                mats.append(m2)
                new_frontier.append((word + (name,), m2))
        if not new_frontier:
            break
        frontier = new_frontier
    matrices = np.stack(mats)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        target = strip_phase(q @ np.diag(np.diag(r) / np.abs(np.diag(r))))
        nearest = int(np.argmax(np.abs(np.einsum("nij,ij->n", matrices.conj(), target))))
        worst = max(worst, phase_dist(matrices[nearest], target))
    return words, matrices, worst


def default_letters() -> dict:
    return GateSet.default().single_qubit()


def closing_letters() -> dict:
    return {name: GateSet.default()[name] for name in ("H", "S", "Sdg", "X")}


@pytest.mark.parametrize("letters, length, size", [
    (default_letters, 10, 1120),
    (closing_letters, 10, 24),  # the Clifford group mod phase closes at 24: the BFS stops early
    (default_letters, 0, 1),
    (default_letters, 1, 7),
    (default_letters, 3, None),
])
def test_the_net_equals_the_word_by_word_build(letters, length, size):
    words, matrices, eps0 = reference_net(letters(), length)
    net = build_net(letters(), length)
    assert net.words == words
    assert net.matrices.tobytes() == matrices.tobytes()
    assert net.eps0 == eps0
    assert size is None or net.size == size


def random_su2(rng: np.random.Generator, count: int) -> np.ndarray:
    return np.stack([strip_phase(haar_unitary(rng, 2)) for _ in range(count)])


def test_the_batched_key_is_the_one_matrix_key_row_by_row(rng):
    near = np.array([0.0, -0.0, 1e-9, -1e-9, 1.0000001e-9, -1.0000001e-9, 0.3, -0.3])
    # every 2x2 complex matrix with components drawn from `near`, sampled
    parts = near[rng.integers(len(near), size=(300, 8))]
    edge = parts.view(complex).reshape(300, 2, 2)
    stack = np.concatenate([random_su2(rng, 200), -random_su2(rng, 50), edge])
    keys = _canonical_keys(stack)
    assert len(keys) == len(stack)
    for m, key in zip(stack, keys):
        assert key == reference_key(m) == _canonical_key(m)


def test_signed_zeros_share_one_key():
    zero = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    flipped = np.array([[complex(-0.0, -0.0), 1.0], [-1.0, complex(0.0, -0.0)]])
    assert _canonical_key(zero) == _canonical_key(flipped) == reference_key(flipped)


# --- shared gate matrices cannot be changed ------------------------------------------


def test_a_synthesized_op_cannot_change_the_next_synthesis():
    u = gates.H @ np.diag([1, np.exp(0.3j)])
    before = synthesize(u, epsilon=1e-2)
    with pytest.raises(ValueError):
        before.ops[0].matrix[:] = 0
    after = synthesize(u, epsilon=1e-2)
    assert names(after) == names(before) and after.eps_total == before.eps_total
    assert phase_dist(reconstruct(after, 1), u) <= after.eps_total + 1e-12


def test_shared_gate_matrices_are_read_only():
    net = default_net()
    shared = [gates.H, gates.X, gates.Z, gates.I2, gates.S, gates.SDG, gates.T, gates.TDG,
              gates.CNOT, gates.SWAP, net.matrices, *net.alphabet.values()]
    assert not any(m.flags.writeable for m in shared)
    cnots = [op.matrix for op in controlled_ops(gates.H, 0, 1) if op.name == "CNOT"]
    assert cnots and not any(m.flags.writeable for m in cnots)
