"""BB84: pinned seeded output, transcripts against a frozen per-qubit
simulation, and sifted-bit error rates against the channels' analytic
values. Grover: the success rate against its analytic value, its
iterations against the dense matrix product, and the second round after
a wrong find."""
import math

import numpy as np
import pytest

import qwhile.cli
import qwhile.experiments.bb84
from qwhile.core.types import PLUS_MINUS, SuperOperator
from qwhile.engine.sampler import Outcomes, SamplerState, splitmix64
from qwhile.errors import DimMismatch, IncompleteMeasurement, InvalidTarget
from qwhile.experiments import (
    BB84Session, BB84Transcript, GroverSpec, bb84_channel_sweep, bb84_multi_client, bb84_run,
    degradation_probe, grover_run, grover_source, paper_channels, success_probability,
    sweep_csv,
)
from qwhile.experiments.bb84 import _table, outcome_table
from qwhile.experiments.grover import _iterate

from test_engine import PHI, reference_sample_outcome

# Error rate of a sifted bit, worked out by hand from each channel's Kraus
# operators; Alice's and Bob's common basis is Z or X with probability 1/2.
#  bit flip p:  X with probability 1-p flips Z-basis bits only.
#  depolarizing 1/2:  X, Y, Z each with probability 1/8; two of them flip
#    each basis.
#  amplitude damping 1/2:  |1> decays to |0> with probability 1/2; |+> and
#    |-> keep coherence 1/sqrt(2), so an X-basis bit flips with
#    probability (1 - 1/sqrt(2))/2.
SIFTED_ERROR_RATE = {
    "identity": 0.0,
    "bit_flip_p025": (1 - 0.25) / 2,
    "bit_flip_p05": (1 - 0.5) / 2,
    "bit_flip_p075": (1 - 0.75) / 2,
    "depolarizing_p05": 1 / 4,
    "amplitude_damping_g05": (1 / 4 + (1 - 1 / math.sqrt(2)) / 2) / 2,
}

SWEEP_SEED_3 = """channel,raw_key_length,sampling_fraction,sessions,successes
identity,16,0.2,2,2
identity,16,0.5,2,2
identity,32,0.2,2,2
identity,32,0.5,2,2
identity,64,0.2,2,2
identity,64,0.5,2,2
bit_flip_p025,16,0.2,2,1
bit_flip_p025,16,0.5,2,1
bit_flip_p025,32,0.2,2,0
bit_flip_p025,32,0.5,2,0
bit_flip_p025,64,0.2,2,0
bit_flip_p025,64,0.5,2,0
bit_flip_p05,16,0.2,2,1
bit_flip_p05,16,0.5,2,1
bit_flip_p05,32,0.2,2,1
bit_flip_p05,32,0.5,2,0
bit_flip_p05,64,0.2,2,0
bit_flip_p05,64,0.5,2,0
bit_flip_p075,16,0.2,2,2
bit_flip_p075,16,0.5,2,1
bit_flip_p075,32,0.2,2,1
bit_flip_p075,32,0.5,2,0
bit_flip_p075,64,0.2,2,1
bit_flip_p075,64,0.5,2,0
depolarizing_p05,16,0.2,2,1
depolarizing_p05,16,0.5,2,1
depolarizing_p05,32,0.2,2,1
depolarizing_p05,32,0.5,2,0
depolarizing_p05,64,0.2,2,0
depolarizing_p05,64,0.5,2,0
amplitude_damping_g05,16,0.2,2,2
amplitude_damping_g05,16,0.5,2,1
amplitude_damping_g05,32,0.2,2,1
amplitude_damping_g05,32,0.5,2,1
amplitude_damping_g05,64,0.2,2,0
amplitude_damping_g05,64,0.5,2,0
"""


def cli_output(capsys, *argv) -> str:
    assert qwhile.cli.main(list(argv)) == 0
    return capsys.readouterr().out


def test_bb84_output_pinned(capsys):
    out = cli_output(capsys, "experiment", "bb84", "--sessions", "5", "--n", "64",
                     "--channel", "depolarizing_p05", "--seed", "3")
    assert out == ('{\n  "channel": "depolarizing_p05",\n  "fraction": 0.2,\n  "n": 64,\n'
                   '  "seed": 3,\n  "sessions": 5,\n  "successes": 2\n}\n')


def test_bb84_sweep_output_pinned(capsys):
    out = cli_output(capsys, "experiment", "bb84-sweep", "--sessions", "2", "--seed", "3")
    assert out == SWEEP_SEED_3


_REFERENCE_KETS = {
    (0, 0): np.array([1, 0], dtype=complex),
    (0, 1): np.array([0, 1], dtype=complex),
    (1, 0): np.array([1, 1], dtype=complex) / np.sqrt(2.0),
    (1, 1): np.array([1, -1], dtype=complex) / np.sqrt(2.0),
}
_REFERENCE_BASES = {0: (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])), 1: PLUS_MINUS}


def reference_probabilities(amplitudes: np.ndarray, kraus, bob_basis: int) -> np.ndarray:
    """Bob's probabilities written out densely: p_b = tr(M_b† M_b rho)
    with rho = sum_i E_i a a† E_i†, clipped at 0 and divided by their sum."""
    a = np.outer(amplitudes, amplitudes.conj())
    rho = sum(e @ a @ e.conj().T for e in kraus)
    p = np.clip([np.einsum("ij,ji->", m.conj().T @ m, rho).real
                 for m in _REFERENCE_BASES[bob_basis]], 0.0, None)
    return p / p.sum()


def reference_bb84_run(session: BB84Session) -> BB84Transcript:
    """`bb84_run` as it was before the outcome table: every qubit built,
    sent through the channel, measured and sampled on its own."""
    n = session.raw_key_length
    alice = SamplerState(splitmix64(session.seed, 1))
    bob = SamplerState(splitmix64(session.seed, 2))
    quantum = SamplerState(splitmix64(session.seed, 3))

    def bits(rng, k):
        return [1 if rng.draw() >= 0.5 else 0 for _ in range(k)]

    raw_key = bits(alice, n)
    alice_bases = bits(alice, n)
    bob_bases = bits(bob, n)

    bob_results = []
    for i in range(n):
        p = reference_probabilities(_REFERENCE_KETS[(alice_bases[i], raw_key[i])],
                                    session.channel.kraus, bob_bases[i])
        bob_results.append(reference_sample_outcome(p, quantum))

    agreement = [1 if alice_bases[i] == bob_bases[i] else 0 for i in range(n)]
    alice_key = [raw_key[i] for i in range(n) if agreement[i]]
    bob_key = [bob_results[i] for i in range(n) if agreement[i]]
    keys_match = alice_key == bob_key

    sample_positions = []
    verdict = keys_match
    if session.sampling_fraction is not None and alice_key:
        k = math.ceil(session.sampling_fraction * len(alice_key))
        pool = list(range(len(alice_key)))
        for _ in range(k):
            idx = int(alice.draw() * len(pool))
            idx = min(idx, len(pool) - 1)
            sample_positions.append(pool.pop(idx))
        sample_positions.sort()
        verdict = all(alice_key[i] == bob_key[i] for i in sample_positions)

    return BB84Transcript(raw_key, alice_bases, bob_bases, bob_results, agreement,
                          alice_key, bob_key, sample_positions, keys_match, verdict)


def splitmix64_preimage(child: int, k: int) -> int:
    """The seed s with splitmix64(s, k) == child: the finalizer undone
    step by step, each xorshift by its own series and each multiplier by
    its inverse mod 2**64."""
    z = child
    z ^= (z >> 31) ^ (z >> 62)
    z = z * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z ^= (z >> 27) ^ (z >> 54)
    z = z * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    z ^= (z >> 30) ^ (z >> 60)
    return (z - (k + 1) * PHI) % 2**64


def test_the_preimage_inverts_splitmix64():
    for seed in (0, 1, 2**64 - 1, 12345678901234567):
        for k in (0, 1, 7):
            assert splitmix64_preimage(splitmix64(seed, k), k) == seed
    assert (splitmix64(EXCLUDED_POINT_SEED, 1) + 10 * PHI) % 2**64 == 0


# a session whose Alice stream reaches counter 0, the excluded point, at
# her 10th draw: inside the 2n block of her raw key and bases
EXCLUDED_POINT_SEED = splitmix64_preimage((-10 * PHI) % 2**64, 1)


@pytest.mark.parametrize("name", sorted(SIFTED_ERROR_RATE))
def test_transcripts_equal_the_per_qubit_simulation(name):
    channel = paper_channels()[name]
    for fraction in (None, 0.2, 0.5):
        sessions = [BB84Session(length, channel, fraction, seed=splitmix64(29, length))
                    for length in range(1, 71)]  # one seed per length
        sessions += [BB84Session(length, channel, fraction, seed=splitmix64(37, 5 * length + k))
                     for length in (1, 7, 64, 1024) for k in range(5)]
        sessions.append(BB84Session(64, channel, fraction, seed=EXCLUDED_POINT_SEED))
        for session in sessions:
            got = bb84_run(session)
            assert got == reference_bb84_run(session), (fraction, session.raw_key_length)
            assert all(type(b) is int for b in got.bob_results)


def test_sweep_and_clients_equal_the_per_qubit_simulation(monkeypatch):
    csv = sweep_csv(bb84_channel_sweep(sessions=4, seed=17))
    clients = bb84_multi_client(4, 40, seed=17, channel=paper_channels()["depolarizing_p05"],
                                sampling_fraction=0.5)
    monkeypatch.setattr(qwhile.experiments.bb84, "bb84_run", reference_bb84_run)
    assert csv == sweep_csv(bb84_channel_sweep(sessions=4, seed=17))
    assert clients == bb84_multi_client(4, 40, seed=17,
                                        channel=paper_channels()["depolarizing_p05"],
                                        sampling_fraction=0.5)


def test_outcome_tables_follow_the_kraus_values_not_the_object():
    first, second = paper_channels(), paper_channels()
    assert first["bit_flip_p05"] is not second["bit_flip_p05"]
    assert outcome_table(first["bit_flip_p05"]) is outcome_table(second["bit_flip_p05"])
    assert outcome_table(first["bit_flip_p05"]) is not outcome_table(first["bit_flip_p025"])
    custom = SuperOperator([np.sqrt(0.5) * np.eye(2), np.sqrt(0.5) * np.array([[0, 1], [1, 0]])])
    assert outcome_table(custom) is outcome_table(first["bit_flip_p05"])
    with pytest.raises(TypeError):
        outcome_table(custom)[0, 0, 0] = None
    for outcomes in outcome_table(custom).values():
        with pytest.raises(TypeError):
            outcomes.bounds[0] = 0.0
        with pytest.raises(TypeError):
            outcomes.kept[0] = 0
    for name in ("certain", "first", "last", "bound"):
        array = getattr(_table(custom), name)
        assert array is getattr(_table(first["bit_flip_p05"]), name)
        with pytest.raises(ValueError):
            array[0] = 0


def test_a_channel_keeps_its_kraus_operators_when_the_caller_writes_to_them():
    k0 = np.sqrt(0.5) * np.eye(2, dtype=complex)
    k1 = np.sqrt(0.5) * np.array([[0, 1], [1, 0]], dtype=complex)
    channel = SuperOperator([k0, k1])
    sessions = [BB84Session(64, channel, 0.5, seed=splitmix64(31, k)) for k in range(5)]
    before = [bb84_run(s) for s in sessions]
    k0[:] = np.eye(2)
    k1[:] = 0.0
    assert [bb84_run(s) for s in sessions] == before
    copies = channel.kraus
    assert all(e.flags.writeable for e in copies)
    copies[0][:] = 0.0
    np.testing.assert_array_equal(channel.kraus[0], np.sqrt(0.5) * np.eye(2))


@pytest.mark.parametrize("name", sorted(SIFTED_ERROR_RATE))
def test_tables_are_the_dense_formula_within_rounding(name):
    # the kernels sum the same products in another order: every prepared
    # table keeps the reference's certain and kept outcomes, and its bounds
    # lie within 2**-53 (one ulp of a probability in [1/2, 1])
    channel = paper_channels()[name]
    table = outcome_table(channel)
    assert len(table) == 8
    for (basis, bit, bob_basis), got in table.items():
        want = Outcomes(reference_probabilities(_REFERENCE_KETS[basis, bit], channel.kraus,
                                                bob_basis))
        assert (got.certain, got.kept) == (want.certain, want.kept)
        assert np.abs(np.subtract(got.bounds, want.bounds)).max(initial=0.0) <= 2.0**-53


@pytest.mark.parametrize("channel, error, message", [
    # on |0>, E = I/2 leaves probabilities that sum to 1/4
    (SuperOperator([0.5 * np.eye(2)]), IncompleteMeasurement, r"sum to 0\.25\b"),
    (SuperOperator.identity(4), DimMismatch, r"^channel dim 4 != state dim 2$"),
], ids=["loses_trace", "two_qubits"])
def test_a_channel_that_cannot_carry_a_qubit_is_refused(channel, error, message):
    with pytest.raises(error, match=message):
        bb84_run(BB84Session(8, channel))


def test_every_session_over_the_identity_channel_agrees():
    channel = paper_channels()["identity"]
    for k in range(20):
        t = bb84_run(BB84Session(64, channel, 0.5, seed=splitmix64(11, k)))
        assert t.keys_match and t.verdict
        assert t.alice_key == t.bob_key


@pytest.mark.parametrize("name", sorted(SIFTED_ERROR_RATE))
def test_sifted_error_rate_matches_the_channel(name):
    channel = paper_channels()[name]
    errors = bits = 0
    for k in range(100):
        t = bb84_run(BB84Session(64, channel, seed=splitmix64(11, k)))
        errors += sum(a != b for a, b in zip(t.alice_key, t.bob_key))
        bits += t.sifted_length
    rate = SIFTED_ERROR_RATE[name]
    # every sifted bit errs independently with the same probability; at
    # this seed the z-scores run from -2.1 to +0.8
    sigma = math.sqrt(rate * (1 - rate) / bits)
    assert abs(errors / bits - rate) <= 4 * sigma


# --- Grover ---------------------------------------------------------------------------


def test_grover_success_rate_matches_the_analytic_value():
    spec = GroverSpec(5, (3, 17))
    p = success_probability(32, 2, 3)
    assert p == pytest.approx(0.9613, abs=1e-4)
    runs = 400
    correct = 0
    for seed in range(runs):
        (round_,) = grover_run(spec, "single", seed).rounds
        assert round_.oracle_calls == 3
        assert round_.success_probability == pytest.approx(p, abs=1e-12)
        correct += round_.correct
    # each seeded round succeeds independently with probability p
    assert abs(correct / runs - p) <= 4 * math.sqrt(p * (1 - p) / runs)


@pytest.mark.parametrize("n", range(1, 7))
def test_grover_iterations_are_the_dense_product(n, rng):
    # the oracle diag(+-1) and the diffusion 2|psi0><psi0| - I written out
    # as N x N matrices, applied round by round
    positions = 1 << n
    for flips in ((), (0,), tuple(sorted(rng.choice(positions, size=positions // 2,
                                                    replace=False)))):
        oracle = np.eye(positions, dtype=complex)
        for t in flips:
            oracle[t, t] = -1.0
        diffusion = np.full((positions, positions), 2.0 / positions) - np.eye(positions)
        psi = np.full(positions, positions ** -0.5, dtype=complex)
        for r in range(6):
            np.testing.assert_allclose(_iterate(positions, flips, r), psi, rtol=0, atol=1e-12)
            psi = diffusion @ (oracle @ psi)


def test_grover_degrades_after_a_wrong_index():
    after_correct, after_wrong = degradation_probe(GroverSpec(5, (3, 17)), 0)
    assert after_wrong < after_correct


@pytest.mark.parametrize("build", [lambda: GroverSpec(0, (0,)),
                                   lambda: grover_source(0, (0,)),
                                   lambda: grover_source(-1, (0,))])
def test_grover_refuses_fewer_than_one_qubit(build):
    with pytest.raises(InvalidTarget, match=r"^Grover search needs at least one qubit, got -?\d+$"):
        build()
