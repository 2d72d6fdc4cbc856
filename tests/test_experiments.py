"""BB84: pinned seeded output, and sifted-bit error rates against the
channels' analytic values. Grover: the success rate against its analytic
value, and the second round after a wrong find."""
import math

import pytest

import qwhile.cli
from qwhile.engine.sampler import splitmix64
from qwhile.experiments import (
    BB84Session, GroverSpec, bb84_run, degradation_probe, grover_run, paper_channels,
    success_probability,
)

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


def test_grover_degrades_after_a_wrong_index():
    after_correct, after_wrong = degradation_probe(GroverSpec(5, (3, 17)), 0)
    assert after_wrong < after_correct
