"""BB84 key distribution: simple, multi-client, and noisy-channel runs.

One session walks the full protocol: Alice draws a raw key and a basis
string; encodes bit b in basis 0 as |b> and in basis 1 as |+>/|->;
each ket crosses the channel as a density operator; Bob measures in his
own random basis; bases are broadcast and both sides sift positions
where they agree; a global comparison records whether the sifted keys
match. With a sampling fraction s, Alice additionally reveals
ceil(s * L) random sifted positions and the session verdict is success
iff every revealed bit matches (the noisy-channel check).

A qubit is one of 4 prepared kets measured in one of 2 bases, so a
channel gives Bob just 8 outcome distributions. `outcome_table` computes
them once per channel value with the engine's own kernels: the channel's
output on ket a is the factor V = [E_0 a | E_1 a | ...] (rho = V V†, the
form the engine holds states in, so no dense rho is built), and Bob's
probabilities are `probabilities(V)` of the measurement site the engine
builds for his basis on one qubit. Each probability is within 2^-53 of
the dense formula tr(M_b rho) with rho = sum_i E_i a a† E_i† (the same
sums, rounded in another order). The 8 vectors are prepared as
`Outcomes`, and from them per-entry arrays indexed by 4a + 2b + c (Alice's
basis a, her bit b, Bob's basis c): the certain outcome or -1, the first
and last kept index, and the first cumulative bound. Tables and arrays
are cached by the bytes of the channel's Kraus operators, never by
object identity.

A session draws in blocks (`SamplerState.draws`): Alice's raw key and
then her bases as one block of 2n draws, Bob's bases as one block of n,
a bit being 1 when its draw is >= 1/2. The quantum stream gives one draw
to each qubit whose entry is not certain, in qubit order, so the i-th
such qubit takes the stream's i-th draw x; with 2 outcomes, x <= the
first bound gives the first kept index and any other x the last. The
sampling check then continues Alice's stream after her 2n draws. These
are the draws and outcomes of sampling every qubit's `Outcomes` in turn,
so transcripts are those of simulating every qubit on its own.

A channel that loses trace on any of the 4 kets is refused with
IncompleteMeasurement when its table is built, whichever kets a session
sends.

Channels ship with the exact Kraus families used in the sweep:
bit flip for p in {0.25, 0.5, 0.75} ({sqrt(p) I, sqrt(1-p) X}; larger p
keeps more information), depolarizing p = 0.5, amplitude damping
gamma = 0.5, and the identity.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ..core.kernels import site_kernel
from ..core.types import PLUS_MINUS, SuperOperator
from ..engine.sampler import Outcomes, SamplerState, splitmix64
from ..errors import DimMismatch, QwhileError

_SQ2 = np.sqrt(2.0)
_KETS = {
    (0, 0): np.array([1, 0], dtype=complex),          # |0>
    (0, 1): np.array([0, 1], dtype=complex),          # |1>
    (1, 0): np.array([1, 1], dtype=complex) / _SQ2,   # |+>
    (1, 1): np.array([1, -1], dtype=complex) / _SQ2,  # |->
}


def paper_channels() -> dict[str, SuperOperator]:
    s8 = np.sqrt(8.0)
    depolarizing = SuperOperator([
        np.array([[np.sqrt(5.0) / s8, 0], [0, np.sqrt(5.0) / s8]]),
        np.array([[0, 1 / s8], [1 / s8, 0]]),
        np.array([[0, -1j / s8], [1j / s8, 0]]),
        np.array([[1 / s8, 0], [0, -1 / s8]]),
    ], name="depolarizing_p05")
    amplitude_damping = SuperOperator([
        np.array([[1, 0], [0, 1 / _SQ2]]),
        np.array([[0, 1 / _SQ2], [0, 0]]),
    ], name="amplitude_damping_g05")

    def bit_flip(p: float, tag: str) -> SuperOperator:
        return SuperOperator([
            np.sqrt(p) * np.eye(2),
            np.sqrt(1.0 - p) * np.array([[0, 1], [1, 0]]),
        ], name=f"bit_flip_p{tag}")

    return {
        "identity": SuperOperator.identity(2),
        "bit_flip_p025": bit_flip(0.25, "025"),
        "bit_flip_p05": bit_flip(0.5, "05"),
        "bit_flip_p075": bit_flip(0.75, "075"),
        "depolarizing_p05": depolarizing,
        "amplitude_damping_g05": amplitude_damping,
    }


@dataclass(frozen=True)
class BB84Session:
    raw_key_length: int = 1024
    channel: SuperOperator = field(default_factory=lambda: SuperOperator.identity(2))
    sampling_fraction: float | None = None   # None: no sampling check (simple case)
    seed: int = 0

    def __post_init__(self):
        if self.raw_key_length < 1:
            raise QwhileError("raw key length must be >= 1")
        if self.sampling_fraction is not None and not 0.0 < self.sampling_fraction < 1.0:
            raise QwhileError("sampling fraction must lie in (0, 1)")


@dataclass
class BB84Transcript:
    raw_key: list[int]
    alice_bases: list[int]
    bob_bases: list[int]
    bob_results: list[int]
    agreement: list[int]                 # 1 where bases coincided
    alice_key: list[int]
    bob_key: list[int]
    sample_positions: list[int]
    keys_match: bool                     # global (oracle) comparison
    verdict: bool                        # sampling-check verdict

    @property
    def sifted_length(self) -> int:
        return len(self.alice_key)


# Bob's measurement in each basis, as the engine's site on one qubit
_SITES = {0: site_kernel([np.diag(row) for row in np.eye(2)], (0,), 1),
          1: site_kernel(PLUS_MINUS, (0,), 1)}


class _Table(NamedTuple):
    """A channel's prepared outcomes, and read-only arrays over the
    entries 4a + 2b + c of its (a, b, c) keys."""
    outcomes: Mapping[tuple[int, int, int], Outcomes]
    certain: np.ndarray  # the certain outcome, or -1
    first: np.ndarray    # the first kept index (0 where certain, and unread)
    last: np.ndarray     # the last kept index (likewise)
    bound: np.ndarray    # the first kept index's cumulative bound (likewise)


def outcome_table(channel: SuperOperator) -> Mapping[tuple[int, int, int], Outcomes]:
    """Bob's outcome distribution for each (Alice's basis, bit, Bob's
    basis) after `channel`, cached by the channel's Kraus operators and
    shared read-only."""
    return _table(channel).outcomes


def _table(channel: SuperOperator) -> _Table:
    if channel.dim != 2:
        raise DimMismatch(f"channel dim {channel.dim} != state dim 2")
    return _outcome_table(tuple((e.dtype.str, e.shape, e.tobytes()) for e in channel.kraus))


def _frozen(values: list) -> np.ndarray:
    array = np.array(values)
    array.flags.writeable = False
    return array


@lru_cache(maxsize=32)
def _outcome_table(kraus: tuple[tuple[str, tuple[int, ...], bytes], ...]) -> _Table:
    operators = [np.frombuffer(data, dtype=dtype).reshape(shape) for dtype, shape, data in kraus]
    table = {}
    for (basis, bit), amplitudes in _KETS.items():
        received = np.column_stack([e @ amplitudes for e in operators])  # rho = V V†
        for bob_basis, site in _SITES.items():
            table[basis, bit, bob_basis] = Outcomes(site.probabilities(received))
    entries = [table[key] for key in sorted(table)]  # (a, b, c) in the order of 4a + 2b + c
    return _Table(MappingProxyType(table),
                  _frozen([-1 if o.certain is None else o.certain for o in entries]),
                  _frozen([o.kept[0] if o.kept else 0 for o in entries]),
                  _frozen([o.kept[-1] if o.kept else 0 for o in entries]),
                  _frozen([o.bounds[0] if o.bounds else 0.0 for o in entries]))


def bb84_run(session: BB84Session) -> BB84Transcript:
    """One full protocol session, deterministic for a given seed."""
    n = session.raw_key_length
    alice = SamplerState(splitmix64(session.seed, 1))
    bob = SamplerState(splitmix64(session.seed, 2))
    quantum = SamplerState(splitmix64(session.seed, 3))

    alice_bits = alice.draws(2 * n) >= 0.5
    key_bits, basis_bits = alice_bits[:n], alice_bits[n:]
    bob_bits = bob.draws(n) >= 0.5

    table = _table(session.channel)
    entry = 4 * basis_bits + 2 * key_bits + bob_bits
    results = table.certain[entry]
    drawn = np.flatnonzero(results < 0)  # one quantum draw each, in qubit order
    drawn_entry = entry[drawn]
    results[drawn] = np.where(quantum.draws(drawn.size) <= table.bound[drawn_entry],
                              table.first[drawn_entry], table.last[drawn_entry])

    raw_key = key_bits.astype(int).tolist()
    alice_bases = basis_bits.astype(int).tolist()
    bob_bases = bob_bits.astype(int).tolist()
    bob_results = results.tolist()

    agreement = [1 if alice_bases[i] == bob_bases[i] else 0 for i in range(n)]
    alice_key = [raw_key[i] for i in range(n) if agreement[i]]
    bob_key = [bob_results[i] for i in range(n) if agreement[i]]
    keys_match = alice_key == bob_key

    sample_positions: list[int] = []
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


def bb84_multi_client(clients: int, raw_key_length: int = 1024, seed: int = 0,
                      channel: SuperOperator | None = None,
                      sampling_fraction: float | None = None) -> list[BB84Transcript]:
    """One Alice against many Bobs; sessions are fully isolated and each
    client gets an independently derived seed."""
    if clients < 1:
        raise QwhileError("need at least one client")
    channel = channel or SuperOperator.identity(2)
    out = []
    for c in range(clients):
        session = BB84Session(raw_key_length, channel, sampling_fraction,
                              seed=splitmix64(seed, 1000 + c))
        out.append(bb84_run(session))
    return out


@dataclass
class SweepCell:
    channel: str
    raw_key_length: int
    sampling_fraction: float
    sessions: int
    successes: int


def bb84_channel_sweep(channels: dict[str, SuperOperator] | None = None,
                       lengths: tuple[int, ...] = (16, 32, 64),
                       fractions: tuple[float, ...] = (0.2, 0.5),
                       sessions: int = 100, seed: int = 0) -> list[SweepCell]:
    """Success counts per (channel, length, fraction) cell."""
    if sessions < 1:
        raise QwhileError(f"need at least one session, got {sessions}")
    channels = channels or paper_channels()
    cells: list[SweepCell] = []
    for ci, (name, chan) in enumerate(channels.items()):
        for li, length in enumerate(lengths):
            for fi, fraction in enumerate(fractions):
                wins = 0
                for s in range(sessions):
                    mix = splitmix64(seed, ((ci * 97 + li) * 89 + fi) * 100003 + s)
                    t = bb84_run(BB84Session(length, chan, fraction, seed=mix))
                    wins += 1 if t.verdict else 0
                cells.append(SweepCell(name, length, fraction, sessions, wins))
    return cells


def sweep_csv(cells: list[SweepCell]) -> str:
    lines = ["channel,raw_key_length,sampling_fraction,sessions,successes"]
    for c in cells:
        lines.append(f"{c.channel},{c.raw_key_length},{c.sampling_fraction},{c.sessions},{c.successes}")
    return "\n".join(lines) + "\n"
