"""Pseudo-random measurement sampling.

Outcome selection follows a five-step procedure: compute the probability
vector; short-circuit to a certain outcome (no draw consumed) when some
p_i = 1, discarding zero-probability indices; accumulate the remaining
probabilities; draw x uniform on (0,1); pick the first index whose
cumulative bound reaches x (first index when x falls below the first
bound, last when it exceeds the second-to-last).

`Outcomes(p)` prepares the steps that do not depend on x once: it checks
p, finds the certain outcome or the kept indices and their cumulative
bounds, and its `sample(rng)` does the draw and the search. A caller that
samples one vector many times (BB84 samples 8 per channel) prepares it
once; `sample_outcome` prepares and samples in one call.

Reproducibility contract: the same seed and the same draw sequence give
identical outputs. Multi-shot runs derive per-shot seeds with the
splitmix64 mix, so shot k of seed s is the same everywhere. A seed is a
64-bit word: `SamplerState` and `splitmix64` refuse one outside
[0, 2**64) with InvalidSeed rather than run the stream of the seed it
aliases. `draws(m)` returns the next m draws of the stream as one array,
computed from the counter in uint64 arithmetic: the same bits, and the
same counter and `draw_count` afterwards, as m calls of `draw()`. When
a block meets the excluded point 0 (probability 2**-53 per draw), it is
taken by m calls of `draw()` instead, which skip it as the scalar stream
does.
"""
from __future__ import annotations

from itertools import accumulate

import numpy as np

from ..errors import InvalidSeed, MalformedDistribution

PROB_FLOOR = 1e-12   # below this a probability counts as zero
PROB_CEIL = 1.0 - 1e-12  # above this a probability counts as one

# splitmix64's increment and multipliers as 0-d uint64 arrays for `draws`:
# uint64 arrays wrap silently, as the masks of `draw` do, where numpy
# scalars would warn on overflow
_GAMMA, _MIX1, _MIX2 = (np.array(c, dtype=np.uint64)
                        for c in (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB))


def _checked(seed: int) -> int:
    seed = int(seed)
    if not 0 <= seed <= 0xFFFFFFFFFFFFFFFF:
        raise InvalidSeed(f"seed must be in [0, 2**64), got {seed}")
    return seed


def splitmix64(seed: int, k: int) -> int:
    """Derive the k-th child seed of `seed` (64-bit splitmix finalizer)."""
    z = (_checked(seed) + (k + 1) * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return z ^ (z >> 31)


class SamplerState:
    """Seeded uniform source on the open interval (0,1).

    Backed by a splitmix64 counter stream: cheap to fork, identical
    across platforms, and fully determined by the 64-bit seed.
    """

    __slots__ = ("seed", "_state", "draw_count")

    def __init__(self, seed: int):
        self.seed = _checked(seed)
        self._state = self.seed
        self.draw_count = 0

    def draw(self) -> float:
        self.draw_count += 1
        while True:
            self._state = (self._state + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
            z = self._state
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
            z ^= z >> 31
            x = (z >> 11) * 2.0**-53
            if x > 0.0:  # exclude the single point 0 of [0,1)
                return x

    def draws(self, m: int) -> np.ndarray:
        """The next m draws as a float64 array, bit for bit those of m
        `draw()` calls, leaving the counter and `draw_count` as they would."""
        z = np.arange(1, m + 1, dtype=np.uint64)
        z *= _GAMMA
        z += np.array(self._state, dtype=np.uint64)
        z ^= z >> 30
        z *= _MIX1
        z ^= z >> 27
        z *= _MIX2
        z ^= z >> 31
        z >>= 11
        if not z.all():  # the excluded point: let draw() skip it
            return np.array([self.draw() for _ in range(m)], dtype=float)
        self._state = (self._state + m * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        self.draw_count += m
        return z.astype(float) * 2.0**-53

    def child(self, k: int) -> "SamplerState":
        return SamplerState(splitmix64(self.seed, k))


class Outcomes:
    """A probability vector prepared for sampling: checked once, then
    either a certain outcome (p_i >= PROB_CEIL; no draw consumed) or the
    indices above PROB_FLOOR with their cumulative bounds."""

    __slots__ = ("certain", "kept", "bounds")

    def __init__(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim != 1 or p.size == 0:
            raise MalformedDistribution(f"expected a probability vector, got shape {p.shape}")
        if float(p.min()) < -PROB_FLOOR:
            raise MalformedDistribution(f"negative probability {p.min():.3e}")
        total = float(p.sum())
        if abs(total - 1.0) > 1e-9:
            raise MalformedDistribution(f"probabilities sum to {total}, expected 1")

        # Python floats from here: most measured vectors are short, where a
        # numpy call costs more than the work; running sums in index order
        # are the floats np.cumsum gives
        values = p.tolist()
        for i, v in enumerate(values):
            if v >= PROB_CEIL:
                self.certain, self.kept, self.bounds = i, (), ()
                return
        self.certain = None
        self.kept = tuple(i for i, v in enumerate(values) if v > PROB_FLOOR)
        self.bounds = tuple(accumulate(values[i] for i in self.kept))

    def sample(self, rng: SamplerState) -> int:
        """The certain outcome, else the first kept index whose bound
        reaches a fresh draw x (the last kept index when x is beyond
        every bound, which float slack allows)."""
        if self.certain is not None:
            return self.certain
        x = rng.draw()
        for i, bound in zip(self.kept, self.bounds):
            if bound >= x:
                return i
        return self.kept[-1]


def sample_outcome(p, rng: SamplerState) -> int:
    """Sample an outcome index from probability vector p.

    Zero-probability indices are never returned; a certain outcome is
    returned without consuming a random draw.
    """
    return Outcomes(p).sample(rng)
