"""Host speed, measured between operations and used to scale their times.

The machine this benchmark was written on (a 2-vCPU Intel Xeon VM)
changes speed by up to 1.7x in phases of seconds to over a minute, in
CPU time as well as wall time, so whole runs can land in a slow phase.
A fixed loop of tiny numpy operations, the kind of work that dominates
the workloads, slows down with the host: timed between operations,
averaged over windows of a few operations, it removed most of that
variation (coefficient of variation 0.15-0.17 down to 0.04-0.05 on
qloop, bb84 and synth).

A scaled time is the raw time times REFERENCE_S over the reference time
measured around it: the time the operation would take on a host where
the reference loop takes REFERENCE_S.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 0.055   # median reference time on the VM the benchmark was written on
INTERVAL_S = 0.5      # least wall time between two reference timings

_M = np.array([[0.6, 0.8], [0.8, -0.6]], dtype=complex)


def reference_seconds() -> float:
    """Time of 3000 rounds of a 2x2 sandwich, a trace, a cumulative sum
    and a search."""
    rho = np.eye(2, dtype=complex) / 2
    start = perf_counter()
    for _ in range(3000):
        rho = _M @ rho @ _M.conj().T
        p = np.einsum("ij,ji->", _M, rho).real
        np.searchsorted(np.cumsum([p, 1.0 - p]), 0.3)
    return perf_counter() - start


class HostSpeed:
    """Reference timings taken between operations 0, 1, 2, ..."""

    def __init__(self) -> None:
        self.points: list[tuple[int, float]] = []   # (operations before it, seconds)
        self._last = 0.0
        self.sample(0)

    def sample(self, done: int) -> None:
        self.points.append((done, reference_seconds()))
        self._last = perf_counter()

    def after_op(self, done: int) -> None:
        """Call after each operation; samples at most every INTERVAL_S."""
        if perf_counter() - self._last >= INTERVAL_S:
            self.sample(done)

    def finish(self, done: int) -> None:
        if self.points[-1][0] != done:
            self.sample(done)

    def scale(self, i: int) -> float:
        """REFERENCE_S over the mean of the reference timings just before
        and just after operation i."""
        before = [r for done, r in self.points if done <= i][-1]
        after = next(r for done, r in self.points if done > i)
        return REFERENCE_S / ((before + after) / 2.0)

    def median(self) -> float:
        return statistics.median(r for _, r in self.points)
