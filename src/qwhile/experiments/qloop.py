"""Qloop: a channel feeding a measured while-loop.

The program prepares |+>, sends it through the decaying channel
{E0 = |0><0| + |1><1|/sqrt2, E1 = |0><1|/sqrt2}, then repeatedly
measures in the computational basis, applying H and re-entering the
loop on outcome 1. A quarter of the shots enter the loop at least once
and the circle-count histogram halves geometrically.

In the `.qw` source the channel appears as its unitary dilation against
a fresh ancilla (the language has no channel statement); after the
dilation the reduced state on the work qubit equals the channel output
exactly, and the ancilla is never touched again.
"""
from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from ..engine import PreparedProgram, ShotStats, prepare, run_shots
from ..lang import parse


def qloop_source() -> str:
    return resources.files(__package__).joinpath("programs/qloop.qw").read_text()


def qloop_program() -> PreparedProgram:
    return prepare(parse(qloop_source()))


@dataclass
class QloopResult:
    shots: int
    seed: int
    shots_entering: int        # shots whose loop body ran at least once
    total_entries: int         # loop-body entries summed over shots
    circle_histogram: dict[int, int]   # k circles -> #shots (k >= 1)
    stats: ShotStats

    def ratio(self, k: int) -> float:
        """count(k+1 circles) / count(k circles)."""
        return self.circle_histogram.get(k + 1, 0) / self.circle_histogram[k]

    def to_json_dict(self) -> dict:
        return {
            "shots": self.shots,
            "seed": self.seed,
            "shots_entering": self.shots_entering,
            "total_entries": self.total_entries,
            "circles": dict(sorted(self.circle_histogram.items())),
        }


def qloop_run(shots: int = 100_000, seed: int = 0) -> QloopResult:
    plan = qloop_program()
    stats = run_shots(plan, shots, seed)
    site = plan.loop_sites()[0]
    hist = {k: c for k, c in sorted(stats.loop_histogram[site].items()) if k >= 1}
    return QloopResult(
        shots=shots,
        seed=seed,
        shots_entering=stats.shots_entering(site),
        total_entries=stats.total_entries(site),
        circle_histogram=hist,
        stats=stats,
    )
