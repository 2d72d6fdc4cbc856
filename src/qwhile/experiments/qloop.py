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

import numpy as np

from ..core.linalg import partial_trace
from ..core.types import DensityOperator, Ket, SuperOperator
from ..core import ops
from ..engine import DistributionResult, PreparedProgram, ShotStats, prepare, run_distribution, run_shots
from ..lang import parse

_SQ2 = np.sqrt(2.0)


def qloop_channel() -> SuperOperator:
    e0 = np.array([[1, 0], [0, 1 / _SQ2]], dtype=complex)
    e1 = np.array([[0, 1 / _SQ2], [0, 0]], dtype=complex)
    return SuperOperator([e0, e1], name="qloop")


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


@dataclass
class QloopAnalytic:
    rho_after_channel: np.ndarray      # reduced state of the work qubit
    terminal_reduced: list[tuple[float, np.ndarray]]
    residual: float
    distribution: DistributionResult


def qloop_analytic(mass_threshold: float = 1e-9) -> QloopAnalytic:
    """Distribution-mode run; states are reduced onto the work qubit."""
    source = qloop_source()
    # Prefix program: everything up to (not including) the loop.
    prefix_src = source[:source.index("while")] + "\n"
    prefix = run_distribution(parse(prefix_src))
    assert len(prefix.terminals) == 1 and abs(prefix.total_weight() - 1.0) < 1e-12
    rho1 = partial_trace(prefix.terminals[0][1].matrix, (0,), 2)

    dist = run_distribution(parse(source), mass_threshold=mass_threshold)
    reduced = [(w, partial_trace(s.matrix, (0,), 2)) for w, s in dist.terminals]
    return QloopAnalytic(rho1, reduced, dist.residual, dist)


def qloop_channel_output() -> DensityOperator:
    """Direct channel application, independent of the dilated program."""
    return ops.apply_superoperator(Ket([1, 1]).to_density(), qloop_channel())
