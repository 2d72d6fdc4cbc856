"""Grover search over N = 2^n positions, single- and multi-object.

The oracle is the diagonal +-1 matrix with -1 exactly on the answer
positions; one iteration applies the oracle then the inversion about
the mean (2|psi0><psi0| - I). The iteration count per round is
floor((pi/4) sqrt(N/M)) (at least 1), where M is the number of answers
the algorithm still believes to be unfound.

Multi-object mode searches repeatedly: after each measurement the found
index goes into a blind box (another diagonal +-1 matrix over found
positions) that is composed with the oracle, cancelling that answer. A
wrong measured index poisons the blind box with a spurious answer,
which measurably lowers the following round's success probability; the
round trajectory records this degradation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.linalg import check_dim
from ..engine.sampler import SamplerState, sample_outcome
from ..errors import InvalidTarget
from ..lang.syntax import format_matrix


def oracle_matrix(n_positions: int, targets: tuple[int, ...]) -> np.ndarray:
    diag = np.ones(n_positions, dtype=complex)
    diag[list(targets)] = -1.0
    return np.diag(diag)


def diffusion_matrix(n_positions: int) -> np.ndarray:
    """Inversion about the uniform superposition: 2|psi0><psi0| - I."""
    full = np.full((n_positions, n_positions), 2.0 / n_positions, dtype=complex)
    return full - np.eye(n_positions)


def iteration_count(n_positions: int, believed_targets: int) -> int:
    if believed_targets < 1:
        raise InvalidTarget("no targets left to search for")
    return max(1, math.floor((math.pi / 4.0) * math.sqrt(n_positions / believed_targets)))


def success_probability(n_positions: int, n_targets: int, r: int) -> float:
    """sin^2((2r+1) theta / 2) with sin(theta) = 2 sqrt(M(N-M)) / N."""
    theta = 2.0 * math.asin(math.sqrt(n_targets / n_positions))
    return math.sin((2 * r + 1) * theta / 2.0) ** 2


@dataclass(frozen=True)
class GroverSpec:
    n_qubits: int
    targets: tuple[int, ...]
    r: int | None = None   # override the per-round default iteration count

    def __post_init__(self):
        if self.n_qubits < 1:
            raise InvalidTarget(f"Grover search needs at least one qubit, got {self.n_qubits}")
        check_dim(1 << self.n_qubits)
        n = 1 << self.n_qubits
        if not self.targets:
            raise InvalidTarget("target set must be nonempty")
        if len(set(self.targets)) != len(self.targets):
            raise InvalidTarget("duplicate targets")
        if any(not 0 <= t < n for t in self.targets):
            raise InvalidTarget(f"targets must lie in 0..{n - 1}")
        if len(self.targets) >= n:
            raise InvalidTarget("target set must be a strict subset of positions")

    @property
    def n_positions(self) -> int:
        return 1 << self.n_qubits


def _iterate(n_positions: int, effective_targets: tuple[int, ...], r: int) -> np.ndarray:
    """Statevector after r Grover iterations from the uniform start, on the
    vector: the oracle flips the sign on the effective targets, and the
    diffusion maps psi to 2 mean(psi) - psi, so no N x N matrix is built."""
    psi = np.full(n_positions, 1.0 / math.sqrt(n_positions), dtype=complex)
    flip = list(effective_targets)
    for _ in range(r):
        psi[flip] *= -1
        psi = 2 * psi.mean() - psi
    return psi


@dataclass
class GroverRound:
    oracle_calls: int
    distribution: np.ndarray          # pre-measurement probabilities
    measured: int
    correct: bool                     # measured index is a true, unfound target
    success_probability: float        # mass on true, unfound targets


@dataclass
class GroverResult:
    spec: GroverSpec
    rounds: list[GroverRound]
    found: list[int]                  # measured indices, in order
    oracle_calls_total: int

    @property
    def distribution(self) -> np.ndarray:
        return self.rounds[0].distribution

    @property
    def measured(self) -> int:
        return self.rounds[0].measured


def _run_round(spec: GroverSpec, blind: tuple[int, ...], believed_remaining: int,
               rng: SamplerState | None) -> GroverRound:
    n = spec.n_positions
    # Composing the oracle with the blind box flips the sign back on every
    # found (or believed-found) position: effective answers = symmetric diff.
    effective = tuple(sorted(set(spec.targets) ^ set(blind)))
    r = spec.r if spec.r is not None else iteration_count(n, believed_remaining)
    psi = _iterate(n, effective, r)
    dist = np.abs(psi) ** 2
    dist = dist / dist.sum()
    remaining_true = [t for t in spec.targets if t not in blind]
    p_success = float(sum(dist[t] for t in remaining_true))
    measured = sample_outcome(dist, rng) if rng is not None else int(np.argmax(dist))
    return GroverRound(r, dist, measured, measured in remaining_true, p_success)


def grover_run(spec: GroverSpec, mode: str = "single", seed: int | None = 0) -> GroverResult:
    """Run the search; mode 'multi' keeps going with a growing blind box.

    seed None measures deterministically (argmax of the distribution),
    which makes distribution-mode analyses exact.
    """
    rng = SamplerState(seed) if seed is not None else None
    if mode not in ("single", "multi"):
        raise InvalidTarget(f"unknown mode {mode!r}")
    if mode == "single":
        rnd = _run_round(spec, (), len(spec.targets), rng)
        return GroverResult(spec, [rnd], [rnd.measured], rnd.oracle_calls)

    rounds: list[GroverRound] = []
    blind: list[int] = []
    believed_found = 0
    total = 0
    max_rounds = 2 * len(spec.targets)
    while believed_found < len(spec.targets) and len(rounds) < max_rounds:
        rnd = _run_round(spec, tuple(blind), len(spec.targets) - believed_found, rng)
        rounds.append(rnd)
        total += rnd.oracle_calls
        if rnd.measured not in blind:
            blind.append(rnd.measured)   # the algorithm trusts every measurement
            believed_found += 1
    return GroverResult(spec, rounds, [r.measured for r in rounds], total)


def degradation_probe(spec: GroverSpec, wrong_index: int) -> tuple[float, float]:
    """Exact (no sampling) second-round success probabilities:
    after a correct first find vs. after injecting a wrong index."""
    if wrong_index in spec.targets:
        raise InvalidTarget("probe index must be outside the target set")
    correct_first = spec.targets[0]
    believed = len(spec.targets) - 1
    good = _run_round(spec, (correct_first,), max(believed, 1), None)
    bad = _run_round(spec, (wrong_index,), max(believed, 1), None)
    return good.success_probability, bad.success_probability


# --- while-language form -------------------------------------------------------


def grover_source(n_qubits: int, targets: tuple[int, ...], r: int | None = None) -> str:
    """Generate a `.qw` program: inline uniform-start, oracle and
    diffusion gates, unrolled iterations, final measurement."""
    spec = GroverSpec(n_qubits, tuple(targets), r)
    n = spec.n_positions
    rr = spec.r if spec.r is not None else iteration_count(n, len(spec.targets))
    hn = np.array([[1.0]], dtype=complex)
    h1 = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    for _ in range(n_qubits):
        hn = np.kron(hn, h1)
    lines = [
        f"// Grover search over {n} positions, answers {sorted(targets)}, {rr} iterations",
        f"qs : qubit[{n_qubits}];",
        f"gate UNIFORM = {format_matrix(hn)};",
        f"gate ORACLE = {format_matrix(oracle_matrix(n, spec.targets))};",
        f"gate DIFFUSE = {format_matrix(diffusion_matrix(n))};",
        "measure MALL = computational;",
        "",
        "qs := |0>;",
        "UNIFORM[qs];",
    ]
    for _ in range(rr):
        lines.append("ORACLE[qs];")
        lines.append("DIFFUSE[qs];")
    lines.append("if MALL[qs] = 0 ->")
    lines.append("  skip;")
    lines.append("fi;")
    return "\n".join(lines) + "\n"
