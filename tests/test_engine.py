"""Sampler procedure, small-step semantics, shot runs, and distribution mode."""
import math
import re
import time
from collections import Counter
from itertools import permutations
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import qwhile.cli
import qwhile.engine.runtime
from qwhile.core.gates import STANDARD_LIBRARY
from qwhile.core.linalg import ATOL_ALGEBRA, embed
from qwhile.core.ops import measurement_probabilities, post_measurement_state
from qwhile.core.types import DensityOperator, Ket, MeasurementSet
from qwhile.engine import (
    DistributionResult,
    SamplerState,
    initial_configuration,
    match_distributions,
    prepare,
    run_distribution,
    run_shot,
    run_shots,
    sample_outcome,
    splitmix64,
    step,
)
from qwhile.engine.runtime import (
    BRANCH_BUDGET,
    KernelTable,
    _Diagonal,
    _DiagonalSite,
    _General,
    _GeneralSite,
    _Monomial,
    _Reset,
    explore,
    operator_kernel,
    site_kernel,
)
from qwhile.engine.sampler import PROB_CEIL, PROB_FLOOR, Outcomes
from qwhile.errors import MalformedDistribution, StepLimitExceeded
from qwhile.experiments import (
    grover_source,
    iteration_count,
    program_names,
    program_source,
    success_probability,
)
from qwhile.fqasm import compile_program, vm_distribution
from qwhile.lang import Case, Init, Seq, Unitary, While, parse
from qwhile.lang.syntax import format_matrix

from genprog import random_program, wide_program


def reference_sample_outcome(p, rng: SamplerState) -> int:
    """`sample_outcome` as it was before `Outcomes`: the oracle the
    prepared form must reproduce index for index and draw for draw."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise MalformedDistribution(f"expected a probability vector, got shape {p.shape}")
    if float(p.min()) < -PROB_FLOOR:
        raise MalformedDistribution(f"negative probability {p.min():.3e}")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise MalformedDistribution(f"probabilities sum to {total}, expected 1")

    certain = np.nonzero(p >= PROB_CEIL)[0]
    if certain.size:
        return int(certain[0])

    kept = np.nonzero(p > PROB_FLOOR)[0]
    cumulative = np.cumsum(p[kept])
    x = rng.draw()
    i = int(np.searchsorted(cumulative, x, side="left"))
    if i >= kept.size:
        i = kept.size - 1
    return int(kept[i])


class FixedDraws:
    """Stands in for a SamplerState, returning the given draws in turn."""

    def __init__(self, xs):
        self.xs = list(xs)
        self.draw_count = 0

    def draw(self) -> float:
        x = self.xs[self.draw_count]
        self.draw_count += 1
        return x


# entries at, just below and around PROB_FLOOR, including the tiny
# negative ones the sampler forgives
_TINY = st.one_of(
    st.sampled_from([0.0, -0.0, PROB_FLOOR, -PROB_FLOOR, 5e-13, -5e-13, 5e-324, 2 * PROB_FLOOR]),
    st.floats(-PROB_FLOOR, 2 * PROB_FLOOR))


@st.composite
def probability_vectors(draw) -> list[float]:
    """Vectors summing to 1 within the sampler's 1e-9 tolerance: ordinary
    entries mixed with zeros and entries near PROB_FLOOR; one ordinary
    entry makes an outcome at or near PROB_CEIL."""
    tiny = draw(st.lists(_TINY, max_size=3))
    big = draw(st.lists(st.floats(1e-6, 1.0), min_size=1, max_size=4))
    slack = draw(st.one_of(st.just(0.0), st.floats(-9e-10, 9e-10)))
    mass = 1.0 - sum(tiny) + slack
    entries = [w * mass / sum(big) for w in big] + tiny
    return [entries[i] for i in draw(st.permutations(range(len(entries))))]


def outcome_or_error(sample, p, rng):
    try:
        return sample(p, rng), rng.draw_count
    except MalformedDistribution as exc:
        return "error", str(exc)


class TestSampler:
    def test_certain_outcome_consumes_no_draw(self):
        rng = SamplerState(1)
        assert sample_outcome([1.0, 0.0], rng) == 0
        assert rng.draw_count == 0
        assert sample_outcome([0.0, 1.0], rng) == 1
        assert rng.draw_count == 0

    def test_zero_probability_never_returned(self):
        rng = SamplerState(7)
        draws = {sample_outcome([0.5, 0.0, 0.5], rng) for _ in range(2000)}
        assert draws == {0, 2}

    def test_empirical_frequency(self):
        rng = SamplerState(42)
        n = 100_000
        zeros = sum(1 for _ in range(n) if sample_outcome([0.5, 0.5], rng) == 0)
        assert abs(zeros / n - 0.5) < 0.01

    def test_malformed(self):
        rng = SamplerState(0)
        with pytest.raises(MalformedDistribution):
            sample_outcome([0.5, 0.2], rng)
        with pytest.raises(MalformedDistribution):
            sample_outcome([1.5, -0.5], rng)

    def test_reproducible(self):
        a = [SamplerState(9).draw() for _ in range(5)]
        b = [SamplerState(9).draw() for _ in range(5)]
        assert a == b
        assert all(0.0 < x < 1.0 for x in a)

    def test_splitmix_spreads(self):
        kids = {splitmix64(3, k) for k in range(1000)}
        assert len(kids) == 1000

    @given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6), st.integers(0, 2**32))
    def test_sampled_index_valid(self, weights, seed):
        p = np.array(weights) / sum(weights)
        i = sample_outcome(p, SamplerState(seed))
        assert 0 <= i < len(p) and p[i] > 0

    @given(probability_vectors(), st.integers(0, 2**64 - 1))
    @example([1.0, 0.0], 0)
    @example([PROB_FLOOR, PROB_CEIL], 0)
    @example([0.5, PROB_FLOOR, 0.5 - PROB_FLOOR], 0)
    def test_outcomes_sample_as_the_frozen_sampler(self, p, seed):
        prepared = Outcomes(p)
        ours, theirs = SamplerState(seed), SamplerState(seed)
        for _ in range(6):
            assert prepared.sample(ours) == reference_sample_outcome(p, theirs)
            assert ours.draw_count == theirs.draw_count
        assert sample_outcome(p, SamplerState(seed)) == reference_sample_outcome(p, SamplerState(seed))

    @staticmethod
    def assert_same_search(p, xs):
        prepared = Outcomes(p)
        ours, theirs = FixedDraws(xs), FixedDraws(xs)
        for _ in xs:
            assert prepared.sample(ours) == reference_sample_outcome(p, theirs)
            assert ours.draw_count == theirs.draw_count

    @pytest.mark.parametrize("p, xs", [
        ([0.3, 0.7 - 5e-10], [1.0 - 2.0**-53, 0.9999999999]),  # x past the last bound
        ([0.25, 0.75], [0.25, np.nextafter(0.25, 1.0), np.nextafter(0.25, 0.0)]),
        ([0.5, 0.0, PROB_FLOOR, 0.5 - PROB_FLOOR], [0.5, np.nextafter(0.5, 1.0), 1.0 - 2.0**-53]),
    ])
    def test_outcomes_search_at_the_bounds(self, p, xs):
        self.assert_same_search(p, xs)

    @given(probability_vectors(), st.data())
    def test_outcomes_search_as_the_frozen_sampler(self, p, data):
        """Draws on, just above and just below each bound, and past the
        last one, which a sum below 1 leaves room for."""
        arr = np.asarray(p, dtype=float)
        bounds = np.cumsum(arr[arr > PROB_FLOOR]).tolist()
        near = [y for b in bounds for y in (b, np.nextafter(b, 0.0), np.nextafter(b, 2.0))
                if 0.0 < y < 1.0] + [1.0 - 2.0**-53]
        xs = data.draw(st.lists(st.one_of(st.sampled_from(near), st.floats(
            0.0, 1.0, exclude_min=True, exclude_max=True)), min_size=3, max_size=3))
        self.assert_same_search(p, xs)

    @given(st.one_of(st.lists(st.floats(-2.0, 2.0), max_size=5),
                     st.lists(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
                              min_size=1, max_size=2)),
           st.integers(0, 2**64 - 1))
    @example([], 0)
    @example([[0.5, 0.5]], 0)
    @example([0.5, 0.2], 0)
    @example([1.5, -0.5], 0)
    @example([1.0 + 2e-12, -2e-12], 0)
    def test_outcomes_refuse_as_the_frozen_sampler(self, p, seed):
        want = outcome_or_error(reference_sample_outcome, p, SamplerState(seed))
        assert outcome_or_error(sample_outcome, p, SamplerState(seed)) == want
        if want[0] == "error":
            with pytest.raises(MalformedDistribution, match=re.escape(want[1])):
                Outcomes(p)


class TestStep:
    def test_skip(self):
        p = parse("q : qubit; skip;")
        c = initial_configuration(prepare(p))
        [c2] = step(c)
        assert c2.terminated
        np.testing.assert_array_equal(c2.state.matrix, c.state.matrix)

    def test_init_resets_one(self):
        p = parse("q : qubit; q := |0>;")
        c = initial_configuration(prepare(p), state=Ket([0, 1]).to_density())
        [c2] = step(c)
        np.testing.assert_allclose(c2.state.matrix, np.diag([1, 0]), atol=1e-12)

    def test_init_formula_on_superposition(self):
        # rho0 = |0><0| rho |0><0| + |0><1| rho |1><0| applied to |+><+|
        p = parse("q : qubit; q := |0>;")
        c = initial_configuration(prepare(p), state=Ket([1, 1]).to_density())
        [c2] = step(c)
        np.testing.assert_allclose(c2.state.matrix, np.diag([1, 0]), atol=1e-12)

    def test_loop_first_step_distribution(self):
        # guard on |1><1|: p1 = tr(M1'M1 rho) = 1, single successor, weight 1
        p = parse("q : qubit; measure M = computational; while M[q] = 1 do X[q]; od;")
        c = initial_configuration(prepare(p), state=Ket([0, 1]).to_density())
        succ = step(c)
        assert len(succ) == 1
        s = succ[0]
        assert s.weight == pytest.approx(1.0)
        assert not s.terminated
        np.testing.assert_allclose(s.state.matrix, np.diag([0, 1]), atol=1e-12)

    def test_trace_stays_one(self, rng):
        for _ in range(30):
            prog = random_program(rng, max_depth=2, max_block=2)
            frontier = [initial_configuration(prepare(prog))]
            for _ in range(6):
                nxt = []
                for c in frontier:
                    if c.terminated:
                        continue
                    for s in step(c):
                        assert s.state.trace == pytest.approx(1.0, abs=1e-9)
                        nxt.append(s)
                frontier = nxt[:8]


class TestRunShot:
    def test_two_steps(self):
        p = parse("q : qubit; q := |0>; skip;")
        rec = run_shot(prepare(p), seed=0)
        assert rec.steps == 2
        np.testing.assert_allclose(rec.final_state.matrix, np.diag([1, 0]), atol=1e-12)

    def test_loop_l0_l1_forced(self):
        # guard M computational, body X, input |1><1|: exactly one circle, ends |0><0|
        p = parse("q : qubit; measure M = computational; while M[q] = 1 do X[q]; od;")
        plan = prepare(p)
        rec = run_shot(plan, seed=3, state=Ket([0, 1]).to_density())
        site = plan.loop_sites()[0]
        assert rec.loop_counts[site] == 1
        np.testing.assert_allclose(rec.final_state.matrix, np.diag([1, 0]), atol=1e-9)
        assert rec.outcome_sequence() == [1, 0]

    def test_step_limit(self):
        p = parse("q : qubit; measure M = computational; "
                  "q := |0>; X[q]; while M[q] = 1 do skip; od;")
        with pytest.raises(StepLimitExceeded):
            run_shot(prepare(p), seed=0, step_limit=500)

    def test_deterministic_given_seed(self):
        p = prepare(parse("q : qubit; measure M = computational; q := |0>; H[q]; "
                          "while M[q] = 1 do H[q]; od;"))
        a = run_shot(p, seed=77)
        b = run_shot(p, seed=77)
        assert a.outcomes == b.outcomes
        assert a.steps == b.steps
        assert a.final_state.matrix.tobytes() == b.final_state.matrix.tobytes()

    def test_deterministic_program_identical_records(self):
        p = prepare(parse("q : qubit; q := |0>; X[q]; skip;"))
        records = [run_shot(p, seed=s) for s in range(10)]
        for rec in records[1:]:
            assert rec.outcomes == records[0].outcomes
            assert rec.steps == records[0].steps
            np.testing.assert_array_equal(rec.final_state.matrix,
                                          records[0].final_state.matrix)


class TestRunShots:
    def test_histogram_totals(self):
        p = prepare(parse("q : qubit; measure M = computational; q := |0>; H[q]; "
                          "if M[q] = 0 -> skip; [] 1 -> skip; fi;"))
        stats = run_shots(p, 2000, seed=5)
        counts = stats.site_outcomes[1]
        assert counts[0] + counts[1] == 2000
        assert abs(counts[0] / 2000 - 0.5) < 0.05

    def test_loop_histogram_sums_to_shots(self):
        src = program_source("qloop")
        plan = prepare(parse(src))
        stats = run_shots(plan, 3000, seed=11)
        site = plan.loop_sites()[0]
        assert sum(stats.loop_histogram[site].values()) == 3000

    def test_qloop_experiment_output_pinned(self, capsys):
        # `experiment qloop --shots 1000 --seed 3`, byte for byte: seeded
        # shots are part of the reproducibility contract
        assert qwhile.cli.main(["experiment", "qloop", "--shots", "1000", "--seed", "3"]) == 0
        assert capsys.readouterr().out == (
            '{\n  "circles": {\n    "1": 113,\n    "2": 57,\n    "3": 29,\n    "4": 15,\n'
            '    "5": 7,\n    "6": 3,\n    "7": 3,\n    "9": 2\n  },\n  "seed": 3,\n'
            '  "shots": 1000,\n  "shots_entering": 229,\n  "total_entries": 466\n}\n')

    def test_a_shared_measurement_object_has_one_site_per_position(self):
        p = parse("q : qubit; measure M = computational; q := |0>; H[q]; "
                  "if M[q] = 0 -> skip; [] 1 -> skip; fi; while M[q] = 1 do H[q]; od;")
        init, h, case, loop = p.body.stmts
        for shared in (case, loop):
            plan = prepare(replace(p, body=Seq((init, h, shared, h, shared))))
            assert [sid for sid, _, _ in plan.site_meta] == [1, 2]
            stats = run_shots(plan, 10, 0)
            if shared is case:
                assert [sum(stats.site_outcomes[sid].values()) for sid in (1, 2)] == [10, 10]
            else:
                assert [sum(stats.loop_histogram[sid].values()) for sid in (1, 2)] == [10, 10]
                # every shot ends each loop with one outcome 0
                assert [stats.site_outcomes[sid][0] for sid in (1, 2)] == [10, 10]

    def test_csv_rows_shape(self):
        p = prepare(parse("q : qubit; measure M = computational; q := |0>; H[q]; "
                          "if M[q] = 0 -> skip; [] 1 -> skip; fi;"))
        rows = run_shots(p, 100, seed=1).to_csv_rows()
        assert all(len(r) == 4 for r in rows)
        assert {r[0] for r in rows} == {"outcome"}


class TestDistribution:
    def test_fair_coin(self):
        p = parse("q : qubit; measure M = computational; q := |0>; H[q]; "
                  "if M[q] = 0 -> skip; [] 1 -> skip; fi;")
        dist = run_distribution(p)
        assert dist.residual == 0.0
        weights = sorted(w for w, _ in dist.terminals)
        assert weights == pytest.approx([0.5, 0.5])

    def test_weight_conservation(self, rng):
        for _ in range(30):
            prog = random_program(rng, max_depth=3, max_block=3)
            dist = run_distribution(prog)
            assert dist.total_weight() + dist.residual == pytest.approx(1.0, abs=1e-9)

    def test_qloop_geometric_convergence(self):
        # geometric series: the loop keeps 1/4 then halves, so residual
        # after truncation at 1e-6 is below 1e-6 and terminals are |0><0| on q
        src = program_source("qloop")
        dist = run_distribution(parse(src))
        assert dist.residual < 1e-6
        assert dist.total_weight() == pytest.approx(1.0, abs=1e-6)

    def test_grover8_matches_statevector_oracle(self):
        # independent oracle: dense statevector iteration, built from scratch
        src = program_source("grover8")
        dist = run_distribution(parse(src))
        n = 8
        psi = np.full(n, 1 / np.sqrt(n), dtype=complex)
        oracle = np.diag([1.0] * n)
        oracle[5, 5] = -1.0
        diffusion = 2.0 * np.full((n, n), 1.0 / n) - np.eye(n)
        for _ in range(2):
            psi = diffusion @ (oracle @ psi)
        expect = np.abs(psi) ** 2
        got = np.zeros(n)
        for w, state in dist.terminals:
            idx = int(np.argmax(np.diag(state.matrix).real))
            got[idx] += w
        np.testing.assert_allclose(got, expect, atol=1e-9)

    def test_mode_agreement(self):
        src = ("q : qubit; measure M = computational; q := |0>; H[q]; T[q]; "
               "measure P = plusminus; if P[q] = 0 -> skip; [] 1 -> X[q]; fi;")
        p = prepare(parse(src))
        dist = run_distribution(p)
        shots = 100_000
        stats = run_shots(p, shots, seed=9)
        counts = stats.site_outcomes[1]
        # terminal weights equal first-site outcome probabilities here
        p0 = counts[0] / shots
        expect0 = max(w for w, _ in dist.terminals)
        assert abs(p0 - expect0) <= 3 * np.sqrt(expect0 * (1 - expect0) / shots) + 1e-12

    @pytest.mark.parametrize("seed", [61, 62])
    def test_grover7_answer_weight(self, seed):
        # the answer's terminal is |t><t| with the analytic success probability
        target = int(np.random.default_rng(seed).integers(128))
        program = parse(grover_source(7, (target,)))
        dist = run_distribution(program)
        weight = sum(w for w, s in dist.terminals if s.matrix[target, target].real > 0.5)
        assert weight == pytest.approx(success_probability(128, 1, iteration_count(128, 1)),
                                       abs=1e-9)
        assert match_distributions(dist, vm_distribution(compile_program(program)))


# --- the node budget of explore, on hand-built configurations --------------------

ZERO = DensityOperator(np.diag([1.0, 0.0]).astype(complex))


class Node(NamedTuple):
    """A configuration for `explore`: 'run' steps on, 'low' is at a
    measurement, 'done' has terminated."""

    kind: str
    depth: int
    weight: float
    state: DensityOperator = ZERO

    @property
    def terminated(self) -> bool:
        return self.kind == "done"

    @property
    def at_measurement(self) -> bool:
        return self.kind == "low"


class TestNodeBudget:
    def test_a_run_that_does_not_branch_is_cut_by_the_step_limit_alone(self):
        step_limit = 200_000  # twice the budget at the default step limit
        dist = explore(Node("run", 0, 1.0), lambda c: [c._replace(depth=c.depth + 1)],
                       mass_threshold=0.5, step_limit=step_limit)
        assert dist.step_limited == dist.residual == 1.0
        assert dist.node_limited == 0.0

    def test_mass_queued_at_the_cut_is_classified_by_the_other_rules(self):
        # 12 branches with a step limit of 10: the budget of 100 expansions
        # runs out after the root, 8 levels of 12 and the first 3 branches of
        # level 9. Level 9 also holds 12 configurations at a measurement below
        # the mass threshold, and the 3 expanded branches queue a terminated
        # and a step-limited configuration each.
        def step_fn(c: Node) -> list[Node]:
            w = c.weight
            if c.depth == 0:
                return [Node("run", 1, w / 12) for _ in range(12)]
            if c.depth == 8:
                return [Node("run", 9, w * 3 / 4), Node("low", 9, w / 4)]
            if c.depth == 9:
                return [Node("done", 10, w / 2), Node("run", 10, w / 2)]
            return [c._replace(depth=c.depth + 1)]

        dist = explore(Node("run", 0, 1.0), step_fn, mass_threshold=0.05,
                       step_limit=100 // BRANCH_BUDGET)
        assert dist.node_limited == pytest.approx(9 / 16)
        assert dist.step_limited == pytest.approx(3 / 32)
        assert dist.residual == pytest.approx(9 / 16 + 3 / 32 + 12 / 48)
        assert [w for w, _ in dist.terminals] == [pytest.approx(3 / 32)]


# --- kernels against dense references -------------------------------------------


def random_factor(rng: np.random.Generator, n: int, r: int) -> np.ndarray:
    """A random 2^n x r factor V of a density operator V V† (trace 1)."""
    v = rng.normal(size=(1 << n, r)) + 1j * rng.normal(size=(1 << n, r))
    return v / np.linalg.norm(v)


def outer(v: np.ndarray) -> np.ndarray:
    return v @ v.conj().T


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def dense_sandwich(op: np.ndarray, positions: tuple[int, ...], n: int, rho: np.ndarray):
    full = embed(op, positions, n)
    return full @ rho @ full.conj().T


def dense_reset(positions: tuple[int, ...], n: int, rho: np.ndarray) -> np.ndarray:
    """rho -> P0 rho P0 + K rho K† per qubit, least significant first."""
    for q in reversed(positions):
        rho = (dense_sandwich(np.diag([1.0, 0.0]), (q,), n, rho)
               + dense_sandwich(np.array([[0.0, 1.0], [0.0, 0.0]]), (q,), n, rho))
    return rho


def target_sets(rng: np.random.Generator, n: int) -> list[tuple[int, ...]]:
    """Every single qubit, and for k = 2, 3: an adjacent run in order, the
    same run reversed, and a random (mostly non-adjacent) choice."""
    sets = [(q,) for q in range(n)]
    for k in range(2, min(n, 3) + 1):
        lo = int(rng.integers(n - k + 1))
        run = tuple(range(lo, lo + k))
        sets += [run, run[::-1], tuple(int(q) for q in rng.choice(n, size=k, replace=False))]
    if n >= 5:
        sets.append((4, 0))  # CNOT[q4, q0]
    return sets


def dense_measurement(operators, positions: tuple[int, ...], n: int, rho: np.ndarray):
    """(probabilities, post-measurement states) of the operators embedded
    at positions: from core.ops up to 7 qubits, and above from the same
    formulas written out, because core.ops checks the completeness of a
    2^n x 2^n set by SVD on every call."""
    full = [embed(op, positions, n) for op in operators]
    if n <= 7:
        state, m = DensityOperator(rho, validate=False), MeasurementSet(full)
        return (measurement_probabilities(state, m),
                [post_measurement_state(state, m, i).matrix for i in range(len(full))])
    p = np.array([np.trace(f.conj().T @ f @ rho).real for f in full])
    return p, [f @ rho @ f.conj().T / pi for f, pi in zip(full, p)]


def kernel_table(n: int, decls: str = "") -> KernelTable:
    """The kernel table of a program with n one-qubit registers q0..q{n-1}."""
    program = parse("".join(f"q{i} : qubit; " for i in range(n)) + decls)
    return KernelTable(program.registers, program)


def nonzero_rows(v: np.ndarray) -> int:
    return int(v.any(axis=1).sum())


class TestKernels:
    """Each kernel maps a factor V to a factor W; W W† must be the dense
    reference applied to V V†, for factors of 1 to 3 columns."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_gate_kernels_match_dense_reference(self, n):
        rng = np.random.default_rng(900 + n)
        kinds = set()
        for t, positions in enumerate(target_sets(rng, n)):
            v = random_factor(rng, n, 1 + t % 3)
            dim = 1 << len(positions)
            phases = np.exp(2j * np.pi * rng.random(dim))
            perm = np.eye(dim)[rng.permutation(dim)] if dim > 2 else np.eye(2)[::-1]
            ops = [random_unitary(rng, dim), np.diag(phases), perm * phases]
            if dim > 2:
                ops.append(perm)
            for op in ops:
                kernel = operator_kernel(op, positions, n)
                kinds.add(type(kernel))
                w = kernel.apply(v)
                assert w.shape == v.shape
                np.testing.assert_allclose(outer(w), dense_sandwich(op, positions, n, outer(v)),
                                           rtol=0, atol=ATOL_ALGEBRA)
        assert kinds == {_Diagonal, _Monomial, _General}

    @pytest.mark.parametrize("n", range(1, 10))
    def test_reset_matches_kraus_pairs(self, n):
        rng = np.random.default_rng(910 + n)
        width = int(rng.integers(1, n + 1))
        lo = int(rng.integers(n - width + 1))
        layout = (("a", lo), ("r", width), ("b", n - lo - width))
        kernels = KernelTable(tuple((name, w) for name, w in layout if w), program=None)
        kernels.add_init("r")
        assert isinstance(kernels.inits["r"], _Reset)
        for r in (1, 2, 3):
            v = random_factor(rng, n, r)
            w = kernels.inits["r"].apply(v)
            np.testing.assert_allclose(outer(w), dense_reset(kernels.positions["r"], n, outer(v)),
                                       rtol=0, atol=ATOL_ALGEBRA)
            assert w.any(axis=0).all()  # no column is exactly zero
            assert w.shape[1] <= nonzero_rows(w)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_sites_match_measurement_ops(self, n):
        rng = np.random.default_rng(920 + n)
        weak = [np.diag([np.sqrt(0.3), np.sqrt(0.6)]), np.diag([np.sqrt(0.7), np.sqrt(0.4)])]
        split = [np.diag([np.sqrt(0.4), 0.0]), np.diag([np.sqrt(0.6), 0.0]), np.diag([0.0, 1.0])]
        kernels = kernel_table(n, "measure C = computational; measure P = plusminus; "
                                  f"measure W = {{{', '.join(map(format_matrix, weak))}}}; "
                                  f"measure B = {{{', '.join(map(format_matrix, split))}}};")
        k = min(n, 2)
        positions = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        regs = tuple(f"q{q}" for q in positions)
        kernels.add_site("C", regs)
        kernels.add_site("P", regs[:1])
        kernels.add_site("W", regs[:1])
        kernels.add_site("B", regs[:1])
        half = np.diag([1.0, 0.0, 1.0, 0.0]), np.diag([0.0, 1.0, 0.0, 1.0])
        cases = [(kernels.sites["C", regs], MeasurementSet.computational(1 << k).operators,
                  positions, _DiagonalSite),
                 (kernels.sites["P", regs[:1]], MeasurementSet.plus_minus().operators,
                  positions[:1], _GeneralSite),
                 (kernels.sites["W", regs[:1]], weak, positions[:1], _DiagonalSite),
                 (kernels.sites["B", regs[:1]], split, positions[:1], _DiagonalSite)]
        if k == 2:
            cases.append((site_kernel(half, positions, n), half, positions, _DiagonalSite))
        for c, (site, operators, where, kind) in enumerate(cases):
            assert type(site) is kind
            v = random_factor(rng, n, 1 + c % 3)
            p, posts = dense_measurement(operators, where, n, outer(v))
            np.testing.assert_allclose(site.probabilities(v), p, rtol=0, atol=ATOL_ALGEBRA)
            for i, post in enumerate(posts):
                w = site.collapse(v, i)
                assert w.shape == v.shape
                np.testing.assert_allclose(outer(w), post, rtol=0, atol=ATOL_ALGEBRA)

    def test_reset_of_a_definite_qubit_keeps_the_column_count(self):
        # q1 is |0> in every column, then |1> in every column
        rng = np.random.default_rng(940)
        kernels = kernel_table(3)
        kernels.add_init("q1")
        for bit in (0, 1):
            v = random_factor(rng, 3, 2).reshape(2, 2, 2, 2)
            v[:, 1 - bit] = 0.0
            v = v.reshape(8, 2)
            w = kernels.inits["q1"].apply(v)
            assert w.shape == (8, 2)
            np.testing.assert_allclose(outer(w), dense_reset((1,), 3, outer(v)),
                                       rtol=0, atol=ATOL_ALGEBRA)
        v = random_factor(rng, 3, 2).reshape(2, 2, 2, 2)
        v[:, 1] = 0.0
        assert np.array_equal(kernels.inits["q1"].apply(v.reshape(8, 2)), v.reshape(8, 2))

    def test_reset_of_an_entangled_qubit_doubles_the_column_count(self):
        kernels = kernel_table(3)
        kernels.add_init("q0")
        bell = np.zeros((8, 1), dtype=complex)
        bell[0b000] = bell[0b110] = np.sqrt(0.5)  # q0 and q1 entangled
        w = kernels.inits["q0"].apply(bell)
        assert w.shape == (8, 2)
        np.testing.assert_allclose(outer(w), np.diag([0.5, 0, 0.5, 0, 0, 0, 0, 0]),
                                   rtol=0, atol=ATOL_ALGEBRA)
        v = random_factor(np.random.default_rng(941), 3, 2)
        assert kernels.inits["q0"].apply(v).shape == (8, 4)

    def test_a_loop_resetting_an_entangled_qubit_stays_within_its_rows(self):
        # each round entangles a with b and resets a; c stays |1>, so the
        # loop never exits
        plan = prepare(parse("a : qubit; b : qubit; c : qubit; measure M = computational; "
                             "X[c]; while M[c] = 1 do H[a]; CNOT[a, b]; a := |0>; od;"))
        c = initial_configuration(plan)
        resets, widths = 0, set()
        while resets < 50:
            resets += isinstance(c.remaining[0], Init)
            [c] = step(c, SamplerState(0))
            v = c.factor
            assert v.shape[1] <= nonzero_rows(v)
            widths.add(v.shape[1])
        assert widths == {1, 2}
        np.testing.assert_allclose(c.state.matrix, np.diag([0, 0.5, 0, 0.5, 0, 0, 0, 0]),
                                   rtol=0, atol=ATOL_ALGEBRA)

    def test_classification(self):
        rng = np.random.default_rng(930)
        oracle = np.diag([1.0, 1.0, -1.0, 1.0])
        kernels = kernel_table(
            3, f"gate ORACLE = {format_matrix(oracle)}; "
               f"gate G = {format_matrix(random_unitary(rng, 2))}; "
               "gate DILATE = [[1, 0, 0, 0], [0, 0.7071067811865476, 0.7071067811865476, 0], "
               "[0, -0.7071067811865476, 0.7071067811865476, 0], [0, 0, 0, 1]]; "
               "measure C = computational; measure P = plusminus;")
        gates = {"Z": ("q0",), "S": ("q1",), "T": ("q2",), "ORACLE": ("q2", "q0"),
                 "X": ("q1",), "CNOT": ("q2", "q0"), "H": ("q0",), "G": ("q1",),
                 "DILATE": ("q0", "q1")}
        for gate, regs in gates.items():
            kernels.add_unitary(gate, regs)
        kernels.add_site("C", ("q2", "q0", "q1"))
        kernels.add_site("P", ("q1",))
        assert {gate: type(kernels.unitaries[gate, regs]) for gate, regs in gates.items()} == {
            "Z": _Diagonal, "S": _Diagonal, "T": _Diagonal, "ORACLE": _Diagonal,
            "X": _Monomial, "CNOT": _Monomial,
            "H": _General, "G": _General, "DILATE": _General}
        assert type(kernels.sites["C", ("q2", "q0", "q1")]) is _DiagonalSite
        assert type(kernels.sites["P", ("q1",)]) is _GeneralSite


# --- the engine stays factored through a whole run --------------------------------


def dense_distribution(program, mass_threshold: float) -> DistributionResult:
    """Every branch of `program`, depth first, each statement through the
    dense references above; a branch about to measure with weight below
    mass_threshold is cut, as in `explore` (the program must terminate
    within its step limit)."""
    at, positions = 0, {}
    for name, width in program.registers:
        positions[name] = tuple(range(at, at + width))
        at += width
    n = at
    terminals, cut = [], []

    def span(regs):
        return tuple(q for r in regs for q in positions[r])

    def operators(meas: str, k: int):
        decl = program.meas_decl(meas)
        if decl.builtin == "computational":
            return MeasurementSet.computational(1 << k).operators
        return MeasurementSet.plus_minus().operators if decl.builtin else decl.operators

    def run(todo: list, rho: np.ndarray, weight: float) -> None:
        while todo:
            s = todo.pop(0)
            if isinstance(s, Seq):
                todo[:0] = s.stmts
            elif isinstance(s, Init):
                rho = dense_reset(positions[s.target], n, rho)
            elif isinstance(s, Unitary):
                decl = program.gate_decl(s.gate)
                op = STANDARD_LIBRARY[s.gate] if decl is None else decl.matrix
                rho = dense_sandwich(op, span(s.regs), n, rho)
            elif isinstance(s, (Case, While)):
                if weight < mass_threshold:
                    cut.append(weight)
                    return
                where = span(s.regs)
                p, posts = dense_measurement(operators(s.meas, len(where)), where, n, rho)
                nexts = dict(s.branches) if isinstance(s, Case) else {1: Seq((s.body, s))}
                for i, post in enumerate(posts):
                    if p[i] > PROB_FLOOR:
                        run(([nexts[i]] if i in nexts else []) + todo, post, weight * p[i])
                return
        terminals.append((weight, DensityOperator(rho, validate=False)))

    rho0 = np.zeros((1 << n, 1 << n), dtype=complex)
    rho0[0, 0] = 1.0
    run([program.body], rho0, 1.0)
    return DistributionResult(terminals, math.fsum(cut))


class TestFactoredRun:
    def test_a_wide_program_never_goes_dense(self, monkeypatch):
        # shaped like the check benchmark's seeded 9-qubit programs: two
        # resets of entangled qubits take the factor to 4 columns, never more
        program = wide_program(np.random.default_rng(4), 9)
        plan = prepare(program)
        widths = Counter()

        def expand(c):
            widths[c.factor.shape[1]] += 1
            return step(c)

        builds = []
        state_of = qwhile.engine.runtime.state_of

        def counted(v):
            builds.append(v.shape)
            return state_of(v)

        monkeypatch.setattr(DistributionResult, "merged", lambda self, atol=1e-10: self)
        monkeypatch.setattr(qwhile.engine.runtime, "state_of", counted)
        raw = explore(initial_configuration(plan), expand, 1e-6, 10_000)
        assert dict(widths) == {1: 22, 2: 8, 4: 114}
        assert len(builds) == len(raw.terminals)  # one density operator per terminal

    def test_a_wide_program_matches_the_dense_oracle(self):
        program = wide_program(np.random.default_rng(4), 9)
        got = run_distribution(program, mass_threshold=1e-2)
        want = dense_distribution(program, 1e-2)
        assert got.residual > 0 and len(got.terminals) > 1
        assert match_distributions(got, want, atol=1e-12)


# --- merging and matching terminals ---------------------------------------------


def canonical_key(m: np.ndarray) -> tuple:
    """The merge rule's order: shape, the real diagonal projected on
    linspace(0, 1, d), then the state's 64-bit words in order."""
    return (m.shape, float(m.diagonal().real @ np.linspace(0.0, 1.0, len(m))),
            tuple(np.ascontiguousarray(m).view(np.uint64).flat))


def reference_groups(mats: list[np.ndarray], atol: float) -> list[list[int]]:
    """The merge rule by brute force: in canonical order, each state joins
    the first earlier leader it equals, compared against every leader."""
    groups: list[list[int]] = []
    for i in sorted(range(len(mats)), key=lambda i: canonical_key(mats[i])):
        for g in groups:
            lead = mats[g[0]]
            if lead.shape == mats[i].shape and max(
                    abs(x - y) for x, y in zip(lead.flat, mats[i].flat)) <= atol:
                g.append(i)
                break
        else:
            groups.append([i])
    return groups


def reference_merged(dist: DistributionResult, atol: float = 1e-10) -> DistributionResult:
    groups = reference_groups([s.matrix for _, s in dist.terminals], atol)
    out = [(math.fsum(dist.terminals[i][0] for i in g), dist.terminals[g[0]][1]) for g in groups]
    out.sort(key=lambda t: -t[0])
    return DistributionResult(out, dist.residual, dist.step_limited, dist.node_limited)


def reference_match(a: DistributionResult, b: DistributionResult, atol: float = 1e-9) -> bool:
    if abs(a.residual - b.residual) > atol:
        return False
    am, bm = reference_merged(a, atol).terminals, reference_merged(b, atol).terminals
    both = am + bm
    for g in reference_groups([s.matrix for _, s in both], atol):
        sides = sorted(i < len(am) for i in g)
        if sides != [False, True] or abs(both[g[0]][0] - both[g[1]][0]) > atol:
            return False
    return True


def unmerged(run, program) -> DistributionResult:
    """`run(program)` with its final merge skipped: the terminals in the
    order the breadth-first search reached them."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(DistributionResult, "merged", lambda self, atol=1e-10: self)
        return run(program)


def assert_identical(got: DistributionResult, want: DistributionResult) -> None:
    assert got.residual == want.residual
    assert [w for w, _ in got.terminals] == [w for w, _ in want.terminals]
    for (_, s), (_, t) in zip(got.terminals, want.terminals):
        assert np.array_equal(s.matrix, t.matrix)


def weighted(*pairs) -> DistributionResult:
    return DistributionResult(
        [(w, DensityOperator(np.asarray(m, dtype=complex), validate=False)) for w, m in pairs],
        0.0)


PLUS = np.full((2, 2), 0.5, dtype=complex)
MINUS = np.array([[0.5, -0.5], [-0.5, 0.5]], dtype=complex)


def shuffled(dist: DistributionResult, rng) -> DistributionResult:
    return replace(dist, terminals=[dist.terminals[i] for i in rng.permutation(len(dist.terminals))])


class TestMergeAndMatch:
    @pytest.mark.parametrize("name", program_names())
    def test_bundled_programs(self, name, rng):
        program = parse(program_source(name))
        compiled = compile_program(program)
        runs = [unmerged(run_distribution, program), unmerged(vm_distribution, compiled)]
        for raw in runs:
            for atol in (1e-10, 1e-9):
                want = reference_merged(raw, atol)
                assert_identical(raw.merged(atol), want)
                for _ in range(4):
                    assert_identical(shuffled(raw, rng).merged(atol), want)
        assert match_distributions(*runs) is reference_match(*runs) is True
        assert match_distributions(shuffled(runs[0], rng), runs[1])

    def test_generated_programs(self, rng):
        results = []
        for _ in range(40):
            program = random_program(rng, max_depth=3, max_block=3)
            raw = unmerged(run_distribution, program)
            want = reference_merged(raw)
            assert_identical(raw.merged(), want)
            for _ in range(4):
                assert_identical(shuffled(raw, rng).merged(), want)
            results.append(raw)
        merges = sum(len(r.merged().terminals) < len(r.terminals) for r in results)
        assert merges > 0  # the inputs do exercise merging
        for a in results:
            assert match_distributions(a, shuffled(a, rng)) is reference_match(a, a) is True
            for b in results:
                assert match_distributions(a, b) is reference_match(a, b)

    def test_tolerance_boundaries(self, rng):
        # Perturb one entry of a base state by multiples of atol in modulus,
        # at any phase, on both sides of the bound.
        atol = 1e-10
        base = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        states = [base]
        for _ in range(60):
            m = base.copy()
            i, j = (0, 0) if rng.random() < 0.4 else tuple(rng.integers(0, 4, size=2))
            m[i, j] += rng.choice([0.5, 0.99, 1.01, 2.0, 3.0]) * atol * np.exp(2j * np.pi * rng.random())
            states.append(m)
        first = weighted(*[(1 / 64, m) for m in states]).merged(atol)
        for _ in range(3):
            raw = weighted(*[(1 / 64, m) for m in rng.permutation(states)])
            got = raw.merged(atol)
            assert_identical(got, reference_merged(raw, atol))
            assert_identical(got, first)
            assert 1 < len(got.terminals) < len(states)
            other = weighted(*[(w, s.matrix) for w, s in reversed(raw.terminals)])
            assert match_distributions(raw, other, atol) is reference_match(raw, other, atol)
        # the rule has no relative part: entries near 1 get no wider bound
        # than entries near 0, unlike np.allclose's atol + rtol*|b|
        for k in (0.5, 0.99, 1.01, 2.0):
            near = base.copy()
            near[0, 0] += k * atol
            assert len(weighted((0.5, base), (0.5, near)).merged(atol).terminals) == (
                1 if k < 1 else 2)

    def test_fifty_states_merge_with_their_copies(self):
        states = [np.diag([1.0 - k / 100, k / 100]) for k in range(50)]
        raw = weighted(*[(0.01, m) for m in states + states[::-1]])
        got = raw.merged()
        assert_identical(got, reference_merged(raw))
        assert len(got.terminals) == 50

    def test_non_transitive_chain(self):
        # b is within atol of a and of c, but a and c are not: in canonical
        # order a leads, b joins it and c leads its own group, whatever
        # order the terminals come in
        atol = 1e-10
        a, b, c = (np.diag([1.0 - x, x]).astype(complex) for x in (0.0, 0.8 * atol, 1.6 * atol))
        terminals = [(0.25, a), (0.25, b), (0.5, c)]
        for order in permutations(terminals):
            raw = weighted(*order)
            got = raw.merged(atol)
            assert_identical(got, reference_merged(raw, atol))
            assert [w for w, _ in got.terminals] == [0.5, 0.5]
            assert np.array_equal(got.terminals[0][1].matrix, a)  # a and b
            assert np.array_equal(got.terminals[1][1].matrix, c)
            assert match_distributions(raw, weighted(*terminals), atol)

    def test_group_weight_is_the_exactly_rounded_sum(self):
        # added left to right, 1.0 absorbs each 1e-16 alone but not their sum
        for order in permutations([1.0, 1e-16, 1e-16]):
            got = weighted(*[(w, PLUS.copy()) for w in order]).merged()
            assert [w for w, _ in got.terminals] == [math.fsum(order)] == [1.0000000000000002]

    def test_merging_many_copies_of_one_state_is_fast(self):
        raw = weighted(*[(1 / 50_000, PLUS.copy()) for _ in range(50_000)])
        start = time.perf_counter()
        got = raw.merged()
        assert time.perf_counter() - start < 2.0
        assert len(got.terminals) == 1
        assert got.terminals[0][0] == pytest.approx(1.0, abs=1e-12)

    def test_mixed_shapes(self):
        one = np.diag([1.0, 0.0])
        two = np.diag([1.0, 0.0, 0.0, 0.0])
        raw = weighted((0.1, one), (0.2, two), (0.3, one), (0.15, PLUS), (0.25, two))
        got = raw.merged()
        assert_identical(got, reference_merged(raw))
        assert [(w, s.dim) for w, s in got.terminals] == [(0.45, 4), (0.4, 2), (0.15, 2)]

    def test_other_shape_never_pairs(self):
        one = weighted((1.0, np.diag([1.0, 0.0])))
        two = weighted((1.0, np.diag([1.0, 0.0, 0.0, 0.0])))
        assert not match_distributions(one, two)
        assert not match_distributions(two, one)

    def test_shared_diagonal_is_not_a_match(self):
        # |+><+| and |-><-| have the same diagonal but differ off it
        raw = weighted((0.5, PLUS), (0.5, MINUS))
        assert len(raw.merged().terminals) == 2
        assert_identical(raw.merged(), weighted((0.5, MINUS), (0.5, PLUS)).merged())
        assert not match_distributions(weighted((1.0, PLUS)), weighted((1.0, MINUS)))
        assert match_distributions(raw, weighted((0.5, MINUS), (0.5, PLUS)))

    def test_weight_outside_atol_does_not_match(self):
        atol = 1e-9
        a = weighted((0.6, PLUS), (0.4, MINUS))
        near = weighted((0.6 + 0.5 * atol, PLUS), (0.4 - 0.5 * atol, MINUS))
        far = weighted((0.6 + 3 * atol, PLUS), (0.4 - 3 * atol, MINUS))
        assert match_distributions(a, near, atol) and reference_match(a, near, atol)
        assert not match_distributions(a, far, atol)
        assert not reference_match(a, far, atol)
