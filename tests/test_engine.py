"""Sampler procedure, small-step semantics, shot runs, and distribution mode."""
import gc
import math
import re
import time
import weakref
from collections import Counter
from itertools import permutations
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import qwhile.cli
import qwhile.engine.runtime
import qwhile.fqasm.vm
from qwhile.core.gates import STANDARD_LIBRARY
from qwhile.core.kernels import (Diagonal, DiagonalSite, General, GeneralSite, Monomial, Reset,
                                 operator_kernel, site_kernel, state_of)
from qwhile.core.linalg import nonzero_lines
from qwhile.core.types import PLUS_MINUS, DensityOperator
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
    DEFAULT_STEP_LIMIT,
    MEMO_ENTRY_BYTES,
    Configuration,
    Fork,
    KernelTable,
    PreparedProgram,
    RunRecord,
    _Measured,
    explore,
)
from qwhile.engine.sampler import PROB_CEIL, PROB_FLOOR, Outcomes
from qwhile.errors import InvalidLimit, MalformedDistribution, StepLimitExceeded
from qwhile.experiments import (
    grover_source,
    iteration_count,
    program_names,
    program_source,
    qloop_program,
    success_probability,
)
from qwhile.fqasm import compile_program, prepare_vm, vm_distribution, vm_run
from qwhile.lang import Case, Init, Seq, Unitary, While, parse, pretty_print
from qwhile.lang.syntax import format_matrix

from dense_oracle import kron_embed
from genprog import random_program, wide_program

PHI = 0x9E3779B97F4A7C15  # splitmix64's counter increment


def held(m) -> DensityOperator:
    """The state of the dense matrix m, held by its support: the lines of
    m holding an entry with nonzero bits, and m's block on them."""
    m = np.asarray(m, dtype=complex)
    rows = nonzero_lines(m)
    return DensityOperator(len(m), rows, m[rows[:, None], rows])


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

    def test_the_excluded_point_is_skipped(self):
        # from seed -k*PHI the counter reaches 0 at draw k, and the finalizer
        # maps 0 to 0: draw k takes the next counter value instead
        k = 3
        rng = SamplerState((-k * PHI) % 2**64)
        xs = [rng.draw() for _ in range(k + 1)]
        unskipped = [(splitmix64(rng.seed, j) >> 11) * 2.0**-53 for j in range(k + 2)]
        assert unskipped[k - 1] == 0.0
        assert xs == unskipped[:k - 1] + unskipped[k:]
        assert rng.draw_count == k + 1

    @given(st.integers(0, 2**64 - 1), st.integers(0, 300), st.integers(0, 5))
    @example(2**64 - 1, 300, 0)  # the counter wraps past 2**64 at the block's first draw
    @example((-5 * PHI) % 2**64, 10, 2)  # the excluded point at draw 5, inside the block
    def test_a_block_of_draws_is_the_scalar_stream(self, seed, m, before):
        ours, theirs = SamplerState(seed), SamplerState(seed)
        for _ in range(before):
            assert ours.draw() == theirs.draw()
        block = ours.draws(m)
        assert block.dtype == np.float64 and block.shape == (m,)
        assert block.tolist() == [theirs.draw() for _ in range(m)]
        assert ours.draw_count == theirs.draw_count
        assert ours.draw() == theirs.draw()

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
        p = parse("q : qubit; X[q]; q := |0>;")
        [c1] = step(initial_configuration(prepare(p)))
        np.testing.assert_allclose(c1.state.matrix, np.diag([0, 1]), atol=1e-12)
        [c2] = step(c1)
        assert c2.terminated
        np.testing.assert_allclose(c2.state.matrix, np.diag([1, 0]), atol=1e-12)

    def test_init_formula_on_superposition(self):
        # rho0 = |0><0| rho |0><0| + |0><1| rho |1><0| applied to |+><+|
        p = parse("q : qubit; H[q]; q := |0>;")
        [c1] = step(initial_configuration(prepare(p)))
        np.testing.assert_allclose(c1.state.matrix, np.full((2, 2), 0.5), atol=1e-12)
        [c2] = step(c1)
        assert c2.terminated
        np.testing.assert_allclose(c2.state.matrix, np.diag([1, 0]), atol=1e-12)

    def test_loop_first_step_distribution(self):
        # guard on |1><1|: p1 = tr(M1'M1 rho) = 1, single successor, weight 1
        p = parse("q : qubit; measure M = computational; X[q]; while M[q] = 1 do X[q]; od;")
        [c] = step(initial_configuration(prepare(p)))
        assert c.at_measurement
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
                        assert np.trace(s.state.matrix).real == pytest.approx(1.0, abs=1e-9)
                        nxt.append(s)
                frontier = nxt[:8]


class TestRunShot:
    def test_two_steps(self):
        p = parse("q : qubit; q := |0>; skip;")
        rec = run_shot(prepare(p), seed=0)
        assert rec.steps == 2
        np.testing.assert_allclose(rec.final_state.matrix, np.diag([1, 0]), atol=1e-12)

    def test_loop_l0_l1_forced(self):
        # guard M computational, body X, start X|0> = |1>: exactly one circle,
        # ends |0><0|, in four steps (X, guard, body X, guard)
        p = parse("q : qubit; measure M = computational; X[q]; while M[q] = 1 do X[q]; od;")
        plan = prepare(p)
        rec = run_shot(plan, seed=3)
        site = plan.loop_sites()[0]
        assert rec.loop_counts[site] == 1
        assert rec.steps == 4
        np.testing.assert_allclose(rec.final_state.matrix, np.diag([1, 0]), atol=1e-9)
        assert rec.outcomes == [(site, 1), (site, 0)]

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

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_stepping_as_the_benchmark_replay_gives_run_shots_circles(self, seed):
        # the qloop replay drives `step` itself: it classifies a step by
        # c.remaining[0] and counts a body entry when a while step leaves
        # at least as many statements as it found
        plan = qloop_program()
        base = SamplerState(seed)
        circles = Counter()
        measurements = 0
        for k in range(300):
            rng = base.child(k)
            c = initial_configuration(plan)
            entries = 0
            while not c.terminated:
                s = c.remaining[0]
                [succ] = step(c, rng)
                if isinstance(s, (Case, While)):
                    measurements += 1
                    if isinstance(s, While) and len(succ.remaining) >= len(c.remaining):
                        entries += 1
                c = succ
            circles[entries] += 1
        stats = run_shots(plan, 300, seed)
        assert circles == stats.loop_histogram[plan.loop_sites()[0]]
        assert measurements == sum(sum(c.values()) for c in stats.site_outcomes.values())

    def test_loop_counts_from_the_outcome_log_equal_the_driver_count(self):
        rng = np.random.default_rng(1800)
        programs = [random_program(rng) for _ in range(60)] + [wide_program(rng, 5)
                                                               for _ in range(4)]
        entering = 0  # shots that enter some loop body
        for plan in [qloop_program()] + [prepare(p) for p in programs]:
            for seed in range(8):
                try:
                    want = scalar_shot(plan, seed, 2000).loop_counts
                except StepLimitExceeded:
                    with pytest.raises(StepLimitExceeded):
                        run_shot(plan, seed, step_limit=2000)
                    continue
                assert run_shot(plan, seed, step_limit=2000).loop_counts == want
                entering += any(want.values())
        assert entering >= 40

    def test_the_mean_adds_each_shot_on_its_support(self, monkeypatch):
        # the mean of the dense final states, bit for bit, without building
        # any final state's dense matrix
        plan = prepare(parse(grover_source(9, (5,))))
        built = []
        dense = DensityOperator.matrix

        def counted(state):
            built.append(state.dim)
            return dense.fget(state)

        monkeypatch.setattr(DensityOperator, "matrix", property(counted))
        stats = run_shots(plan, 200, 9)
        assert built == []
        monkeypatch.undo()
        mean = stats.mean_final_state.matrix
        want = np.zeros_like(mean)
        base = SamplerState(9)
        for k in range(200):
            want += scalar_shot(plan, base.child(k).seed).final_state.matrix
        want /= 200
        assert np.array_equal(mean, want)
        assert mean.tobytes() == want.tobytes()

    def test_csv_rows_shape(self):
        p = prepare(parse("q : qubit; measure M = computational; q := |0>; H[q]; "
                          "if M[q] = 0 -> skip; [] 1 -> skip; fi;"))
        rows = run_shots(p, 100, seed=1).to_csv_rows()
        assert all(len(r) == 4 for r in rows)
        assert {r[0] for r in rows} == {"outcome"}


# --- the sampled path without the memo: the oracle shots reproduce ---------------


def scalar_run_sampled(c, advance, seed: int, step_limit: int, loop_sites=()) -> RunRecord:
    """`run_sampled` with the sampled path of `Fork.branches` as they were
    before the memo: every step calls the executor's transition, every
    measurement prepares its probabilities afresh, and the final state is
    built from the last configuration. Body entries are counted at the
    forks, as the driver once did: outcome 1 at a `while` is one entry."""
    rng = SamplerState(seed)
    counts = {sid: 0 for sid in loop_sites}
    outcomes, steps = [], 0
    while not c.terminated:
        if steps >= step_limit:
            raise StepLimitExceeded(f"no termination after {step_limit} steps")
        nxt = advance(c)
        steps += 1
        if isinstance(nxt, Fork):
            outcome = sample_outcome(nxt.kernel.probabilities(nxt.factor), rng)
            if isinstance(c, Configuration) and isinstance(c.remaining[0], While):
                counts[nxt.site] += outcome == 1
            outcomes.append((nxt.site, outcome))
            c = nxt.resume(outcome, nxt.kernel.collapse(nxt.factor, outcome), c.weight)
        else:
            c = nxt
    return RunRecord(outcomes, state_of(c.factor), steps, counts)


def scalar_shot(plan, seed: int, step_limit: int = DEFAULT_STEP_LIMIT) -> RunRecord:
    """One shot of either executor's plan by the oracle, from a start
    configuration outside the plan's memo."""
    e0 = plan.kernels.initial_factor()
    if isinstance(plan, PreparedProgram):
        return scalar_run_sampled(Configuration(plan.body, e0, 1.0, plan.machine),
                                  qwhile.engine.runtime._advance, seed, step_limit,
                                  plan.loop_sites())
    start = qwhile.fqasm.vm._Config(0, qwhile.fqasm.vm._Regs.empty(plan.prog.cregs), e0, 1.0,
                                    plan.machine)
    return scalar_run_sampled(start, qwhile.fqasm.vm._advance, seed, step_limit)


def memo_shot(plan, seed: int, step_limit: int = DEFAULT_STEP_LIMIT) -> RunRecord:
    run = run_shot if isinstance(plan, PreparedProgram) else vm_run
    return run(plan, seed, step_limit)


def shot_or_limit(shot, plan, seed: int, step_limit: int) -> RunRecord | str:
    try:
        return shot(plan, seed, step_limit)
    except StepLimitExceeded as exc:
        return str(exc)


def assert_same_shot(got: RunRecord, want: RunRecord) -> None:
    assert (got.outcomes, got.steps, got.loop_counts) == (want.outcomes, want.steps,
                                                           want.loop_counts)
    for a, b in zip(got.final_state.support, want.final_state.support):
        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())


def assert_shots_match_the_oracle(plan, seeds, shots: int, step_limit: int) -> None:
    """Each shot through the plan's memo against the oracle: the outcome
    log, steps, loop counts and final-state support bit for bit, and a
    step limit hit at the same step."""
    for seed in seeds:
        base = SamplerState(seed)
        for k in range(shots):
            s = base.child(k).seed
            want = shot_or_limit(scalar_shot, plan, s, step_limit)
            got = shot_or_limit(memo_shot, plan, s, step_limit)
            if isinstance(want, str):
                assert got == want
                continue
            assert_same_shot(got, want)
            # exactly as many steps as the shot takes are enough, one fewer is not
            assert_same_shot(memo_shot(plan, s, want.steps), want)
            if want.steps > 1:
                assert (shot_or_limit(memo_shot, plan, s, want.steps - 1)
                        == f"no termination after {want.steps - 1} steps")


def stored(root) -> list:
    """Every configuration the memo holds, walking the trie from root."""
    found, todo = [], [root]
    while todo:
        c = todo.pop()
        found.append(c)
        if isinstance(c.memo, _Measured):
            todo += [succ for succ in c.memo.succ if succ is not None]
        elif c.memo is not None:
            todo.append(c.memo)
    return found


def memo_bytes(root) -> int:
    """The bytes the memo from root holds by its own count: MEMO_ENTRY_BYTES
    per stored transition plus each distinct array it keeps, less the
    root's factor."""
    nodes = stored(root)
    entries = sum(c.memo is not None for c in nodes) + sum(c.final is not None for c in nodes)
    entries += sum(succ is not None for c in nodes if isinstance(c.memo, _Measured)
                   for succ in c.memo.succ)
    arrays = {id(c.factor): c.factor for c in nodes[1:]}
    arrays.pop(id(root.factor), None)
    for c in nodes:
        if c.final is not None:
            arrays.update((id(a), a) for a in c.final)
    return entries * MEMO_ENTRY_BYTES + sum(a.nbytes for a in arrays.values())


BRANCHING_LOOP = """
a : qubit; b : qubit; c : qubit;
measure M = computational;
a := |0>; b := |0>; c := |0>; H[a];
while M[a] = 1 do
  H[b]; T[c]; H[c];
  if M[b] = 0 -> S[c]; H[c]; [] 1 -> CNOT[b, c]; T[c]; fi;
  H[a];
od;
"""


class TestMemo:
    @pytest.mark.parametrize("executor", ["interpreter", "vm"])
    def test_bundled_shots_match_the_oracle(self, executor):
        for name in program_names():
            program = parse(program_source(name))
            plan = prepare(program) if executor == "interpreter" else prepare_vm(
                compile_program(program))
            assert_shots_match_the_oracle(plan, (0, 1, 2), 12, 2000)

    @pytest.mark.parametrize("executor", ["interpreter", "vm"])
    def test_generated_shots_match_the_oracle(self, executor):
        rng = np.random.default_rng(5)
        for program in [random_program(rng) for _ in range(40)]:
            plan = prepare(program) if executor == "interpreter" else prepare_vm(
                compile_program(program))
            assert_shots_match_the_oracle(plan, (0, 1, 2), 6, 600)

    def test_shots_past_the_byte_bound_match_the_oracle_within_it(self, monkeypatch):
        monkeypatch.setattr(qwhile.engine.runtime, "MEMO_BYTES", 60 * MEMO_ENTRY_BYTES)
        program = parse(BRANCHING_LOOP)
        for plan in (prepare(program), prepare_vm(compile_program(program))):
            assert_shots_match_the_oracle(plan, (0, 1), 150, 10_000)
            root = (initial_configuration(plan) if isinstance(plan, PreparedProgram)
                    else qwhile.fqasm.vm._Config.start(plan))
            assert memo_bytes(root) == plan.machine.held <= 60 * MEMO_ENTRY_BYTES
            assert plan.machine.full  # a transition did not fit

    @pytest.mark.parametrize("executor", ["interpreter", "vm"])
    def test_a_dropped_plan_and_its_memo_are_freed_without_the_collector(self, executor):
        program = parse(BRANCHING_LOOP)
        plan = prepare(program) if executor == "interpreter" else prepare_vm(
            compile_program(program))
        assert_shots_match_the_oracle(plan, (0,), 40, 10_000)
        refs = [weakref.ref(plan), weakref.ref(plan.kernels)]  # the machine holds the kernels
        refs += [weakref.ref(c.factor) for c in stored(plan.root)]
        assert len(refs) > 40
        gc.disable()
        try:
            del plan
            alive = [ref for ref in refs if ref() is not None]
        finally:
            gc.enable()
        assert alive == []

    def test_a_shot_whose_history_was_taken_applies_no_kernel(self, monkeypatch):
        program = parse(program_source("qloop"))
        plan, vm_plan = prepare(program), prepare_vm(compile_program(program))
        first = run_shots(plan, 300, 4)
        seeds = [SamplerState(4).child(k).seed for k in range(300)]
        vm_first = [vm_run(vm_plan, s) for s in seeds]
        calls = Counter()
        for module in (qwhile.engine.runtime, qwhile.fqasm.vm):
            def counted(c, _advance=module._advance, _name=module.__name__):
                calls[_name] += 1
                return _advance(c)
            monkeypatch.setattr(module, "_advance", counted)
        again = run_shots(plan, 300, 4)
        assert again.to_json_dict() == first.to_json_dict()
        assert again.mean_final_state.matrix.tobytes() == first.mean_final_state.matrix.tobytes()
        for s, want in zip(seeds, vm_first):
            assert_same_shot(vm_run(vm_plan, s), want)
        for s in seeds:  # step() walks the same trie
            c, rng = initial_configuration(plan), SamplerState(s)
            while not c.terminated:
                [c] = step(c, rng)
        assert calls == Counter()
        assert initial_configuration(plan) is initial_configuration(plan)

    def test_distribution_mode_neither_reads_nor_fills_the_memo(self):
        program = parse(program_source("paper_loop"))
        plan, vm_plan = prepare(program), prepare_vm(compile_program(program))
        want = run_distribution(plan), vm_distribution(vm_plan)
        assert plan.root is None and vm_plan.root is None
        run_shots(plan, 50, 0)
        for s in range(50):
            vm_run(vm_plan, s)
        held = plan.machine.held, vm_plan.machine.held
        for got, wanted in zip((run_distribution(plan), vm_distribution(vm_plan)), want):
            assert_identical(got, wanted)
        assert (plan.machine.held, vm_plan.machine.held) == held

    def test_a_cached_array_is_read_only(self):
        plan = prepare(parse(BRANCHING_LOOP))
        run_shots(plan, 40, 0)
        nodes = stored(initial_configuration(plan))
        finals = [c.final for c in nodes if c.final is not None]
        assert len(nodes) > 40 and finals
        for c in nodes:
            with pytest.raises(ValueError, match="read-only"):
                c.factor[0, 0] = 1.0
        # each record gets its own state over the support the memo keeps
        a, b = run_shot(plan, 0), run_shot(plan, 0)
        assert a.final_state.matrix.tobytes() == b.final_state.matrix.tobytes()
        assert a.final_state is not b.final_state
        assert a.final_state.support[1] is b.final_state.support[1]
        for rows, block in finals:
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                rows[0] = 1


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
            assert sum(w for w, _ in dist.terminals) + dist.residual == pytest.approx(1.0, abs=1e-9)

    def test_qloop_geometric_convergence(self):
        # geometric series: the loop keeps 1/4 then halves, so residual
        # after truncation at 1e-6 is below 1e-6 and terminals are |0><0| on q
        src = program_source("qloop")
        dist = run_distribution(parse(src))
        assert dist.residual < 1e-6
        assert sum(w for w, _ in dist.terminals) == pytest.approx(1.0, abs=1e-6)

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

ZERO = held(np.diag([1.0, 0.0]))


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

ATOL_ALGEBRA = 1e-12  # pure algebra: a kernel against its dense reference


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
    full = kron_embed(op, positions, n)
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


def computational(dim: int) -> list[np.ndarray]:
    """The projectors |i><i| of the computational basis."""
    return [np.diag(row) for row in np.eye(dim)]


def dense_measurement(operators, positions: tuple[int, ...], n: int, rho: np.ndarray):
    """(probabilities, post-measurement states) of the operators M_i
    embedded at positions as F_i: p_i = tr(F_i† F_i rho) and
    F_i rho F_i† / p_i."""
    full = [kron_embed(op, positions, n) for op in operators]
    p = np.array([np.trace(f.conj().T @ f @ rho).real for f in full])
    return p, [f @ rho @ f.conj().T / pi for f, pi in zip(full, p)]


def kernel_table(n: int, text: str) -> KernelTable:
    """The kernel table of a program with n one-qubit registers q0..q{n-1}
    and then `text`: declarations and the statements that apply the
    operations under test."""
    return KernelTable(parse("".join(f"q{i} : qubit; " for i in range(n)) + text))


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
        assert kinds == {Diagonal, Monomial, General}

    @pytest.mark.parametrize("n", range(1, 10))
    def test_reset_matches_kraus_pairs(self, n):
        rng = np.random.default_rng(910 + n)
        width = int(rng.integers(1, n + 1))
        lo = int(rng.integers(n - width + 1))
        layout = (("a", lo), ("r", width), ("b", n - lo - width))
        kernels = KernelTable(parse("".join(f"{name} : qubit[{w}]; " for name, w in layout if w)
                                    + "r := |0>;"))
        assert isinstance(kernels.inits["r"], Reset)
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
        k = min(n, 2)
        positions = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        regs = tuple(f"q{q}" for q in positions)
        kernels = kernel_table(n, "measure C = computational; measure P = plusminus; "
                                  f"measure W = {{{', '.join(map(format_matrix, weak))}}}; "
                                  f"measure B = {{{', '.join(map(format_matrix, split))}}}; "
                                  f"if C[{', '.join(regs)}] = 0 -> skip; fi; "
                                  + "".join(f"if {m}[{regs[0]}] = 0 -> skip; fi; " for m in "PWB"))
        half = np.diag([1.0, 0.0, 1.0, 0.0]), np.diag([0.0, 1.0, 0.0, 1.0])
        cases = [(kernels.sites["C", regs], computational(1 << k), positions, DiagonalSite),
                 (kernels.sites["P", regs[:1]], PLUS_MINUS, positions[:1], GeneralSite),
                 (kernels.sites["W", regs[:1]], weak, positions[:1], DiagonalSite),
                 (kernels.sites["B", regs[:1]], split, positions[:1], DiagonalSite)]
        if k == 2:
            cases.append((site_kernel(half, positions, n), half, positions, DiagonalSite))
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
        kernels = kernel_table(3, "q1 := |0>;")
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
        kernels = kernel_table(3, "q0 := |0>;")
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
        gates = {"Z": ("q0",), "S": ("q1",), "T": ("q2",), "ORACLE": ("q2", "q0"),
                 "X": ("q1",), "CNOT": ("q2", "q0"), "H": ("q0",), "G": ("q1",),
                 "DILATE": ("q0", "q1")}
        kernels = kernel_table(
            3, f"gate ORACLE = {format_matrix(oracle)}; "
               f"gate G = {format_matrix(random_unitary(rng, 2))}; "
               "gate DILATE = [[1, 0, 0, 0], [0, 0.7071067811865476, 0.7071067811865476, 0], "
               "[0, -0.7071067811865476, 0.7071067811865476, 0], [0, 0, 0, 1]]; "
               "measure C = computational; measure P = plusminus; "
               + "".join(f"{gate}[{', '.join(regs)}]; " for gate, regs in gates.items())
               + "if C[q2, q0, q1] = 0 -> skip; fi; while P[q1] = 1 do skip; od;")
        assert {gate: type(kernels.unitaries[gate, regs]) for gate, regs in gates.items()} == {
            "Z": Diagonal, "S": Diagonal, "T": Diagonal, "ORACLE": Diagonal,
            "X": Monomial, "CNOT": Monomial,
            "H": General, "G": General, "DILATE": General}
        assert type(kernels.sites["C", ("q2", "q0", "q1")]) is DiagonalSite
        assert type(kernels.sites["P", ("q1",)]) is GeneralSite

    def test_both_executors_build_the_same_kernels(self):
        rng = np.random.default_rng(1900)
        programs = [parse(program_source(name)) for name in program_names()]
        programs += [random_program(rng, max_depth=3, max_block=3) for _ in range(40)]
        programs += [wide_program(rng, 7) for _ in range(2)]
        for program in programs:
            ours = prepare(program).kernels
            vm = prepare_vm(compile_program(program)).kernels
            for table in ("unitaries", "inits", "sites"):
                want = {key: type(k) for key, k in getattr(ours, table).items()}
                assert {key: type(k) for key, k in getattr(vm, table).items()} == want


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
            return computational(1 << k)
        return PLUS_MINUS if decl.builtin else decl.operators

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
        terminals.append((weight, held(rho)))

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

    @pytest.mark.parametrize("source", [
        pretty_print(wide_program(np.random.default_rng(4), 9)),
        grover_source(7, (5,)),
    ], ids=["wide9", "grover7"])
    def test_check_builds_no_dense_state(self, source, tmp_path, capsys, monkeypatch):
        # terminals are held by their support and merged and matched on it:
        # no density operator's 2^n x 2^n matrix is ever built
        dense = []
        matrix = DensityOperator.matrix

        def built(state):
            dense.append(state.dim)
            return matrix.fget(state)

        monkeypatch.setattr(DensityOperator, "matrix", property(built))
        path = tmp_path / "program.qw"
        path.write_text(source)
        assert qwhile.cli.main(["compile", str(path), "--check",
                                "--out", str(tmp_path / "program.fqasm")]) == 0
        assert "agree" in capsys.readouterr().out
        assert dense == []

    def test_a_state_holds_the_support_its_matrix_has(self):
        def assert_holds_its_support(state: DensityOperator) -> None:
            rows, block = state.support
            m = state.matrix
            want = nonzero_lines(m)
            assert rows.tolist() == want.tolist()
            assert block.tobytes() == m[want[:, None], want].tobytes()

        # the last row's products with every row underflow to +0.0, so its
        # matrix has no entry there and the held support leaves it out
        v = np.array([[0.4]] * 6 + [[0.2], [5e-324]], dtype=complex)
        assert_holds_its_support(state_of(v))
        assert state_of(v).support[0].tolist() == list(range(7))
        # shots end on |00> or on |+>|1>, two supports: the mean holds the
        # union of the shots' rows
        plan = prepare(parse("a : qubit; b : qubit; measure M = computational; H[a];"
                             " if M[a] = 0 -> skip; [] 1 -> H[b]; fi;"))
        mean = run_shots(plan, 40, 5).mean_final_state
        assert_holds_its_support(mean)
        base = SamplerState(5)
        ends = {tuple(run_shot(plan, base.child(k).seed).final_state.support[0].tolist())
                for k in range(40)}
        assert len(ends) == 2
        assert mean.support[0].tolist() == sorted(set().union(*ends))

    @pytest.mark.parametrize("limits", [dict(mass_threshold=float("nan")),
                                        dict(mass_threshold=-1e-9),
                                        dict(step_limit=0), dict(step_limit=-3)])
    def test_distribution_mode_refuses_a_limit_out_of_range(self, limits):
        program = parse(program_source("coin"))
        with pytest.raises(InvalidLimit):
            run_distribution(program, **limits)
        with pytest.raises(InvalidLimit):
            vm_distribution(compile_program(program), **limits)

    def test_sampled_mode_refuses_a_step_limit_below_one(self):
        program = parse(program_source("coin"))
        for limit in (0, -1):
            with pytest.raises(InvalidLimit):
                run_shot(program, 0, step_limit=limit)


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
    return DistributionResult([(w, held(m)) for w, m in pairs], 0.0)


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

    def test_supports_that_differ(self, rng):
        # Engine states are held by their support (rows S and block V_S V_S†).
        # Variants of each base state, each with a bit-identical copy, carry
        # an entry outside its support, on the diagonal (another key) or off
        # it (the same key, so the word order breaks the tie), at 0.5*atol
        # (merges) or 2*atol (does not), or a -0.0 (equal, other bits).
        atol, d = 1e-10, 8
        bases = []
        for rows, r in (((1, 2, 5), 2), ((0, 3), 1), ((2, 4, 6, 7), 3), ((1, 2, 5), 1)):
            v = np.zeros((d, r), dtype=complex)
            v[list(rows)] = rng.normal(size=(len(rows), r)) + 1j * rng.normal(size=(len(rows), r))
            bases.append(v / np.linalg.norm(v))
        states = []
        for v in bases:
            base = state_of(v)
            rows, m = base.support[0], state_of(v).matrix
            outside = [k for k in range(d) if k not in rows]
            states.append(base)
            for c in (0.5, 2.0):
                for at in [(k, k) for k in outside[:2]] + [(outside[0], rows[0]),
                                                          (rows[-1], outside[-1])]:
                    near = m.copy()
                    near[at] += c * atol * np.exp(2j * np.pi * rng.random())
                    states += [held(near), held(near)]  # bit-identical copies
            signed = m.copy()
            signed[outside[0], outside[0]] = -0.0
            states.append(held(signed))
        first = None
        for _ in range(4):
            raw = DistributionResult([(1 / len(states), s) for s in rng.permutation(states)], 0.0)
            got = raw.merged(atol)
            assert_identical(got, reference_merged(raw, atol))
            if first is None:
                first = got
                assert len(bases) < len(got.terminals) < len(states) // 2
            assert_identical(got, first)
            other = DistributionResult(raw.terminals[::-1], 0.0)
            assert match_distributions(raw, other, atol) is reference_match(raw, other, atol)
            half = DistributionResult(raw.terminals[::2], 0.0)
            assert match_distributions(raw, half, atol) is reference_match(raw, half, atol)
            assert match_distributions(first, got, atol) is reference_match(first, got, atol) is True

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
