"""Small-step execution of programs over a global density operator.

A configuration pairs the remaining program with the global state over
all declared registers, held as a factor (see Kernels below). The
remaining program is kept as a flat tuple of atomic statements (the
sequencing rule is transparent, so popping one atom is exactly one
transition):

* skip        pops.
* q := |0>    applies, per qubit (least significant first),
              rho -> P0 rho P0 + K rho K†  with P0 = |0><0|, K = |0><1|.
* U[...]      applies rho -> U rho U†.
* if/while    measures; sampled mode draws one outcome, distribution
              mode forks one successor per outcome with weight p_i.
              The loop guard continues on outcome 1 and exits on 0.

Branch weights are carried separately from states; states stay
normalized (trace 1) and the weighted state weight*rho recovers the
partial-density-operator formulation.

This AST interpreter and the f-QASM VM (`qwhile.fqasm.vm`) differ only
in how they dispatch one transition. Both hand their checked program to
`KernelTable`, which builds every operator in one walk of its
`statements()`, and run through the same two drivers: `run_sampled` for
seeded shots and `explore` for distribution mode. `run_sampled` records
transitions and outcomes only; `run_shot` counts a loop's body entries
from the outcome log (by loop rule L1, outcome 1 at a `while` site is one
entry). A step is one transition: one statement here (`skip` included),
one instruction in the VM (labels and jumps included).

Truncation rules, the same for both executors:

* A sampled run raises StepLimitExceeded when it has taken step_limit
  steps without terminating.
* Distribution mode explores branches breadth-first and drops a branch
  when its step count reaches step_limit (its weight is added to
  `residual` and to `step_limited`), or when it is about to measure
  while its weight is below mass_threshold (its weight is added to
  `residual`). A branch that does not measure again runs on until it
  terminates or reaches the step limit.
* Distribution mode expands at most BRANCH_BUDGET * step_limit
  configurations (100,000 at the default step limit): the work of ten
  branches that each run to the step limit, so a run that does not
  branch is cut by the step limit alone. Once the budget is spent, each
  configuration still queued is classified by the rules above, and one
  that would have been expanded has its weight added to `residual` and
  to `node_limited`.
* A measurement outcome of probability at most PROB_FLOOR (1e-12) is
  never sampled and forks no branch; its weight is counted nowhere.
* A sampled run's memo (below) stores at most MEMO_BYTES per plan; past
  that bound, transitions are computed and not stored.
* Both drivers refuse a step limit below 1, and distribution mode a mass
  threshold that is negative or NaN, with InvalidLimit.

Sampled mode walks a memo. Each configuration a sampled step reaches
keeps its own next transition, filled on first use: a step that does not
measure stores its successor; a measuring step stores its probabilities
prepared as `Outcomes(p)` and, filled on first draw, the successor of
each outcome; a terminal stores the support of its `state_of`, and each
run gets its own `DensityOperator` over it.
`initial_configuration(plan)` and the VM's
`_Config.start(plan)` return the plan's one root configuration
(`plan.root`, built by `rooted`), so every shot of `run_shots` and
`vm_run`, and every `step(c, rng)` walk from it, share one trie of
outcome histories, and a shot whose history an earlier shot took
applies no kernel. `run_sampled` and `successors`
with an rng go through it alike; distribution mode neither reads nor
fills it, and `run_distribution` and `vm_distribution` start from a
configuration of their own, so a plan that only explores holds no root.
The bits do not change: each shot draws from its own stream exactly as
without the memo (a certain outcome consumes no draw), and every stored
factor is the array the transition computes. Stored factors, blocks and
support rows are read-only. MEMO_BYTES bounds what the memo stores,
counted as each new array's bytes plus MEMO_ENTRY_BYTES per stored
transition for the objects around them; from the first transition that
does not fit, transitions are computed and not stored. The memo lives as
long as its plan, which is one CLI call: there is no cache across plans.
The plan holds the root; every configuration refers to the plan's
`Machine` (its kernel table and the memo's byte count), which refers to
neither, so a dropped plan and its memo are freed at once, by reference
counting, not by the cyclic garbage collector.

Merge rule, shared by `DistributionResult.merged` and
`match_distributions`; the groups depend on the set of terminals, never
on their order:

* Two states are equal when they have the same shape and
  max|a - b| <= atol (entrywise modulus: symmetric, no relative part).
* Canonical order: by shape, then by the real diagonal projected on
  linspace(0, 1, d), then by the bits (64-bit words, in order). Equal
  states' projections differ by at most d * atol, so each state is
  compared only with the group leaders that close behind it.
* In that order, a state joins the first earlier leader it equals, or
  else leads a new group. A merged terminal has its leader's state and
  the `math.fsum` of its group's weights; merged terminals are sorted by
  decreasing weight, ties in canonical order.

Kernels. Every state is held as a factor V, a 2^n x r complex array
with rho = V V†, starting from the 2^n x 1 column e0. `KernelTable`
builds the kernel of each operator once, when the table is built, from
`qwhile.core.kernels`, whose docstring states each kind of kernel and
the rank rule; every step applies one of them to V.

Every run starts from e0, and states leave the engine in four places
only: a terminal in `explore`, a sampled run's final state, the `state`
property of a configuration (`Configuration` here, the VM's `_Config`),
and the mean final state of `run_shots`. The first three are
`state_of(V)`, the last is the mean of the shots' final states; each is
a `DensityOperator` held by its support: the nonzero rows S and the
|S| x |S| block on them (V_S V_S† for a factor). Its dense matrix (zero
plus the block on S x S) is built each time `.matrix` is read, so
merging and matching terminals, and the CLI's diagonal listing above
dimension 16, never build one.

The merge rule reads supports only. The key is the block's diagonal
written into a d-vector, the same bits as the full matrix's diagonal.
Copies are equal (S, block bits). The distance is max|a - b| over the
block on the union of the two supports, an entry present on one side
only counting against 0; every entry outside that block is 0 in both
matrices, so it equals the full-matrix max|a - b|. The word order
compares the blocks on the union: S is sorted, so they hold the full
matrix's nonzero words in its order (flat position S[i]*d + S[j]).
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from functools import cmp_to_key
from itertools import count, groupby
from math import fsum
from typing import Any, Callable, NamedTuple

import numpy as np

from ..core.gates import STANDARD_LIBRARY
from ..core.kernels import (Diagonal, DiagonalSite, General, GeneralSite, Monomial, Reset,
                            operator_kernel, site_kernel, state_of)
from ..core.linalg import DEFAULT_DISTRIBUTION_STEP_LIMIT, DEFAULT_STEP_LIMIT, nonzero_lines
from ..core.types import PLUS_MINUS, DensityOperator
from ..errors import InvalidLimit, QwhileError, StepLimitExceeded
from ..lang.checker import require_valid
from ..lang.syntax import Case, Init, Seq, Skip, SourceProgram, Stmt, Unitary, While
from .sampler import PROB_FLOOR, Outcomes, SamplerState

DEFAULT_MASS_THRESHOLD = 1e-6
BRANCH_BUDGET = 10
MEMO_BYTES = 32 * 2**20     # per plan, for the sampled-mode memo
MEMO_ENTRY_BYTES = 512      # counted per stored transition besides its arrays


class KernelTable:
    """The register layout and every operator a program applies, each
    built once per distinct operation as the kernel its structure
    allows, in one walk of `program.statements()`, and shared by both
    executors.

    Keys are operation values, so every site that applies the same
    operation shares one kernel: `unitaries[(gate, regs)]`, `inits[reg]`
    and `sites[(meas, regs)]`. Registers are laid out in declaration
    order. `program` is a checked program (`Declarations.checked`, set by
    `lang.checker`): `prepare` and `prepare_vm` build a table only after
    `require_valid`. Its `gate_decl` and `meas_decl` resolve names, and
    the table only resolves and classifies: it decides neither unitarity
    nor completeness again.
    """

    def __init__(self, program):
        self.positions: dict[str, tuple[int, ...]] = {}
        at = 0
        for name, width in program.registers:
            self.positions[name] = tuple(range(at, at + width))
            at += width
        self.n = at
        self.unitaries: dict[tuple[str, tuple[str, ...]], Diagonal | Monomial | General] = {}
        self.inits: dict[str, Reset] = {}
        self.sites: dict[tuple[str, tuple[str, ...]], DiagonalSite | GeneralSite] = {}
        for s in program.statements():
            if isinstance(s, Init) and s.target not in self.inits:
                self.inits[s.target] = Reset(self.positions[s.target], self.n)
            elif isinstance(s, Unitary) and (s.gate, s.regs) not in self.unitaries:
                decl = program.gate_decl(s.gate)
                matrix = STANDARD_LIBRARY[s.gate] if decl is None else decl.matrix
                self.unitaries[s.gate, s.regs] = operator_kernel(matrix, self._span(s.regs), self.n)
            elif isinstance(s, (Case, While)) and (s.meas, s.regs) not in self.sites:
                decl, pos = program.meas_decl(s.meas), self._span(s.regs)
                if decl.builtin == "computational":
                    self.sites[s.meas, s.regs] = DiagonalSite(np.eye(1 << len(pos)), pos, self.n)
                else:
                    ops = PLUS_MINUS if decl.builtin == "plusminus" else decl.operators
                    self.sites[s.meas, s.regs] = site_kernel(ops, pos, self.n)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def initial_factor(self) -> np.ndarray:
        """e0 as a one-column factor: the state |0...0><0...0|."""
        v = np.zeros((self.dim, 1), dtype=complex)
        v[0, 0] = 1.0
        return v

    def _span(self, regs: tuple[str, ...]) -> tuple[int, ...]:
        out: tuple[int, ...] = ()
        for r in regs:
            out += self.positions[r]
        return out


# --- the two drivers ---------------------------------------------------------

class Fork(NamedTuple):
    """An executor's configuration about to measure. The drivers choose
    the outcomes; `resume(outcome, post_factor, weight)` builds the
    executor's successor for each."""

    site: int                  # site id logged with the outcome
    kernel: DiagonalSite | GeneralSite
    factor: np.ndarray
    resume: Callable[[int, np.ndarray, float], Any]

    def branches(self, weight: float) -> list:
        """The successor of every outcome above PROB_FLOOR, with the
        weight times its probability."""
        p = self.kernel.probabilities(self.factor)
        return [self.after(i, weight * float(p[i])) for i in range(len(p)) if p[i] > PROB_FLOOR]

    def after(self, outcome: int, weight: float):
        """The successor of `outcome`, with the given weight."""
        return self.resume(outcome, self.kernel.collapse(self.factor, outcome), weight)


class Node:
    """What both executors' configurations share: the factor V (rho = V
    V†, Kernels in the module docstring), the branch weight (distribution mode), the
    plan's `Machine`, and the sampled-mode memo: `memo` holds the next
    transition (a successor, or a `_Measured`), `final` a terminal's
    state as its support (rows, block)."""

    __slots__ = ("factor", "weight", "machine", "memo", "final")

    def __init__(self, factor: np.ndarray, weight: float, machine: Machine):
        self.factor, self.weight, self.machine = factor, weight, machine
        self.memo = self.final = None

    @property
    def state(self) -> DensityOperator:
        return state_of(self.factor)


class Machine:
    """What every configuration of a plan refers to: the plan's kernel
    table and the bytes its sampled-mode memo holds (module docstring).
    It holds neither the plan nor the memo's root. The first transition
    that does not fit the bound ends storing, so every stored transition
    hangs from the root or from a configuration the caller holds."""

    __slots__ = ("kernels", "held", "full")

    def __init__(self, kernels: KernelTable):
        self.kernels = kernels
        self.held = 0
        self.full = False

    def fits(self, arrays: tuple[np.ndarray, ...]) -> bool:
        """Whether one more stored transition holding `arrays` fits the
        bound. If so it is counted, as MEMO_ENTRY_BYTES plus the bytes of
        each array not yet read-only, and every array is made read-only (a
        read-only array is one the memo already holds, or the root's)."""
        if self.full:
            return False
        nbytes = MEMO_ENTRY_BYTES + sum(a.nbytes for a in arrays if a.flags.writeable)
        if self.held + nbytes > MEMO_BYTES:
            self.full = True
            return False
        self.held += nbytes
        for a in arrays:
            a.flags.writeable = False
        return True


class _Measured:
    """The memo of a configuration about to measure: its Fork, its outcome
    probabilities prepared for sampling, and the successor of each
    outcome, filled on first draw."""

    __slots__ = ("fork", "outcomes", "succ")

    def __init__(self, fork: Fork):
        p = fork.kernel.probabilities(fork.factor)
        self.fork, self.outcomes, self.succ = fork, Outcomes(p), [None] * len(p)


def rooted(plan, build: Callable[[], Node]) -> Node:
    """The plan's root configuration, built by `build` on first use, its
    factor read-only."""
    if plan.root is None:
        root = build()
        root.factor.flags.writeable = False
        plan.root = root
    return plan.root


def _sampled(c: Node, advance: Callable, rng: SamplerState) -> tuple[Node, tuple[int, int] | None]:
    """c's successor in sampled mode, with the (site, outcome) it drew
    (None when c does not measure), read from c's memo and stored there
    on first use while the memo has room (`Machine.fits`)."""
    nxt = c.memo
    if nxt is None:
        nxt = advance(c)
        if isinstance(nxt, Fork):
            nxt = _Measured(nxt)
            if c.machine.fits((c.factor,)):
                c.memo = nxt
        elif c.machine.fits((c.factor,) if nxt.factor is c.factor else (c.factor, nxt.factor)):
            c.memo = nxt
    if nxt.__class__ is not _Measured:
        return nxt, None
    fork = nxt.fork
    outcome = nxt.outcomes.sample(rng)
    succ = nxt.succ[outcome]
    if succ is None:
        succ = fork.after(outcome, c.weight)
        if c.memo is nxt and c.machine.fits((succ.factor,)):
            nxt.succ[outcome] = succ
    return succ, (fork.site, outcome)


def _final_state(c: Node) -> DensityOperator:
    """The state of the terminal c, its support kept in c's memo while the
    memo has room. Each call returns its own `DensityOperator` over it."""
    if c.final is None:
        state = state_of(c.factor)
        if not c.machine.fits(state.support):
            return state
        c.final = state.support
    return DensityOperator(len(c.factor), *c.final)


def successors(advance: Callable, c, rng: SamplerState | None = None) -> list:
    """The configurations one transition leads to from c: with rng, the
    one sampled successor, through c's memo; without, every branch.
    `advance(c)` returns the successor, or a Fork when c is about to
    measure."""
    if rng is not None:
        return [_sampled(c, advance, rng)[0]]
    nxt = advance(c)
    if isinstance(nxt, Fork):
        return nxt.branches(c.weight)
    return [nxt]


def _check_limits(step_limit: int, mass_threshold: float = 0.0) -> None:
    if not step_limit >= 1:
        raise InvalidLimit(f"step limit must be at least 1, got {step_limit}")
    if not mass_threshold >= 0.0:
        raise InvalidLimit(f"mass threshold must be at least 0, got {mass_threshold}")


def run_sampled(c, advance: Callable, seed: int, step_limit: int) -> RunRecord:
    """Run configuration c to termination with measurements sampled from
    `seed`, through the memo (module docstring). Configurations are
    `Node`s exposing `terminated`; `advance` is the executor's transition
    (see `successors`). The record's `loop_counts` is left empty."""
    _check_limits(step_limit)
    rng = SamplerState(seed)
    outcomes: list[tuple[int, int]] = []
    steps = 0
    while not c.terminated:
        if steps >= step_limit:
            raise StepLimitExceeded(f"no termination after {step_limit} steps")
        c, drawn = _sampled(c, advance, rng)
        steps += 1
        if drawn is not None:
            outcomes.append(drawn)
    return RunRecord(outcomes, _final_state(c), steps, {})


def explore(c0, step_fn: Callable[[Any], list], mass_threshold: float,
            step_limit: int) -> DistributionResult:
    """Every branch from c0, breadth-first, truncated by the rules in the
    module docstring. Configurations expose `terminated`,
    `at_measurement`, `weight` and `state` (read once per terminal);
    `step_fn(c)` lists c's successors with their weights."""
    _check_limits(step_limit, mass_threshold)
    queue: deque[tuple[Any, int]] = deque([(c0, 0)])
    terminals: list[tuple[float, DensityOperator]] = []
    residual = step_limited = node_limited = 0.0
    budget = BRANCH_BUDGET * step_limit
    expanded = 0
    while queue:
        c, steps = queue.popleft()
        if c.terminated:
            terminals.append((c.weight, c.state))
            continue
        if steps >= step_limit:
            residual += c.weight
            step_limited += c.weight
            continue
        if c.at_measurement and c.weight < mass_threshold:
            residual += c.weight
            continue
        if expanded >= budget:
            residual += c.weight
            node_limited += c.weight
            continue
        expanded += 1
        for succ in step_fn(c):
            queue.append((succ, steps + 1))
    return DistributionResult(terminals, residual, step_limited, node_limited).merged()


# --- the AST interpreter -----------------------------------------------------

class _Site(NamedTuple):
    id: int                                  # pre-order, from 1
    next: dict[int, tuple[Stmt, ...]]        # outcome -> statements it runs first


# A Case or While at one position: every occurrence in the AST, even of one
# shared object, becomes its own copy carrying its own site.
@dataclass(frozen=True, eq=False)
class _CaseAt(Case):
    site: _Site = field(repr=False)


@dataclass(frozen=True, eq=False)
class _WhileAt(While):
    site: _Site = field(repr=False)


@dataclass
class PreparedProgram:
    """A checked program, its kernel table, and its body as the atoms
    a configuration runs, measurements carrying their sites. Its
    configurations refer to `machine`; `root` is the sampled-mode memo's
    root configuration, once a shot has run."""

    program: SourceProgram
    kernels: KernelTable
    body: tuple[Stmt, ...] = ()
    site_meta: list[tuple[int, str, str]] = field(default_factory=list)  # (id, kind, label)
    machine: Machine = field(init=False, repr=False, compare=False)
    root: Configuration | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.machine = Machine(self.kernels)

    def loop_sites(self) -> list[int]:
        return [sid for sid, kind, _ in self.site_meta if kind == "while"]


def prepare(program: SourceProgram) -> PreparedProgram:
    """The plan of `program`, checked first unless it is already."""
    require_valid(program)
    plan = PreparedProgram(program, KernelTable(program))
    plan.body = _lower(program.body, plan.site_meta, count(1))
    return plan


def _lower(s: Stmt, site_meta: list[tuple[int, str, str]], ids) -> tuple[Stmt, ...]:
    """s as a flat tuple of atoms (the sequencing rule is transparent),
    each measurement replaced by a copy carrying its site, numbered by
    `ids` and listed in `site_meta`."""
    if isinstance(s, Seq):
        return tuple(atom for sub in s.stmts for atom in _lower(sub, site_meta, ids))
    if isinstance(s, (Case, While)):
        kind = "case" if isinstance(s, Case) else "while"
        site = _Site(next(ids), {})
        site_meta.append((site.id, kind, f"{kind}:{s.meas}[{','.join(s.regs)}]"))
        if isinstance(s, Case):
            for k, body in s.branches:
                site.next[k] = _lower(body, site_meta, ids)
            return (_CaseAt(s.meas, s.regs, s.branches, site),)
        # loop rule L1 runs the body then re-checks the guard; L0 exits
        at = _WhileAt(s.meas, s.regs, s.body, site)
        site.next[1] = _lower(s.body, site_meta, ids) + (at,)
        return (at,)
    if not isinstance(s, (Init, Unitary, Skip)):
        raise QwhileError(f"cannot lower statement {type(s).__name__}")
    return (s,)


class Configuration(Node):
    """<remaining program, state>, the state held as its factor V (rho =
    V V†, Kernels in the module docstring); weight carries branch mass in distribution
    mode."""

    __slots__ = ("remaining",)

    def __init__(self, remaining: tuple[Stmt, ...], factor: np.ndarray, weight: float,
                 machine: Machine):
        super().__init__(factor, weight, machine)
        self.remaining = remaining

    @property
    def terminated(self) -> bool:
        return not self.remaining

    @property
    def at_measurement(self) -> bool:
        return isinstance(self.remaining[0], (Case, While))


def initial_configuration(program: SourceProgram | PreparedProgram) -> Configuration:
    """The plan's root configuration (module docstring)."""
    plan = program if isinstance(program, PreparedProgram) else prepare(program)
    return rooted(plan, lambda: _fresh(plan))


def _fresh(plan: PreparedProgram) -> Configuration:
    """A start configuration outside the plan's memo, in |0...0><0...0|."""
    return Configuration(plan.body, plan.kernels.initial_factor(), 1.0, plan.machine)


def _advance(c: Configuration) -> Configuration | Fork:
    if c.terminated:
        raise QwhileError("cannot step a terminated configuration")
    machine = c.machine
    s, rest = c.remaining[0], c.remaining[1:]
    v = c.factor
    kernels = machine.kernels

    def conf(remaining, factor, weight=c.weight) -> Configuration:
        return Configuration(remaining, factor, weight, machine)

    if isinstance(s, Skip):
        return conf(rest, v)
    if isinstance(s, Init):
        return conf(rest, kernels.inits[s.target].apply(v))
    if isinstance(s, Unitary):
        return conf(rest, kernels.unitaries[s.gate, s.regs].apply(v))
    site = s.site
    return Fork(site.id, kernels.sites[s.meas, s.regs], v,
                lambda outcome, post, weight: conf(site.next.get(outcome, ()) + rest,
                                                   post, weight))


def step(c: Configuration, rng: SamplerState | None = None) -> list[Configuration]:
    """One transition. With rng: a single sampled successor, read from
    c's memo (module docstring). Without rng: one successor per
    measurement outcome, weights multiplied by p_i."""
    return successors(_advance, c, rng)


# --- one-shot runs -----------------------------------------------------------

@dataclass
class RunRecord:
    """Trace of one sampled run."""

    outcomes: list[tuple[int, int]]          # (site id, outcome index)
    final_state: DensityOperator
    steps: int
    loop_counts: dict[int, int]              # loop site id -> body entries


def run_shot(program: SourceProgram | PreparedProgram, seed: int,
             step_limit: int = DEFAULT_STEP_LIMIT) -> RunRecord:
    """Run once with sampled measurements; deterministic for a given seed."""
    plan = program if isinstance(program, PreparedProgram) else prepare(program)
    record = run_sampled(initial_configuration(plan), _advance, seed, step_limit)
    # by loop rule L1, outcome 1 at a while site is one entry into its body
    record.loop_counts = {sid: 0 for sid in plan.loop_sites()}
    for sid, outcome in record.outcomes:
        if outcome == 1 and sid in record.loop_counts:
            record.loop_counts[sid] += 1
    return record


@dataclass
class ShotStats:
    """Aggregate over n independent seeded shots."""

    shots: int
    seed: int
    site_outcomes: dict[int, Counter]        # site id -> outcome -> count
    loop_histogram: dict[int, Counter]       # loop site id -> body entries -> #shots
    site_meta: list[tuple[int, str, str]]
    mean_final_state: DensityOperator

    def shots_entering(self, site_id: int) -> int:
        hist = self.loop_histogram[site_id]
        return self.shots - hist.get(0, 0)

    def total_entries(self, site_id: int) -> int:
        return sum(k * c for k, c in self.loop_histogram[site_id].items())

    def to_csv_rows(self) -> list[tuple[str, int, int, int]]:
        rows = [("outcome", sid, outcome, count)
                for sid, counter in sorted(self.site_outcomes.items())
                for outcome, count in sorted(counter.items())]
        rows += [("circles", sid, k, count)
                 for sid, counter in sorted(self.loop_histogram.items())
                 for k, count in sorted(counter.items())]
        return rows

    def to_json_dict(self) -> dict:
        return {
            "shots": self.shots,
            "seed": self.seed,
            "sites": [{"id": sid, "kind": kind, "label": label}
                      for sid, kind, label in self.site_meta],
            "outcomes": {str(sid): dict(sorted(c.items()))
                         for sid, c in sorted(self.site_outcomes.items())},
            "circles": {str(sid): dict(sorted(c.items()))
                        for sid, c in sorted(self.loop_histogram.items())},
        }


def run_shots(program: SourceProgram | PreparedProgram, n: int, seed: int,
              step_limit: int = DEFAULT_STEP_LIMIT) -> ShotStats:
    """n independent shots; shot k runs with seed splitmix64(seed, k)."""
    if n < 1:
        raise QwhileError("need at least one shot")
    plan = program if isinstance(program, PreparedProgram) else prepare(program)
    site_outcomes: dict[int, Counter] = {sid: Counter() for sid, _, _ in plan.site_meta}
    loop_histogram: dict[int, Counter] = {sid: Counter() for sid in plan.loop_sites()}
    base = SamplerState(seed)
    # the mean starts at +0.0 and so never holds -0.0: adding each shot's
    # block on its support gives the bits adding its dense matrix would
    mean = np.zeros((plan.kernels.dim, plan.kernels.dim), dtype=complex)
    for k in range(n):
        record = run_shot(plan, base.child(k).seed, step_limit)
        for sid, outcome in record.outcomes:
            site_outcomes[sid][outcome] += 1
        for sid, count in record.loop_counts.items():
            loop_histogram[sid][count] += 1
        rows, block = record.final_state.support
        mean[rows[:, None], rows] += block
    mean /= n
    # every entry outside the block on its nonzero lines is +0.0
    rows = nonzero_lines(mean)
    block = mean if len(rows) == len(mean) else mean[rows[:, None], rows]
    return ShotStats(n, seed, site_outcomes, loop_histogram, list(plan.site_meta),
                     DensityOperator(len(mean), rows, block))


# --- exhaustive distribution mode --------------------------------------------

@dataclass
class DistributionResult:
    """Weighted terminal states plus unexplored (truncated) mass;
    `step_limited` and `node_limited` are the parts of `residual` cut by
    the step limit and by the node budget."""

    terminals: list[tuple[float, DensityOperator]]
    residual: float
    step_limited: float = 0.0
    node_limited: float = 0.0

    def merged(self, atol: float = 1e-10) -> "DistributionResult":
        """Coalesce terminals with equal states by the merge rule in the
        module docstring."""
        groups = _groups([s for _, s in self.terminals], atol)
        weights = [fsum(self.terminals[i][0] for i in g) for g in groups]
        order = sorted(range(len(groups)), key=lambda k: -weights[k])
        return DistributionResult([(weights[k], self.terminals[groups[k][0]][1]) for k in order],
                                  self.residual, self.step_limited, self.node_limited)


Support = tuple[np.ndarray, np.ndarray]  # (S, block), see DensityOperator.support


def _groups(states: list[DensityOperator], atol: float) -> list[list[int]]:
    """Indices into states grouped by the merge rule in the module
    docstring, groups in canonical order, each led by its first member.
    Every comparison reads the states' supports, never a dense matrix."""
    ramps = {d: np.linspace(0.0, 1.0, d) for d in {s.dim for s in states}}
    keys = [(s.dim, float(s.diagonal() @ ramps[s.dim])) for s in states]
    supports = [s.support for s in states]
    groups: list[list[int]] = []
    reach: deque[list[int]] = deque()  # groups whose leader's key is within d*atol
    for (d, p), tied in groupby(sorted(range(len(states)), key=keys.__getitem__),
                                keys.__getitem__):
        tied = list(tied)
        if len(tied) == 1:
            copies = [tied]
        else:  # the states with this key, bit-identical ones together
            alike: dict[tuple[bytes, bytes], list[int]] = {}
            for i in tied:
                rows, block = supports[i]
                alike.setdefault((rows.tobytes(), block.tobytes()), []).append(i)
            copies = list(alike.values())
            copies.sort(key=cmp_to_key(lambda c, e: _word_order(supports[c[0]], supports[e[0]])))
        while reach and keys[reach[0][0]] < (d, p - d * atol):
            reach.popleft()
        for c in copies:
            group = next((g for g in reach if _distance(supports[c[0]], supports[g[0]]) <= atol),
                         None)
            if group is None:
                groups.append(c)
                reach.append(c)
            else:
                group += c
    return groups


def _on_union(a: Support, b: Support) -> tuple[np.ndarray, np.ndarray]:
    """The blocks of the supports a and b, each written on the union of
    their rows (zero off its own rows). Every entry of either full matrix
    outside that union's block is zero."""
    if np.array_equal(a[0], b[0]):
        return a[1], b[1]
    union = np.union1d(a[0], b[0])

    def placed(rows: np.ndarray, block: np.ndarray) -> np.ndarray:
        at = np.searchsorted(union, rows)
        m = np.zeros((len(union), len(union)), dtype=complex)
        m[at[:, None], at] = block
        return m

    return placed(*a), placed(*b)


def _distance(a: Support, b: Support) -> float:
    """max|A - B| over the full matrices A and B of the supports a and b:
    on the union of their rows, where an entry on one side only counts
    against 0, since both are zero everywhere else."""
    x, y = _on_union(a, b)
    return float(np.abs(x - y).max(initial=0.0))


def _word_order(a: Support, b: Support) -> int:
    """-1 if the 64-bit words of the full matrix of support a come before
    those of support b, read in order, else 1 (a and b differ). Rows are
    sorted, so the blocks on the union of the rows hold the nonzero words
    of both full matrices in the full order (flat position S[i]*d + S[j])."""
    x, y = (np.ascontiguousarray(m).view(np.uint64).ravel() for m in _on_union(a, b))
    i = (x != y).argmax()
    return -1 if x[i] < y[i] else 1


def match_distributions(a: DistributionResult, b: DistributionResult,
                        atol: float = 1e-9) -> bool:
    """True iff the residuals agree within atol and, after merging each
    side with this atol, every group of their terminals taken together
    (the merge rule in the module docstring) holds one terminal of each
    side, with weights within atol."""
    if abs(a.residual - b.residual) > atol:
        return False
    ours = a.merged(atol).terminals
    terminals = ours + b.merged(atol).terminals
    return all(len(g) == 2 and (g[0] < len(ours)) != (g[1] < len(ours))
               and abs(terminals[g[0]][0] - terminals[g[1]][0]) <= atol
               for g in _groups([s for _, s in terminals], atol))


def run_distribution(program: SourceProgram | PreparedProgram,
                     mass_threshold: float = DEFAULT_MASS_THRESHOLD,
                     step_limit: int = DEFAULT_DISTRIBUTION_STEP_LIMIT) -> DistributionResult:
    """Explore every measurement branch breadth-first, truncated by the
    rules in the module docstring, from a start configuration outside the
    plan's memo."""
    plan = program if isinstance(program, PreparedProgram) else prepare(program)
    return explore(_fresh(plan), step, mass_threshold, step_limit)
