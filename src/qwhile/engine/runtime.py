"""Small-step execution of programs over a global density operator.

A configuration pairs the remaining program with the global state over
all declared registers. The remaining program is kept as a flat tuple of
atomic statements (the sequencing rule is transparent, so popping one
atom is exactly one transition):

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
in how they dispatch one transition. Both build their operators in one
`KernelTable` and run through the same two drivers: `run_sampled` for
seeded shots and `explore` for distribution mode. A step is one
transition: one statement here (`skip` included), one instruction in
the VM (labels and jumps included).

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

Kernels. `KernelTable` classifies each operator once, when it is added,
by its exact zero pattern and never by the size of the space, and
applies it through the cheapest exact kernel for that structure; no
operator is ever embedded as a dense 2^n matrix:

* diagonal    (Z, S, T, phase oracles): rho * (d ⊗ d̄), d the full-space
              diagonal.
* monomial    (X, CNOT, permutation oracles): one gather of rho's rows and
              columns through a precomputed permutation of the basis,
              times phases unless all are 1.
* general     (H, dense gates): reshape and matmul on the target axes
              (tensordot when the targets are not adjacent).
* reset       (q := |0>): the diagonal blocks of the register's qubits
              summed into the |0...0> block, in the order above.
* diagonal site (every Kraus operator diagonal, `computational`
              included): probabilities from diag(rho); collapse by one
              block slice for an operator with one nonzero entry, else the
              diagonal kernel.
* general site: probabilities from the reduced state of the measured
              qubits, collapse through each operator's kernel.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Callable, NamedTuple

import numpy as np

from ..core.gates import STANDARD_LIBRARY
from ..core.linalg import as_matrix, conjugate_density, partial_trace, trace_inner
from ..core.types import PLUS_MINUS, DensityOperator
from ..errors import DimMismatch, QwhileError, StepLimitExceeded
from ..lang.checker import require_valid
from ..lang.syntax import Case, Init, Seq, Skip, SourceProgram, Stmt, Unitary, While
from .sampler import PROB_FLOOR, SamplerState, sample_outcome

DEFAULT_STEP_LIMIT = 10**6
DEFAULT_MASS_THRESHOLD = 1e-6
DEFAULT_DISTRIBUTION_STEP_LIMIT = 10_000
BRANCH_BUDGET = 10


# --- kernels -----------------------------------------------------------------
#
# Basis index x of the n-qubit space holds qubit q at bit n-1-q (qubit 0 is
# the most significant), and an operator on qubits `positions` reads
# positions[0] as the most significant bit of its local index.

def _bit_maps(positions: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray]:
    """(local, spread): local[x] is the local index that basis state x has
    on `positions`; spread[l] is local index l's bits placed at their
    positions in an n-qubit index (zero elsewhere)."""
    k = len(positions)
    x, lidx = np.arange(1 << n), np.arange(1 << k)
    local = np.zeros(1 << n, dtype=np.intp)
    spread = np.zeros(1 << k, dtype=np.intp)
    for j, p in enumerate(positions):
        local |= ((x >> (n - 1 - p)) & 1) << (k - 1 - j)
        spread |= ((lidx >> (k - 1 - j)) & 1) << (n - 1 - p)
    return local, spread


class _Diagonal:
    """E diagonal: E rho E† = rho * (d ⊗ d̄) with d the full-space diagonal."""

    __slots__ = ("d", "dc")

    def __init__(self, diagonal: np.ndarray, positions: tuple[int, ...], n: int):
        self.d = diagonal[_bit_maps(positions, n)[0]]
        self.dc = self.d.conj()

    def sandwich(self, rho: np.ndarray) -> np.ndarray:
        out = rho * self.d[:, None]
        out *= self.dc
        return out


class _Monomial:
    """E with one nonzero per row and column, E[a, s(a)] = e_a:
    (E rho E†)[a, b] = e_a rho[s(a), s(b)] conj(e_b), one gather through
    the basis permutation s (2^n entries)."""

    __slots__ = ("src", "rows", "phases")

    def __init__(self, op: np.ndarray, positions: tuple[int, ...], n: int):
        local, spread = _bit_maps(positions, n)
        cols = np.argmax(op != 0, axis=1)
        self.src = (np.arange(1 << n) & ~spread[-1]) | spread[cols[local]]
        self.rows = self.src[:, None]
        phases = op[np.arange(len(op)), cols][local]
        self.phases = None if (phases == 1).all() else phases

    def sandwich(self, rho: np.ndarray) -> np.ndarray:
        out = rho[self.rows, self.src]
        if self.phases is not None:
            out *= self.phases[:, None]
            out *= self.phases.conj()
        return out


def _contraction(op: np.ndarray, a: int, b: int) -> Callable[[np.ndarray], np.ndarray]:
    """x -> op applied to the middle axis of x viewed as (a, len(op), b).

    The layout is fixed here: one matrix product when b is 1, a batched
    matmul while the batches are few or wide, else one tensordot (a
    batched matmul over thousands of narrow batches is several times
    slower)."""
    k = len(op)
    if b == 1:
        op_t = op.T.copy()
        return lambda x: x.reshape(a, k) @ op_t
    if a <= 128 or b >= 64:
        return lambda x: np.matmul(op, x.reshape(a, k, b))
    return lambda x: np.tensordot(op, x.reshape(a, k, b), axes=(1, 1)).transpose(1, 0, 2)


class _General:
    """Any other E: E on the row axes, then Ē on the column axes, by
    reshape and matmul when the targets are adjacent (in any order), by
    tensordot over their axes otherwise."""

    __slots__ = ("op", "positions", "n", "rows", "cols")

    def __init__(self, op: np.ndarray, positions: tuple[int, ...], n: int):
        self.op, self.positions, self.n = op, positions, n
        self.rows = self.cols = None
        k, lo = len(positions), min(positions)
        if max(positions) - lo == k - 1:
            order = list(np.argsort(positions))
            op = op.reshape((2,) * (2 * k)).transpose(order + [k + i for i in order])
            op = op.reshape(1 << k, 1 << k)
            below = 1 << (n - lo - k)
            self.rows = _contraction(op, 1 << lo, below << n)
            self.cols = _contraction(op.conj(), 1 << (n + lo), below)

    def sandwich(self, rho: np.ndarray) -> np.ndarray:
        if self.rows is None:
            return conjugate_density(rho, self.op, self.positions, self.n)
        return self.cols(self.rows(rho)).reshape(rho.shape)


def sandwich_kernel(op, positions: tuple[int, ...], n: int) -> _Diagonal | _Monomial | _General:
    """The kernel applying rho -> E rho E†, where E acts as `op` on the
    qubits `positions` of an n-qubit space, chosen by op's exact zero
    pattern (never by size)."""
    op = _fitted(op, positions, n)
    if _is_diagonal(op):
        return _Diagonal(np.diagonal(op), positions, n)
    nonzero = op != 0
    if (nonzero.sum(axis=0) == 1).all() and (nonzero.sum(axis=1) == 1).all():
        return _Monomial(op, positions, n)
    return _General(op, positions, n)


def _fitted(op, positions: tuple[int, ...], n: int) -> np.ndarray:
    op = as_matrix(op)
    k = len(positions)
    if op.shape != (1 << k, 1 << k):
        raise DimMismatch(f"operator shape {op.shape} does not fit {k} qubit(s)")
    if len(set(positions)) != k or any(not 0 <= p < n for p in positions):
        raise DimMismatch(f"bad qubit positions {positions} for n={n}")
    return op


def _is_diagonal(op: np.ndarray) -> bool:
    return not op[~np.eye(len(op), dtype=bool)].any()


class _Reset:
    """q := |0> on a register: for each of its qubits, least significant
    first, the |1><1| block is added to the |0><0| block and the rest of
    that qubit's blocks dropped; the sum lands in the all-zero block."""

    __slots__ = ("n", "steps", "block")

    def __init__(self, positions: tuple[int, ...], n: int):
        self.n = n
        self.steps: list[tuple[tuple, tuple]] = []  # (|0><0| block, |1><1| block)
        left = list(range(n))
        for q in reversed(positions):
            i, m = left.index(q), len(left)
            zero, one = [slice(None)] * (2 * m), [slice(None)] * (2 * m)
            zero[i] = zero[m + i] = 0
            one[i] = one[m + i] = 1
            self.steps.append((tuple(zero), tuple(one)))
            left.remove(q)
        block: list = [slice(None)] * (2 * n)
        for q in positions:
            block[q] = block[n + q] = 0
        self.block = tuple(block)

    def sandwich(self, rho: np.ndarray) -> np.ndarray:
        t = rho.reshape((2,) * (2 * self.n))
        for zero, one in self.steps:
            t = t[zero] + t[one]
        out = np.zeros(rho.shape, dtype=complex)
        out.reshape((2,) * (2 * self.n))[self.block] = t
        return out


def _normalized(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise QwhileError(f"measurement probabilities sum to {total}")
    return p / total


class _DiagonalSite:
    """A measurement whose Kraus operators are all diagonal. Probabilities
    come from diag(rho). An outcome whose operator has one nonzero entry,
    at local index l, collapses to the block of rho on l, renormalized
    (one slice); any other goes through the diagonal kernel. `diags`
    holds one local diagonal per outcome."""

    __slots__ = ("positions", "n", "local", "weights", "outcomes")

    def __init__(self, diags: np.ndarray, positions: tuple[int, ...], n: int):
        self.positions, self.n = positions, n
        self.local = _bit_maps(positions, n)[0]
        self.weights = np.abs(diags) ** 2
        # per outcome: its one nonzero local index, or the diagonal kernel
        self.outcomes: list[int | _Diagonal] = []
        for d in diags:
            nz = np.flatnonzero(d)
            self.outcomes.append(int(nz[0]) if len(nz) == 1 else _Diagonal(d, positions, n))

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        p = np.bincount(self.local, weights=np.diagonal(rho).real,
                        minlength=1 << len(self.positions))
        return _normalized(self.weights @ p)

    def collapse(self, rho: np.ndarray, outcome: int) -> np.ndarray:
        basis = self.outcomes[outcome]
        if isinstance(basis, _Diagonal):
            post = basis.sandwich(rho)
            return post / post.trace().real
        n, k = self.n, len(self.positions)
        pick: list = [slice(None)] * (2 * n)
        for j, p in enumerate(self.positions):
            pick[p] = pick[n + p] = (basis >> (k - 1 - j)) & 1
        pick = tuple(pick)
        side = 1 << (n - k)
        block = rho.reshape((2,) * (2 * n))[pick].reshape(side, side)
        out = np.zeros(rho.shape, dtype=complex)
        out.reshape((2,) * (2 * n))[pick] = (block / block.trace().real).reshape(
            (2,) * (2 * (n - k)))
        return out


class _GeneralSite:
    """Any other measurement: probabilities from the reduced state of the
    measured qubits, collapse through each operator's sandwich kernel."""

    __slots__ = ("positions", "n", "ops", "poms")

    def __init__(self, operators, positions: tuple[int, ...], n: int):
        self.positions, self.n = positions, n
        self.ops = [sandwich_kernel(m, positions, n) for m in operators]
        self.poms = [m.conj().T @ m for m in operators]  # M†M in the local space

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        reduced = partial_trace(rho, self.positions, self.n)
        return _normalized(np.array([trace_inner(a, reduced) for a in self.poms]))

    def collapse(self, rho: np.ndarray, outcome: int) -> np.ndarray:
        post = self.ops[outcome].sandwich(rho)
        return post / post.trace().real


def site_kernel(operators, positions: tuple[int, ...], n: int) -> _DiagonalSite | _GeneralSite:
    """The kernel of a measurement with the given Kraus operators on
    `positions`: diagonal when every operator is, general otherwise."""
    ops = [_fitted(m, positions, n) for m in operators]
    if all(_is_diagonal(m) for m in ops):
        return _DiagonalSite(np.array([np.diagonal(m) for m in ops]), positions, n)
    return _GeneralSite(ops, positions, n)


class KernelTable:
    """The register layout and every operator a program applies, each
    built once per distinct operation as the kernel its structure
    allows, and shared by both executors.

    Keys are operation values, so every site that applies the same
    operation shares one kernel: `unitaries[(gate, regs)]`, `inits[reg]`
    and `sites[(meas, regs)]`. Registers are laid out in declaration
    order. `program` is a checked program (`Declarations.checked`, set by
    `lang.checker`): `prepare` and `prepare_vm` build a table only after
    `require_valid`. Its `gate_decl` and `meas_decl` resolve names, and
    the table only resolves and classifies: it decides neither unitarity
    nor completeness again.
    """

    def __init__(self, registers: tuple[tuple[str, int], ...], program):
        self.program = program
        self.positions: dict[str, tuple[int, ...]] = {}
        at = 0
        for name, width in registers:
            self.positions[name] = tuple(range(at, at + width))
            at += width
        self.n = at
        self.unitaries: dict[tuple[str, tuple[str, ...]], _Diagonal | _Monomial | _General] = {}
        self.inits: dict[str, _Reset] = {}
        self.sites: dict[tuple[str, tuple[str, ...]], _DiagonalSite | _GeneralSite] = {}

    @property
    def dim(self) -> int:
        return 1 << self.n

    def initial_state(self) -> np.ndarray:
        rho = np.zeros((self.dim, self.dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    def _span(self, regs: tuple[str, ...]) -> tuple[int, ...]:
        out: tuple[int, ...] = ()
        for r in regs:
            out += self.positions[r]
        return out

    def add_init(self, reg: str) -> None:
        if reg not in self.inits:
            self.inits[reg] = _Reset(self.positions[reg], self.n)

    def add_unitary(self, gate: str, regs: tuple[str, ...]) -> None:
        if (gate, regs) not in self.unitaries:
            decl = self.program.gate_decl(gate)
            matrix = STANDARD_LIBRARY[gate] if decl is None else decl.matrix
            self.unitaries[gate, regs] = sandwich_kernel(matrix, self._span(regs), self.n)

    def add_site(self, meas: str, regs: tuple[str, ...]) -> None:
        if (meas, regs) not in self.sites:
            pos = self._span(regs)
            decl = self.program.meas_decl(meas)
            if decl.builtin == "computational":
                self.sites[meas, regs] = _DiagonalSite(np.eye(1 << len(pos)), pos, self.n)
            else:
                ops = PLUS_MINUS if decl.builtin == "plusminus" else decl.operators
                self.sites[meas, regs] = site_kernel(ops, pos, self.n)

    def init(self, reg: str, rho: np.ndarray) -> np.ndarray:
        return self.inits[reg].sandwich(rho)


# --- the two drivers ---------------------------------------------------------

class Fork(NamedTuple):
    """An executor's configuration about to measure. The drivers choose
    the outcomes; `resume(outcome, post_state, weight)` builds the
    executor's successor for each."""

    site: int                  # site id logged with the outcome
    kernel: _DiagonalSite | _GeneralSite
    rho: np.ndarray
    loop: bool                 # outcome 1 enters a loop body
    resume: Callable[[int, np.ndarray, float], Any]

    def branches(self, weight: float, rng: SamplerState | None) -> list[tuple[int, Any]]:
        """(outcome, successor) pairs: one sampled outcome keeping the
        weight with rng, else every outcome above PROB_FLOOR with the
        weight times its probability."""
        p = self.kernel.probabilities(self.rho)
        if rng is not None:
            picked = [(sample_outcome(p, rng), weight)]
        else:
            picked = [(i, weight * float(p[i])) for i in range(len(p)) if p[i] > PROB_FLOOR]
        return [(i, self.resume(i, self.kernel.collapse(self.rho, i), w)) for i, w in picked]


def successors(advance: Callable, c, rng: SamplerState | None = None) -> list:
    """The configurations one transition leads to from c. `advance(c)`
    returns the successor, or a Fork when c is about to measure."""
    nxt = advance(c)
    if isinstance(nxt, Fork):
        return [succ for _, succ in nxt.branches(c.weight, rng)]
    return [nxt]


def run_sampled(c, advance: Callable, seed: int, step_limit: int,
                loop_sites: list[int] | tuple[int, ...] = ()) -> RunRecord:
    """Run configuration c to termination with measurements sampled from
    `seed`. Configurations expose `terminated`, `weight` and `state`;
    `advance` is the executor's transition (see `successors`)."""
    rng = SamplerState(seed)
    outcomes: list[tuple[int, int]] = []
    loop_counts = {sid: 0 for sid in loop_sites}
    steps = 0
    while not c.terminated:
        if steps >= step_limit:
            raise StepLimitExceeded(f"no termination after {step_limit} steps")
        nxt = advance(c)
        steps += 1
        if isinstance(nxt, Fork):
            [(outcome, c)] = nxt.branches(c.weight, rng)
            outcomes.append((nxt.site, outcome))
            if nxt.loop and outcome == 1:
                loop_counts[nxt.site] += 1
        else:
            c = nxt
    return RunRecord(outcomes, c.state, steps, loop_counts)


def explore(c0, step_fn: Callable[[Any], list], mass_threshold: float,
            step_limit: int) -> DistributionResult:
    """Every branch from c0, breadth-first, truncated by the rules in the
    module docstring. Configurations expose `terminated`,
    `at_measurement`, `weight` and `state`; `step_fn(c)` lists c's
    successors with their weights."""
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
    loop: bool
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
    a configuration runs, measurements carrying their sites."""

    program: SourceProgram
    kernels: KernelTable
    body: tuple[Stmt, ...] = ()
    site_meta: list[tuple[int, str, str]] = field(default_factory=list)  # (id, kind, label)

    def loop_sites(self) -> list[int]:
        return [sid for sid, kind, _ in self.site_meta if kind == "while"]


def prepare(program: SourceProgram) -> PreparedProgram:
    """The plan of `program`, checked first unless it is already."""
    require_valid(program)
    plan = PreparedProgram(program, KernelTable(program.registers, program))
    kernels = plan.kernels
    ids = count(1)

    def lower(s: Stmt) -> tuple[Stmt, ...]:
        """s as a flat tuple of atoms (the sequencing rule is transparent),
        each measurement replaced by a copy carrying its site."""
        if isinstance(s, Seq):
            return tuple(atom for sub in s.stmts for atom in lower(sub))
        if isinstance(s, Init):
            kernels.add_init(s.target)
        elif isinstance(s, Unitary):
            kernels.add_unitary(s.gate, s.regs)
        elif isinstance(s, (Case, While)):
            kernels.add_site(s.meas, s.regs)
            kind = "case" if isinstance(s, Case) else "while"
            site = _Site(next(ids), kind == "while", {})
            plan.site_meta.append((site.id, kind, f"{kind}:{s.meas}[{','.join(s.regs)}]"))
            if isinstance(s, Case):
                for k, body in s.branches:
                    site.next[k] = lower(body)
                return (_CaseAt(s.meas, s.regs, s.branches, site),)
            # loop rule L1 runs the body then re-checks the guard; L0 exits
            at = _WhileAt(s.meas, s.regs, s.body, site)
            site.next[1] = lower(s.body) + (at,)
            return (at,)
        elif not isinstance(s, Skip):
            raise QwhileError(f"cannot lower statement {type(s).__name__}")
        return (s,)

    plan.body = lower(program.body)
    return plan


@dataclass(frozen=True)
class Configuration:
    """<remaining program, state>; weight carries branch mass in distribution mode."""

    remaining: tuple[Stmt, ...]
    state: DensityOperator
    weight: float = 1.0
    plan: PreparedProgram | None = field(default=None, compare=False, repr=False)

    @property
    def terminated(self) -> bool:
        return not self.remaining

    @property
    def at_measurement(self) -> bool:
        return isinstance(self.remaining[0], (Case, While))


def initial_configuration(program: SourceProgram | PreparedProgram,
                          state: DensityOperator | None = None) -> Configuration:
    plan = program if isinstance(program, PreparedProgram) else prepare(program)
    dim = plan.kernels.dim
    rho = plan.kernels.initial_state() if state is None else state.matrix
    if rho.shape != (dim, dim):
        raise QwhileError(f"state dim {rho.shape[0]} != program dim {dim}")
    return Configuration(plan.body, DensityOperator(rho, validate=False), 1.0, plan)


def _advance(c: Configuration) -> Configuration | Fork:
    if c.terminated:
        raise QwhileError("cannot step a terminated configuration")
    plan = c.plan
    if plan is None:
        raise QwhileError("configuration was not built by initial_configuration")
    s, rest = c.remaining[0], c.remaining[1:]
    rho = c.state._mat  # engine-internal fast path; states stay normalized
    kernels = plan.kernels

    def conf(remaining, mat, weight=c.weight) -> Configuration:
        return Configuration(remaining, DensityOperator(mat, validate=False), weight, plan)

    if isinstance(s, Skip):
        return conf(rest, rho)
    if isinstance(s, Init):
        return conf(rest, kernels.init(s.target, rho))
    if isinstance(s, Unitary):
        return conf(rest, kernels.unitaries[s.gate, s.regs].sandwich(rho))
    site = s.site
    return Fork(site.id, kernels.sites[s.meas, s.regs], rho, site.loop,
                lambda outcome, post, weight: conf(site.next.get(outcome, ()) + rest,
                                                   post, weight))


def step(c: Configuration, rng: SamplerState | None = None) -> list[Configuration]:
    """One transition. With rng: a single sampled successor. Without rng:
    one successor per measurement outcome, weights multiplied by p_i."""
    return successors(_advance, c, rng)


# --- one-shot runs -----------------------------------------------------------

@dataclass
class RunRecord:
    """Trace of one sampled run."""

    outcomes: list[tuple[int, int]]          # (site id, outcome index)
    final_state: DensityOperator
    steps: int
    loop_counts: dict[int, int]              # loop site id -> body entries

    def outcome_sequence(self) -> list[int]:
        return [o for _, o in self.outcomes]


def run_shot(program: SourceProgram | PreparedProgram, seed: int,
             step_limit: int = DEFAULT_STEP_LIMIT,
             state: DensityOperator | None = None) -> RunRecord:
    """Run once with sampled measurements; deterministic for a given seed."""
    c = initial_configuration(program, state)
    return run_sampled(c, _advance, seed, step_limit, c.plan.loop_sites())


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
    mean = np.zeros((plan.kernels.dim, plan.kernels.dim), dtype=complex)
    for k in range(n):
        record = run_shot(plan, base.child(k).seed, step_limit)
        for sid, outcome in record.outcomes:
            site_outcomes[sid][outcome] += 1
        for sid, count in record.loop_counts.items():
            loop_histogram[sid][count] += 1
        mean += record.final_state._mat
    mean /= n
    return ShotStats(n, seed, site_outcomes, loop_histogram, list(plan.site_meta),
                     DensityOperator(mean, validate=False))


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

    def total_weight(self) -> float:
        return sum(w for w, _ in self.terminals)

    def merged(self, atol: float = 1e-10) -> "DistributionResult":
        """Coalesce terminals with equal states.

        Each terminal's weight is added to the first kept terminal, in
        terminal order, whose state has the same shape and passes
        ``np.allclose(state, kept, atol=atol)``, i.e. entrywise
        ``|state - kept| <= atol + 1e-5 * |kept|``; a terminal with no such
        match is kept. Kept terminals are then sorted by decreasing weight
        (stable, so ties keep terminal order).
        """
        index = _StateIndex(atol)
        weights: list[float] = []
        for w, state in self.terminals:
            i = index.find(state._mat)
            if i is None:
                index.add(state._mat)
                weights.append(w)
            else:
                weights[i] += w
        order = sorted(range(len(weights)), key=lambda i: -weights[i])
        return DistributionResult(
            [(weights[i], DensityOperator(index.states[i], validate=False)) for i in order],
            self.residual, self.step_limited, self.node_limited)


class _StateIndex:
    """Kept states in insertion order, searched by the merge rule
    ``np.allclose(m, kept, atol=atol)``.

    Passing that rule on the diagonal is necessary for passing it on the
    whole matrix, so a lookup first compares the new diagonal with every
    kept diagonal of the same shape in one ``np.isclose`` call, then runs
    the full test only on the rows that pass, lowest index first. Only
    diagonals are stacked (one array per shape, grown by doubling); the
    states themselves are never copied.
    """

    def __init__(self, atol: float):
        self.atol = atol
        self.states: list[np.ndarray] = []
        self._diags: dict[tuple[int, ...], np.ndarray] = {}  # shape -> rows of diagonals
        self._ids: dict[tuple[int, ...], list[int]] = {}     # shape -> state index per row

    def add(self, m: np.ndarray) -> None:
        diag = np.diagonal(m)
        ids = self._ids.setdefault(m.shape, [])
        rows = self._diags.get(m.shape)
        if rows is None or len(ids) == len(rows):
            grown = np.empty((max(8, 2 * len(ids)), len(diag)), dtype=complex)
            if rows is not None:
                grown[:len(ids)] = rows
            self._diags[m.shape] = rows = grown
        rows[len(ids)] = diag
        ids.append(len(self.states))
        self.states.append(m)

    def find(self, m: np.ndarray, accept=None) -> int | None:
        """Index of the first kept state that m matches and that
        ``accept(index)`` (when given) allows, or None."""
        ids = self._ids.get(m.shape)
        if not ids:
            return None
        rows = self._diags[m.shape][:len(ids)]
        near = np.isclose(np.diagonal(m), rows, atol=self.atol).all(axis=1)
        for row in np.flatnonzero(near):
            i = ids[row]
            if (accept is None or accept(i)) and np.allclose(m, self.states[i], atol=self.atol):
                return i
        return None


def match_distributions(a: DistributionResult, b: DistributionResult,
                        atol: float = 1e-9) -> bool:
    """True iff the residuals agree within atol and the merged terminals
    of a and b pair up one to one.

    Both sides are merged with this atol first. Each terminal of a, in
    order, pairs with the first unpaired terminal of b whose weight is
    within atol and whose state passes ``np.allclose(state_a, state_b,
    atol=atol)``, i.e. entrywise ``|a - b| <= atol + 1e-5 * |b|``.
    """
    if abs(a.residual - b.residual) > atol:
        return False
    am, bm = a.merged(atol), b.merged(atol)
    if len(am.terminals) != len(bm.terminals):
        return False
    index = _StateIndex(atol)
    for _, s in bm.terminals:
        index.add(s._mat)
    used: set[int] = set()
    for w, s in am.terminals:
        j = index.find(s._mat, lambda j: j not in used and abs(w - bm.terminals[j][0]) <= atol)
        if j is None:
            return False
        used.add(j)
    return True


def run_distribution(program: SourceProgram | PreparedProgram,
                     mass_threshold: float = DEFAULT_MASS_THRESHOLD,
                     step_limit: int = DEFAULT_DISTRIBUTION_STEP_LIMIT,
                     state: DensityOperator | None = None) -> DistributionResult:
    """Explore every measurement branch breadth-first, truncated by the
    rules in the module docstring."""
    return explore(initial_configuration(program, state), step, mass_threshold, step_limit)
