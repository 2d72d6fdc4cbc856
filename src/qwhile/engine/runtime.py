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
classifies each operator once, when it is added, by its exact zero
pattern and never by the size of the space, and applies it to V from the
left only, so a step costs 2^n * r rather than 4^n; no operator is ever
embedded as a dense 2^n matrix:

* diagonal    (Z, S, T, phase oracles): V * d, d the full-space diagonal.
* monomial    (X, CNOT, permutation oracles): one gather of V's rows
              through a precomputed permutation of the basis, times
              phases unless all are 1.
* general     (H, dense gates): one contraction on the target row axes
              (reshape and matmul when the targets are adjacent, in any
              order; tensordot over their axes otherwise).
* reset       (q := |0>): per qubit of the register, least significant
              first, V -> [P0 V | K V] with P0 = |0><0|, K = |0><1|,
              keeping only the columns that are not exactly zero (so a
              qubit in a definite state keeps the column count).
* diagonal site (every Kraus operator diagonal, `computational`
              included): probabilities from the row norms |V|^2; collapse
              zeroes the rows outside an operator with one nonzero entry,
              else applies the diagonal kernel, and rescales to norm 1.
* general site: p_i = ||M_i V||^2 through each operator's kernel;
              collapse applies M_i and rescales.

Rank rule: only a reset adds columns. When V then has more columns than
nonzero rows S, V_S is replaced by R†, where R is the triangular factor
of a QR decomposition of V_S† (R† R = V_S V_S†), so r never exceeds the
number of nonzero rows.

A density operator is built in three places only: for a terminal in
`explore`, for a sampled run's final state, and by the `state` property
of a configuration (`Configuration` here, the VM's `_Config`). It is the
zero matrix plus V_S V_S† on the nonzero rows S, so a basis-state
terminal writes one entry. `initial_configuration(state=rho)` factors rho
by `eigh`, keeping the positive eigenvalues.
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
from ..core.linalg import as_matrix
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
# positions[0] as the most significant bit of its local index. A factor V
# has one row per basis index and one column per term of rho = V V†.

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
    """E diagonal: E V = V * d with d the full-space diagonal."""

    __slots__ = ("d",)

    def __init__(self, diagonal: np.ndarray, positions: tuple[int, ...], n: int):
        self.d = diagonal[_bit_maps(positions, n)[0]][:, None]

    def apply(self, v: np.ndarray) -> np.ndarray:
        return v * self.d


class _Monomial:
    """E with one nonzero per row and column, E[a, s(a)] = e_a:
    (E V)[a] = e_a V[s(a)], one gather through the basis permutation s."""

    __slots__ = ("src", "phases")

    def __init__(self, op: np.ndarray, positions: tuple[int, ...], n: int):
        local, spread = _bit_maps(positions, n)
        cols = np.argmax(op != 0, axis=1)
        self.src = (np.arange(1 << n) & ~spread[-1]) | spread[cols[local]]
        phases = op[np.arange(len(op)), cols][local]
        self.phases = None if (phases == 1).all() else phases[:, None]

    def apply(self, v: np.ndarray) -> np.ndarray:
        out = v[self.src]
        if self.phases is not None:
            out *= self.phases
        return out


class _General:
    """Any other E, contracted with V's target row axes: one matmul on V
    viewed as (rows above, targets, rows below and columns) when the
    targets are adjacent (in any order), else one tensordot over them."""

    __slots__ = ("op", "shape", "axes")

    def __init__(self, op: np.ndarray, positions: tuple[int, ...], n: int):
        k, lo = len(positions), min(positions)
        if max(positions) - lo == k - 1:
            order = list(np.argsort(positions))
            op = op.reshape((2,) * (2 * k)).transpose(order + [k + i for i in order])
            self.op, self.shape, self.axes = op.reshape(1 << k, 1 << k), (1 << lo, 1 << k, -1), None
        else:
            self.op, self.shape, self.axes = op.reshape((2,) * (2 * k)), (2,) * n + (-1,), positions

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.axes is None:
            return np.matmul(self.op, v.reshape(self.shape)).reshape(v.shape)
        k = len(self.axes)
        out = np.tensordot(self.op, v.reshape(self.shape), axes=(range(k, 2 * k), self.axes))
        return np.moveaxis(out, range(k), self.axes).reshape(v.shape)


def operator_kernel(op, positions: tuple[int, ...], n: int) -> _Diagonal | _Monomial | _General:
    """The kernel applying V -> E V, where E acts as `op` on the qubits
    `positions` of an n-qubit space, chosen by op's exact zero pattern
    (never by size)."""
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
    first, V -> [P0 V | K V] without the columns that are exactly zero,
    then the rank rule (module docstring)."""

    __slots__ = ("shapes",)

    def __init__(self, positions: tuple[int, ...], n: int):
        # V viewed as (rows above, the qubit's bit, rows below, columns)
        self.shapes = [(1 << q, 2, 1 << (n - 1 - q), -1) for q in reversed(positions)]

    def apply(self, v: np.ndarray) -> np.ndarray:
        for shape in self.shapes:
            t = v.reshape(shape)
            ones = t[:, 1].any(axis=(0, 1))  # columns K V keeps
            if not ones.any():
                continue  # P0 V = V and K V = 0
            zeros = t[:, 0].any(axis=(0, 1))  # columns P0 V keeps
            out = np.zeros(t.shape[:3] + (int(zeros.sum() + ones.sum()),), dtype=complex)
            out[:, 0] = np.concatenate((t[:, 0][..., zeros], t[:, 1][..., ones]), axis=-1)
            v = out.reshape(len(v), -1)
        return _within_rank(v)


def _within_rank(v: np.ndarray) -> np.ndarray:
    """V, or when it has more columns than nonzero rows S, the factor whose
    block on S is R† for the triangular factor R of a QR of V_S†."""
    if v.shape[1] == 1:
        return v
    rows = np.flatnonzero(v.any(axis=1))
    if v.shape[1] <= len(rows):
        return v
    out = np.zeros((len(v), len(rows)), dtype=complex)
    out[rows] = np.linalg.qr(v[rows].conj().T, mode="r").conj().T
    return out


def state_of(v: np.ndarray) -> DensityOperator:
    """The density operator V V† of the factor v: zero except V_S V_S† on
    v's nonzero rows S."""
    rows = np.flatnonzero(v.any(axis=1))
    block = v[rows]
    rho = np.zeros((len(v), len(v)), dtype=complex)
    rho[rows[:, None], rows] = block @ block.conj().T
    return DensityOperator(rho, validate=False)


def _factor(rho: np.ndarray) -> np.ndarray:
    """A factor V with V V† = rho, from rho's positive eigenvalues."""
    w, u = np.linalg.eigh(rho)
    keep = w > 0
    return u[:, keep] * np.sqrt(w[keep])


def _norm2(v: np.ndarray) -> float:
    """tr(V V†), the squared Frobenius norm of V."""
    return float(np.vdot(v, v).real)


def _normalized(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, None)
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise QwhileError(f"measurement probabilities sum to {total}")
    return p / total


class _DiagonalSite:
    """A measurement whose Kraus operators are all diagonal. Probabilities
    come from the row norms of V. An outcome whose operator has one
    nonzero entry, at local index l, keeps V's rows on l; any other goes
    through the diagonal kernel; either is rescaled to norm 1. `diags`
    holds one local diagonal per outcome."""

    __slots__ = ("positions", "local", "weights", "outcomes")

    def __init__(self, diags: np.ndarray, positions: tuple[int, ...], n: int):
        self.positions = positions
        self.local = _bit_maps(positions, n)[0]
        self.weights = np.abs(diags) ** 2
        # per outcome: its one nonzero local index, or the diagonal kernel
        self.outcomes: list[int | _Diagonal] = []
        for d in diags:
            nz = np.flatnonzero(d)
            self.outcomes.append(int(nz[0]) if len(nz) == 1 else _Diagonal(d, positions, n))

    def probabilities(self, v: np.ndarray) -> np.ndarray:
        rows = (v * v.conj()).real.sum(axis=1)
        p = np.bincount(self.local, weights=rows, minlength=1 << len(self.positions))
        return _normalized(self.weights @ p)

    def collapse(self, v: np.ndarray, outcome: int) -> np.ndarray:
        basis = self.outcomes[outcome]
        if isinstance(basis, _Diagonal):
            post = basis.apply(v)
        else:
            post = np.where((self.local == basis)[:, None], v, 0.0)
        return post / np.sqrt(_norm2(post))


class _GeneralSite:
    """Any other measurement: p_i = ||M_i V||^2 and collapse through each
    operator's kernel."""

    __slots__ = ("ops",)

    def __init__(self, operators, positions: tuple[int, ...], n: int):
        self.ops = [operator_kernel(m, positions, n) for m in operators]

    def probabilities(self, v: np.ndarray) -> np.ndarray:
        return _normalized(np.array([_norm2(op.apply(v)) for op in self.ops]))

    def collapse(self, v: np.ndarray, outcome: int) -> np.ndarray:
        post = self.ops[outcome].apply(v)
        return post / np.sqrt(_norm2(post))


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

    def add_init(self, reg: str) -> None:
        if reg not in self.inits:
            self.inits[reg] = _Reset(self.positions[reg], self.n)

    def add_unitary(self, gate: str, regs: tuple[str, ...]) -> None:
        if (gate, regs) not in self.unitaries:
            decl = self.program.gate_decl(gate)
            matrix = STANDARD_LIBRARY[gate] if decl is None else decl.matrix
            self.unitaries[gate, regs] = operator_kernel(matrix, self._span(regs), self.n)

    def add_site(self, meas: str, regs: tuple[str, ...]) -> None:
        if (meas, regs) not in self.sites:
            pos = self._span(regs)
            decl = self.program.meas_decl(meas)
            if decl.builtin == "computational":
                self.sites[meas, regs] = _DiagonalSite(np.eye(1 << len(pos)), pos, self.n)
            else:
                ops = PLUS_MINUS if decl.builtin == "plusminus" else decl.operators
                self.sites[meas, regs] = site_kernel(ops, pos, self.n)


# --- the two drivers ---------------------------------------------------------

class Fork(NamedTuple):
    """An executor's configuration about to measure. The drivers choose
    the outcomes; `resume(outcome, post_factor, weight)` builds the
    executor's successor for each."""

    site: int                  # site id logged with the outcome
    kernel: _DiagonalSite | _GeneralSite
    factor: np.ndarray
    loop: bool                 # outcome 1 enters a loop body
    resume: Callable[[int, np.ndarray, float], Any]

    def branches(self, weight: float, rng: SamplerState | None) -> list[tuple[int, Any]]:
        """(outcome, successor) pairs: one sampled outcome keeping the
        weight with rng, else every outcome above PROB_FLOOR with the
        weight times its probability."""
        p = self.kernel.probabilities(self.factor)
        if rng is not None:
            picked = [(sample_outcome(p, rng), weight)]
        else:
            picked = [(i, weight * float(p[i])) for i in range(len(p)) if p[i] > PROB_FLOOR]
        return [(i, self.resume(i, self.kernel.collapse(self.factor, i), w)) for i, w in picked]


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
    `seed`. Configurations expose `terminated`, `weight` and `state` (the
    final state is built from the last configuration only); `advance` is
    the executor's transition (see `successors`)."""
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
    `at_measurement`, `weight` and `state` (read once per terminal, where
    its density operator is built); `step_fn(c)` lists c's successors
    with their weights."""
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
    """<remaining program, state>, the state held as its factor V (rho =
    V V†, module docstring); weight carries branch mass in distribution
    mode."""

    remaining: tuple[Stmt, ...]
    factor: np.ndarray
    weight: float = 1.0
    plan: PreparedProgram | None = field(default=None, compare=False, repr=False)

    @property
    def state(self) -> DensityOperator:
        return state_of(self.factor)

    @property
    def terminated(self) -> bool:
        return not self.remaining

    @property
    def at_measurement(self) -> bool:
        return isinstance(self.remaining[0], (Case, While))


def initial_configuration(program: SourceProgram | PreparedProgram,
                          state: DensityOperator | None = None) -> Configuration:
    plan = program if isinstance(program, PreparedProgram) else prepare(program)
    if state is None:
        return Configuration(plan.body, plan.kernels.initial_factor(), 1.0, plan)
    if state.dim != plan.kernels.dim:
        raise QwhileError(f"state dim {state.dim} != program dim {plan.kernels.dim}")
    return Configuration(plan.body, _factor(state.matrix), 1.0, plan)


def _advance(c: Configuration) -> Configuration | Fork:
    if c.terminated:
        raise QwhileError("cannot step a terminated configuration")
    plan = c.plan
    if plan is None:
        raise QwhileError("configuration was not built by initial_configuration")
    s, rest = c.remaining[0], c.remaining[1:]
    v = c.factor
    kernels = plan.kernels

    def conf(remaining, factor, weight=c.weight) -> Configuration:
        return Configuration(remaining, factor, weight, plan)

    if isinstance(s, Skip):
        return conf(rest, v)
    if isinstance(s, Init):
        return conf(rest, kernels.inits[s.target].apply(v))
    if isinstance(s, Unitary):
        return conf(rest, kernels.unitaries[s.gate, s.regs].apply(v))
    site = s.site
    return Fork(site.id, kernels.sites[s.meas, s.regs], v, site.loop,
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
        """Coalesce terminals with equal states by the merge rule in the
        module docstring."""
        groups = _groups([s._mat for _, s in self.terminals], atol)
        weights = [fsum(self.terminals[i][0] for i in g) for g in groups]
        order = sorted(range(len(groups)), key=lambda k: -weights[k])
        return DistributionResult([(weights[k], self.terminals[groups[k][0]][1]) for k in order],
                                  self.residual, self.step_limited, self.node_limited)


def _groups(mats: list[np.ndarray], atol: float) -> list[list[int]]:
    """Indices into mats grouped by the merge rule in the module docstring,
    groups in canonical order, each led by its first member."""
    ramps = {d: np.linspace(0.0, 1.0, d) for d in {len(m) for m in mats}}
    keys = [(m.shape, float(m.diagonal().real @ ramps[len(m)])) for m in mats]
    bits = [np.ascontiguousarray(m).view(np.uint64).ravel() for m in mats]
    groups: list[list[int]] = []
    reach: deque[list[int]] = deque()  # groups whose leader's key is within d*atol
    for (shape, p), tied in groupby(sorted(range(len(mats)), key=keys.__getitem__),
                                    keys.__getitem__):
        copies: list[list[int]] = []  # the states with this key, bit-identical ones together
        for i in tied:
            same = next((c for c in copies if np.array_equal(bits[i], bits[c[0]])), None)
            if same is None:
                copies.append([i])
            else:
                same.append(i)
        if len(copies) > 1:
            copies.sort(key=cmp_to_key(lambda c, e: _word_order(bits[c[0]], bits[e[0]])))
        while reach and keys[reach[0][0]] < (shape, p - shape[0] * atol):
            reach.popleft()
        for c in copies:
            m = mats[c[0]]
            group = next((g for g in reach if np.abs(m - mats[g[0]]).max() <= atol), None)
            if group is None:
                groups.append(c)
                reach.append(c)
            else:
                group += c
    return groups


def _word_order(a: np.ndarray, b: np.ndarray) -> int:
    """-1 if the words of a come before those of b, read in order, else 1
    (a and b differ)."""
    i = (a != b).argmax()
    return -1 if a[i] < b[i] else 1


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
               for g in _groups([s._mat for _, s in terminals], atol))


def run_distribution(program: SourceProgram | PreparedProgram,
                     mass_threshold: float = DEFAULT_MASS_THRESHOLD,
                     step_limit: int = DEFAULT_DISTRIBUTION_STEP_LIMIT,
                     state: DensityOperator | None = None) -> DistributionResult:
    """Explore every measurement branch breadth-first, truncated by the
    rules in the module docstring."""
    return explore(initial_configuration(program, state), step, mass_threshold, step_limit)
