"""Virtual machine executing f-QASM against the global quantum state.

Program-counter semantics: INIT/APPLY act on the global state, MEAS_MOV
samples (or forks, in distribution mode) and stores the outcome index,
CMP sets fr1, JE jumps iff fr1 == 1, JMP jumps, and the machine halts
past the last instruction. Classical registers start empty; MOV empties
its source; reading an empty register (or JE before any CMP) is an
error.

Operators come from the engine's kernel table, built from the program's
`statements()` (each INIT, APPLY and MEAS_MOV), and runs go through the
engine's drivers (`qwhile.engine.runtime`, whose docstring states the
truncation rules); this module only dispatches instructions. A step is
one instruction, and a measurement's site id is its instruction index.
A sampled run's `loop_counts` is empty: the VM has no loop sites.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..errors import QwhileError, UninitializedRegisterRead
from ..lang.checker import require_valid
from ..engine.runtime import (
    DEFAULT_DISTRIBUTION_STEP_LIMIT,
    DEFAULT_MASS_THRESHOLD,
    DEFAULT_STEP_LIMIT,
    DistributionResult,
    Fork,
    KernelTable,
    Machine,
    Node,
    RunRecord,
    explore,
    rooted,
    run_sampled,
    successors,
)
from .ir import (
    Apply,
    Cmp,
    FqasmProgram,
    InitQ,
    Je,
    Jmp,
    Label,
    MeasMov,
    Mov,
    check_wellformed,
)


class _Machine(Machine):
    """The engine's `Machine`, with the instructions and labels the VM
    dispatches on."""

    __slots__ = ("instructions", "labels")

    def __init__(self, kernels: KernelTable, instructions, labels: dict[str, int]):
        super().__init__(kernels)
        self.instructions, self.labels = instructions, labels


@dataclass
class PreparedVm:
    """A checked program and its kernel table. Its configurations refer
    to `machine`; `root` is the sampled-mode memo's root configuration,
    once a shot has run (the engine's docstring)."""

    prog: FqasmProgram
    labels: dict[str, int]
    kernels: KernelTable
    machine: _Machine = field(init=False, repr=False, compare=False)
    root: _Config | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.machine = _Machine(self.kernels, self.prog.instructions, self.labels)


def prepare_vm(prog: FqasmProgram) -> PreparedVm:
    """Check `prog` (well-formedness, then `require_valid`, which returns
    at once for a checked program such as `compile_program`'s output) and
    build its kernel table."""
    check_wellformed(prog)
    require_valid(prog)
    return PreparedVm(prog, prog.labels(), KernelTable(prog))


@dataclass(frozen=True)
class _Regs:
    """Immutable classical register file; None marks an empty register."""

    values: tuple[tuple[str, int | None], ...]
    flag: int | None  # fr1

    @classmethod
    def empty(cls, names) -> "_Regs":
        return cls(tuple((nm, None) for nm in names), None)

    def read(self, name: str) -> int:
        for nm, val in self.values:
            if nm == name:
                if val is None:
                    raise UninitializedRegisterRead(f"register {name!r} is empty")
                return val
        raise UninitializedRegisterRead(f"register {name!r} does not exist")

    def write(self, updates: dict[str, int | None]) -> "_Regs":
        return _Regs(tuple((nm, updates.get(nm, val)) for nm, val in self.values), self.flag)

    def with_flag(self, flag: int) -> "_Regs":
        return _Regs(self.values, flag)


class _Config(Node):
    """The machine between two instructions, as the engine's drivers see
    it; the factor V holds the state V V† (see the engine's docstring)."""

    __slots__ = ("pc", "regs")

    def __init__(self, pc: int, regs: _Regs, factor: np.ndarray, weight: float,
                 machine: _Machine):
        super().__init__(factor, weight, machine)
        self.pc, self.regs = pc, regs

    @classmethod
    def start(cls, plan: PreparedVm) -> "_Config":
        """The plan's root configuration (the engine's docstring)."""
        return rooted(plan, lambda: cls.fresh(plan))

    @classmethod
    def fresh(cls, plan: PreparedVm) -> "_Config":
        """A start configuration outside the plan's memo."""
        return cls(0, _Regs.empty(plan.prog.cregs), plan.kernels.initial_factor(), 1.0,
                   plan.machine)

    @property
    def terminated(self) -> bool:
        return self.pc >= len(self.machine.instructions)

    @property
    def at_measurement(self) -> bool:
        return isinstance(self.machine.instructions[self.pc], MeasMov)


def _advance(c: _Config) -> _Config | Fork:
    """Execute the instruction at c.pc; a MEAS_MOV returns a Fork whose
    successors store the outcome in the instruction's register."""
    pc, regs, v, weight, machine = c.pc, c.regs, c.factor, c.weight, c.machine
    ins = machine.instructions[pc]
    if isinstance(ins, Label):
        return _Config(pc + 1, regs, v, weight, machine)
    if isinstance(ins, InitQ):
        return _Config(pc + 1, regs, machine.kernels.inits[ins.qreg].apply(v), weight, machine)
    if isinstance(ins, Apply):
        v = machine.kernels.unitaries[ins.gate, ins.qregs].apply(v)
        return _Config(pc + 1, regs, v, weight, machine)
    if isinstance(ins, Mov):
        val = regs.read(ins.src)
        return _Config(pc + 1, regs.write({ins.dst: val, ins.src: None}), v, weight, machine)
    if isinstance(ins, Cmp):
        lhs = regs.read(ins.creg)
        rhs = ins.operand if isinstance(ins.operand, int) else regs.read(ins.operand)
        return _Config(pc + 1, regs.with_flag(1 if lhs == rhs else 0), v, weight, machine)
    if isinstance(ins, Jmp):
        return _Config(machine.labels[ins.label], regs, v, weight, machine)
    if isinstance(ins, Je):
        if regs.flag is None:
            raise UninitializedRegisterRead("JE before any CMP (fr1 is empty)")
        return _Config(machine.labels[ins.label] if regs.flag == 1 else pc + 1,
                       regs, v, weight, machine)
    if isinstance(ins, MeasMov):
        return Fork(pc, machine.kernels.sites[ins.meas, ins.qregs], v,
                    lambda outcome, post, w: _Config(pc + 1, regs.write({ins.creg: outcome}),
                                                     post, w, machine))
    raise QwhileError(f"cannot execute {type(ins).__name__}")


def vm_run(prog: FqasmProgram | PreparedVm, seed: int,
           step_limit: int = DEFAULT_STEP_LIMIT) -> RunRecord:
    """One sampled pass; outcome log entries are (instruction index, outcome)."""
    plan = prog if isinstance(prog, PreparedVm) else prepare_vm(prog)
    return run_sampled(_Config.start(plan), _advance, seed, step_limit)


def vm_distribution(prog: FqasmProgram | PreparedVm,
                    mass_threshold: float = DEFAULT_MASS_THRESHOLD,
                    step_limit: int = DEFAULT_DISTRIBUTION_STEP_LIMIT) -> DistributionResult:
    """Exhaustive branch exploration."""
    plan = prog if isinstance(prog, PreparedVm) else prepare_vm(prog)
    return explore(_Config.fresh(plan), partial(successors, _advance),
                   mass_threshold, step_limit)
