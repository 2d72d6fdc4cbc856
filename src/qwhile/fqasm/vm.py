"""Virtual machine executing f-QASM against the global quantum state.

Program-counter semantics: INIT/APPLY act on the global state, MEAS_MOV
samples (or forks, in distribution mode) and stores the outcome index,
CMP sets fr1, JE jumps iff fr1 == 1, JMP jumps, and the machine halts
past the last instruction. Classical registers start empty; MOV empties
its source; reading an empty register (or JE before any CMP) is an
error.

Operators come from the engine's kernel table and runs go through the
engine's drivers (`qwhile.engine.runtime`, whose docstring states the
truncation rules); this module only dispatches instructions. A step is
one instruction, and a measurement's site id is its instruction index.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from ..core.types import DensityOperator
from ..errors import QwhileError, UninitializedRegisterRead
from ..lang.checker import require_valid
from ..engine.runtime import (
    DEFAULT_DISTRIBUTION_STEP_LIMIT,
    DEFAULT_MASS_THRESHOLD,
    DEFAULT_STEP_LIMIT,
    DistributionResult,
    Fork,
    KernelTable,
    RunRecord,
    explore,
    run_sampled,
    state_of,
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


@dataclass
class PreparedVm:
    prog: FqasmProgram
    labels: dict[str, int]
    kernels: KernelTable


def prepare_vm(prog: FqasmProgram) -> PreparedVm:
    """Check `prog` (well-formedness, then `require_valid`, which returns
    at once for a checked program such as `compile_program`'s output) and
    build the kernel of every operation it applies."""
    check_wellformed(prog)
    require_valid(prog)
    kernels = KernelTable(prog.registers, prog)
    for ins in prog.instructions:
        if isinstance(ins, InitQ):
            kernels.add_init(ins.qreg)
        elif isinstance(ins, Apply):
            kernels.add_unitary(ins.gate, ins.qregs)
        elif isinstance(ins, MeasMov):
            kernels.add_site(ins.meas, ins.qregs)
    return PreparedVm(prog, prog.labels(), kernels)


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


class _Config(NamedTuple):
    """The machine between two instructions, as the engine's drivers see it."""

    pc: int
    regs: _Regs
    factor: np.ndarray         # V, with state V V† (see the engine's docstring)
    weight: float
    plan: PreparedVm

    @classmethod
    def start(cls, plan: PreparedVm) -> "_Config":
        return cls(0, _Regs.empty(plan.prog.cregs), plan.kernels.initial_factor(), 1.0, plan)

    @property
    def terminated(self) -> bool:
        return self.pc >= len(self.plan.prog.instructions)

    @property
    def at_measurement(self) -> bool:
        return isinstance(self.plan.prog.instructions[self.pc], MeasMov)

    @property
    def state(self) -> DensityOperator:
        return state_of(self.factor)


def _advance(c: _Config) -> _Config | Fork:
    """Execute the instruction at c.pc; a MEAS_MOV returns a Fork whose
    successors store the outcome in the instruction's register."""
    pc, regs, v, weight, plan = c
    ins = plan.prog.instructions[pc]
    if isinstance(ins, Label):
        return _Config(pc + 1, regs, v, weight, plan)
    if isinstance(ins, InitQ):
        return _Config(pc + 1, regs, plan.kernels.inits[ins.qreg].apply(v), weight, plan)
    if isinstance(ins, Apply):
        v = plan.kernels.unitaries[ins.gate, ins.qregs].apply(v)
        return _Config(pc + 1, regs, v, weight, plan)
    if isinstance(ins, Mov):
        val = regs.read(ins.src)
        return _Config(pc + 1, regs.write({ins.dst: val, ins.src: None}), v, weight, plan)
    if isinstance(ins, Cmp):
        lhs = regs.read(ins.creg)
        rhs = ins.operand if isinstance(ins.operand, int) else regs.read(ins.operand)
        return _Config(pc + 1, regs.with_flag(1 if lhs == rhs else 0), v, weight, plan)
    if isinstance(ins, Jmp):
        return _Config(plan.labels[ins.label], regs, v, weight, plan)
    if isinstance(ins, Je):
        if regs.flag is None:
            raise UninitializedRegisterRead("JE before any CMP (fr1 is empty)")
        return _Config(plan.labels[ins.label] if regs.flag == 1 else pc + 1,
                       regs, v, weight, plan)
    if isinstance(ins, MeasMov):
        return Fork(pc, plan.kernels.sites[ins.meas, ins.qregs], v, False,
                    lambda outcome, post, w: _Config(pc + 1, regs.write({ins.creg: outcome}),
                                                     post, w, plan))
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
    return explore(_Config.start(plan), partial(successors, _advance),
                   mass_threshold, step_limit)
