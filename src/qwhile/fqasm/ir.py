"""f-QASM instruction set: classical registers r*, quantum registers q*,
the flag register fr1 (written only by CMP, read only by JE), and one
command per line.

Instruction kinds:

    INIT(q)            reset a quantum register to |0..0>
    APPLY              a unitary; num tag 0 marks membership in the basic set
    MEAS_MOV(r,{M}(q)) measure and store the outcome index in r
    MOV(r1,r2)         copy r2 into r1 and empty r2
    CMP(r,x)           fr1 := (r == x), x a literal or a register
    JMP L / JE L       unconditional / conditional (fr1 == 1) jump
    L:                 label
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

from ..errors import DuplicateLabel, DuplicateName, QwhileError, UnknownLabel, UnknownRegister
from ..lang.checker import ERRORS, bad_name
from ..lang.syntax import Case, Declarations, Stmt, Unitary


class Instruction:
    __slots__ = ()


@dataclass(frozen=True)
class InitQ(Instruction):
    qreg: str


@dataclass(frozen=True)
class Apply(Instruction):
    gate: str
    qregs: tuple[str, ...]
    num: int  # 0 iff the gate is in the declared basic set


@dataclass(frozen=True)
class MeasMov(Instruction):
    creg: str
    meas: str
    qregs: tuple[str, ...]


@dataclass(frozen=True)
class Mov(Instruction):
    dst: str
    src: str


@dataclass(frozen=True)
class Cmp(Instruction):
    creg: str
    operand: int | str  # literal outcome or second register


@dataclass(frozen=True)
class Jmp(Instruction):
    label: str


@dataclass(frozen=True)
class Je(Instruction):
    label: str


@dataclass(frozen=True)
class Label(Instruction):
    name: str


@dataclass(frozen=True)
class FqasmProgram(Declarations):
    """Declarations (QREG, GATE, MEASURE), classical registers and the
    instruction sequence."""
    instructions: tuple[Instruction, ...]
    cregs: tuple[str, ...]

    def labels(self) -> dict[str, int]:
        """Label name -> instruction index, for a well-formed program."""
        return {ins.name: i for i, ins in enumerate(self.instructions) if isinstance(ins, Label)}

    def statements(self) -> Iterator[Stmt]:
        """Each APPLY as its gate application and each MEAS_MOV as a
        measurement without branches, in program order."""
        for ins in self.instructions:
            if isinstance(ins, Apply):
                yield Unitary(ins.gate, ins.qregs)
            elif isinstance(ins, MeasMov):
                yield Case(ins.meas, ins.qregs, ())


class Fault(NamedTuple):
    """A well-formedness fault: the error it raises, the offending name,
    and the index of the instruction that uses or defines the name or,
    when `creg`, of its classical register declaration."""
    error: QwhileError
    name: str
    index: int
    creg: bool = False


def _names_used(ins: Instruction) -> list[tuple[str, str]]:
    """(namespace, name) of each label or register an instruction reads or
    writes, in the order they are checked."""
    if isinstance(ins, (Jmp, Je)):
        return [("label", ins.label)]
    if isinstance(ins, InitQ):
        return [("quantum", ins.qreg)]
    if isinstance(ins, (Apply, MeasMov)):
        used = [("quantum", q) for q in ins.qregs]
        return used + [("classical", ins.creg)] if isinstance(ins, MeasMov) else used
    if isinstance(ins, Mov):
        return [("classical", ins.dst), ("classical", ins.src)]
    if isinstance(ins, Cmp):
        operand = [("classical", ins.operand)] if isinstance(ins.operand, str) else []
        return [("classical", ins.creg)] + operand
    return []


def first_fault(prog: FqasmProgram) -> Fault | None:
    """The first fault `check_wellformed` finds, or None."""
    labels: set[str] = set()
    for i, ins in enumerate(prog.instructions):
        if isinstance(ins, Label):
            if ins.name in labels:
                return Fault(DuplicateLabel(f"label {ins.name!r} defined twice"), ins.name, i)
            if (bad := bad_name("label", ins.name)) is not None:
                return Fault(ERRORS[bad.kind](str(bad)), ins.name, i)
            labels.add(ins.name)
    cregs: set[str] = set()
    for j, r in enumerate(prog.cregs):
        if (bad := bad_name("classical register", r)) is not None:
            return Fault(ERRORS[bad.kind](str(bad)), r, j, creg=True)
        if r in cregs:
            return Fault(DuplicateName(f"classical register {r!r} declared twice"), r, j, creg=True)
        cregs.add(r)
    known = {"label": labels, "quantum": {name for name, _ in prog.registers}, "classical": cregs}
    for i, ins in enumerate(prog.instructions):
        for space, name in _names_used(ins):
            if name not in known[space]:
                error = (UnknownLabel(f"jump target {name!r} does not exist") if space == "label"
                         else UnknownRegister(f"{space} register {name!r} not declared"))
                return Fault(error, name, i)
    return None


def check_wellformed(prog: FqasmProgram) -> None:
    """Labels unique and resolvable, registers declared, classical
    register names unique. Labels and classical registers follow the
    checker's name rule (`checker.bad_name`), so the text form can read
    them back. Classical names form their own namespace: the
    compiler names them r1, r2, ..., which a quantum register may also be
    called. The quantum declarations, APPLYs and MEAS_MOVs are checked by
    `lang.checker`, which `prepare_vm` runs unless the program is `checked`."""
    if (fault := first_fault(prog)) is not None:
        raise fault.error
