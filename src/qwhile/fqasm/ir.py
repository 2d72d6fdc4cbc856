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

from ..errors import DuplicateLabel, DuplicateName, UnknownLabel, UnknownRegister
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
        table: dict[str, int] = {}
        for i, ins in enumerate(self.instructions):
            if isinstance(ins, Label):
                if ins.name in table:
                    raise DuplicateLabel(f"label {ins.name!r} defined twice")
                table[ins.name] = i
        return table

    def statements(self) -> Iterator[Stmt]:
        """Each APPLY as its gate application and each MEAS_MOV as a
        measurement without branches, in program order."""
        for ins in self.instructions:
            if isinstance(ins, Apply):
                yield Unitary(ins.gate, ins.qregs)
            elif isinstance(ins, MeasMov):
                yield Case(ins.meas, ins.qregs, ())


def _require_name(noun: str, name: str) -> None:
    if (bad := bad_name(noun, name)) is not None:
        raise ERRORS[bad.kind](str(bad))


def check_wellformed(prog: FqasmProgram) -> None:
    """Labels unique and resolvable, registers declared, classical
    register names unique. Labels and classical registers follow the
    checker's name rule (`checker.bad_name`), so the text form can read
    them back. Classical names form their own namespace: the
    compiler names them r1, r2, ..., which a quantum register may also be
    called. The quantum declarations, APPLYs and MEAS_MOVs are checked by
    `lang.checker`, which `prepare_vm` runs unless the program is `checked`."""
    labels = prog.labels()
    for name in labels:
        _require_name("label", name)
    qnames = {name for name, _ in prog.registers}
    cnames: set[str] = set()
    for r in prog.cregs:
        _require_name("classical register", r)
        if r in cnames:
            raise DuplicateName(f"classical register {r!r} declared twice")
        cnames.add(r)
    for ins in prog.instructions:
        if isinstance(ins, (Jmp, Je)) and ins.label not in labels:
            raise UnknownLabel(f"jump target {ins.label!r} does not exist")
        if isinstance(ins, InitQ) and ins.qreg not in qnames:
            raise UnknownRegister(f"quantum register {ins.qreg!r} not declared")
        if isinstance(ins, (Apply, MeasMov)):
            for q in ins.qregs:
                if q not in qnames:
                    raise UnknownRegister(f"quantum register {q!r} not declared")
        if isinstance(ins, MeasMov) and ins.creg not in cnames:
            raise UnknownRegister(f"classical register {ins.creg!r} not declared")
        if isinstance(ins, Mov):
            for r in (ins.dst, ins.src):
                if r not in cnames:
                    raise UnknownRegister(f"classical register {r!r} not declared")
        if isinstance(ins, Cmp):
            if ins.creg not in cnames:
                raise UnknownRegister(f"classical register {ins.creg!r} not declared")
            if isinstance(ins.operand, str) and ins.operand not in cnames:
                raise UnknownRegister(f"classical register {ins.operand!r} not declared")
