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

from dataclasses import dataclass

from ..errors import DuplicateLabel, DuplicateName, UnknownLabel, UnknownRegister
from ..lang.syntax import GateDecl, MeasDecl


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
class FqasmProgram:
    instructions: tuple[Instruction, ...]
    qregs: tuple[tuple[str, int], ...]       # (name, width); order fixes the layout
    cregs: tuple[str, ...]
    gates: tuple[GateDecl, ...]              # declared non-library gates
    measurements: tuple[MeasDecl, ...]

    def labels(self) -> dict[str, int]:
        table: dict[str, int] = {}
        for i, ins in enumerate(self.instructions):
            if isinstance(ins, Label):
                if ins.name in table:
                    raise DuplicateLabel(f"label {ins.name!r} defined twice")
                table[ins.name] = i
        return table

    def gate_decl(self, name: str) -> GateDecl | None:
        for g in self.gates:
            if g.name == name:
                return g
        return None

    def meas_decl(self, name: str) -> MeasDecl:
        for m in self.measurements:
            if m.name == name:
                return m
        raise UnknownRegister(f"measurement {name!r} not declared")


def check_wellformed(prog: FqasmProgram) -> None:
    """Labels unique and resolvable, registers declared, classical
    register names unique. Classical names form their own namespace: the
    compiler names them r1, r2, ..., which a quantum register may also be
    called. The quantum declarations are `prepare_vm`'s to check."""
    labels = prog.labels()
    qnames = {name for name, _ in prog.qregs}
    cnames: set[str] = set()
    for r in prog.cregs:
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
