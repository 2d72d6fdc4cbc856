"""Lowering from the while-language AST to f-QASM instruction sequences.

Control-flow shapes (deterministic register/label numbering per site):

  case:  MOV(r,{M}(q)); CMP(r,k0); JE L1; CMP(r,k1); JE L2; [JMP Lend;]
         L1: body0; JMP Lend; L2: body1; JMP Lend; Lend:
         (the extra JMP after the ladder appears only when some outcomes
         have no branch, realizing the skip-that-clause semantics)

  while: Lentry: MOV(r,{M}(q)); CMP(r,0); JE Lexit;
         body; JMP Lentry; Lexit:
"""
from __future__ import annotations

from ..core.gates import STANDARD_LIBRARY
from ..errors import QwhileError
from ..lang.checker import mark_checked, require_valid
from ..lang.syntax import Case, Init, Seq, Skip, SourceProgram, Stmt, Unitary, While
from .ir import Apply, Cmp, FqasmProgram, InitQ, Instruction, Je, Jmp, Label, MeasMov


class _Emitter:
    def __init__(self, program: SourceProgram):
        self.program = program
        self.out: list[Instruction] = []
        self.cregs: list[str] = []
        self.n_labels = 0

    def fresh_label(self) -> str:
        self.n_labels += 1
        return f"L{self.n_labels}"

    def fresh_creg(self) -> str:
        name = f"r{len(self.cregs) + 1}"
        self.cregs.append(name)
        return name

    def site_outcomes(self, meas: str, regs: tuple[str, ...]) -> int:
        width = sum(self.program.register_width(r) for r in regs)
        return self.program.meas_decl(meas).n_outcomes(1 << width)

    def emit(self, s: Stmt) -> None:
        if isinstance(s, Skip):
            return  # no instruction
        if isinstance(s, Init):
            self.out.append(InitQ(s.target))
            return
        if isinstance(s, Unitary):
            # a declared gate never takes a library name
            self.out.append(Apply(s.gate, s.regs, 0 if s.gate in STANDARD_LIBRARY else 1))
            return
        if isinstance(s, Seq):
            for sub in s.stmts:
                self.emit(sub)
            return
        if isinstance(s, Case):
            reg = self.fresh_creg()
            self.out.append(MeasMov(reg, s.meas, s.regs))
            branch_labels = [self.fresh_label() for _ in s.branches]
            for (outcome, _), label in zip(s.branches, branch_labels):
                self.out.append(Cmp(reg, outcome))
                self.out.append(Je(label))
            end = self.fresh_label()
            covered = {outcome for outcome, _ in s.branches}
            if len(covered) < self.site_outcomes(s.meas, s.regs):
                self.out.append(Jmp(end))  # no matching branch: skip the clause
            for (_, body), label in zip(s.branches, branch_labels):
                self.out.append(Label(label))
                self.emit(body)
                self.out.append(Jmp(end))
            self.out.append(Label(end))
            return
        if isinstance(s, While):
            reg = self.fresh_creg()
            entry = self.fresh_label()
            exit_ = self.fresh_label()
            self.out.append(Label(entry))
            self.out.append(MeasMov(reg, s.meas, s.regs))
            self.out.append(Cmp(reg, 0))
            self.out.append(Je(exit_))
            self.emit(s.body)
            self.out.append(Jmp(entry))
            self.out.append(Label(exit_))
            return
        raise QwhileError(f"cannot compile statement {type(s).__name__}")


def compile_program(program: SourceProgram) -> FqasmProgram:
    """Deterministic lowering; identical ASTs compile to identical output,
    marked checked: its declarations and statements are the program's."""
    require_valid(program)
    emitter = _Emitter(program)
    emitter.emit(program.body)
    return mark_checked(FqasmProgram(
        registers=program.registers,
        gates=program.gates,
        measurements=program.measurements,
        instructions=tuple(emitter.out),
        cregs=tuple(emitter.cregs),
    ))
