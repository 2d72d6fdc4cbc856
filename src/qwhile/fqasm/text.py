"""Stable `.fqasm` text form: one command per line, `//` comments.

Canonical output renders library gates in listing style (`hGate(q1,0);`)
and fuses measure-and-store into `MOV(r1,{M}(q1));`. On input the parser
additionally accepts the spelled-out forms `APPLY H q1 0` and the
unfused pair `r1 := {M}(q1);` / `MOV(r2,r1);`.

A header section declares registers, gates and measurements so a file
round-trips to a structurally identical program:

    QREG q1 1;
    CREG r1;
    GATE G [[0.0, 1.0], [1.0, 0.0]];
    MEASURE M computational;

The reserved words, which `lang.checker` lets no declaration take, are
the commands `QREG CREG GATE MEASURE INIT MOV CMP JMP JE APPLY`, the
listing spellings `hGate xGate zGate iGate tGate sGate cnotGate` and the
`.qw` keywords. `prepare_vm` runs the checker, not `parse_fqasm`.

Matrix literals use the `.qw` grammar and lexer (`lang.parser`). The
lexer finds a literal by a bracket scan, from '[[' to the first ']]'
(whitespace allowed between the brackets), and makes it one span only
when its text holds reals that `float` reads, in rows one comma apart
and of equal length; `TokenParser.parse_matrix` takes a span's value
whole. Any other literal, complex entries included, is lexed in place
and read by the token grammar, so each value and error keeps its
message, line and column. `serialize` writes matrices with the bulk
writer `lang.syntax.format_matrix`. Every syntax error is an
FqasmSyntaxError with its line and column, and so is a well-formedness
fault (`ir.first_fault`), at the offending name; one that is already a
ParseError (a reserved or twice-declared name) keeps its class.
"""
from __future__ import annotations

from ..errors import FqasmSyntaxError, ParseError
from ..lang.checker import GATE_TEXT_NAMES
from ..lang.parser import BUILTIN_MEASUREMENTS, Token, TokenParser, tokenize
from ..lang.syntax import GateDecl, MeasDecl, format_matrix
from .ir import (
    Apply,
    Cmp,
    Fault,
    FqasmProgram,
    InitQ,
    Instruction,
    Je,
    Jmp,
    Label,
    MeasMov,
    Mov,
    check_wellformed,
    first_fault,
)

# Input accepts either spelling of a library gate.
_TEXT_TO_GATE = {v: k for k, v in GATE_TEXT_NAMES.items()}


def _gate_text(name: str) -> str:
    return GATE_TEXT_NAMES.get(name, name)


def serialize(prog: FqasmProgram) -> str:
    check_wellformed(prog)
    lines: list[str] = []
    for name, width in prog.registers:
        lines.append(f"QREG {name} {width};")
    for name in prog.cregs:
        lines.append(f"CREG {name};")
    for g in prog.gates:
        lines.append(f"GATE {g.name} {format_matrix(g.matrix)};")
    for m in prog.measurements:
        if m.builtin:
            lines.append(f"MEASURE {m.name} {m.builtin};")
        else:
            ops = ", ".join(format_matrix(op) for op in m.operators)
            lines.append(f"MEASURE {m.name} {{{ops}}};")
    if lines:
        lines.append("")
    for ins in prog.instructions:
        if isinstance(ins, InitQ):
            lines.append(f"INIT({ins.qreg});")
        elif isinstance(ins, Apply):
            args = ",".join(ins.qregs)
            lines.append(f"{_gate_text(ins.gate)}({args},{ins.num});")
        elif isinstance(ins, MeasMov):
            args = ",".join(ins.qregs)
            lines.append(f"MOV({ins.creg},{{{ins.meas}}}({args}));")
        elif isinstance(ins, Mov):
            lines.append(f"MOV({ins.dst},{ins.src});")
        elif isinstance(ins, Cmp):
            lines.append(f"CMP({ins.creg},{ins.operand});")
        elif isinstance(ins, Jmp):
            lines.append(f"JMP {ins.label};")
        elif isinstance(ins, Je):
            lines.append(f"JE {ins.label};")
        elif isinstance(ins, Label):
            lines.append(f"{ins.name}:")
        else:
            raise FqasmSyntaxError(f"cannot serialize {type(ins).__name__}")
    return "\n".join(lines) + "\n"


class _FqasmParser(TokenParser):
    def __init__(self, tokens: list[Token]):
        super().__init__(tokens)
        self.registers: list[tuple[str, int]] = []
        self.gates: list[GateDecl] = []
        self.measurements: list[MeasDecl] = []
        self.instructions: list[Instruction] = []
        self.spans: list[tuple[int, int]] = []  # token range of each instruction
        self.creg_names: list[Token] = []       # name token of each CREG

    def expect_int(self) -> int:
        tok = self.expect("num")
        try:
            return int(tok.text)
        except ValueError:
            raise self.error("expected an integer", tok) from None

    def _name_list(self) -> tuple[str, ...]:
        names = [self.expect("name").text]
        while self.cur.kind == ",":
            self.advance()
            names.append(self.expect("name").text)
        return tuple(names)

    def parse(self) -> FqasmProgram:
        while self.cur.kind != "eof":
            start = self.pos
            if (ins := self.parse_line()) is not None:
                self.instructions.append(ins)
                self.spans.append((start, self.pos))
        return FqasmProgram(
            instructions=tuple(self.instructions),
            registers=tuple(self.registers),
            cregs=tuple(t.text for t in self.creg_names),
            gates=tuple(self.gates),
            measurements=tuple(self.measurements),
        )

    def locate(self, fault: Fault) -> Token:
        """The token of the name a well-formedness fault is about."""
        if fault.creg:
            return self.creg_names[fault.index]
        start, end = self.spans[fault.index]
        # the name is an operand, or else the line's first token: a label
        # or the register of an unfused measure-assign
        return next((t for t in self.tokens[start + 1:end] if t.text == fault.name),
                    self.tokens[start])

    def parse_line(self) -> Instruction | None:
        """One line: its instruction, or None for a declaration."""
        tok = self.cur
        if tok.kind != "name":
            raise self.error(f"expected a command, found {tok.text!r}")
        word = tok.text

        if word in ("QREG", "CREG", "GATE", "MEASURE"):
            self.advance()
            self.parse_declaration(word)
            return None

        # label line: NAME ':'
        if self.tokens[self.pos + 1].kind == ":":
            self.advance()
            self.advance()
            return Label(word)

        self.advance()
        if word == "INIT":
            self.expect("(")
            qreg = self.expect("name").text
            self.expect(")")
            ins: Instruction = InitQ(qreg)
        elif word == "JMP":
            ins = Jmp(self.expect("name").text)
        elif word == "JE":
            ins = Je(self.expect("name").text)
        elif word == "CMP":
            self.expect("(")
            creg = self.expect("name").text
            self.expect(",")
            if self.cur.kind == "num":
                operand: int | str = self.expect_int()
            else:
                operand = self.expect("name").text
            self.expect(")")
            ins = Cmp(creg, operand)
        elif word == "MOV":
            self.expect("(")
            dst = self.expect("name").text
            self.expect(",")
            if self.cur.kind == "{":
                self.advance()
                meas = self.expect("name").text
                self.expect("}")
                self.expect("(")
                qregs = self._name_list()
                self.expect(")")
                self.expect(")")
                ins = MeasMov(dst, meas, qregs)
            else:
                src = self.expect("name").text
                self.expect(")")
                ins = Mov(dst, src)
        elif word == "APPLY":
            # spelled-out compatibility form: APPLY <gate> <q...> <num>
            gate = self.expect("name").text
            names = []
            while self.cur.kind == "name":
                names.append(self.advance().text)
            num = self.expect_int()
            ins = Apply(_TEXT_TO_GATE.get(gate, gate), tuple(names), num)
        else:
            # unfused measure-assign: r := {M}(q...)
            if self.cur.kind == ":=":
                self.advance()
                self.expect("{")
                meas = self.expect("name").text
                self.expect("}")
                self.expect("(")
                qregs = self._name_list()
                self.expect(")")
                ins = MeasMov(word, meas, qregs)
            else:
                # listing-style gate application: name(q...,num)
                self.expect("(")
                names = [self.expect("name").text]
                num = 0
                while self.cur.kind == ",":
                    self.advance()
                    if self.cur.kind == "num":
                        num = self.expect_int()
                        break
                    names.append(self.expect("name").text)
                self.expect(")")
                gate = _TEXT_TO_GATE.get(word, word)
                ins = Apply(gate, tuple(names), num)
        self.expect(";")
        return ins

    def parse_declaration(self, word: str) -> None:
        tok = self.expect("name")
        name = tok.text
        if word == "QREG":
            width = self.expect_int()
            self.registers.append((name, width))
        elif word == "CREG":
            self.creg_names.append(tok)
        elif word == "GATE":
            self.gates.append(GateDecl(name, self.parse_matrix()))
        else:  # MEASURE
            if self.cur.kind == "name":
                builtin = self.advance().text
                if builtin not in BUILTIN_MEASUREMENTS:
                    raise self.error(f"unknown built-in measurement {builtin!r}")
                self.measurements.append(MeasDecl(name, builtin=builtin))
            else:
                self.measurements.append(MeasDecl(name, operators=self.parse_operators()))
        self.expect(";")


def parse_fqasm(text: str) -> FqasmProgram:
    """Parse `.fqasm` text; serialize(parse_fqasm(t)) is a fixpoint."""
    try:
        parser = _FqasmParser(tokenize(text))
        prog = parser.parse()
    except ParseError as exc:  # re-brand lexer and parser errors, keeping the position
        raise FqasmSyntaxError(exc.message, exc.line, exc.column) from exc
    if (fault := first_fault(prog)) is not None:
        tok = parser.locate(fault)
        error = type(fault.error) if isinstance(fault.error, ParseError) else FqasmSyntaxError
        raise error(fault.error.message, tok.line, tok.col)
    return prog
