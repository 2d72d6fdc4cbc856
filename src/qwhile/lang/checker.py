"""The one home of the rules of a well-formed program, for `.qw` text,
built ASTs and f-QASM alike; gate names resolve against STANDARD_LIBRARY.

`Scope.declare` is the declaration check, `Scope.check` the statement
check and `Scope.close` the check of the whole program. `validate_program`
runs them over the `Declarations` and the `statements()` of a
`SourceProgram` or an `FqasmProgram` and reports every issue; an issue
raises the error class `ERRORS` maps its kind to.

Each program is checked once, where it enters, and then carries
`checked`, which only `mark_checked` sets: `parse` runs the checks as it
reads (raising the first issue at its token, so exactly when
`validate_program` reports); `require_valid` (in `prepare`,
`compile_program` and `prepare_vm`) checks an unchecked program, such as
a built AST or `parse_fqasm`'s output; `compile_program` marks its
output, whose declarations and statements are its checked input's.
Every later layer, the kernel table first, trusts a checked program.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..core.gates import STANDARD_LIBRARY
from ..core.linalg import (ATOL_PHYSICAL, ATOL_UNITARY, MAX_QUBITS, completeness_residual,
                           unitary_residual)
from ..errors import (CapacityExceeded, DimensionError, DuplicateName, IncompleteMeasurement,
                      NotUnitary, ParseError, QwhileError, UndeclaredName)
from .syntax import Case, Declarations, GateDecl, Init, MeasDecl, Seq, Skip, Stmt, Unitary, While

# The error class each issue kind raises.
ERRORS: dict[str, type[QwhileError]] = {
    "DuplicateName": DuplicateName,
    "DimensionError": DimensionError,
    "CapacityExceeded": CapacityExceeded,
    "NotUnitary": NotUnitary,
    "IncompleteMeasurement": IncompleteMeasurement,
    "UndeclaredName": UndeclaredName,
    "BadBranch": DimensionError,
    "BadNode": QwhileError,
    "BadName": ParseError,
    "NoRegisters": ParseError,
}

# The words of the `.qw` grammar.
QW_KEYWORDS = frozenset({"skip", "if", "fi", "while", "do", "od", "gate", "measure", "qubit"})
# The f-QASM listing spelling of each standard-library gate.
GATE_TEXT_NAMES = {"H": "hGate", "X": "xGate", "Z": "zGate", "I": "iGate", "T": "tGate",
                   "S": "sGate", "CNOT": "cnotGate"}
# Words either text form reads as syntax, which no declared name may be.
_RESERVED = {
    **dict.fromkeys(QW_KEYWORDS, "a .qw keyword"),
    **dict.fromkeys(("QREG", "CREG", "GATE", "MEASURE", "INIT", "MOV", "CMP", "JMP", "JE",
                     "APPLY"), "an f-QASM command"),
    **{text: f"the f-QASM listing spelling of gate {gate}"
       for gate, text in GATE_TEXT_NAMES.items()},
}

_LIBRARY_DIMS = {name: STANDARD_LIBRARY[name].shape[0] for name in STANDARD_LIBRARY.names}


@dataclass(frozen=True)
class Issue:
    kind: str       # a key of ERRORS
    where: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at {self.where}: {self.detail}"


@dataclass(frozen=True)
class ProgramReport:
    issues: tuple[Issue, ...]

    @property
    def ok(self) -> bool:
        return not self.issues

    def __str__(self) -> str:
        return "ok" if self.ok else "\n".join(str(i) for i in self.issues)


def bad_name(noun: str, name: str) -> Issue | None:
    """The BadName issue of a `noun` called `name`, or None: a name is an
    ASCII identifier (the lexers' name token) that neither text form
    reads as syntax. Declarations and f-QASM labels and classical
    registers share this rule."""
    if not (name.isascii() and name.isidentifier()):
        detail = f"name {name!r} is not an identifier"
    elif name in _RESERVED:
        detail = f"name {name!r} is {_RESERVED[name]}"
    else:
        return None
    return Issue("BadName", f"{noun} {name}", detail)


def _site(s: Unitary | Case | While) -> str:
    regs = ", ".join(s.regs)
    if isinstance(s, Unitary):
        return f"{s.gate}[{regs}]"
    return f"{'if' if isinstance(s, Case) else 'while'} {s.meas}[{regs}]"


class Scope:
    """The names a program has declared so far. A name declared twice
    keeps its first declaration, as `gate_decl` and `meas_decl` do."""

    def __init__(self):
        self.widths: dict[str, int] = {}
        self.gate_dims: dict[str, int] = dict(_LIBRARY_DIMS)
        self.measurements: dict[str, MeasDecl] = {}
        self.n_qubits = 0
        self.n_registers = 0

    def declare(self, decl: tuple[str, int] | GateDecl | MeasDecl) -> list[Issue]:
        """The declaration check of `decl`, a (name, width) quantum
        register, a gate or a measurement, which is then in scope unless
        its name was taken: a name is an identifier that neither text
        form reads as syntax, names are unique across the three kinds and
        are not standard-library gate names, a width is >= 1, registers
        hold at most MAX_QUBITS qubits in all, a gate is unitary within
        ATOL_UNITARY, and explicit measurement operators are complete
        within ATOL_PHYSICAL (the built-in measurements are complete)."""
        if isinstance(decl, tuple):
            (name, width), noun = decl, "register"
        else:
            name, noun = decl.name, "gate" if isinstance(decl, GateDecl) else "measurement"
        issues: list[Issue] = []

        def issue(kind: str, detail: str) -> None:
            issues.append(Issue(kind, f"{noun} {name}", detail))

        if (bad := bad_name(noun, name)) is not None:
            issues.append(bad)
        taken = name in self.widths or name in self.gate_dims or name in self.measurements
        if taken:
            issue("DuplicateName", f"name {name!r} " + ("shadows a standard-library gate"
                                   if name in _LIBRARY_DIMS else "already declared"))
        if noun == "register":
            if width < 1:
                issue("DimensionError", "width must be >= 1")
            elif self.n_qubits <= MAX_QUBITS < self.n_qubits + width:
                issue("CapacityExceeded", f"{self.n_qubits + width} qubits in all exceed "
                      f"the dense cap of {MAX_QUBITS}")
            width = max(width, 0)
            self.n_qubits += width
            self.n_registers += 1
            if not taken:
                self.widths[name] = width
        elif noun == "gate":
            if (residual := unitary_residual(decl.matrix)) > ATOL_UNITARY:
                issue("NotUnitary", f"gate {name!r} is not unitary (residual {residual:.3e})")
            if not taken:
                self.gate_dims[name] = decl.matrix.shape[0]
        else:
            if (decl.operators is not None
                    and (residual := completeness_residual(decl.operators)) > ATOL_PHYSICAL):
                issue("IncompleteMeasurement",
                      f"measurement {name!r} is not complete (residual {residual:.3e})")
            if not taken:
                self.measurements[name] = decl
        return issues

    def close(self) -> list[Issue]:
        """The check of the whole program, once everything is declared:
        it declares at least one quantum register."""
        if self.n_registers:
            return []
        return [Issue("NoRegisters", "program", "program declares no quantum registers")]

    def check(self, s: Stmt) -> list[Issue]:
        """The statement check of the node `s`, without the statements it
        contains: its registers are declared and listed once, its gate or
        measurement is declared and fits their dimension, branch outcomes
        are distinct and in range, and a `while` guard has two outcomes."""
        if isinstance(s, (Skip, Seq)):
            return []
        if isinstance(s, Init):
            if s.target in self.widths:
                return []
            return [Issue("UndeclaredName", f"{s.target} := |0>",
                          f"register {s.target!r} not declared")]
        if not isinstance(s, (Unitary, Case, While)):
            return [Issue("BadNode", type(s).__name__, f"unknown statement {s!r}")]

        def issue(kind: str, detail: str) -> list[Issue]:
            return [Issue(kind, _site(s), detail)]

        width = 0
        for i, r in enumerate(s.regs):
            if r not in self.widths:
                return issue("UndeclaredName", f"register {r!r} not declared")
            if r in s.regs[:i]:
                return issue("DimensionError", f"register {r!r} listed twice")
            width += self.widths[r]
        dim = 1 << width
        if isinstance(s, Unitary):
            gate_dim = self.gate_dims.get(s.gate)
            if gate_dim is None:
                return issue("UndeclaredName", f"gate {s.gate!r} not declared")
            if gate_dim != dim:
                return issue("DimensionError", f"gate {s.gate!r} has dim {gate_dim}, "
                             f"applied to {width} qubit(s) (dim {dim})")
            return []
        decl = self.measurements.get(s.meas)
        if decl is None:
            return issue("UndeclaredName", f"measurement {s.meas!r} not declared")
        if decl.fixed_dim not in (None, dim):
            return issue("DimensionError", f"measurement {s.meas!r} has dim "
                         f"{decl.fixed_dim}, applied to {width} qubit(s) (dim {dim})")
        n = decl.n_outcomes(dim)
        if isinstance(s, While):
            return [] if n == 2 else issue(
                "DimensionError", f"while guard needs a yes-no measurement; "
                f"{s.meas!r} has {n} outcomes")
        issues = []
        outcomes = [k for k, _ in s.branches]
        for i, k in enumerate(outcomes):
            if k in outcomes[:i]:
                issues += issue("BadBranch", f"duplicate branch outcome {k}")
            elif not 0 <= k < n:
                issues += issue("BadBranch", f"branch outcome {k} out of range for "
                                f"{n}-outcome measurement {s.meas!r}")
        return issues


def validate_program(program: Declarations) -> ProgramReport:
    scope = Scope()
    issues = [issue for decl in (*program.registers, *program.gates, *program.measurements)
              for issue in scope.declare(decl)]
    issues += [issue for s in program.statements() for issue in scope.check(s)]
    issues += scope.close()
    return ProgramReport(tuple(issues))


def mark_checked(program: Declarations) -> Declarations:
    """`program`, marked as one the checks accepted."""
    object.__setattr__(program, "checked", True)
    return program


def require_valid(program: Declarations) -> Declarations:
    """`program` marked checked, or the error of its first issue, listing
    them all. A checked program is returned at once."""
    if not program.checked:
        report = validate_program(program)
        if not report.ok:
            raise ERRORS[report.issues[0].kind](f"invalid program:\n{report}")
        mark_checked(program)
    return program
