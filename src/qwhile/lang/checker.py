"""Semantic validation of programs, independent of how the AST was built.

The parser already rejects malformed text; this pass re-checks
programmatically constructed ASTs and verifies the numeric properties
the parser cannot: declared gates are unitary, declared measurements are
complete, and every application site is dimensionally consistent.
`declaration_issue` is the one place a declaration is decided, for `.qw`
(`validate_program`) and f-QASM (`require_declarations`) alike; the
kernel table and every layer after it trust what it accepted.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..core.gates import GateLibrary, STANDARD_LIBRARY
from ..core.linalg import ATOL_PHYSICAL, ATOL_UNITARY, completeness_residual, unitary_residual
from ..errors import IncompleteMeasurement, NotUnitary, QwhileError
from .syntax import (Case, GateDecl, Init, MeasDecl, Seq, Skip, SourceProgram, Stmt, Unitary,
                     While)


@dataclass(frozen=True)
class Issue:
    kind: str       # NotUnitary | IncompleteMeasurement | DimensionError | UndeclaredName | BadBranch
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


def declaration_issue(decl: GateDecl | MeasDecl) -> Issue | None:
    """The issue of one declaration, or None: a gate must be unitary
    within ATOL_UNITARY, a measurement with explicit operators complete
    within ATOL_PHYSICAL (the built-in ones are complete by definition)."""
    if isinstance(decl, GateDecl):
        residual = unitary_residual(decl.matrix)
        if residual > ATOL_UNITARY:
            return Issue("NotUnitary", f"gate {decl.name}", f"residual {residual:.3e}")
    elif decl.operators is not None:
        residual = completeness_residual(decl.operators)
        if residual > ATOL_PHYSICAL:
            return Issue("IncompleteMeasurement", f"measurement {decl.name}",
                         f"residual {residual:.3e}")
    return None


def require_declarations(program) -> None:
    """Raise NotUnitary or IncompleteMeasurement, naming it, for the first
    declared gate or measurement of `program` that has an issue."""
    for decl in (*program.gates, *program.measurements):
        if (issue := declaration_issue(decl)) is not None:
            noun, error = (("gate", NotUnitary) if isinstance(decl, GateDecl)
                           else ("measurement", IncompleteMeasurement))
            raise error(f"{noun} {decl.name!r}: {issue.kind} ({issue.detail})")


def validate_program(program: SourceProgram,
                     library: GateLibrary = STANDARD_LIBRARY) -> ProgramReport:
    issues: list[Issue] = []

    reg_width = dict(program.registers)
    if len(reg_width) != len(program.registers):
        issues.append(Issue("DuplicateName", "registers", "register names must be unique"))
    for name, width in program.registers:
        if width < 1:
            issues.append(Issue("DimensionError", f"register {name}", "width must be >= 1"))

    gate_names = set()
    for g in program.gates:
        if g.name in gate_names:
            issues.append(Issue("DuplicateName", f"gate {g.name}", "declared twice"))
        gate_names.add(g.name)
        if (issue := declaration_issue(g)) is not None:
            issues.append(issue)

    meas_decls = {}
    for m in program.measurements:
        if m.name in meas_decls:
            issues.append(Issue("DuplicateName", f"measurement {m.name}", "declared twice"))
        meas_decls[m.name] = m
        if (issue := declaration_issue(m)) is not None:
            issues.append(issue)

    def site_width(regs: tuple[str, ...], where: str) -> int | None:
        width = 0
        seen = set()
        for r in regs:
            if r not in reg_width:
                issues.append(Issue("UndeclaredName", where, f"register {r!r} not declared"))
                return None
            if r in seen:
                issues.append(Issue("DimensionError", where, f"register {r!r} listed twice"))
                return None
            seen.add(r)
            width += reg_width[r]
        return width

    def meas_outcomes(name: str, dim: int, where: str) -> int | None:
        decl = meas_decls.get(name)
        if decl is None:
            issues.append(Issue("UndeclaredName", where, f"measurement {name!r} not declared"))
            return None
        if decl.fixed_dim is not None and decl.fixed_dim != dim:
            issues.append(Issue("DimensionError", where,
                                f"measurement dim {decl.fixed_dim} != site dim {dim}"))
            return None
        return decl.n_outcomes(dim)

    def walk(s: Stmt, path: str) -> None:
        if isinstance(s, Skip):
            return
        if isinstance(s, Init):
            if s.target not in reg_width:
                issues.append(Issue("UndeclaredName", path, f"register {s.target!r} not declared"))
            return
        if isinstance(s, Unitary):
            width = site_width(s.regs, path)
            if width is None:
                return
            if s.gate in gate_names:
                dim = program.gate_decl(s.gate).matrix.shape[0]
            elif s.gate in library:
                dim = library[s.gate].shape[0]
            else:
                issues.append(Issue("UndeclaredName", path, f"gate {s.gate!r} not declared"))
                return
            if dim != (1 << width):
                issues.append(Issue("DimensionError", path,
                                    f"gate dim {dim} applied to {width} qubit(s)"))
            return
        if isinstance(s, Seq):
            for i, sub in enumerate(s.stmts):
                walk(sub, f"{path}.{i}")
            return
        if isinstance(s, Case):
            width = site_width(s.regs, path)
            if width is None:
                return
            n = meas_outcomes(s.meas, 1 << width, path)
            seen = set()
            for outcome, body in s.branches:
                if outcome in seen:
                    issues.append(Issue("BadBranch", path, f"duplicate outcome {outcome}"))
                seen.add(outcome)
                if n is not None and not 0 <= outcome < n:
                    issues.append(Issue("BadBranch", path,
                                        f"outcome {outcome} out of range 0..{n - 1}"))
                walk(body, f"{path}.case{outcome}")
            return
        if isinstance(s, While):
            width = site_width(s.regs, path)
            if width is None:
                return
            n = meas_outcomes(s.meas, 1 << width, path)
            if n is not None and n != 2:
                issues.append(Issue("DimensionError", path,
                                    f"while guard needs 2 outcomes, got {n}"))
            walk(s.body, f"{path}.body")
            return
        issues.append(Issue("BadNode", path, f"unknown statement {type(s).__name__}"))

    walk(program.body, "body")
    return ProgramReport(tuple(issues))


def require_valid(program: SourceProgram,
                  library: GateLibrary = STANDARD_LIBRARY) -> SourceProgram:
    report = validate_program(program, library)
    if not report.ok:
        raise QwhileError(f"invalid program:\n{report}")
    return program
