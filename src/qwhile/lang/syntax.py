"""Abstract syntax of the quantum while-language and its canonical printer.

Statement forms:

    skip | q := |0> | U[q, ...] | S1; S2
         | if M[q] = k -> S [] k' -> S' fi
         | while M[q] = 1 do S od

Case branch outcomes are distinct; branches may be missing (the
measurement still happens, nothing else runs for that outcome). The
while guard is a yes-no measurement: outcome 1 continues, 0 exits.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from ..core.linalg import read_only


class Stmt:
    """Base class for statements."""
    __slots__ = ()


@dataclass(frozen=True)
class Skip(Stmt):
    pass


@dataclass(frozen=True)
class Init(Stmt):
    target: str


@dataclass(frozen=True)
class Unitary(Stmt):
    gate: str
    regs: tuple[str, ...]


@dataclass(frozen=True)
class Seq(Stmt):
    stmts: tuple[Stmt, ...]


@dataclass(frozen=True)
class Case(Stmt):
    meas: str
    regs: tuple[str, ...]
    branches: tuple[tuple[int, Stmt], ...]


@dataclass(frozen=True)
class While(Stmt):
    # Guard literal is fixed to 1 by the grammar: outcome 1 continues.
    meas: str
    regs: tuple[str, ...]
    body: Stmt


@dataclass(frozen=True)
class GateDecl:
    name: str
    matrix: np.ndarray
    library_ref: str | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "matrix", read_only(self.matrix))

    def __eq__(self, other):
        if not isinstance(other, GateDecl):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.matrix, other.matrix)

    __hash__ = None


@dataclass(frozen=True)
class MeasDecl:
    """Measurement declaration: either a built-in basis name, instantiated
    per use-site dimension, or an explicit operator list with fixed dim."""
    name: str
    builtin: str | None = None           # "computational" | "plusminus"
    operators: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        if self.operators is not None:
            object.__setattr__(self, "operators", tuple(map(read_only, self.operators)))

    def __eq__(self, other):
        if not isinstance(other, MeasDecl):
            return NotImplemented
        if (self.name, self.builtin) != (other.name, other.builtin):
            return False
        if (self.operators is None) != (other.operators is None):
            return False
        if self.operators is None:
            return True
        return len(self.operators) == len(other.operators) and all(
            np.array_equal(a, b) for a, b in zip(self.operators, other.operators))

    __hash__ = None

    def n_outcomes(self, dim: int) -> int:
        if self.builtin == "computational":
            return dim
        if self.builtin == "plusminus":
            return 2
        assert self.operators is not None
        return len(self.operators)

    @property
    def fixed_dim(self) -> int | None:
        if self.operators is not None:
            return self.operators[0].shape[0]
        if self.builtin == "plusminus":
            return 2
        return None


@dataclass(frozen=True)
class Declarations:
    """The quantum registers, gates and measurements a program declares:
    the part a `.qw` and an f-QASM program share. Each kind also has a
    `statements()` view, the statements the checker checks.

    Register order fixes the global qubit layout: the first-declared
    register holds the most significant qubits. `checked` is True once
    `lang.checker` has accepted the program, which it marks in place; it
    is never copied (`dataclasses.replace` gives an unchecked program)
    and takes no part in equality.
    """
    registers: tuple[tuple[str, int], ...]   # (name, qubit count), in order
    gates: tuple[GateDecl, ...]              # declared non-library gates
    measurements: tuple[MeasDecl, ...]
    checked: bool = field(default=False, init=False, compare=False, repr=False)

    def register_width(self, name: str) -> int:
        for reg, width in self.registers:
            if reg == name:
                return width
        raise KeyError(name)

    def gate_decl(self, name: str) -> GateDecl | None:
        for g in self.gates:
            if g.name == name:
                return g
        return None

    def meas_decl(self, name: str) -> MeasDecl:
        for m in self.measurements:
            if m.name == name:
                return m
        raise KeyError(name)

    @property
    def n_qubits(self) -> int:
        return sum(w for _, w in self.registers)


@dataclass(frozen=True)
class SourceProgram(Declarations):
    """Declarations plus a body statement."""
    body: Stmt

    def statements(self) -> Iterator[Stmt]:
        """Every statement of the body, each after the statements it
        contains: the order in which the parser finishes them."""
        def post_order(s: Stmt) -> Iterator[Stmt]:
            inner = (s.stmts if isinstance(s, Seq) else (s.body,) if isinstance(s, While)
                     else [body for _, body in s.branches] if isinstance(s, Case) else ())
            for sub in inner:
                yield from post_order(sub)
            yield s

        return post_order(self.body)


# --- canonical printing -----------------------------------------------------

def format_complex(z: complex) -> str:
    re, im = float(np.real(z)), float(np.imag(z))
    re += 0.0  # normalize -0.0
    im += 0.0
    if im == 0.0:
        return repr(re)
    if re == 0.0:
        return f"{repr(im)}i"
    sign = "+" if im > 0 else "-"
    return f"{repr(re)}{sign}{repr(abs(im))}i"


def _reprs(a: np.ndarray) -> np.ndarray:
    """`repr` of each float of the 1-D array `a`, as an object array; each
    distinct value is written once."""
    values, index = np.unique(a, return_inverse=True)
    return np.array(list(map(repr, values.tolist())), dtype=object)[index.ravel()]


def format_matrix(m: np.ndarray) -> str:
    """`format_complex` of every entry, written over whole arrays."""
    m = np.asarray(m)
    re = np.real(m).astype(float).ravel() + 0.0  # normalize -0.0
    im = np.imag(m).astype(float).ravel() + 0.0
    real = im == 0.0
    imag = ~real & (re == 0.0)
    mixed = ~(real | imag)
    text = _reprs(re)
    text[imag] = _reprs(im[imag]) + "i"
    sign = np.where(im[mixed] > 0, "+", "-").astype(object)
    text[mixed] += sign + _reprs(np.abs(im[mixed])) + "i"
    rows = ", ".join("[" + ", ".join(row) + "]" for row in text.reshape(m.shape).tolist())
    return f"[{rows}]"


def _print_stmt(s: Stmt, indent: int, out: list[str]) -> None:
    pad = "  " * indent
    if isinstance(s, Skip):
        out.append(f"{pad}skip;")
    elif isinstance(s, Init):
        out.append(f"{pad}{s.target} := |0>;")
    elif isinstance(s, Unitary):
        out.append(f"{pad}{s.gate}[{', '.join(s.regs)}];")
    elif isinstance(s, Seq):
        for sub in s.stmts:
            _print_stmt(sub, indent, out)
    elif isinstance(s, Case):
        head = f"{pad}if {s.meas}[{', '.join(s.regs)}] ="
        for i, (outcome, body) in enumerate(s.branches):
            opener = head if i == 0 else f"{pad}[] "
            sep = " " if i == 0 else ""
            out.append(f"{opener}{sep}{outcome} ->")
            _print_stmt(body, indent + 1, out)
        out.append(f"{pad}fi;")
    elif isinstance(s, While):
        out.append(f"{pad}while {s.meas}[{', '.join(s.regs)}] = 1 do")
        _print_stmt(s.body, indent + 1, out)
        out.append(f"{pad}od;")
    else:
        raise TypeError(f"unknown statement {s!r}")


def pretty_print(p: SourceProgram) -> str:
    """Canonical source text; parsing it back yields a structurally equal program.

    The canonical form lists every declaration first (registers, then
    gates, then measurements, each in declaration order), followed by the
    body, so a program whose source interleaved declarations and
    statements prints declarations-first.
    """
    lines: list[str] = []
    for name, width in p.registers:
        lines.append(f"{name} : qubit;" if width == 1 else f"{name} : qubit[{width}];")
    for g in p.gates:
        rhs = g.library_ref if g.library_ref else format_matrix(g.matrix)
        lines.append(f"gate {g.name} = {rhs};")
    for m in p.measurements:
        if m.builtin:
            lines.append(f"measure {m.name} = {m.builtin};")
        else:
            ops = ", ".join(format_matrix(op) for op in m.operators)
            lines.append(f"measure {m.name} = {{{ops}}};")
    if lines:
        lines.append("")
    _print_stmt(p.body, 0, lines)
    return "\n".join(lines) + "\n"


def seq_of(stmts: list[Stmt]) -> Stmt:
    """Canonical sequencing: nested Seqs flatten, empty -> skip,
    singleton -> itself."""
    flat: list[Stmt] = []
    for s in stmts:
        if isinstance(s, Seq):
            flat.extend(s.stmts)
        else:
            flat.append(s)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Seq(tuple(flat))
