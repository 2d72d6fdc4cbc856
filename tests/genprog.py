"""Seeded random-program generator for engine/compiler equivalence tests.

Programs use at most 3 single-qubit registers, statement nesting up to a
depth bound, library gates, an occasional declared custom gate, and
computational / plus-minus measurements. Every AST node is freshly
constructed, so node identity matches syntactic sites.
"""
from __future__ import annotations

import numpy as np

from qwhile.lang.syntax import (
    Case,
    GateDecl,
    Init,
    MeasDecl,
    Seq,
    Skip,
    SourceProgram,
    Unitary,
    While,
    seq_of,
)

SINGLE_GATES = ("H", "X", "Z", "T", "S")


def random_unitary2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def random_program(rng: np.random.Generator, max_depth: int = 4,
                   max_block: int = 4) -> SourceProgram:
    n_regs = int(rng.integers(1, 4))
    registers = tuple((f"q{i + 1}", 1) for i in range(n_regs))
    reg_names = [name for name, _ in registers]
    custom = rng.random() < 0.4
    gates = (GateDecl("G", random_unitary2(rng)),) if custom else ()
    gate_pool = list(SINGLE_GATES) + (["G"] if custom else [])
    measurements = (MeasDecl("M", builtin="computational"),
                    MeasDecl("P", builtin="plusminus"))

    def pick_reg() -> str:
        return reg_names[int(rng.integers(0, n_regs))]

    def statement(depth: int):
        roll = rng.random()
        if depth <= 0 or roll < 0.15:
            return Skip() if rng.random() < 0.4 else leaf()
        if roll < 0.55:
            return leaf()
        if roll < 0.8:
            meas = "M" if rng.random() < 0.7 else "P"
            outcomes = [k for k in (0, 1) if rng.random() < 0.75]
            branches = tuple((k, block(depth - 1)) for k in outcomes)
            if not branches:
                branches = ((0, Skip()),)
            return Case(meas, (pick_reg(),), branches)
        return While("M", (pick_reg(),), block(depth - 1))

    def leaf():
        roll = rng.random()
        if roll < 0.2:
            return Init(pick_reg())
        if roll < 0.35 and n_regs >= 2:
            a = pick_reg()
            b = pick_reg()
            while b == a:
                b = pick_reg()
            return Unitary("CNOT", (a, b))
        return Unitary(gate_pool[int(rng.integers(0, len(gate_pool)))], (pick_reg(),))

    def block(depth: int):
        k = int(rng.integers(1, max_block + 1))
        return seq_of([statement(depth) for _ in range(k)])

    body = seq_of([Init(name) for name in reg_names] + [block(max_depth)])
    return SourceProgram(registers, gates, measurements, body)


LOCAL_GATES = ("H", "X", "Z", "T", "S", "G")
ORDER_TWO_GATES = ("H", "X", "Z")
LOOP_CONTINUE = 0.15


def wide_program(rng: np.random.Generator, n_qubits: int) -> SourceProgram:
    """A program on `n_qubits` one-qubit registers q0, q1, ...: all reset,
    12 qubit-local gates or CNOTs, one `if` and one `while` whose body
    does not measure, then 4 more gates.

    The measured qubits are reset and put in |+> first, so the `if` and
    the loop entry each fork with weight 1/2. The loop body rotates the
    guard by R, so each further round continues with probability
    LOOP_CONTINUE; its other gate has order 2."""
    q = [f"q{i}" for i in range(n_qubits)]

    def gate() -> Unitary:
        if rng.random() < 0.25:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            return Unitary("CNOT", (q[a], q[b]))
        return Unitary(LOCAL_GATES[rng.integers(len(LOCAL_GATES))], (q[rng.integers(n_qubits)],))

    t = np.arccos(np.sqrt(LOOP_CONTINUE))
    rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]])
    gates = (GateDecl("G", random_unitary2(rng)), GateDecl("R", rot))
    body = [Init(name) for name in q] + [gate() for _ in range(12)]
    a = q[rng.integers(n_qubits)]
    body += [Init(a), Unitary("H", (a,)),
             Case("M", (a,), ((0, seq_of([gate(), gate()])), (1, seq_of([gate(), gate()]))))]
    b = int(rng.integers(n_qubits))
    c = q[(b + 1 + rng.integers(n_qubits - 1)) % n_qubits]
    flip = Unitary(ORDER_TWO_GATES[rng.integers(len(ORDER_TWO_GATES))], (c,))
    body += [Init(q[b]), Unitary("H", (q[b],)),
             While("M", (q[b],), seq_of([Unitary("R", (q[b],)), flip]))]
    body += [gate() for _ in range(4)]
    return SourceProgram(tuple((name, 1) for name in q), gates,
                         (MeasDecl("M", builtin="computational"),), seq_of(body))
