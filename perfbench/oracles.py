"""Output checks that do not use the code under test.

Each check returns a list of failure messages; an empty list is a pass.
"""
from __future__ import annotations

import math

import numpy as np

from inputs import BB84_CELLS

SIGMAS = 5.0


def _within(count: int, trials: int, p: float) -> bool:
    """count is within SIGMAS binomial standard deviations of trials * p."""
    return abs(count - trials * p) <= SIGMAS * math.sqrt(trials * p * (1.0 - p))


def qloop(payload: dict, shots: int) -> list[str]:
    """A quarter of the shots enter the loop, and each further circle
    happens with probability 1/2, so among shots with one or two circles
    a third have two."""
    out = []
    if payload.get("shots") != shots:
        out.append(f"qloop: {payload.get('shots')} shots reported, {shots} run")
    entering = payload.get("shots_entering", -1)
    if not _within(entering, shots, 0.25):
        out.append(f"qloop: {entering}/{shots} shots entered, expected 1/4")
    circles = {int(k): v for k, v in payload.get("circles", {}).items()}
    one, two = circles.get(1, 0), circles.get(2, 0)
    if one + two == 0 or not _within(two, one + two, 1.0 / 3.0):
        out.append(f"qloop: count(2 circles)/count(1 circle) = {two}/{one}, expected 1/2")
    if sum(circles.values()) != entering:
        out.append("qloop: circle histogram does not add up to the shots entering")
    return out


def bb84_sweep(csv_text: str, sessions: int) -> tuple[int, list[str]]:
    """Every identity-channel cell succeeds in every session. Returns the
    number of failed cells and the messages."""
    lines = csv_text.strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if lines[:1] != ["channel,raw_key_length,sampling_fraction,sessions,successes"] \
            or len(rows) != BB84_CELLS or any(len(r) != 5 for r in rows):
        return BB84_CELLS, [f"bb84: malformed sweep CSV ({len(rows)} rows)"]
    failed, out = 0, []
    for channel, length, fraction, n, wins in rows:
        ok = int(n) == sessions and 0 <= int(wins) <= sessions
        if channel == "identity" and int(wins) != sessions:
            ok = False
        if not ok:
            failed += 1
            out.append(f"bb84: cell {channel}/{length}/{fraction}: {wins} of {n} sessions")
    return failed, out


def distribution(payload: dict, grover: tuple[int, float] | None = None) -> list[str]:
    """Terminal weights plus residual make 1; for Grover, the weight of the
    answer's terminal equals the analytic success probability."""
    out = []
    terminals = payload.get("terminals", [])
    total = sum(t["weight"] for t in terminals) + payload.get("residual", 0.0)
    if abs(total - 1.0) > 1e-9:
        out.append(f"distribution: weights plus residual = {total!r}")
    if grover is not None:
        target, expected = grover
        weight = sum(t["weight"] for t in terminals
                     if _diagonal(t["state"])[target] > 0.5)
        if abs(weight - expected) > 1e-9:
            out.append(f"grover: answer weight {weight!r}, expected {expected!r}")
    return out


def _diagonal(state: list) -> list[float]:
    """The CLI lists a large state by its diagonal, a small one in full."""
    if state and isinstance(state[0], list):
        return [row[i][0] for i, row in enumerate(state)]
    return state


# --- synthesis ----------------------------------------------------------------

_S2 = 1.0 / math.sqrt(2.0)
_T = complex(math.cos(math.pi / 4), math.sin(math.pi / 4))
GATES_1Q = {
    "H": np.array([[_S2, _S2], [_S2, -_S2]], dtype=complex),
    "T": np.diag([1.0, _T]),
    "Tdg": np.diag([1.0, _T.conjugate()]),
    "S": np.diag([1.0, 1j]),
    "Sdg": np.diag([1.0, -1j]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
}
_I2 = np.eye(2, dtype=complex)
# CNOT(control, target) on two qubits, qubit 0 the most significant.
_CNOT = {(0, 1): np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex),
         (1, 0): np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex)}


def two_qubit_product(sequence: list) -> np.ndarray:
    """Dense 4x4 product of a gate list in application order. Runs of
    letters on one qubit are multiplied as 2x2 matrices first."""
    total = np.eye(4, dtype=complex)
    pending = {0: _I2, 1: _I2}
    for name, qubits in sequence:
        if name == "CNOT":
            total = np.kron(pending[0], pending[1]) @ total
            pending = {0: _I2, 1: _I2}
            total = _CNOT[tuple(qubits)] @ total
        else:
            q = qubits[0]
            pending[q] = GATES_1Q[name] @ pending[q]
    return np.kron(pending[0], pending[1]) @ total


def phase_distance(a: np.ndarray, b: np.ndarray) -> float:
    """min over phi of the spectral norm of a - e^{i phi} b, for unitaries:
    the eigenvalues of b^dagger a lie on an arc, and the best phase is its
    midpoint."""
    angles = np.sort(np.angle(np.linalg.eigvals(b.conj().T @ a)))
    gaps = np.append(np.diff(angles), angles[0] + 2 * math.pi - angles[-1])
    half_arc = (2 * math.pi - gaps.max()) / 2.0
    return 2.0 * math.sin(min(half_arc, math.pi) / 2.0)


def synthesis(payload: dict, u: np.ndarray, basic_names) -> list[str]:
    """Every gate is a basic gate, the gate count matches the sequence, and
    the sequence is within eps_total of the input."""
    out = []
    seq = payload.get("sequence", [])
    names = {name for name, _ in seq}
    if not names <= set(basic_names) or not names <= set(GATES_1Q) | {"CNOT"}:
        out.append(f"synth: gates outside the basic set: {sorted(names - set(basic_names))}")
        return out
    if payload.get("gates") != len(seq):
        out.append(f"synth: {payload.get('gates')} gates reported, {len(seq)} listed")
    err = phase_distance(two_qubit_product(seq), u)
    if not err <= payload.get("eps_total", -1.0) + 1e-9:
        out.append(f"synth: reconstruction error {err!r} > eps_total {payload.get('eps_total')!r}")
    return out
