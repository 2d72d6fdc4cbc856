"""Gate sequences, the target gate set, and the reconstruction oracle.

A GateOp always carries its exact matrix, so sequences can be rebuilt
into dense unitaries without an external symbol table. Sequence order is
application order: ops[0] acts on the state first, so the dense product
is ops[-1] @ ... @ ops[0].

All "up to global phase" distances use the phase-minimized operator
norm: min over phi of the largest singular value of A - e^{i phi} B.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core import gates
from ..core.kernels import embed
from ..errors import IndexOutOfRange


@dataclass(frozen=True)
class GateOp:
    name: str                 # basic-set name, "CNOT", or "u2" for an exact 1-qubit gate
    qubits: tuple[int, ...]
    matrix: np.ndarray = field(compare=False, repr=False)

    def __post_init__(self):
        if self.matrix.shape != (1 << len(self.qubits),) * 2:
            raise IndexOutOfRange(
                f"gate {self.name!r} matrix {self.matrix.shape} does not fit "
                f"{len(self.qubits)} qubit(s)")


@dataclass(frozen=True)
class GateSequence:
    """Ordered gate list with the error budget accumulated while building it."""

    ops: tuple[GateOp, ...]
    eps_total: float = 0.0

    @property
    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for op in self.ops:
            counts[op.name] = counts.get(op.name, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self.ops)


class GateSet(gates.GateLibrary):
    """Named basic gates available to synthesis targets; registration,
    lookup and the unitarity check are the GateLibrary's."""

    @classmethod
    def default(cls) -> "GateSet":
        return cls({
            "H": gates.H, "T": gates.T, "Tdg": gates.TDG,
            "S": gates.S, "Sdg": gates.SDG, "X": gates.X, "CNOT": gates.CNOT,
        })

    def single_qubit(self) -> dict[str, np.ndarray]:
        return {n: m.copy() for n, m in self._gates.items() if m.shape == (2, 2)}

    def match_single_qubit(self, u: np.ndarray, atol: float = 1e-10) -> str | None:
        """Name of a basic 1-qubit gate equal to u up to global phase, if any."""
        for name, m in self._gates.items():
            if m.shape == (2, 2) and phase_dist(u, m) <= atol:
                return name
        return None


def reconstruct(seq: GateSequence, n_qubits: int) -> np.ndarray:
    """Dense product of the embedded gates, in sequence (application) order."""
    for op in seq.ops:
        for q in op.qubits:
            if not 0 <= q < n_qubits:
                raise IndexOutOfRange(f"qubit {q} outside 0..{n_qubits - 1}")
    out = np.eye(1 << n_qubits, dtype=complex)
    for op in seq.ops:
        out = embed(op.matrix, op.qubits, n_qubits) @ out
    return out


def phase_dist(a: np.ndarray, b: np.ndarray) -> float:
    """min_phi ||a - e^{i phi} b||_2 for (near-)unitary a and b: the
    one-pair case of `phase_dists`."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise IndexOutOfRange(f"shape mismatch {a.shape} vs {b.shape}")
    return float(phase_dists(a[None], b[None])[0])


def phase_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """min_phi ||a[k] - e^{i phi} b[k]||_2 for each k of two (N, d, d)
    stacks of (near-)unitary matrices.

    Uses the eigenphases of b[k]†a[k]: the optimum centers the minimal
    enclosing arc of the spectrum, which is exact for unitary inputs.
    """
    evals = np.linalg.eigvals(b.conj().transpose(0, 2, 1) @ a)
    phases = np.sort(np.angle(evals), axis=1)
    gaps = np.diff(phases, append=phases[:, :1] + 2 * np.pi, axis=1)
    widest = gaps.argmax(axis=1)
    rows = np.arange(len(phases))
    # The spectrum lies on the arc complementary to the widest gap; the
    # optimal phase sits at that arc's center.
    start = phases[rows, (widest + 1) % phases.shape[1]]
    center = start + (2 * np.pi - gaps[rows, widest]) / 2.0
    return np.abs(evals - np.exp(1j * center)[:, None]).max(axis=1)


def strip_phase(u: np.ndarray) -> np.ndarray:
    """Special-unitary representative of u, with nonnegative real trace
    when u is 2x2: the one-matrix case of `strip_phases`."""
    return strip_phases(np.asarray(u, dtype=complex)[None])[0]


def strip_phases(stack: np.ndarray) -> np.ndarray:
    """The special-unitary representative of each matrix in an (N, d, d)
    stack, each 2x2 one signed to a nonnegative real trace."""
    d = stack.shape[-1]
    v = stack * (np.linalg.det(stack) ** (-1.0 / d))[:, None, None]
    if d == 2:
        flip = (v[:, 0, 0].real + v[:, 1, 1].real) < 0
        v[flip] = -v[flip]
    return v


def rz(theta: float) -> np.ndarray:
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]])


def ry(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def rx(theta: float) -> np.ndarray:
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]])


def zyz_angles(u: np.ndarray) -> tuple[float, float, float, float]:
    """(alpha, beta, gamma, delta) with u = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta)."""
    u = np.asarray(u, dtype=complex)
    alpha = 0.5 * np.angle(np.linalg.det(u))
    v = u * np.exp(-1j * alpha)
    a, b = v[0, 0], v[0, 1]
    gamma = 2.0 * np.arctan2(abs(b), abs(a))
    if abs(b) < 1e-12:
        beta, delta = -2.0 * np.angle(a), 0.0
    elif abs(a) < 1e-12:
        beta, delta = -2.0 * np.angle(-b), 0.0
        gamma = np.pi
    else:
        sum_ = -2.0 * np.angle(a)          # beta + delta
        diff = -2.0 * np.angle(-b)         # beta - delta
        beta, delta = (sum_ + diff) / 2.0, (sum_ - diff) / 2.0
    return float(alpha), float(beta), float(gamma), float(delta)


def controlled_ops(u: np.ndarray, control: int, target: int) -> list[GateOp]:
    """Controlled-u from CNOTs and exact 1-qubit gates (A·X·B·X·C form).

    Uses u = e^{i alpha} Rz(beta) Ry(gamma) Rz(delta) with A B C = I and
    A X B X C = u/e^{i alpha}; the phase becomes diag(1, e^{i alpha}) on
    the control.
    """
    alpha, beta, gamma, delta = zyz_angles(u)
    a = rz(beta) @ ry(gamma / 2.0)
    b = ry(-gamma / 2.0) @ rz(-(delta + beta) / 2.0)
    c = rz((delta - beta) / 2.0)
    ops = []
    if abs(alpha) > 1e-14:
        phase = np.diag([1.0, np.exp(1j * alpha)]).astype(complex)
        ops.append(GateOp("u2", (control,), phase))
    ops += [
        GateOp("u2", (target,), c),
        GateOp("CNOT", (control, target), gates.CNOT),
        GateOp("u2", (target,), b),
        GateOp("CNOT", (control, target), gates.CNOT),
        GateOp("u2", (target,), a),
    ]
    return ops


def unitary_sqrt(u: np.ndarray) -> np.ndarray:
    """Principal square root of a unitary via its Schur form."""
    from scipy.linalg import schur
    t, q = schur(np.asarray(u, dtype=complex), output="complex")
    root = np.sqrt(np.diag(t).astype(complex))
    return q @ np.diag(root) @ q.conj().T
