"""Recursive cosine-sine decomposition into multiplexed rotations and
half-size blocks, with a 3-CNOT canonical circuit for the 4x4 base case.

Per recursion level an operator on d qubits splits (via scipy's CS
decomposition on the most significant qubit) into three multiplexed
rotations and four generic operators on d-1 qubits. Multiplexed Ry/Rz
gates unroll into CNOT ladders whose rotation angles come from the
Hadamard-transform relation against the Gray-code walk of the controls.

Reconstruction is exact up to a single global phase; the 4x4 base case
follows the magic-basis construction with an interior
CNOT/RZ/RY/CNOT/RY/CNOT template.

scipy is loaded on first use: `cossin` and `schur` are imported inside
the functions that call them, so importing this module (and the CLI,
which imports every command) does not load scipy, and only a
decomposition pays for it.
"""
from __future__ import annotations

import numpy as np

from ..core import gates
from ..core.linalg import num_qubits, require_unitary
from ..errors import DimMismatch
from .sequences import GateOp, GateSequence, phase_dist, ry, rz, strip_phase

# Magic basis: E maps SO(4) conjugation to SU(2) x SU(2).
_E = np.array(
    [[1, 1j, 0, 0],
     [0, 0, 1j, 1],
     [0, 0, 1j, -1],
     [1, -1j, 0, 0]], dtype=complex) / np.sqrt(2.0)
_EDAG = _E.conj().T
_CNOT01 = gates.CNOT
_CNOT10 = np.array(
    [[1, 0, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0],
     [0, 1, 0, 0]], dtype=complex)
_SWAP = gates.SWAP


def _gray(t: int) -> int:
    return t ^ (t >> 1)


def multiplexed_rotation_ops(axis: str, thetas: np.ndarray,
                             target: int, controls: tuple[int, ...]) -> list[GateOp]:
    """Uniformly controlled Ry/Rz: rotation by thetas[j] when the controls
    (read most significant first) are in basis state j."""
    rot = {"ry": ry, "rz": rz}[axis]
    k = len(controls)
    m = 1 << k
    if len(thetas) != m:
        raise DimMismatch(f"need {m} angles, got {len(thetas)}")
    if k == 0:
        return [GateOp("u2", (target,), rot(float(thetas[0])))]
    # Solve the ladder angles: theta_j = sum_t (-1)^{popcount(j & gray(t))} phi_t.
    signs = np.array([[(-1) ** bin(j & _gray(t)).count("1") for t in range(m)]
                      for j in range(m)], dtype=float)
    phis = signs.T @ np.asarray(thetas, dtype=float) / m
    ops: list[GateOp] = []
    for t in range(m):
        ops.append(GateOp("u2", (target,), rot(float(phis[t]))))
        flip_bit = ((_gray(t) ^ _gray((t + 1) % m)).bit_length() - 1)
        control = controls[k - 1 - flip_bit]  # bit b of j is qubit controls[k-1-b]
        ops.append(GateOp("CNOT", (control, target), gates.CNOT))
    return ops


# --- 4x4 canonical circuit ----------------------------------------------------


def _orthogonal_eigenbasis(w: np.ndarray) -> np.ndarray:
    """Real orthogonal P diagonalizing the unitary complex symmetric w.

    real(w) and imag(w) commute; diagonalize the real part, then the
    imaginary part within each (near-)degenerate eigenspace.
    """
    a, b = w.real.copy(), w.imag.copy()
    _, p = np.linalg.eigh(a)
    d = (p.T @ a @ p).diagonal()
    # cluster nearly-equal eigenvalues of the real part
    order = np.argsort(d)
    p = p[:, order]
    d = d[order]
    start = 0
    for stop in range(1, len(d) + 1):
        if stop == len(d) or d[stop] - d[stop - 1] > 1e-7:
            if stop - start > 1:
                sub = p[:, start:stop]
                _, r = np.linalg.eigh(sub.T @ b @ sub)
                p[:, start:stop] = sub @ r
            start = stop
    return p


def _sorted_so4_diagonalizer(w: np.ndarray) -> np.ndarray:
    p = _orthogonal_eigenbasis(w)
    evals = np.einsum("ij,jk,ik->i", p.T, w, p.T)
    order = np.lexsort((np.round(evals.imag, 7), np.round(evals.real, 7)))
    p = p[:, order]
    if np.linalg.det(p) < 0:
        p[:, 0] = -p[:, 0]
    return p


def _su2su2_split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Extract (a, b) with a kron b = m for m in SU(2) x SU(2)."""
    c1, c2 = m[0:2, 0:2], m[0:2, 2:4]
    c3, c4 = m[2:4, 0:2], m[2:4, 2:4]
    a1 = np.sqrt(complex((c1 @ c4.conj().T)[0, 0]))
    a2 = np.sqrt(complex(-(c2 @ c3.conj().T)[0, 0]))
    if abs(a1 * np.conj(a2) - (c1 @ c2.conj().T)[0, 0]) > 1e-8:
        a2 = -a2
    a = np.array([[a1, a2], [-np.conj(a2), np.conj(a1)]])
    b = c2 / a2 if abs(a1) < 1e-6 else c1 / a1
    return a, b


def _coset_prefactors(u4: np.ndarray, v4: np.ndarray):
    """(a, b, c, d) in SU(2) with (a kron b) v4 (c kron d) = u4 up to phase."""
    u = _EDAG @ u4 @ _E
    v = _EDAG @ v4 @ _E
    p = _sorted_so4_diagonalizer(u @ u.T)
    q = _sorted_so4_diagonalizer(v @ v.T)
    g = p @ q.T
    h = v.conj().T @ g.T @ u
    ab = _E @ g @ _EDAG
    cd = _E @ h @ _EDAG
    return *_su2su2_split(ab), *_su2su2_split(cd)


def two_qubit_ops(u: np.ndarray, q0: int, q1: int) -> list[GateOp]:
    """Canonical two-qubit circuit: 1-qubit gates and at most 3 CNOTs,
    equal to u up to global phase."""
    u = require_unitary(u, what="two-qubit block")
    su = strip_phase(u)
    # Fully degenerate Gram spectrum (trace modulus 4) marks the two
    # 0-CNOT-like classes: real trace +-4 is a plain tensor product,
    # imaginary trace +-4i is SWAP times a tensor product.
    m = _EDAG @ su @ _E
    trace = complex((m @ m.T).trace())
    if abs(abs(trace) - 4.0) < 1e-9:
        if abs(trace.imag) < 1e-9:
            a, b = _su2su2_split(su * np.exp(-0.5j * np.angle(trace)))
            return [GateOp("u2", (q0,), a), GateOp("u2", (q1,), b)]
        swapped = strip_phase(_SWAP @ su)
        m2 = _EDAG @ swapped @ _E
        tr2 = complex((m2 @ m2.T).trace())
        a, b = _su2su2_split(swapped * np.exp(-0.5j * np.angle(tr2)))
        cnot = GateOp("CNOT", (q0, q1), gates.CNOT)
        cnot_r = GateOp("CNOT", (q1, q0), gates.CNOT)
        return [GateOp("u2", (q0,), a), GateOp("u2", (q1,), b), cnot, cnot_r, cnot]

    swap_u = np.exp(1j * np.pi / 4) * _SWAP @ su
    m = _EDAG @ swap_u @ _E
    evs = np.linalg.eigvals(m @ m.T)
    x, y, z = sorted(np.angle(evs))[:3]
    alpha, beta, delta = (x + y) / 2.0, (x + z) / 2.0, (z + y) / 2.0

    rzd, ryb, rya = rz(delta), ry(beta), ry(alpha)
    v = np.eye(4, dtype=complex)
    for mat in (_CNOT10, np.kron(rzd, ryb), _CNOT01, np.kron(np.eye(2), rya),
                _CNOT10, _SWAP):
        v = mat @ v
    a, b, c, d = _coset_prefactors(swap_u, v)
    return [
        GateOp("u2", (q0,), c),
        GateOp("u2", (q1,), d),
        GateOp("CNOT", (q1, q0), gates.CNOT),
        GateOp("u2", (q0,), rzd),
        GateOp("u2", (q1,), ryb),
        GateOp("CNOT", (q0, q1), gates.CNOT),
        GateOp("u2", (q1,), rya),
        GateOp("CNOT", (q1, q0), gates.CNOT),
        # the SWAP bookkeeping exchanges which wire receives a and b
        GateOp("u2", (q1,), a),
        GateOp("u2", (q0,), b),
    ]


# --- recursion ----------------------------------------------------------------


def _demultiplex(u1: np.ndarray, u2: np.ndarray, qubits: tuple[int, ...]) -> list[GateOp]:
    """block_diag(u1, u2) = (I (x) V) . mRz(theta) . (I (x) W); emit W, mRz, V."""
    from scipy.linalg import schur
    w12 = u1 @ u2.conj().T
    t, q = schur(w12, output="complex")
    phases = np.angle(np.diag(t)) / 2.0
    v = q
    dhalf = np.exp(1j * phases)
    w = (dhalf.conj()[:, None] * v.conj().T) @ u1
    thetas = -2.0 * phases
    ops = _qsd_ops(w, qubits[1:])
    ops += multiplexed_rotation_ops("rz", thetas, qubits[0], qubits[1:])
    ops += _qsd_ops(v, qubits[1:])
    return ops


def _qsd_ops(u: np.ndarray, qubits: tuple[int, ...]) -> list[GateOp]:
    d = len(qubits)
    if d == 1:
        return [GateOp("u2", qubits, u.copy())]
    if d == 2:
        return two_qubit_ops(u, qubits[0], qubits[1])
    from scipy.linalg import cossin
    half = u.shape[0] // 2
    u_blk, cs, vdh = cossin(u, p=half, q=half)
    thetas = 2.0 * np.arctan2(np.diag(cs[half:, :half]), np.diag(cs[:half, :half]))
    ops = _demultiplex(vdh[:half, :half], vdh[half:, half:], qubits)
    ops += multiplexed_rotation_ops("ry", thetas, qubits[0], qubits[1:])
    ops += _demultiplex(u_blk[:half, :half], u_blk[half:, half:], qubits)
    return ops


def qsd_decompose(u: np.ndarray, basic=None) -> GateSequence:
    """Cosine-sine recursion down to 4x4 blocks; exact up to global phase.

    The returned ops are CNOTs plus exact 1-qubit gates ready for the
    basic-set approximation pass.
    """
    u = require_unitary(u, what="decomposition input")
    n = num_qubits(u.shape[0])
    if n < 2:
        raise DimMismatch("cosine-sine decomposition needs at least 2 qubits")
    if basic is not None and u.shape[0] == 4:
        # A 4x4 input that already is a basic two-qubit gate may emit itself.
        for name in basic.names:
            mat = basic[name]
            if mat.shape == (4, 4) and phase_dist(u, mat) <= 1e-10:
                return GateSequence((GateOp(name, (0, 1), mat),))
    return GateSequence(tuple(_qsd_ops(u, tuple(range(n)))))
