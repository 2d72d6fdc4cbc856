"""Solovay-Kitaev approximation of single-qubit unitaries over a finite
gate alphabet.

The base net enumerates words breadth-first up to a length cap,
deduplicating on a rounded canonical SU(2) form, and records an
empirical covering radius eps0 (max over random targets of the distance
to the nearest stored word). The recursion improves a depth-(k-1)
approximation u_{k-1} by factoring the residual as a balanced group
commutator v w v† w† whose parts are themselves approximated at depth
k-1.

Words are letter tuples in application order: (a, b) means a acts
first, so the matrix is M_b @ M_a.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from ..errors import NetTooCoarse, QwhileError
from .sequences import GateOp, GateSequence, GateSet, phase_dist, rx, ry, strip_phase

DEFAULT_WORD_LENGTH = 10
_DEDUP_DECIMALS = 7
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _canonical_key(su2: np.ndarray) -> bytes:
    # +-U describe the same rotation: pick the sign making the first
    # sufficiently-large entry's real part (then imag) positive.
    flat = su2.reshape(-1)
    sign = 1.0
    for z in flat:
        if abs(z.real) > 1e-9:
            sign = np.sign(z.real)
            break
        if abs(z.imag) > 1e-9:
            sign = np.sign(z.imag)
            break
    rounded = np.round(sign * flat, _DEDUP_DECIMALS) + 0.0  # normalize -0.0
    return rounded.tobytes()


@dataclass
class SKNet:
    """Breadth-first word net over a single-qubit gate alphabet."""

    alphabet: dict[str, np.ndarray]
    max_word_length: int
    words: list[tuple[str, ...]]
    matrices: np.ndarray        # (N, 2, 2), SU(2) representatives
    eps0: float                 # empirical covering radius
    # Letter names and achieved distance per (epsilon, depth, canonical
    # target), filled by the synthesis pipeline; lives as long as the net.
    approximations: dict[tuple, tuple[tuple[str, ...], float]] = field(
        default_factory=dict, repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.words)

    @cached_property
    def inverse_letters(self) -> dict[str, str]:
        """name -> inverse-letter name; the alphabet must be closed under inverses."""
        table: dict[str, str] = {}
        for name, m in self.alphabet.items():
            for cand, cm in self.alphabet.items():
                if phase_dist(cm, m.conj().T) <= 1e-10:
                    table[name] = cand
                    break
            else:
                raise QwhileError(f"alphabet has no inverse for letter {name!r}")
        return table

    def nearest(self, u: np.ndarray) -> int:
        """Index of the stored word closest to u (phase-invariant)."""
        overlap = np.abs(np.einsum("nij,ij->n", self.matrices.conj(), u))
        return int(np.argmax(overlap))


def build_net(alphabet: dict[str, np.ndarray], max_word_length: int = DEFAULT_WORD_LENGTH,
              samples: int = 500, seed: int = 2024) -> SKNet:
    """Enumerate words up to max_word_length with epsilon-ball dedup."""
    canon = {name: strip_phase(np.asarray(m, dtype=complex)) for name, m in alphabet.items()}
    words: list[tuple[str, ...]] = [()]
    mats: list[np.ndarray] = [np.eye(2, dtype=complex)]
    seen = {_canonical_key(mats[0])}
    frontier = [((), mats[0])]
    for _ in range(max_word_length):
        new_frontier = []
        for word, mat in frontier:
            for name, gm in canon.items():
                m2 = strip_phase(gm @ mat)  # the new letter acts after the word
                key = _canonical_key(m2)
                if key in seen:
                    continue
                seen.add(key)
                w2 = word + (name,)
                words.append(w2)
                mats.append(m2)
                new_frontier.append((w2, m2))
        if not new_frontier:
            break
        frontier = new_frontier
    matrices = np.stack(mats)
    net = SKNet(dict(canon), max_word_length, words, matrices, eps0=float("nan"))
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        target = _random_su2(rng)
        idx = net.nearest(target)
        worst = max(worst, phase_dist(net.matrices[idx], target))
    net.eps0 = worst
    return net


def _random_su2(rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return strip_phase(q)


@lru_cache(maxsize=1)
def default_net() -> SKNet:
    """Net over the single-qubit gates of the default basic set."""
    return build_net(GateSet.default().single_qubit())


# --- the recursion ------------------------------------------------------------


def _rotation_axis_angle(u: np.ndarray) -> tuple[np.ndarray, float]:
    """(axis, angle) with u = cos(t/2) I - i sin(t/2) (axis . sigma)."""
    t = 2.0 * np.arccos(np.clip(u.trace().real / 2.0, -1.0, 1.0))
    if t < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    s = np.sin(t / 2.0)
    nx = u[0, 1].imag / -s
    ny = u[0, 1].real / -s
    nz = u[0, 0].imag / -s
    axis = np.array([nx, ny, nz])
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        return np.array([0.0, 0.0, 1.0]), 0.0
    return axis / norm, t


def _su2_rotation(axis: np.ndarray, angle: float) -> np.ndarray:
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    sigma = axis[0] * _X + axis[1] * _Y + axis[2] * _Z
    return np.cos(angle / 2.0) * np.eye(2) - 1j * np.sin(angle / 2.0) * sigma


def _axis_aligner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """SU(2) rotation mapping rotation axis a onto b."""
    a = a / np.linalg.norm(a)
    b = b / np.linalg.norm(b)
    dot = float(np.clip(a @ b, -1.0, 1.0))
    if dot > 1.0 - 1e-12:
        return np.eye(2, dtype=complex)
    if dot < -1.0 + 1e-12:
        perp = np.cross(a, np.array([1.0, 0.0, 0.0]))
        if np.linalg.norm(perp) < 1e-6:
            perp = np.cross(a, np.array([0.0, 1.0, 0.0]))
        return _su2_rotation(perp, np.pi)
    axis = np.cross(a, b)
    return _su2_rotation(axis, float(np.arccos(dot)))


def group_commutator_factors(delta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Balanced v, w in SU(2) with delta = v w v† w†."""
    axis, theta = _rotation_axis_angle(strip_phase(delta))
    # sin(theta/2) = 2 sin^2(phi/2) sqrt(1 - sin^4(phi/2)) solved in closed form.
    m = (1.0 - np.cos(theta / 2.0)) / 2.0
    phi = 2.0 * np.arcsin(np.clip(np.sqrt(np.sqrt(max(m, 0.0))), 0.0, 1.0))
    v = rx(phi)
    w = ry(phi)
    gc = v @ w @ v.conj().T @ w.conj().T
    gc_axis, _ = _rotation_axis_angle(strip_phase(gc))
    s = _axis_aligner(gc_axis, axis)
    v = s @ v @ s.conj().T
    w = s @ w @ s.conj().T
    return v, w


def _invert_word(word: tuple[str, ...], net: SKNet) -> tuple[str, ...]:
    inv = net.inverse_letters
    return tuple(inv[name] for name in reversed(word))


def _sk_recurse(u: np.ndarray, depth: int, net: SKNet) -> tuple[tuple[str, ...], np.ndarray]:
    if depth == 0:
        idx = net.nearest(u)
        return net.words[idx], net.matrices[idx]
    word1, u1 = _sk_recurse(u, depth - 1, net)
    delta = u @ u1.conj().T
    v, w = group_commutator_factors(delta)
    vw, vm = _sk_recurse(strip_phase(v), depth - 1, net)
    ww, wm = _sk_recurse(strip_phase(w), depth - 1, net)
    word = word1 + _invert_word(ww, net) + _invert_word(vw, net) + ww + vw
    approx = vm @ wm @ vm.conj().T @ wm.conj().T @ u1
    return word, approx


def solovay_kitaev(u: np.ndarray, epsilon: float, net: SKNet | None = None,
                   depth: int = 5) -> GateSequence:
    """Approximate a 2x2 unitary by an alphabet word within epsilon if the
    recursion depth suffices; otherwise the best word found is returned
    with its actual distance in eps_total.
    """
    if not epsilon > 0:
        raise QwhileError("epsilon must be positive")
    net = net or default_net()
    if net.eps0 > 0.2:
        raise NetTooCoarse(
            f"net covering radius {net.eps0:.3f} is too coarse to start the recursion")
    target = strip_phase(np.asarray(u, dtype=complex))
    best_word: tuple[str, ...] | None = None
    best_dist = float("inf")
    for k in range(depth + 1):
        word, approx = _sk_recurse(target, k, net)
        dist = phase_dist(approx, target)
        if dist < best_dist:
            best_word, best_dist = word, dist
        if best_dist <= epsilon:
            break
    ops = tuple(GateOp(name, (0,), net.alphabet[name]) for name in best_word)
    return GateSequence(ops, eps_total=best_dist)
