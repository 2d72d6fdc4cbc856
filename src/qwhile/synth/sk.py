"""Solovay-Kitaev approximation of single-qubit unitaries over a finite
gate alphabet.

The base net enumerates words breadth-first up to a length cap, one
level at a time: one stacked product of every letter with every word of
the last level, one batched phase strip and one batched canonical key
per product (the SU(2) form, sign-fixed and rounded to a 1e-7 grid).
The keys are then walked in order, frontier word by frontier word and
letter by letter, and a product is kept only if its key is new, so the
first word to reach a rotation represents it. The net records an
empirical covering radius eps0 (max over seeded random targets of the
distance to the nearest stored word). The recursion improves a depth-(k-1)
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

from ..core import gates
from ..core.linalg import read_only
from ..errors import NetTooCoarse, QwhileError
from .sequences import (GateOp, GateSequence, GateSet, phase_dist, phase_dists, rx, ry,
                        strip_phase, strip_phases)

DEFAULT_WORD_LENGTH = 10
MAX_DEPTH = 5  # of the recursion: depths 0..MAX_DEPTH are tried in turn
_DEDUP_DECIMALS = 7
_COVER_BLOCK = 100  # targets per overlap table while measuring eps0
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


def _canonical_keys(su2: np.ndarray) -> list[bytes]:
    """Dedup key of each matrix in an (N, 2, 2) stack: +-U describe the
    same rotation, so each row takes the sign that makes its first
    component above 1e-9 (real part, then imaginary part, entry by
    entry) positive, and is rounded to _DEDUP_DECIMALS."""
    flat = np.ascontiguousarray(su2, dtype=complex).reshape(len(su2), 4)
    parts = flat.view(np.float64)  # re, im of each entry, in entry order
    large = np.abs(parts) > 1e-9
    first = large.argmax(axis=1)
    lead = parts[np.arange(len(parts)), first]
    sign = np.where(large.any(axis=1), np.sign(lead), 1.0)
    rounded = np.round(sign[:, None] * flat, _DEDUP_DECIMALS) + 0.0  # normalize -0.0
    data = rounded.tobytes()
    width = rounded.itemsize * 4
    return [data[i:i + width] for i in range(0, len(data), width)]


def _canonical_key(su2: np.ndarray) -> bytes:
    """Dedup key of one 2x2 matrix: the one-row case of _canonical_keys."""
    return _canonical_keys(su2[None])[0]


@dataclass
class SKNet:
    """Breadth-first word net over a single-qubit gate alphabet."""

    alphabet: dict[str, np.ndarray]
    max_word_length: int
    words: list[tuple[str, ...]]
    matrices: np.ndarray        # (N, 2, 2), SU(2) representatives
    eps0: float                 # empirical covering radius
    # Letter names and achieved distance per (epsilon, canonical
    # target), filled by the synthesis pipeline; lives as long as the net.
    approximations: dict[tuple, tuple[tuple[str, ...], float]] = field(
        default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        # synthesized ops share the letter matrices, so nothing may write to them
        self.alphabet = {name: read_only(m) for name, m in self.alphabet.items()}
        self.matrices = read_only(self.matrices)

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
    """Enumerate words up to max_word_length breadth-first, keeping the
    first word of each rotation on the 1e-7 rounding grid of the
    canonical key; eps0 is the largest distance from `samples` seeded
    random targets to their nearest word."""
    canon = {name: strip_phase(m) for name, m in alphabet.items()}
    letters = list(canon)
    letter_stack = np.stack(list(canon.values()))
    words: list[tuple[str, ...]] = [()]
    levels = [np.eye(2, dtype=complex)[None]]
    seen = set(_canonical_keys(levels[0]))
    frontier_words, frontier = words[:], levels[0]
    for _ in range(max_word_length):
        # row f * len(letters) + l is letter l applied after frontier word f
        products = strip_phases((letter_stack[None] @ frontier[:, None]).reshape(-1, 2, 2))
        kept = []
        for i, key in enumerate(_canonical_keys(products)):
            if key not in seen:
                seen.add(key)
                kept.append(i)
        if not kept:
            break
        frontier_words = [frontier_words[i // len(letters)] + (letters[i % len(letters)],)
                          for i in kept]
        frontier = products[kept]
        words += frontier_words
        levels.append(frontier)
    net = SKNet(canon, max_word_length, words, np.concatenate(levels), eps0=float("nan"))
    net.eps0 = _covering_radius(net, samples, seed)
    return net


def _covering_radius(net: SKNet, samples: int, seed: int) -> float:
    """Largest phase distance from a seeded Haar-random SU(2) target to
    its nearest word (as SKNet.nearest picks it), over `samples` targets."""
    normals = np.random.default_rng(seed).normal(size=(samples, 2, 2, 2))
    q, r = np.linalg.qr(normals[:, 0] + 1j * normals[:, 1])
    d = np.diagonal(r, axis1=1, axis2=2)
    fix = np.zeros_like(q)  # diag(d / |d|): makes the QR factor Haar-distributed
    fix[:, [0, 1], [0, 1]] = d / np.abs(d)
    targets = strip_phases(q @ fix)
    conj = net.matrices.conj()
    # a block of targets at a time bounds the overlap table's memory
    nearest = [np.abs(np.einsum("nij,sij->sn", conj, block)).argmax(axis=1)
               for block in np.split(targets, range(_COVER_BLOCK, samples, _COVER_BLOCK))]
    dists = phase_dists(net.matrices[np.concatenate(nearest)], targets)
    return float(dists.max(initial=0.0))


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
    sigma = axis[0] * gates.X + axis[1] * _Y + axis[2] * gates.Z
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


def solovay_kitaev(u: np.ndarray, epsilon: float, net: SKNet | None = None) -> GateSequence:
    """Approximate a 2x2 unitary by an alphabet word within epsilon if a
    recursion depth up to MAX_DEPTH suffices; otherwise the best word
    found is returned with its actual distance in eps_total.
    """
    if not epsilon > 0:
        raise QwhileError("epsilon must be positive")
    net = net or default_net()
    if net.eps0 > 0.2:
        raise NetTooCoarse(
            f"net covering radius {net.eps0:.3f} is too coarse to start the recursion")
    target = strip_phase(u)
    best_word: tuple[str, ...] | None = None
    best_dist = float("inf")
    for k in range(MAX_DEPTH + 1):
        word, approx = _sk_recurse(target, k, net)
        dist = phase_dist(approx, target)
        if dist < best_dist:
            best_word, best_dist = word, dist
        if best_dist <= epsilon:
            break
    ops = tuple(GateOp(name, (0,), net.alphabet[name]) for name in best_word)
    return GateSequence(ops, eps_total=best_dist)
