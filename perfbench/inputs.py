"""Seeded input generators for the benchmark.

Everything here depends only on numpy and the seed, never on qwhile, so
the inputs stay the same from one commit of the toolchain to the next.
"""
from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# The programs every `.qw` file in the bundle held when the benchmark was
# written; a fixed list keeps the check workload identical across commits.
BUNDLED_PROGRAMS = ("bb84_round", "coin", "grover8", "paper_case",
                    "paper_inits", "paper_loop", "qloop")
WIDE_PROGRAMS = (("gen7_0", 7), ("gen7_1", 7), ("gen9_0", 9), ("gen9_1", 9))
CHECK_PROGRAMS = BUNDLED_PROGRAMS + ("grover7",) + tuple(n for n, _ in WIDE_PROGRAMS)
GROVER_QUBITS = 7
QLOOP_SHOTS = 1000           # shots per qloop batch
BB84_SESSIONS = 2            # sessions per cell of one bb84 sweep
BB84_CELLS = 6 * 3 * 2       # paper channels x key lengths x sampling fractions
SYNTH_EPSILON = "1e-2"       # per-rotation accuracy asked of `synthesize`

_LOCAL_GATES = ("H", "X", "Z", "T", "S", "G")
_ORDER_TWO_GATES = ("H", "X", "Z")
LOOP_CONTINUE = 0.15


def derive(seed: int, *keys) -> int:
    """A 63-bit child seed of `seed`, fixed by the keys."""
    text = ":".join(str(k) for k in (seed,) + keys).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big") >> 1


def rng_for(seed: int, *keys) -> np.random.Generator:
    return np.random.default_rng(derive(seed, *keys))


def haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a complex Gaussian, phases fixed by R's diagonal."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def matrix_json(u: np.ndarray) -> str:
    """The CLI's matrix input format: a 2-D array of [re, im] pairs."""
    return json.dumps([[[float(z.real), float(z.imag)] for z in row] for row in u])


def _complex_text(z: complex) -> str:
    re, im = float(z.real) + 0.0, float(z.imag) + 0.0
    if im == 0.0:
        return repr(re)
    if re == 0.0:
        return f"{im!r}i"
    return f"{re!r}{'+' if im > 0 else '-'}{abs(im)!r}i"


def matrix_text(m: np.ndarray) -> str:
    """A `.qw` matrix literal."""
    rows = ", ".join("[" + ", ".join(_complex_text(z) for z in row) + "]" for row in m)
    return f"[{rows}]"


def grover_iterations(n_qubits: int) -> int:
    return max(1, math.floor(math.pi / 4.0 * math.sqrt(1 << n_qubits)))


def grover_success(n_qubits: int) -> float:
    """sin^2((2r+1) theta / 2) with sin(theta / 2) = 1 / sqrt(N), one answer."""
    theta = 2.0 * math.asin(math.sqrt(1.0 / (1 << n_qubits)))
    return math.sin((2 * grover_iterations(n_qubits) + 1) * theta / 2.0) ** 2


def grover_program(n_qubits: int, target: int) -> str:
    """Grover search as a `.qw` program with full-register matrix literals."""
    n = 1 << n_qubits
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    uniform = np.array([[1.0]])
    for _ in range(n_qubits):
        uniform = np.kron(uniform, h)
    oracle = np.eye(n)
    oracle[target, target] = -1.0
    diffuse = np.full((n, n), 2.0 / n) - np.eye(n)
    lines = [
        f"// Grover search over {n} positions, answer {target}",
        f"qs : qubit[{n_qubits}];",
        f"gate UNIFORM = {matrix_text(uniform)};",
        f"gate ORACLE = {matrix_text(oracle)};",
        f"gate DIFFUSE = {matrix_text(diffuse)};",
        "measure MALL = computational;",
        "",
        "qs := |0>;",
        "UNIFORM[qs];",
    ]
    lines += ["ORACLE[qs];", "DIFFUSE[qs];"] * grover_iterations(n_qubits)
    lines += ["if MALL[qs] = 0 ->", "  skip;", "fi;"]
    return "\n".join(lines) + "\n"


def wide_program(rng: np.random.Generator, n_qubits: int, n_gates: int = 12) -> str:
    """A program on `n_qubits` one-qubit registers: qubit-local gates, one
    `if`, and one `while` whose body does not measure.

    Declarations come first. The measured qubits are reset and put in
    |+> first, so the `if` and the loop entry each fork with weight 1/2
    whatever the seed. The loop body rotates the guard by R, so each
    further iteration continues with probability LOOP_CONTINUE and
    distribution mode drops the branch after a fixed number of rounds;
    its other gate has order 2, so the loop leaves at most two distinct
    states per branch.
    """
    q = [f"q{i}" for i in range(n_qubits)]

    def gate() -> str:
        if rng.random() < 0.25:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            return f"CNOT[{q[a]}, {q[b]}];"
        return f"{_LOCAL_GATES[rng.integers(len(_LOCAL_GATES))]}[{q[rng.integers(n_qubits)]}];"

    t = math.acos(math.sqrt(LOOP_CONTINUE))
    rot = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    lines = [f"{name} : qubit;" for name in q]
    lines += [f"gate G = {matrix_text(haar_unitary(rng, 2))};",
              f"gate R = {matrix_text(rot)};",
              "measure M = computational;", ""]
    lines += [f"{name} := |0>;" for name in q]
    lines += [gate() for _ in range(n_gates)]
    a = int(rng.integers(n_qubits))
    lines += [f"{q[a]} := |0>;", f"H[{q[a]}];", f"if M[{q[a]}] = 0 ->", f"  {gate()}",
              f"  {gate()}", "[] 1 ->", f"  {gate()}", f"  {gate()}", "fi;"]
    b = int(rng.integers(n_qubits))
    c = int((b + 1 + rng.integers(n_qubits - 1)) % n_qubits)
    lines += [f"{q[b]} := |0>;", f"H[{q[b]}];", f"while M[{q[b]}] = 1 do", f"  R[{q[b]}];",
              f"  {_ORDER_TWO_GATES[rng.integers(len(_ORDER_TWO_GATES))]}[{q[c]}];", "od;"]
    lines += [gate() for _ in range(4)]
    return "\n".join(lines) + "\n"


def check_sources(seed: int, bundled: dict[str, str]) -> tuple[dict[str, str], int]:
    """The check workload's programs, in CHECK_PROGRAMS order, and the
    Grover answer."""
    target = int(rng_for(seed, "grover").integers(1 << GROVER_QUBITS))
    sources = {name: bundled[name] for name in BUNDLED_PROGRAMS}
    sources["grover7"] = grover_program(GROVER_QUBITS, target)
    for name, width in WIDE_PROGRAMS:
        sources[name] = wide_program(rng_for(seed, name), width)
    return sources, target
