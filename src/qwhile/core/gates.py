"""Built-in gate matrices and the named gate library."""
from __future__ import annotations

import numpy as np

from ..errors import QwhileError
from .linalg import read_only, require_unitary

_S2 = np.sqrt(2.0)

# Read-only: programs and synthesized gate sequences share these arrays.
H = read_only(np.array([[1, 1], [1, -1]], dtype=complex) / _S2)
X = read_only(np.array([[0, 1], [1, 0]], dtype=complex))
Z = read_only(np.array([[1, 0], [0, -1]], dtype=complex))
I2 = read_only(np.eye(2, dtype=complex))
S = read_only(np.array([[1, 0], [0, 1j]], dtype=complex))
SDG = read_only(S.conj().T)
T = read_only(np.array([[1, 0], [0, np.exp(1j * np.pi / 4)]], dtype=complex))
TDG = read_only(T.conj().T)
CNOT = read_only(np.array(
    [[1, 0, 0, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1],
     [0, 0, 1, 0]], dtype=complex))
SWAP = read_only(np.array(
    [[1, 0, 0, 0],
     [0, 0, 1, 0],
     [0, 1, 0, 0],
     [0, 0, 0, 1]], dtype=complex))

class GateLibrary:
    """Named unitaries available to programs without declaration.

    The standard library provides H, X, Z, I, CNOT, T and S. Every entry is
    checked to be unitary (within 1e-10) when registered.
    """

    def __init__(self, gates: dict[str, np.ndarray] | None = None):
        self._gates: dict[str, np.ndarray] = {}
        for name, mat in (gates or {}).items():
            self.register(name, mat)

    @classmethod
    def standard(cls) -> "GateLibrary":
        return cls({"H": H, "X": X, "Z": Z, "I": I2, "CNOT": CNOT, "T": T, "S": S})

    def register(self, name: str, matrix: np.ndarray) -> None:
        self._gates[name] = require_unitary(matrix, what=f"gate {name!r}")

    def __contains__(self, name: str) -> bool:
        return name in self._gates

    def __getitem__(self, name: str) -> np.ndarray:
        try:
            return self._gates[name].copy()
        except KeyError:
            raise QwhileError(f"unknown gate {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._gates)


STANDARD_LIBRARY = GateLibrary.standard()
