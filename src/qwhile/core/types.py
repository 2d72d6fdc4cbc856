"""Quantum value types: density operators and channels, and the
plus-minus projectors.

A channel verifies its Kraus bound on construction. A state is not
validated: the engine builds every state it returns as V V† from a
factor V, or as the mean of such states, so it is positive with trace 1
by construction; it is held by its support. Matrix accessors return
copies and are meant for debugging and verification only; programs
observe a state through the engine's measurement sites.
"""
from __future__ import annotations

import numpy as np

from ..errors import DimMismatch, InvalidState
from . import linalg
from .linalg import ATOL_PHYSICAL, check_dim, dagger


class DensityOperator:
    """A (possibly mixed) program state on a `dim`-dimensional space, held
    by its support: the sorted indices `rows` and the |rows| x |rows|
    `block` on them, every other entry +0.0. Each index in `rows` must hold
    an entry with nonzero bits in its row or column of the block, so that
    the support is the one `support` reads. The dense matrix is built only
    when `matrix` is read, as the zero matrix with the block on
    rows x rows."""

    __slots__ = ("_dim", "_rows", "_block")

    def __init__(self, dim: int, rows: np.ndarray, block: np.ndarray):
        self._dim, self._rows, self._block = dim, rows, block

    @property
    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(S, block): the sorted indices S of the rows and columns that
        hold an entry whose bits are not zero (a -0.0 counts), and the
        matrix's block on S x S; every entry outside S x S is +0.0."""
        return self._rows, self._block

    def diagonal(self) -> np.ndarray:
        """The real diagonal, read from the support. It is the real part of
        complex storage (a strided view), so a dot product with it sums in
        the same order as one with the dense matrix's diagonal."""
        out = np.zeros(self._dim, dtype=complex)
        out[self._rows] = self._block.diagonal()
        return out.real

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def matrix(self) -> np.ndarray:
        """Debug-only dense copy of the hidden state, built on each read."""
        m = np.zeros((self._dim, self._dim), dtype=complex)
        m[self._rows[:, None], self._rows] = self._block
        return m

    def __repr__(self) -> str:
        return f"DensityOperator(dim={self.dim})"


_SQRT2 = np.sqrt(2.0)


# Projectors onto |+> and |-> (outcome 0 is |+>), read-only because every
# plus-minus measurement shares them.
PLUS_MINUS = tuple(np.outer(v, v.conj())
                   for v in np.array([[1, 1], [1, -1]], dtype=complex) / _SQRT2)
for _p in PLUS_MINUS:
    _p.setflags(write=False)


class SuperOperator:
    """Kraus family {E_i} with sum_i E_i†E_i <= I; models an open-system channel."""

    __slots__ = ("_kraus", "_name")

    def __init__(self, kraus, *, name: str = "channel"):
        ops = tuple(linalg.read_only(linalg.as_matrix(e)) for e in kraus)
        if not ops:
            raise InvalidState("superoperator needs at least one Kraus operator")
        d = ops[0].shape[0]
        for e in ops:
            if e.shape != (d, d):
                raise DimMismatch("all Kraus operators must be square with equal dim")
        check_dim(d)
        object.__setattr__(self, "_kraus", ops)
        object.__setattr__(self, "_name", name)
        # sum E†E <= I  <=>  all eigenvalues of I - sum E†E are >= -tol.
        gap = np.eye(d) - sum(dagger(e) @ e for e in ops)
        lo = linalg.min_eigenvalue((gap + dagger(gap)) / 2.0)
        if lo < -ATOL_PHYSICAL:
            raise InvalidState(f"SuperOperator({name}): KrausBound (residual {-lo:.3e})")

    @property
    def dim(self) -> int:
        return self._kraus[0].shape[0]

    @property
    def kraus(self) -> tuple[np.ndarray, ...]:
        return tuple(e.copy() for e in self._kraus)

    @property
    def name(self) -> str:
        return self._name

    @classmethod
    def identity(cls, dim: int = 2) -> "SuperOperator":
        return cls([np.eye(dim, dtype=complex)], name="identity")

    def __repr__(self) -> str:
        return f"SuperOperator({self._name}, dim={self.dim}, kraus={len(self._kraus)})"
