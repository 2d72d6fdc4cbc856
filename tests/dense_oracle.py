"""Dense reference operators that the kernel tests compare with, built by
numpy's kron and a transpose rather than by any kernel of the package."""
import numpy as np


def kron_embed(op, positions: tuple[int, ...], n: int) -> np.ndarray:
    """The 2^n x 2^n matrix acting as `op` on the qubits `positions` and as
    the identity elsewhere (qubit 0 is the most significant bit, and
    positions[0] the most significant bit of op's index): op (x) I by
    np.kron, with op on the first k qubits, then its qubit axes moved so
    that its qubit j lands on positions[j] and the others keep their
    order."""
    k = len(positions)
    full = np.kron(np.asarray(op, dtype=complex), np.eye(1 << (n - k)))
    order = list(positions) + [q for q in range(n) if q not in positions]
    axes = [int(a) for a in np.argsort(order)]  # qubit q is the kron's axis axes[q]
    return full.reshape((2,) * (2 * n)).transpose(axes + [n + a for a in axes]).reshape(
        1 << n, 1 << n)
