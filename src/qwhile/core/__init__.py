"""Dense complex linear algebra, the gate library, and the density-operator
and channel types the engine and the experiments build on."""
from .gates import CNOT, H, I2, S, SDG, SWAP, T, TDG, X, Z, GateLibrary, STANDARD_LIBRARY
from .linalg import (
    MAX_DIM,
    MAX_QUBITS,
    as_matrix,
    check_dim,
    completeness_residual,
    dagger,
    embed,
    num_qubits,
    require_unitary,
    unitary_residual,
)
from .types import DensityOperator, SuperOperator

__all__ = [
    "CNOT", "H", "I2", "S", "SDG", "SWAP", "T", "TDG", "X", "Z",
    "GateLibrary", "STANDARD_LIBRARY",
    "MAX_DIM", "MAX_QUBITS",
    "as_matrix", "check_dim",
    "completeness_residual", "dagger", "embed",
    "num_qubits", "require_unitary", "unitary_residual",
    "DensityOperator", "SuperOperator",
]
