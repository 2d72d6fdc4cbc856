"""The gate library, array helpers and limits, the density-operator and
channel types, and the kernels that apply operators to a state's factor:
what the engine, the experiments and synthesis build on."""
from .gates import CNOT, H, I2, S, SDG, SWAP, T, TDG, X, Z, GateLibrary, STANDARD_LIBRARY
from .linalg import (
    MAX_DIM,
    MAX_QUBITS,
    as_matrix,
    check_dim,
    completeness_residual,
    dagger,
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
    "completeness_residual", "dagger",
    "num_qubits", "require_unitary", "unitary_residual",
    "DensityOperator", "SuperOperator",
]
