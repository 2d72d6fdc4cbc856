"""Complex linear algebra plus the quantum type layer and postulate primitives."""
from .gates import CNOT, H, I2, S, SDG, SWAP, T, TDG, X, Z, GateLibrary, STANDARD_LIBRARY
from .linalg import (
    MAX_DIM,
    MAX_QUBITS,
    as_matrix,
    basis_ket,
    check_dim,
    completeness_residual,
    dagger,
    embed,
    kron,
    num_qubits,
    partial_trace,
    require_unitary,
    unitary_residual,
)
from .ops import (
    apply_superoperator,
    apply_unitary,
    inner_product,
    measurement_probabilities,
    normalize,
    post_measurement_state,
    tensor,
    validate,
)
from .types import (
    DensityOperator,
    Ket,
    MeasurementSet,
    SuperOperator,
    ValidationReport,
    Violation,
)

__all__ = [
    "CNOT", "H", "I2", "S", "SDG", "SWAP", "T", "TDG", "X", "Z",
    "GateLibrary", "STANDARD_LIBRARY",
    "MAX_DIM", "MAX_QUBITS",
    "as_matrix", "basis_ket", "check_dim",
    "completeness_residual", "dagger", "embed", "kron",
    "num_qubits", "partial_trace", "require_unitary", "unitary_residual",
    "apply_superoperator", "apply_unitary", "inner_product",
    "measurement_probabilities", "normalize", "post_measurement_state",
    "tensor", "validate",
    "DensityOperator", "Ket", "MeasurementSet", "SuperOperator",
    "ValidationReport", "Violation",
]
