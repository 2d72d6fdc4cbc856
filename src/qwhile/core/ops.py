"""The four quantum-mechanics primitives every other module builds on:
inner products, unitary evolution, measurement, and tensor composition,
each in both ket and density-operator form, plus channel application and
invariant validation.
"""
from __future__ import annotations

import numpy as np

from ..errors import (
    DimMismatch,
    IncompleteMeasurement,
    ZeroProbabilityOutcome,
)
from . import linalg
from .linalg import ATOL_PHYSICAL, dagger
from .types import (
    DensityOperator,
    Ket,
    MeasurementSet,
    SuperOperator,
    ValidationReport,
    Violation,
    validate_density_matrix,
)

State = Ket | DensityOperator


def normalize(v: Ket | np.ndarray) -> Ket:
    """Rescale to unit 2-norm. Raises ZeroVector below the 1e-12 floor."""
    if isinstance(v, Ket):
        return Ket(v.amplitudes)
    return Ket(v)


def inner_product(a: Ket, b: Ket) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.dim != b.dim:
        raise DimMismatch(f"dims {a.dim} != {b.dim}")
    return complex(np.vdot(a.amplitudes, b.amplitudes))


def tensor(a, b):
    """Kronecker product; the left operand occupies the most significant qubits."""
    if isinstance(a, Ket) and isinstance(b, Ket):
        return Ket(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, Ket) or isinstance(b, Ket):
        raise DimMismatch("tensor operands must be of the same kind")
    return linalg.kron(a, b)


def apply_unitary(state: State, u: np.ndarray) -> State:
    """U|psi> for kets, U rho U† for density operators."""
    u = linalg.require_unitary(u, what="operator")
    if u.shape[0] != state.dim:
        raise DimMismatch(f"operator dim {u.shape[0]} != state dim {state.dim}")
    if isinstance(state, Ket):
        return Ket(u @ state.amplitudes)
    return DensityOperator(u @ state.matrix @ dagger(u), validate=False)


def apply_superoperator(rho: DensityOperator, chan: SuperOperator) -> DensityOperator:
    """sum_i E_i rho E_i†. Trace-preserving channels keep trace 1."""
    if chan.dim != rho.dim:
        raise DimMismatch(f"channel dim {chan.dim} != state dim {rho.dim}")
    m = rho.matrix
    acc = np.zeros_like(m)
    for e in chan.kraus:
        acc += e @ m @ dagger(e)
    return DensityOperator(acc, validate=False)


def measurement_probabilities(state: State, m: MeasurementSet) -> np.ndarray:
    """p_i = <psi|M_i†M_i|psi> (ket form) or tr(M_i†M_i rho) (density form).
    Completeness is read from the report `m` stored when it was built."""
    if m.dim != state.dim:
        raise DimMismatch(f"measurement dim {m.dim} != state dim {state.dim}")
    report = m.validate()
    if not report.ok:
        raise IncompleteMeasurement(str(report))
    if isinstance(state, Ket):
        amps = state.amplitudes
        p = np.array([float(np.linalg.norm(op @ amps) ** 2) for op in m.operators])
    else:
        mat = state.matrix
        p = np.array([linalg.trace_inner(dagger(op) @ op, mat) for op in m.operators])
    p = np.clip(p, 0.0, None)
    total = float(p.sum())
    if abs(total - 1.0) > ATOL_PHYSICAL:
        raise IncompleteMeasurement(f"probabilities sum to {total}, expected 1")
    return p / total


def post_measurement_state(state: State, m: MeasurementSet, outcome: int) -> State:
    """M_i|psi>/sqrt(p_i) or M_i rho M_i†/p_i, renormalized."""
    p = measurement_probabilities(state, m)
    if not 0 <= outcome < m.n_outcomes:
        raise ZeroProbabilityOutcome(f"outcome {outcome} not in 0..{m.n_outcomes - 1}")
    if p[outcome] < 1e-12:
        raise ZeroProbabilityOutcome(f"outcome {outcome} has probability {p[outcome]:.3e}")
    op = m.operators[outcome]
    if isinstance(state, Ket):
        return Ket(op @ state.amplitudes)
    post = op @ state.matrix @ dagger(op)
    return DensityOperator(post / post.trace().real, validate=False)


def validate(obj) -> ValidationReport:
    """Check an object's physical invariants; returns a report, never raises.

    Accepts MeasurementSet, SuperOperator, DensityOperator, or a raw square
    matrix (checked for unitarity).
    """
    if isinstance(obj, MeasurementSet):
        return obj.validate()
    if isinstance(obj, SuperOperator):
        return obj.validate()
    if isinstance(obj, DensityOperator):
        return validate_density_matrix(obj.matrix)
    m = linalg.as_matrix(obj)
    if m.shape[0] != m.shape[1]:
        return ValidationReport("Matrix", (Violation("Square", float("inf")),))
    residual = linalg.unitary_residual(m)
    if residual > linalg.ATOL_UNITARY:
        return ValidationReport("Matrix", (Violation("NotUnitary", residual),))
    return ValidationReport("Matrix")
