"""Quantum core: types, postulate primitives, and their invariants."""
import numpy as np
import pytest

from qwhile.core import (
    CNOT, H, I2, S, T, X, Z,
    DensityOperator, Ket, MeasurementSet, SuperOperator,
    STANDARD_LIBRARY,
    apply_superoperator, apply_unitary, basis_ket, embed, inner_product,
    measurement_probabilities, normalize, partial_trace,
    post_measurement_state, tensor, validate,
)
from qwhile.core import linalg
from qwhile.errors import (
    CapacityExceeded, DimMismatch, IncompleteMeasurement, InvalidState,
    NotUnitary, ZeroProbabilityOutcome, ZeroVector,
)

S2 = np.sqrt(2.0)


def random_ket(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return Ket(v)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    return DensityOperator(m / m.trace().real)


class TestNormalize:
    def test_symmetric_pair(self):
        k = normalize(np.array([1.0, 1.0]))
        np.testing.assert_allclose(k.amplitudes, [1 / S2, 1 / S2], atol=1e-12)

    def test_already_unit(self):
        k = normalize(np.array([1.0, 0.0]))
        np.testing.assert_array_equal(k.amplitudes, [1.0, 0.0])

    def test_three_four(self):
        # independent scalar check: ||(3, 4i)|| = 5
        v = np.array([3.0, 4.0j])
        scale = np.sqrt(sum(abs(x) ** 2 for x in v))
        assert scale == 5.0
        np.testing.assert_allclose(normalize(v).amplitudes, v / scale, atol=1e-12)
        np.testing.assert_allclose(normalize(v).amplitudes, [0.6, 0.8j], atol=1e-12)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            normalize(np.array([1e-13, 0.0]))


class TestInnerProduct:
    def test_orthonormal_basis(self):
        zero, one = Ket([1, 0]), Ket([0, 1])
        assert inner_product(zero, zero) == pytest.approx(1)
        assert inner_product(zero, one) == 0

    def test_plus_zero(self):
        # hand expansion: |+> = (|0> + |1>)/sqrt2 so <+|0> = 1/sqrt2
        assert inner_product(Ket([1, 1]), Ket([1, 0])) == pytest.approx(1 / S2)

    def test_conjugate_linearity(self, rng):
        a, b = random_ket(rng, 4), random_ket(rng, 4)
        assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            inner_product(Ket([1, 0]), Ket([1, 0, 0, 0]))


class TestTensor:
    def test_basis_index(self):
        k = tensor(Ket([1, 0]), Ket([0, 1]))
        np.testing.assert_array_equal(k.amplitudes, basis_ket(4, 1))

    def test_identity(self):
        np.testing.assert_array_equal(tensor(I2, I2), np.eye(4))

    def test_ordering_convention(self):
        # (H (x) I)|00> puts the superposition on the most significant qubit
        psi = (tensor(H, I2) @ basis_ket(4, 0))
        np.testing.assert_allclose(psi, (basis_ket(4, 0) + basis_ket(4, 2)) / S2, atol=1e-12)

    def test_associativity(self, rng):
        for _ in range(100):
            a, b, c = (random_ket(rng, 2) for _ in range(3))
            lhs = tensor(a, tensor(b, c))
            rhs = tensor(tensor(a, b), c)
            np.testing.assert_allclose(lhs.amplitudes, rhs.amplitudes, atol=1e-12)

    def test_capacity_cap(self):
        big = np.eye(1 << 7)
        with pytest.raises(CapacityExceeded):
            tensor(tensor(big, big), np.eye(4))


class TestApplyUnitary:
    def test_hadamard_makes_plus(self):
        out = apply_unitary(Ket([1, 0]), H)
        np.testing.assert_allclose(out.amplitudes, [1 / S2, 1 / S2], atol=1e-12)

    def test_bit_flip_density(self):
        out = apply_unitary(Ket([1, 0]).to_density(), X)
        np.testing.assert_allclose(out.matrix, np.diag([0, 1]), atol=1e-12)

    def test_zh_gives_minus(self):
        # 2x2 chain oracle: Z @ H on |0>
        expect = Z @ H @ np.array([1, 0])
        out = apply_unitary(apply_unitary(Ket([1, 0]), H), Z)
        np.testing.assert_allclose(out.amplitudes, expect, atol=1e-12)
        np.testing.assert_allclose(out.amplitudes, [1 / S2, -1 / S2], atol=1e-12)

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            apply_unitary(Ket([1, 0]), np.array([[1, 0], [0, 2]]))

    def test_norm_preserved_on_library(self, rng):
        for name in STANDARD_LIBRARY.names:
            u = STANDARD_LIBRARY[name]
            v = random_ket(rng, u.shape[0])
            out = apply_unitary(v, u)
            assert np.linalg.norm(out.amplitudes) == pytest.approx(1.0, abs=1e-9)


class TestSuperOperator:
    def qloop_channel(self):
        return SuperOperator([
            np.array([[1, 0], [0, 1 / S2]]),
            np.array([[0, 1 / S2], [0, 0]]),
        ])

    def test_qloop_state(self):
        rho1 = apply_superoperator(Ket([1, 1]).to_density(), self.qloop_channel())
        m = rho1.matrix
        assert m[0, 0] == pytest.approx(3 / 4, abs=1e-12)
        assert m[1, 1] == pytest.approx(1 / 4, abs=1e-12)
        assert m[0, 1] == pytest.approx(1 / (2 * S2), abs=1e-12)
        assert m[1, 0] == pytest.approx(1 / (2 * S2), abs=1e-12)

    def test_identity_channel(self, rng):
        rho = random_density(rng, 4)
        out = apply_superoperator(rho, SuperOperator.identity(4))
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_bit_flip_half(self):
        # hand oracle: sum of two 2x2 conjugations
        e0, e1 = np.eye(2) / S2, X / S2
        chan = SuperOperator([e0, e1])
        rho = np.diag([1.0, 0.0])
        expect = e0 @ rho @ e0.conj().T + e1 @ rho @ e1.conj().T
        out = apply_superoperator(DensityOperator(rho), chan)
        np.testing.assert_allclose(out.matrix, expect, atol=1e-12)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_trace_preserving_property(self, rng):
        for _ in range(100):
            u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            p = rng.uniform(0.1, 0.9)
            chan = SuperOperator([np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * u])
            out = apply_superoperator(random_density(rng, 2), chan)
            assert out.trace == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh((out.matrix + out.matrix.conj().T) / 2).min() >= -1e-9

    def test_kraus_bound_enforced(self):
        with pytest.raises(InvalidState):
            SuperOperator([np.eye(2), np.eye(2)])


class TestMeasurement:
    def test_plus_probabilities(self):
        p = measurement_probabilities(Ket([1, 1]), MeasurementSet.computational(2))
        np.testing.assert_allclose(p, [0.5, 0.5], atol=1e-12)

    def test_zero_state(self):
        p = measurement_probabilities(Ket([1, 0]), MeasurementSet.computational(2))
        np.testing.assert_allclose(p, [1, 0], atol=1e-12)

    def test_qloop_rho1(self):
        chan = SuperOperator([np.array([[1, 0], [0, 1 / S2]]),
                              np.array([[0, 1 / S2], [0, 0]])])
        rho1 = apply_superoperator(Ket([1, 1]).to_density(), chan)
        p = measurement_probabilities(rho1, MeasurementSet.computational(2))
        np.testing.assert_allclose(p, [3 / 4, 1 / 4], atol=1e-12)

    def test_probabilities_sum_property(self, rng):
        for _ in range(100):
            dim = int(rng.choice([2, 4, 8]))
            m = MeasurementSet.computational(dim)
            state = random_ket(rng, dim)
            assert measurement_probabilities(state, m).sum() == pytest.approx(1, abs=1e-9)

    def test_cross_representation(self, rng):
        for _ in range(100):
            k = random_ket(rng, 2)
            for m in (MeasurementSet.computational(2), MeasurementSet.plus_minus()):
                pk = measurement_probabilities(k, m)
                pd = measurement_probabilities(k.to_density(), m)
                np.testing.assert_allclose(pk, pd, atol=1e-12)

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteMeasurement):
            MeasurementSet([np.diag([1.0, 0.0])])

    def test_completeness_is_decided_once_per_set(self, monkeypatch):
        calls = []

        def counted(operators):
            calls.append(len(operators))
            return residual(operators)

        residual = linalg.completeness_residual
        monkeypatch.setattr(linalg, "completeness_residual", counted)
        m = MeasurementSet.plus_minus()
        rho = Ket([1, 0]).to_density()
        for _ in range(100):
            np.testing.assert_allclose(measurement_probabilities(rho, m), [0.5, 0.5],
                                       atol=1e-12)
        post_measurement_state(rho, m, 1)
        assert validate(m).ok
        assert calls == [2]

    def test_a_set_keeps_its_operators_when_the_caller_writes_to_them(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 1.0]).astype(complex)
        m = MeasurementSet([a, b])
        a[:] = 0.0
        b[:] = np.eye(2)
        np.testing.assert_array_equal(m.operators[0], np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(m.operators[1], np.diag([0.0, 1.0]))
        assert m.validate().ok
        np.testing.assert_allclose(measurement_probabilities(Ket([1, 0]), m), [1.0, 0.0])
        copies = m.operators
        assert all(op.flags.writeable for op in copies)
        copies[0][:] = 0.0
        np.testing.assert_array_equal(m.operators[0], np.diag([1.0, 0.0]))

    def test_incomplete_set_is_refused_when_measured(self):
        m = MeasurementSet([np.diag([1.0, 0.0])], require_complete=False)
        for measure in (lambda: measurement_probabilities(Ket([1, 0]), m),
                        lambda: post_measurement_state(Ket([1, 0]), m, 0)):
            with pytest.raises(IncompleteMeasurement, match="IncompleteMeasurement"):
                measure()


class TestPostMeasurement:
    def test_plus_collapses_to_zero(self):
        out = post_measurement_state(Ket([1, 1]), MeasurementSet.computational(2), 0)
        assert out.fidelity(Ket([1, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_qloop_outcome_one(self):
        chan = SuperOperator([np.array([[1, 0], [0, 1 / S2]]),
                              np.array([[0, 1 / S2], [0, 0]])])
        rho1 = apply_superoperator(Ket([1, 1]).to_density(), chan)
        out = post_measurement_state(rho1, MeasurementSet.computational(2), 1)
        np.testing.assert_allclose(out.matrix, np.diag([0, 1]), atol=1e-9)

    def test_minus_from_one(self):
        # projector oracle: |-><-| applied to |1>, renormalized
        minus = np.array([1, -1]) / S2
        proj = np.outer(minus, minus.conj())
        expect = proj @ np.array([0, 1])
        expect = expect / np.linalg.norm(expect)
        out = post_measurement_state(Ket([0, 1]), MeasurementSet.plus_minus(), 1)
        assert abs(np.vdot(out.amplitudes, expect)) == pytest.approx(1.0, abs=1e-12)

    def test_zero_probability(self):
        with pytest.raises(ZeroProbabilityOutcome):
            post_measurement_state(Ket([1, 0]), MeasurementSet.computational(2), 1)


class TestValidate:
    def test_computational_ok(self):
        assert validate(MeasurementSet.computational(2)).ok

    def test_incomplete_reports_residual(self):
        m = MeasurementSet([np.diag([1.0, 0.0])], require_complete=False)
        report = validate(m)
        assert not report.ok
        v = report.violations[0]
        assert v.condition == "IncompleteMeasurement"
        assert v.residual == pytest.approx(1.0)

    def test_depolarizing_kraus_ok(self):
        s8 = np.sqrt(8.0)
        chan = SuperOperator([
            np.array([[np.sqrt(5) / s8, 0], [0, np.sqrt(5) / s8]]),
            np.array([[0, 1 / s8], [1 / s8, 0]]),
            np.array([[0, -1j / s8], [1j / s8, 0]]),
            np.array([[1 / s8, 0], [0, -1 / s8]]),
        ])
        assert validate(chan).ok

    def test_unitary_matrix_report(self):
        assert validate(H).ok
        assert not validate(np.array([[1, 0], [0, 2]])).ok

    def test_residuals_are_the_spectral_norm(self, rng):
        def spectral(gram):
            return np.linalg.norm(gram - np.eye(len(gram)), ord=2)

        for dim in (1, 2, 5, 16, 64):
            u = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))[0]
            for scale in (1e-6, 1e-2, 1.0):
                m = u + scale * rng.normal(size=(dim, dim))
                assert linalg.unitary_residual(m) == pytest.approx(
                    spectral(m.conj().T @ m), rel=1e-12)
                ops = [m / 2, u / 2, np.sqrt(0.5) * u]
                assert linalg.completeness_residual(ops) == pytest.approx(
                    spectral(sum(k.conj().T @ k for k in ops)), rel=1e-12)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_matrix_is_not_unitary(self):
        for x in (np.nan, np.inf):
            assert linalg.unitary_residual(np.diag([x, 1.0])) == np.inf
            with pytest.raises(NotUnitary):
                linalg.require_unitary(np.diag([1.0, x]))


class TestTypes:
    def test_density_invariants_enforced(self):
        with pytest.raises(InvalidState):
            DensityOperator(np.diag([0.7, 0.7]))
        with pytest.raises(InvalidState):
            DensityOperator(np.array([[1.5, 0], [0, -0.5]]))

    def test_library_gates_unitary(self):
        for name in STANDARD_LIBRARY.names:
            u = STANDARD_LIBRARY[name]
            d = u.shape[0]
            assert np.linalg.norm(u.conj().T @ u - np.eye(d), 2) <= 1e-10

    def test_ket_guards_amplitude_copy(self):
        k = Ket([1, 0])
        k.amplitudes[0] = 5.0
        np.testing.assert_array_equal(k.amplitudes, [1.0, 0.0])


class TestEmbedding:
    def test_embed_matches_kron(self, rng):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        np.testing.assert_allclose(embed(u, (0,), 2), np.kron(u, I2), atol=1e-12)
        np.testing.assert_allclose(embed(u, (1,), 2), np.kron(I2, u), atol=1e-12)

    def test_embed_cnot_reversed(self):
        m = embed(CNOT, (1, 0), 2)
        expect = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
        np.testing.assert_allclose(m, expect, atol=1e-12)

    def test_partial_trace(self, rng):
        a, b = random_density(rng, 2), random_density(rng, 2)
        joint = np.kron(a.matrix, b.matrix)
        np.testing.assert_allclose(partial_trace(joint, (0,), 2), a.matrix, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (1,), 2), b.matrix, atol=1e-12)
