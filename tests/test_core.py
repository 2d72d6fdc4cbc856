"""Quantum core and its postulate kernels: types, residuals,
embedding, unitaries, channels and measurements on the factor form
rho = V V†, each against a hand or dense oracle."""
import numpy as np
import pytest

from qwhile.core import CNOT, H, I2, X, Z, DensityOperator, SuperOperator, STANDARD_LIBRARY
from qwhile.core import linalg
from qwhile.core.kernels import embed, operator_kernel, site_kernel, state_of
from qwhile.core.types import PLUS_MINUS
from qwhile.errors import CapacityExceeded, IncompleteMeasurement, InvalidState, NotUnitary
from qwhile.lang import parse

from dense_oracle import kron_embed

S2 = np.sqrt(2.0)
COMPUTATIONAL = (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
QLOOP_CHANNEL = SuperOperator([
    np.array([[1, 0], [0, 1 / S2]]),
    np.array([[0, 1 / S2], [0, 0]]),
])


def ket(*amplitudes):
    """The one-column factor of the normalized ket."""
    v = np.array(amplitudes, dtype=complex)[:, None]
    return v / np.linalg.norm(v)


def random_ket(rng, dim):
    return ket(*(rng.normal(size=dim) + 1j * rng.normal(size=dim)))


def random_factor(rng, dim, terms):
    """A factor V of a random state: tr(V V†) = 1."""
    v = rng.normal(size=(dim, terms)) + 1j * rng.normal(size=(dim, terms))
    return v / np.linalg.norm(v)


def qubits(dim):
    return tuple(range(linalg.num_qubits(dim)))


def through(channel, v):
    """The engine's factor of the channel's output on V V†: [E_0 V | E_1 V | ...]."""
    positions = qubits(channel.dim)
    return np.hstack([operator_kernel(e, positions, len(positions)).apply(v)
                      for e in channel.kraus])


def dense(v):
    return v @ v.conj().T


def computational(dim):
    return site_kernel([np.diag(r) for r in np.eye(dim)], qubits(dim), len(qubits(dim)))


def dense_probabilities(rho, operators):
    return np.array([np.trace(m.conj().T @ m @ rho).real for m in operators])


class TestNormalize:
    def test_symmetric_pair(self):
        out = site_kernel(PLUS_MINUS, (0,), 1).collapse(ket(1, 0), 0)
        np.testing.assert_allclose(out[:, 0], [1 / S2, 1 / S2], atol=1e-12)

    def test_already_unit(self):
        out = computational(2).collapse(ket(1, 0), 0)
        np.testing.assert_array_equal(out[:, 0], [1.0, 0.0])

    def test_three_four(self):
        # independent scalar check: ||(3, 4i)|| = 5
        v = np.array([3.0, 4.0j])
        scale = np.sqrt(sum(abs(x) ** 2 for x in v))
        assert scale == 5.0
        np.testing.assert_allclose(computational(2).probabilities(ket(*v)),
                                   [(3 / scale) ** 2, (4 / scale) ** 2], atol=1e-12)
        np.testing.assert_allclose(computational(2).probabilities(ket(*v)),
                                   [0.36, 0.64], atol=1e-12)

    def test_zero_vector(self):
        with pytest.raises(IncompleteMeasurement):
            computational(2).probabilities(np.array([[1e-13], [0.0]]))


class TestTensor:
    def test_basis_index(self):
        out = operator_kernel(X, (1,), 2).apply(ket(1, 0, 0, 0))
        np.testing.assert_array_equal(out[:, 0], np.eye(4)[1])

    def test_identity(self):
        np.testing.assert_array_equal(embed(I2, (0,), 2), np.eye(4))
        np.testing.assert_array_equal(embed(I2, (1,), 2), np.eye(4))

    def test_ordering_convention(self):
        # H on qubit 0 of |00> puts the superposition on the most significant bit
        psi = operator_kernel(H, (0,), 2).apply(ket(1, 0, 0, 0))
        np.testing.assert_allclose(psi[:, 0], (np.eye(4)[0] + np.eye(4)[2]) / S2, atol=1e-12)

    def test_associativity(self, rng):
        for _ in range(100):
            a, b, c = (np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
                       for _ in range(3))
            v = random_factor(rng, 8, 2)
            out = v
            for q, u in zip((2, 0, 1), (c, a, b)):
                out = operator_kernel(u, (q,), 3).apply(out)
            np.testing.assert_allclose(out, np.kron(a, np.kron(b, c)) @ v, atol=1e-12)
            np.testing.assert_allclose(out, np.kron(np.kron(a, b), c) @ v, atol=1e-12)

    def test_capacity_cap(self):
        # every kernel refuses the space before it builds anything of its size
        n = linalg.MAX_QUBITS + 1
        with pytest.raises(CapacityExceeded):
            embed(I2, (0,), n)
        with pytest.raises(CapacityExceeded):
            operator_kernel(H, (0,), n)
        with pytest.raises(CapacityExceeded):
            site_kernel(COMPUTATIONAL, (0,), n)
        with pytest.raises(CapacityExceeded):
            linalg.check_dim(linalg.MAX_DIM * 2)


class TestApplyUnitary:
    def test_hadamard_makes_plus(self):
        out = operator_kernel(H, (0,), 1).apply(ket(1, 0))
        np.testing.assert_allclose(out[:, 0], [1 / S2, 1 / S2], atol=1e-12)

    def test_bit_flip_density(self):
        out = state_of(operator_kernel(X, (0,), 1).apply(ket(1, 0)))
        np.testing.assert_allclose(out.matrix, np.diag([0, 1]), atol=1e-12)

    def test_zh_gives_minus(self):
        # 2x2 chain oracle: Z @ H on |0>
        expect = Z @ H @ np.array([1, 0])
        out = operator_kernel(Z, (0,), 1).apply(operator_kernel(H, (0,), 1).apply(ket(1, 0)))
        np.testing.assert_allclose(out[:, 0], expect, atol=1e-12)
        np.testing.assert_allclose(out[:, 0], [1 / S2, -1 / S2], atol=1e-12)

    def test_rejects_nonunitary(self):
        with pytest.raises(NotUnitary):
            linalg.require_unitary(np.array([[1, 0], [0, 2]]))
        with pytest.raises(NotUnitary):
            parse("q : qubit;\ngate G = [[1, 0], [0, 2]];\nG[q];\n")

    def test_norm_preserved_on_library(self, rng):
        for name in STANDARD_LIBRARY.names:
            u = STANDARD_LIBRARY[name]
            v = random_ket(rng, u.shape[0])
            out = operator_kernel(u, qubits(u.shape[0]), len(qubits(u.shape[0]))).apply(v)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-9)


class TestSuperOperator:
    def test_qloop_state(self):
        m = state_of(through(QLOOP_CHANNEL, ket(1, 1))).matrix
        assert m[0, 0] == pytest.approx(3 / 4, abs=1e-12)
        assert m[1, 1] == pytest.approx(1 / 4, abs=1e-12)
        assert m[0, 1] == pytest.approx(1 / (2 * S2), abs=1e-12)
        assert m[1, 0] == pytest.approx(1 / (2 * S2), abs=1e-12)

    def test_identity_channel(self, rng):
        v = random_factor(rng, 4, 4)
        out = state_of(through(SuperOperator.identity(4), v))
        np.testing.assert_allclose(out.matrix, dense(v), atol=1e-12)

    def test_bit_flip_half(self):
        # hand oracle: sum of two 2x2 conjugations
        e0, e1 = np.eye(2) / S2, X / S2
        chan = SuperOperator([e0, e1])
        rho = np.diag([1.0, 0.0])
        expect = e0 @ rho @ e0.conj().T + e1 @ rho @ e1.conj().T
        out = state_of(through(chan, ket(1, 0)))
        np.testing.assert_allclose(out.matrix, expect, atol=1e-12)
        np.testing.assert_allclose(out.matrix, np.diag([0.5, 0.5]), atol=1e-12)

    def test_trace_preserving_property(self, rng):
        for _ in range(100):
            u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
            p = rng.uniform(0.1, 0.9)
            chan = SuperOperator([np.sqrt(p) * np.eye(2), np.sqrt(1 - p) * u])
            out = state_of(through(chan, random_factor(rng, 2, 2)))
            assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-9)
            assert np.linalg.eigvalsh((out.matrix + out.matrix.conj().T) / 2).min() >= -1e-9

    def test_kraus_bound_enforced(self):
        # I - 2I has least eigenvalue -1, the residual the message gives
        with pytest.raises(InvalidState) as err:
            SuperOperator([np.eye(2), np.eye(2)], name="twice")
        assert str(err.value) == "SuperOperator(twice): KrausBound (residual 1.000e+00)"


class TestMeasurement:
    def test_plus_probabilities(self):
        np.testing.assert_allclose(computational(2).probabilities(ket(1, 1)), [0.5, 0.5],
                                   atol=1e-12)

    def test_zero_state(self):
        np.testing.assert_allclose(computational(2).probabilities(ket(1, 0)), [1, 0],
                                   atol=1e-12)

    def test_qloop_rho1(self):
        p = computational(2).probabilities(through(QLOOP_CHANNEL, ket(1, 1)))
        np.testing.assert_allclose(p, [3 / 4, 1 / 4], atol=1e-12)

    def test_probabilities_sum_property(self, rng):
        for _ in range(100):
            dim = int(rng.choice([2, 4, 8]))
            state = random_factor(rng, dim, int(rng.integers(1, 4)))
            assert computational(dim).probabilities(state).sum() == pytest.approx(1, abs=1e-9)

    def test_cross_representation(self, rng):
        # two factors of one state, V and V U for a unitary U, measure alike,
        # and as the dense formula tr(M† M rho)
        for _ in range(100):
            v = random_factor(rng, 2, 3)
            u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
            for ops in (COMPUTATIONAL, PLUS_MINUS):
                site = site_kernel(ops, (0,), 1)
                pv = site.probabilities(v)
                np.testing.assert_allclose(site.probabilities(v @ u), pv, atol=1e-12)
                np.testing.assert_allclose(dense_probabilities(dense(v), ops), pv, atol=1e-12)

    def test_incomplete_rejected(self):
        with pytest.raises(IncompleteMeasurement):
            parse("q : qubit;\nmeasure M = {[[1, 0], [0, 0]]};\nif M[q] = 0 -> skip; fi;\n")

    def test_completeness_is_decided_once_per_set(self, monkeypatch):
        calls = []

        def counted(operators):
            calls.append(len(operators))
            return residual(operators)

        residual = linalg.completeness_residual
        monkeypatch.setattr("qwhile.lang.checker.completeness_residual", counted)
        source = ("q : qubit;\nmeasure M = {[[1, 0], [0, 0]], [[0, 0], [0, 1]]};\n"
                  + "if M[q] = 0 -> skip; [] 1 -> skip; fi;\n" * 50)
        parse(source)
        assert calls == [2]

    def test_a_set_keeps_its_operators_when_the_caller_writes_to_them(self):
        for a, b in ((np.diag([1.0, 0.0]), np.diag([0.0, 1.0])),
                     (PLUS_MINUS[0].copy(), PLUS_MINUS[1].copy())):
            a, b = a.astype(complex), b.astype(complex)
            want = dense_probabilities(dense(ket(1, 0)), (a, b))
            site = site_kernel([a, b], (0,), 1)
            a[:] = 0.0
            b[:] = np.eye(2)
            np.testing.assert_allclose(site.probabilities(ket(1, 0)), want, atol=1e-12)

    def test_incomplete_set_is_refused_when_measured(self):
        site = site_kernel([np.diag([1.0, 0.0])], (0,), 1)
        np.testing.assert_allclose(site.probabilities(ket(1, 0)), [1.0])
        with pytest.raises(IncompleteMeasurement, match="probabilities sum to"):
            site.probabilities(ket(1, 1))


class TestPostMeasurement:
    def test_plus_collapses_to_zero(self):
        out = computational(2).collapse(ket(1, 1), 0)
        assert abs(np.vdot(out[:, 0], [1, 0])) == pytest.approx(1.0, abs=1e-12)

    def test_qloop_outcome_one(self):
        out = computational(2).collapse(through(QLOOP_CHANNEL, ket(1, 1)), 1)
        np.testing.assert_allclose(state_of(out).matrix, np.diag([0, 1]), atol=1e-9)

    def test_minus_from_one(self):
        # projector oracle: |-><-| applied to |1>, renormalized
        minus = np.array([1, -1]) / S2
        proj = np.outer(minus, minus.conj())
        expect = proj @ np.array([0, 1])
        expect = expect / np.linalg.norm(expect)
        out = site_kernel(PLUS_MINUS, (0,), 1).collapse(ket(0, 1), 1)
        assert abs(np.vdot(out[:, 0], expect)) == pytest.approx(1.0, abs=1e-12)


class TestValidate:
    def test_computational_ok(self):
        assert linalg.completeness_residual(COMPUTATIONAL) == 0.0
        assert linalg.completeness_residual(PLUS_MINUS) <= linalg.ATOL_PHYSICAL

    def test_incomplete_reports_residual(self):
        assert linalg.completeness_residual([np.diag([1.0, 0.0])]) == pytest.approx(1.0)

    def test_depolarizing_kraus_ok(self):
        # constructing succeeds: the channel meets its Kraus bound
        s8 = np.sqrt(8.0)
        chan = SuperOperator([
            np.array([[np.sqrt(5) / s8, 0], [0, np.sqrt(5) / s8]]),
            np.array([[0, 1 / s8], [1 / s8, 0]]),
            np.array([[0, -1j / s8], [1j / s8, 0]]),
            np.array([[1 / s8, 0], [0, -1 / s8]]),
        ])
        assert chan.dim == 2 and len(chan.kraus) == 4

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


    def test_unitary_matrix_report(self):
        assert linalg.unitary_residual(H) <= linalg.ATOL_UNITARY
        assert linalg.unitary_residual(np.array([[1, 0], [0, 2]])) == pytest.approx(3.0)


class TestTypes:
    def test_library_gates_unitary(self):
        for name in STANDARD_LIBRARY.names:
            u = STANDARD_LIBRARY[name]
            d = u.shape[0]
            assert np.linalg.norm(u.conj().T @ u - np.eye(d), 2) <= 1e-10

    def test_density_guards_matrix_copy(self):
        d = DensityOperator(2, np.array([0]), np.array([[1.0 + 0j]]))
        d.matrix[0, 0] = 5.0
        np.testing.assert_array_equal(d.matrix, np.diag([1.0, 0.0]))


class TestEmbedding:
    def test_embed_matches_kron(self, rng):
        u = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))[0]
        np.testing.assert_allclose(embed(u, (0,), 2), np.kron(u, I2), atol=1e-12)
        np.testing.assert_allclose(embed(u, (1,), 2), np.kron(I2, u), atol=1e-12)
        # 1-3 qubit operators (dense, diagonal, permutation with phases) on
        # adjacent targets, the same targets reversed, and a random choice
        for n in range(1, 5):
            for k in range(1, min(n, 3) + 1):
                lo = int(rng.integers(n - k + 1))
                run = tuple(range(lo, lo + k))
                chosen = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
                dim = 1 << k
                phases = np.exp(2j * np.pi * rng.random(dim))
                ops = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)),
                       np.diag(phases), np.eye(dim)[rng.permutation(dim)] * phases)
                for op in ops:
                    for positions in (run, run[::-1], chosen):
                        np.testing.assert_allclose(embed(op, positions, n),
                                                   kron_embed(op, positions, n),
                                                   rtol=0, atol=1e-12)

    def test_embed_cnot_reversed(self):
        m = embed(CNOT, (1, 0), 2)
        expect = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]])
        np.testing.assert_allclose(m, expect, atol=1e-12)

    def test_partial_trace(self, rng):
        # a site on one qubit of a product state reads that qubit's marginal
        a, b = random_factor(rng, 2, 2), random_factor(rng, 2, 2)
        joint = np.kron(a, b)
        for q, part in ((0, a), (1, b)):
            for ops in (COMPUTATIONAL, PLUS_MINUS):
                np.testing.assert_allclose(site_kernel(ops, (q,), 2).probabilities(joint),
                                           dense_probabilities(dense(part), ops), atol=1e-12)
