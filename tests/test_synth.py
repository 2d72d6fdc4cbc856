"""Synthesis memo tables: kept on the Solovay-Kitaev net that owns them."""
import numpy as np

from qwhile.synth import SKNet, default_net, phase_dist, synthesize


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def names(seq) -> list[str]:
    return [op.name for op in seq.ops]


def test_approximations_persist_on_the_reused_net(rng):
    net = default_net()
    u = haar_unitary(rng, 4)
    first = synthesize(u, epsilon=1e-2)
    assert net is default_net()
    filled = dict(net.approximations)
    assert filled  # the first call stored its approximations on the net
    second = synthesize(u, epsilon=1e-2)
    assert net.approximations == filled  # all hits, nothing new
    assert names(second) == names(first)
    assert second.eps_total == first.eps_total


def test_a_fresh_net_starts_empty_and_gives_the_same_words(rng):
    shared = default_net()
    fresh = SKNet(shared.alphabet, shared.max_word_length, shared.words,
                  shared.matrices, shared.eps0)
    assert fresh.approximations == {}
    u = haar_unitary(rng, 4)
    assert names(synthesize(u, epsilon=1e-2, net=fresh)) == names(
        synthesize(u, epsilon=1e-2, net=shared))
    assert fresh.approximations


def test_inverse_letters():
    net = default_net()
    table = net.inverse_letters
    assert net.inverse_letters is table
    assert set(table) == set(net.alphabet)
    for name, inv in table.items():
        assert phase_dist(net.alphabet[inv], net.alphabet[name].conj().T) <= 1e-10
