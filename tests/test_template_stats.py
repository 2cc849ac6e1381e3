"""gaussian_template_stats against dense joint conditioning of (z, y) per
(t, l), with K = 0 (a plain template) and with factors."""

import numpy as np
import pytest

from transmix import ImageShape, build_translation_set, identity_set
from transmix import common
from transmix.common import _STATS_BLOCK, gaussian_template_stats
from transmix.transforms import build_shear_translation_set

from oracles import template_stats_dense

CASES = {
    "wrap-5x5": lambda: build_translation_set(ImageShape(5, 5), 5, 5),
    "zero-pad": lambda: build_translation_set(ImageShape(5, 6), 3, 5, "zero"),
    "shear": lambda: build_shear_translation_set(ImageShape(8, 8), boundary="zero"),
    "identity": lambda: identity_set(ImageShape(4, 5)),
    # more ops than one block, and not a whole number of blocks
    "block-boundary": lambda: build_translation_set(ImageShape(9, 9), 9, 9),
}
FACTORS = [0, 1, 3]


def _cases(names):
    """Every case with every factor count; K = 0 keeps the bare case name."""
    return [pytest.param(name, K, id=name if K == 0 else f"{name}-K{K}")
            for name in names for K in FACTORS]


def _inputs(transforms, seed, K, offset=0.0, tied=False, T=6):
    rng = np.random.default_rng(seed)
    n, L = transforms.shape.n, transforms.L
    mu = offset + rng.uniform(0.2, 1.0, n)
    loadings = rng.uniform(-0.5, 0.5, (n, K))
    phi = rng.uniform(0.1, 1.0, n)
    psi = np.full(n, 0.3) if tied else rng.uniform(0.05, 0.5, n)
    X = offset + rng.uniform(0.0, 1.2, (T, n))
    W = rng.dirichlet(np.ones(L), size=T)
    return mu, loadings, phi, psi, X, W


def _clusters(args, C):
    """C clusters from one cluster's inputs: cluster c rolls the pixels of
    mu, loadings and phi and the ops of W by c, so cluster 0 is `args`."""
    mu, loadings, phi, psi, X, W = args
    return [(np.roll(mu, c), np.roll(loadings, c, axis=0), np.roll(phi, c), psi, X,
             np.roll(W, c, axis=-1)) for c in range(C)]


def _check(transforms, args, C=3):
    """Every cluster of one C-cluster call against the oracle on its own."""
    clusters = _clusters(args, C)
    mu, loadings, phi = (np.stack([each[i] for each in clusters]) for i in range(3))
    W = np.stack([np.atleast_2d(each[5]) for each in clusters], axis=-1)
    stacked = gaussian_template_stats(transforms, mu, loadings, phi, *args[3:5], W)
    for c, args in enumerate(clusters):
        mu, loadings, phi, psi, X, W = args
        got = tuple(s[c] for s in stacked[:7]) + stacked[7:]
        assert len(got) == 8
        m = got[7]
        assert m == np.mean(X)
        # the latent sums come back centred on m, so they are the sums of the
        # centred problem; s_psi stays in observed coordinates, where a pixel
        # with no source predicts 0 rather than m
        want = template_stats_dense(transforms, mu - m, loadings, phi, psi, X - m, W)
        want = want[:6] + template_stats_dense(transforms, *args)[6:]
        assert got[0] == pytest.approx(want[0], rel=1e-10)
        for g, w in zip(got[1:7], want[1:]):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=1e-10, atol=0)


@pytest.mark.parametrize("name, K", _cases(sorted(CASES)))
def test_matches_dense_conditioning(name, K):
    ts = CASES[name]()
    _check(ts, _inputs(ts, seed=len(name) + 10 * K, K=K))


def test_block_case_spans_blocks():
    L = CASES["block-boundary"]().L
    assert L > _STATS_BLOCK and L % _STATS_BLOCK


@pytest.mark.parametrize("name, K, fft", [
    pytest.param(*case.values, False, id=case.id)
    for case in _cases(["wrap-5x5", "zero-pad"])] + [
    # a full wrap grid with the crossover lowered: the FFT kernel, not the blocks
    pytest.param("wrap-5x5", 0, True, id="wrap-5x5-fft")])
def test_tied_psi(name, K, fft, monkeypatch):
    ts = CASES[name]()
    if fft:
        monkeypatch.setattr(common, "FFT_MIN_PIXELS", 0)
        monkeypatch.setattr(common, "_block_stats", None)
    _check(ts, _inputs(ts, seed=3, K=K, tied=True))


@pytest.mark.parametrize("name, K", _cases(["wrap-5x5", "shear"]))
def test_data_far_from_zero(name, K):
    ts = CASES[name]()
    _check(ts, _inputs(ts, seed=4, K=K, offset=1e3))


def test_single_datum_and_zero_weight_ops():
    ts = CASES["zero-pad"]()
    for K in FACTORS:
        mu, loadings, phi, psi, X, W = _inputs(ts, seed=5, K=K, T=1)
        W[:, ::2] = 0.0
        _check(ts, (mu, loadings, phi, psi, X[0], W[0]))
