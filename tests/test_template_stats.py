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


# a third of the block-boundary set's ops (L = 81) dead, straddling the
# edge at _STATS_BLOCK: the first block of live ops (0-19, 47-58) goes as an
# index array, the second (59-80) as a slice that ends off the old edges
DEAD = slice(20, 47)


@pytest.mark.parametrize("offset", [0.0, 1e3], ids=["offset0", "offset1e3"])
@pytest.mark.parametrize("K", FACTORS, ids=[f"K{K}" for K in FACTORS])
def test_live_ops_across_block_edges(K, offset):
    ts = CASES["block-boundary"]()
    mu, loadings, phi, psi, X, W = _inputs(ts, seed=6 + K, K=K, offset=offset, T=3)
    W[:, DEAD] = 0.0
    _check(ts, (mu, loadings, phi, psi, X, W), C=2)


@pytest.mark.parametrize("K", FACTORS)
def test_cluster_with_no_live_op_sums_to_exact_zeros(K):
    ts = CASES["block-boundary"]()
    mu, loadings, phi, psi, X, W = _inputs(ts, seed=7, K=K, T=3)
    C = 2
    W = np.stack([W] * C, axis=-1) / C
    W[:, :, 1] = 0.0
    stats = gaussian_template_stats(ts, np.stack([mu] * C), np.stack([loadings] * C),
                                    np.stack([phi] * C), psi, X, W)
    assert stats[0][1] == 0.0
    for s in stats[1:7]:
        assert not np.any(s[1])
    m = stats[7]
    want = template_stats_dense(ts, mu - m, loadings, phi, psi, X - m, W[:, :, 0])
    want = want[:6] + template_stats_dense(ts, mu, loadings, phi, psi, X, W[:, :, 0])[6:]
    assert stats[0][0] == pytest.approx(want[0], rel=1e-10)
    for g, w in zip(stats[1:7], want[1:]):
        np.testing.assert_allclose(g[0], w, rtol=1e-10, atol=0)


def _spy(monkeypatch):
    """Record the ops of every `_block_stats` call, one list per cluster
    (keyed by the weight column it is handed)."""
    seen = []
    real = common._block_stats

    def spy(transforms, block, W, *args):
        seen.append((W.ctypes.data, block))
        return real(transforms, block, W, *args)

    monkeypatch.setattr(common, "_block_stats", spy)
    return seen


@pytest.mark.parametrize("K", [0, 1])
def test_blocks_receive_exactly_the_live_ops(K, monkeypatch):
    ts = CASES["block-boundary"]()
    L, C = ts.L, 3
    mu, loadings, phi, psi, X, W = _inputs(ts, seed=8, K=K)
    W = np.stack([W] * C, axis=-1) / C
    W[:, 1::3, 0] = 0.0
    W[:, DEAD, 1] = 0.0
    W[1:, 40:50, 1] = 0.0                # live in datum 0 only: still live
    W[:, :, 2] = 0.0
    seen = _spy(monkeypatch)
    gaussian_template_stats(ts, np.stack([mu] * C), np.stack([loadings] * C),
                            np.stack([phi] * C), psi, X, W)
    ops = {}
    for column, block in seen:
        ops.setdefault(column, []).append(np.arange(L)[block])
    assert max(len(block) for each in ops.values() for block in each) == _STATS_BLOCK
    got = [np.concatenate(each) for each in ops.values()]
    assert len(got) == 2                 # the cluster with no live op is never visited
    for c, each in enumerate(got):
        np.testing.assert_array_equal(each, np.flatnonzero(W[:, :, c].any(axis=0)))


def test_all_live_ops_go_as_the_slices_of_full_blocks(monkeypatch):
    ts = CASES["block-boundary"]()
    mu, loadings, phi, psi, X, W = _inputs(ts, seed=9, K=0)
    seen = _spy(monkeypatch)
    gaussian_template_stats(ts, mu[None], loadings[None], phi[None], psi, X, W[:, :, None])
    blocks = [block for _, block in seen]
    assert all(isinstance(block, slice) for block in blocks)
    assert [list(range(ts.L)[b]) for b in blocks] == [
        list(range(lo, min(lo + _STATS_BLOCK, ts.L))) for lo in range(0, ts.L, _STATS_BLOCK)]
