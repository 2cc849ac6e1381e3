"""gaussian_template_stats and the factor-posterior kernel against dense
joint conditioning of (z, y) per (t, l), with K = 0 (a plain template) and
with factors."""

import tracemalloc

import numpy as np
import pytest

from transmix import ImageShape, build_translation_set, identity_set
from transmix import common, mtca, tca
from transmix.common import _STATS_BLOCK, gaussian_template_stats
from transmix.transforms import build_shear_translation_set

from oracles import dense_matrix, joint_zy_conditioning, template_stats_dense

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


def _moments(mean, var, rows, X):
    """(y_cov, y_mean) of `_factor_moments` from `_factor_posterior`."""
    return common._factor_moments(*common._factor_posterior(mean, var, rows, X)[2])


@pytest.mark.parametrize("name, K", [(name, K) for name in ("zero-pad", "shear")
                                     for K in (1, 3)])
def test_factor_posterior_matches_dense_conditioning(name, K):
    """E[y | x, l] per (t, l) and Cov[y | x, l] from `_factor_posterior`.
    A pixel with no source may read any mean: the emission's, shifted after
    the gather, reads -shift there, the M-step's 0."""
    ts = CASES[name]()
    mu, loadings, phi, psi, X, _ = _inputs(ts, seed=20 + K, K=K, T=4)
    mean, var, rows = common._observed(ts.source_matrix, mu, loadings, phi, psi)
    y_cov, y_mean = _moments(mean, var, rows, X)
    n = ts.shape.n
    assert y_mean.shape == (K, ts.L, 4) and y_cov.shape == (ts.L, K, K)
    for l, op in enumerate(ts):
        want, cov = joint_zy_conditioning(dense_matrix(op), mu, loadings, phi, psi, X)
        np.testing.assert_allclose(y_mean[:, l].T, want[:, n:], rtol=1e-10, atol=0)
        np.testing.assert_allclose(y_cov[l], cov[n:, n:], rtol=1e-10, atol=0)
    void = ts.source_matrix < 0
    assert void.any()
    shifted = np.where(void, -float(X.mean()), mean)
    cov_shifted, mean_shifted = _moments(shifted, var, rows, X)
    np.testing.assert_array_equal(mean_shifted, y_mean)
    np.testing.assert_array_equal(cov_shifted, y_cov)


@pytest.mark.parametrize("name", ["zero-pad", "shear"])
def test_op_posterior_without_factors_is_the_latent_posterior(name):
    ts = CASES[name]()
    mu, loadings, phi, psi, X, _ = _inputs(ts, seed=len(name), K=0, T=1)
    y_cov, y_mean, z_mean, z_var = tca._op_posterior(ts, mu, loadings, phi, psi, X[0])
    assert y_cov.shape == (ts.L, 0, 0) and y_mean.shape == (ts.L, 0)
    want_mean, want_var = common._latent_posterior(ts.dest_matrix, mu, phi, psi, X[0])
    np.testing.assert_array_equal(z_mean, want_mean)
    np.testing.assert_array_equal(z_var, want_var)


@pytest.mark.parametrize("name", ["zero-pad", "shear"])
def test_op_posterior_without_factors_runs_no_factor_kernel(name, monkeypatch):
    ts = CASES[name]()
    mu, loadings, phi, psi, X, _ = _inputs(ts, seed=len(name), K=0, T=1)
    for module in (common, tca):
        monkeypatch.setattr(module, "_factor_posterior", None)
        monkeypatch.setattr(module, "_observed", None)
    tca._op_posterior(ts, mu, loadings, phi, psi, X[0])


def _factor_model(ts, C, K, seed, fast=False):
    """A TCA (C = 1) or an MTCA with C clusters over `ts`, and its frames.
    Every third op of cluster 0 has probability 0, so its live ops go as
    an index array, not a slice."""
    mu, loadings, phi, psi, X, _ = _inputs(ts, seed=seed, K=K, T=8)
    rng = np.random.default_rng(seed + 1)
    rho = rng.dirichlet(np.ones(ts.L), size=C).T
    rho[1::3, 0] = 0.0
    rho[:, 0] /= rho[:, 0].sum()
    if C == 1:
        return tca.TcaModel(transforms=ts, mu=mu, loadings=loadings, phi=phi,
                            rho=rho[:, 0], psi=psi, fast_likelihood=fast), X
    # cluster c rolls the pixels of cluster 0 by c
    mu, loadings, phi = (np.stack([np.roll(a, c, axis=0) for c in range(C)])
                         for a in (mu, loadings, phi))
    return mtca.MtcaModel(transforms=ts, pi=np.full(C, 1.0 / C), mu=mu, loadings=loadings,
                          phi=phi, rho=rho, psi=psi, fast_likelihood=fast), X


def _spy_stats(monkeypatch):
    """Record the arguments and result of the M-step's statistics call."""
    calls = []
    real = mtca.gaussian_template_stats

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(mtca, "gaussian_template_stats", spy)
    return calls, real


HANDOVER = [pytest.param(name, C, K, id=f"{name}-C{C}-K{K}")
            for name in ("zero-pad", "shear") for C in (1, 2) for K in (1, 3)]


@pytest.mark.parametrize("name, C, K", HANDOVER)
def test_exact_em_step_forms_the_factor_posterior_once(name, C, K, monkeypatch):
    """The exact emission's factor posterior is the M-step's: one
    `_factor_posterior` per row block of the emission in a step, none in
    the M-step, and the statistics have the bits of a call that forms the
    posterior itself."""
    ts = CASES[name]()
    model, X = _factor_model(ts, C, K, seed=30 + K)
    kernel, seen = common._factor_posterior, []
    for module in (common, tca):
        monkeypatch.setattr(module, "_factor_posterior",
                            lambda *a: seen.append(a) or kernel(*a))
    calls, real = _spy_stats(monkeypatch)
    (tca if C == 1 else mtca).em_step(model, X)
    count = C * ts.L
    assert len(seen) == -(-count // tca._block_rows(count, ts.L, ts.shape.n, K, len(X))) == 1
    ((args, got),) = calls
    posterior = args[7]
    assert len(posterior) == C
    monkeypatch.setattr(common, "_factor_posterior", kernel)
    want = real(*args[:7])
    assert len(got) == len(want) == 8
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


@pytest.mark.parametrize("C, K", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_fast_likelihood_m_step_forms_its_own_factor_posterior(C, K, monkeypatch):
    """The fast emission runs with psi = 0, so its posterior is not the
    M-step's: the step's statistics are those of the model's psi, not
    those fed the emission's posterior.  Fast needs void-free ops."""
    ts = CASES["wrap-5x5"]()
    model, X = _factor_model(ts, C, K, seed=40 + K, fast=True)
    calls, real = _spy_stats(monkeypatch)
    (tca if C == 1 else mtca).em_step(model, X)
    ((args, got),) = calls
    assert args[7] is None
    want = real(*args[:7])
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    core = model.as_mtca()
    fast = []
    tca.cluster_loglik(ts, core.mu, core.loadings, core.phi, np.zeros(ts.shape.n),
                       args[5], posterior=fast)
    fed = real(*args[:7], fast)
    assert not np.allclose(fed[6], got[6], rtol=1e-6, atol=0)    # s_psi
    assert not np.allclose(fed[5], got[5], rtol=1e-6, atol=0)    # s_zy


def _peak_weights(ts, C, K, T, seed=0):
    """Traced peak of one `gaussian_template_stats` call with untied psi,
    in sizes of its (T, L, C) weights."""
    rng = np.random.default_rng(seed)
    n, L = ts.shape.n, ts.L
    ts.source_matrix, ts.dest_matrix     # a lazy grid builds its tables now
    W = rng.dirichlet(np.ones(L * C), size=T).reshape(T, L, C)
    args = (rng.uniform(0.2, 1.0, (C, n)), rng.uniform(-0.3, 0.3, (C, n, K)),
            rng.uniform(0.1, 1.0, (C, n)), rng.uniform(0.05, 0.5, n),
            rng.uniform(0.0, 1.0, (T, n)), W)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gaussian_template_stats(ts, *args)
        return (tracemalloc.get_traced_memory()[1] - base) / W.nbytes
    finally:
        tracemalloc.stop()


def test_dense_statistics_hold_per_cluster_blocks():
    """Each cluster's live ops go in blocks of their own, so the work stays
    (block, n) and (block, K, n) at pac-man's and glyph MTCA's sizes; one
    block over every cluster's ops would not fit."""
    pacman = build_translation_set(ImageShape(11, 11), 11, 11, "wrap")
    assert _peak_weights(pacman, C=6, K=0, T=100) <= 1.35
    glyphs = build_shear_translation_set(ImageShape(8, 8), boundary="zero")
    assert _peak_weights(glyphs, C=10, K=2, T=300) <= 1.75
