"""The FFT kernels of a full wrap grid with one sensor variance, against the
dense kernels (which stay the path for every other case) and the dense
oracles, and which path each kind of model takes."""

import tracemalloc

import numpy as np
import pytest

from transmix import EmOptions, ImageShape, TransformationSet, build_translation_set
from transmix import common, mtca, tca, thmm, tmg
from transmix.common import _fft_stats, gaussian_template_stats
from transmix.transforms import wrap_shift_index

from oracles import template_stats_dense, tmg_loglik_dense

RTOL = 1e-12
# the smallest odd side at or above the FFT crossover
FFT_SIDE = int(np.ceil(np.sqrt(common.FFT_MIN_PIXELS))) // 2 * 2 + 1
SHAPES = [(3, 3), (5, 5), (8, 8), (4, 6), (1, 7), (6, 1)]


def _full_grid(h, w, shuffle=None):
    """Every wrap shift of an h x w image once; rows in a random order when
    `shuffle` is a seed."""
    shape = ImageShape(h, w)
    table = wrap_shift_index(shape)
    if shuffle is not None:
        table = table[np.random.default_rng(shuffle).permutation(shape.n)]
    return TransformationSet(table, shape, "wrap")


def _inputs(ts, seed, T=5, psi=0.3, offset=0.0):
    rng = np.random.default_rng(seed)
    n = ts.shape.n
    mu = offset + rng.uniform(0.2, 1.0, n)
    phi = rng.uniform(0.1, 1.0, n)
    X = offset + rng.uniform(0.0, 1.2, (T, n))
    W = rng.dirichlet(np.ones(ts.L), size=T)
    return mu, phi, np.full(n, psi), X, W


def _stacked(ts, seed, C, **kwargs):
    """`_inputs` for C clusters: the frames and psi of `seed`, and cluster
    c's template, latent variances and weights (T, L, C) of seed + c."""
    each = [_inputs(ts, seed + c, **kwargs) for c in range(C)]
    mu, phi, W = (np.stack([e[i] for e in each], axis=a) for i, a in ((0, 0), (1, 0), (4, -1)))
    return mu, phi, each[0][2], each[0][3], W


def _dense(monkeypatch):
    """Route every kernel call to the dense path."""
    monkeypatch.setattr(common, "FFT_MIN_PIXELS", 10 ** 9)


def _forbid(monkeypatch, module, name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{module.__name__}.{name} was called")
    monkeypatch.setattr(module, name, forbidden)


CASES = ([pytest.param(h, w, None, 0.3, 5, 1, id=f"{h}x{w}") for h, w in SHAPES]
         + [pytest.param(5, 5, 7, 0.3, 5, 1, id="5x5-shuffled"),
            pytest.param(4, 6, 8, 0.3, 5, 1, id="4x6-shuffled"),
            pytest.param(5, 5, None, 0.0, 5, 1, id="5x5-psi0"),
            pytest.param(8, 8, None, 0.3, 1, 1, id="8x8-T1"),
            pytest.param(4, 6, 8, 0.3, 5, 3, id="4x6-shuffled-C3")])


@pytest.mark.parametrize("h, w, shuffle, psi, T, C", CASES)
def test_fft_emission_matches_the_dense_kernel(h, w, shuffle, psi, T, C, monkeypatch):
    ts = _full_grid(h, w, shuffle)
    mu, phi, psi, X, _ = _stacked(ts, seed=h * w, C=C, T=T, psi=psi)
    m = X.mean()
    Xc = X - m
    got = tca._fft_loglik(ts.shape, ts.wrap_rows, mu - m, phi + psi[0], Xc, Xc * Xc)
    _dense(monkeypatch)
    want = tca.cluster_loglik(ts, mu, np.zeros((C, ts.shape.n, 0)), phi, psi, X)
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)


@pytest.mark.parametrize("T", [1, 5])
def test_fft_emission_of_each_cluster_is_that_of_a_one_cluster_call(T):
    """The clusters share one forward and one inverse transform call; each
    cluster's column keeps the bits of its own call."""
    ts = _full_grid(4, 6, shuffle=3)
    mu, phi, psi, X, _ = _stacked(ts, seed=21, C=3, T=T)
    Xc = X - X.mean()
    v = phi + psi[0]
    table = tca._fft_loglik(ts.shape, ts.wrap_rows, mu, v, Xc, Xc * Xc)
    assert table.transpose(1, 0, 2).flags.c_contiguous      # (L, T, C) in memory
    for c in range(3):
        alone = tca._fft_loglik(ts.shape, ts.wrap_rows, mu[c:c + 1], v[c:c + 1], Xc, Xc * Xc)
        assert np.array_equal(table[:, :, c], alone[:, :, 0])


@pytest.mark.parametrize("h, w, shuffle, psi, T, C",
                         [c for c in CASES if c.id != "5x5-psi0"]
                         + [pytest.param(5, 5, None, 0.3, 1, 1, id="5x5-T1-zero-weight")])
def test_fft_stats_match_the_dense_kernel(h, w, shuffle, psi, T, C, monkeypatch):
    ts = _full_grid(h, w, shuffle)
    mu, phi, psi, X, W = _stacked(ts, seed=h + w, C=C, T=T, psi=psi)
    W[:, ::2] = 0.0
    m = X.mean()
    Xc = X - m
    got = _fft_stats(ts.shape, ts.wrap_rows, W, Xc, Xc * Xc, mu - m, phi, psi[0])
    _dense(monkeypatch)
    want = gaussian_template_stats(ts, mu, np.zeros((C, ts.shape.n, 0)), phi, psi, X, W)
    for g, wnt in zip(got, (want[1], want[2], want[6])):
        np.testing.assert_allclose(g, wnt, rtol=RTOL, atol=0)


def test_fft_path_matches_the_dense_oracles(monkeypatch):
    """One small case end to end through the public entry points, with the
    crossover lowered so that the FFT kernels run."""
    monkeypatch.setattr(common, "FFT_MIN_PIXELS", 0)
    ts = _full_grid(3, 3, shuffle=2)
    mu, phi, psi, X, W = _inputs(ts, seed=11, T=3)
    rng = np.random.default_rng(12)
    model = tmg.TmgModel(shape=ts.shape, transforms=ts, pi=np.array([0.3, 0.7]),
                         mu=np.stack([mu, mu[::-1]]), phi=np.stack([phi, phi[::-1]]),
                         rho=rng.dirichlet(np.ones(ts.L), size=2).T, psi=psi)
    _forbid(monkeypatch, common, "_block_stats")
    _forbid(monkeypatch, tca, "_observed")
    got = tmg.loglik(model, X)
    want = [tmg_loglik_dense(model, x) for x in X]
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=0)
    stats = gaussian_template_stats(ts, mu[None], np.zeros((1, 9, 0)), phi[None], psi, X,
                                    W[:, :, None])
    stats = tuple(s[0] for s in stats[:7]) + stats[7:]
    m = stats[7]
    dense = template_stats_dense(ts, mu - m, np.zeros((9, 0)), phi, psi, X - m, W)
    assert stats[0] == pytest.approx(dense[0], rel=RTOL)
    for g, wnt in zip(stats[1:3] + stats[6:7], dense[1:3] + dense[6:7]):
        np.testing.assert_allclose(g, wnt, rtol=1e-10, atol=0)


def _model(family, transforms, tied=True, K=0, seed=0):
    """A model of `family` on `transforms`, with one sensor variance when
    `tied`, and frames for it."""
    rng = np.random.default_rng(seed)
    shape, L, n, C = transforms.shape, transforms.L, transforms.shape.n, 2
    mu, phi = rng.uniform(0.2, 0.8, (C, n)), rng.uniform(0.05, 0.1, (C, n))
    psi = np.full(n, 0.04) if tied else rng.uniform(0.02, 0.06, n)
    X = rng.uniform(0.0, 1.0, (6, n))
    rho = rng.dirichlet(np.ones(L), size=C).T
    if family is thmm:
        model = thmm.ThmmModel(shape=shape, transforms=transforms, mu=mu, phi=phi,
                               psi=psi, pi_s=np.full((C, L), 1 / (C * L)),
                               class_trans=np.array([[0.8, 0.2], [0.3, 0.7]]),
                               motion=thmm.uniform_motion(1.0))
        return model, X
    if K:
        return mtca.MtcaModel(shape=shape, transforms=transforms, pi=np.full(C, 0.5),
                              mu=mu, loadings=rng.uniform(-0.1, 0.1, (C, n, K)),
                              phi=phi, rho=rho, psi=psi), X
    return tmg.TmgModel(shape=shape, transforms=transforms, pi=np.full(C, 0.5), mu=mu,
                        phi=phi, rho=rho, psi=psi), X


def _run(family, model, X):
    family.em_step(model, X, EmOptions(tie_psi=True))
    if family is thmm:
        thmm.emission_table(model, X)
    else:
        family.loglik(model, X)
        family.posterior(model, X[0]).resp


@pytest.mark.parametrize("family", [tmg, thmm], ids=["tmg", "thmm"])
def test_tied_full_grid_above_the_crossover_never_runs_the_dense_kernels(
        family, monkeypatch):
    side = FFT_SIDE
    ts = build_translation_set(ImageShape(side, side), side, side, "wrap")
    assert ts.wrap_rows is not None
    model, X = _model(family, ts)
    _forbid(monkeypatch, common, "_block_stats")
    _forbid(monkeypatch, tca, "_observed")
    _run(family, model, X)


@pytest.mark.parametrize("case", ["untied", "factors", "zero-boundary", "below"])
def test_other_models_never_run_the_fft_kernels(case, monkeypatch):
    side = FFT_SIDE - 2 if case == "below" else FFT_SIDE
    boundary = "zero" if case == "zero-boundary" else "wrap"
    ts = build_translation_set(ImageShape(side, side), side, side, boundary)
    model, X = _model(mtca if case == "factors" else tmg, ts, tied=case != "untied",
                      K=1 if case == "factors" else 0)
    _forbid(monkeypatch, common, "_fft_stats")
    _forbid(monkeypatch, tca, "_fft_loglik")
    _run(mtca if case == "factors" else tmg, model, X)



def test_posterior_resp_on_a_large_tied_grid_holds_no_op_by_pixel_block():
    """At 31 x 31 the responsibilities of one frame peak below one (L, n)
    float64 block, the set's first wrap-grid check included."""
    side = 31
    ts = build_translation_set(ImageShape(side, side), side, side, "wrap")
    model, X = _model(tmg, ts)
    block = ts.L * ts.shape.n * 8
    tracemalloc.start()
    try:
        tmg.posterior(model, X[0]).resp
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < block
