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
    assert table.transpose(0, 2, 1).flags.c_contiguous      # (T, C, L) in memory
    for c in range(3):
        alone = tca._fft_loglik(ts.shape, ts.wrap_rows, mu[c:c + 1], v[c:c + 1], Xc, Xc * Xc)
        assert np.array_equal(table[:, :, c], alone[:, :, 0])


@pytest.mark.parametrize("C", [1, 3])
@pytest.mark.parametrize("T", [1, 5])
@pytest.mark.parametrize("path", ["dense", "fft"])
def test_every_emission_path_returns_t_c_l_memory_that_readers_keep(path, T, C, monkeypatch):
    """Either kernel's table is (T, C, L) in memory, and
    `thmm.emission_table` returns that very table, not a copy."""
    monkeypatch.setattr(common, "FFT_MIN_PIXELS", 0 if path == "fft" else 10 ** 9)
    _forbid(monkeypatch, tca, "_observed" if path == "fft" else "_fft_loglik")
    ts = build_translation_set(ImageShape(5, 3), 5, 3, "wrap")
    mu, phi, psi, X, _ = _stacked(ts, seed=31, C=C, T=T)
    table = tca.cluster_loglik(ts, mu, np.zeros((C, ts.shape.n, 0)), phi, psi, X)
    assert table.transpose(0, 2, 1).flags.c_contiguous
    tables = []
    kernel = tca.cluster_loglik

    def spy(*args, **kwargs):
        tables.append(kernel(*args, **kwargs))
        return tables[-1]

    monkeypatch.setattr(tca, "cluster_loglik", spy)
    model = thmm.ThmmModel(transforms=ts, mu=mu, phi=phi, psi=psi,
                           pi_s=np.full((C, ts.L), 1 / (C * ts.L)),
                           class_trans=np.full((C, C), 1 / C), motion=thmm.uniform_motion(1.0))
    emission = thmm.emission_table(model, X)
    assert len(tables) == 1 and np.shares_memory(emission, tables[0])
    assert np.array_equal(emission, table.transpose(0, 2, 1))


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
    model = tmg.TmgModel(transforms=ts, pi=np.array([0.3, 0.7]),
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
        model = thmm.ThmmModel(transforms=transforms, mu=mu, phi=phi,
                               psi=psi, pi_s=np.full((C, L), 1 / (C * L)),
                               class_trans=np.array([[0.8, 0.2], [0.3, 0.7]]),
                               motion=thmm.uniform_motion(1.0))
        return model, X
    if K:
        return mtca.MtcaModel(transforms=transforms, pi=np.full(C, 0.5),
                              mu=mu, loadings=rng.uniform(-0.1, 0.1, (C, n, K)),
                              phi=phi, rho=rho, psi=psi), X
    return tmg.TmgModel(transforms=transforms, pi=np.full(C, 0.5), mu=mu,
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



def test_psi_rows_take_the_fft_path_only_when_every_entry_is_one_value(monkeypatch):
    """One sensor-noise row per cluster, as `classify_batch` stacks them:
    rows that all hold one value keep the FFT path, with the bits of a
    shared psi; rows of two values take the dense kernel and agree with
    one-cluster FFT calls to 1e-12 of the table's scale."""
    side = FFT_SIDE
    ts = build_translation_set(ImageShape(side, side), side, side, "wrap")
    rng = np.random.default_rng(70)
    C, n = 3, ts.shape.n
    mu, phi = rng.uniform(0.2, 0.8, (C, n)), rng.uniform(0.05, 0.1, (C, n))
    no_factors, X = np.zeros((C, n, 0)), rng.uniform(0.0, 1.0, (4, n))
    with monkeypatch.context() as patch:
        _forbid(patch, tca, "_observed")
        rows = tca.cluster_loglik(ts, mu, no_factors, phi, np.full((C, n), 0.04), X)
        assert np.array_equal(rows, tca.cluster_loglik(ts, mu, no_factors, phi,
                                                       np.full(n, 0.04), X))
    psi = np.repeat([[0.04], [0.04], [0.05]], n, axis=1)
    with monkeypatch.context() as patch:
        _forbid(patch, tca, "_fft_loglik")
        dense = tca.cluster_loglik(ts, mu, no_factors, phi, psi, X)
    for c in range(C):
        one = slice(c, c + 1)
        alone = tca.cluster_loglik(ts, mu[one], no_factors[one], phi[one], psi[c], X)
        np.testing.assert_allclose(dense[:, :, c], alone[:, :, 0], rtol=0,
                                   atol=1e-12 * np.abs(dense).max())


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


def _peak(call):
    """Peak traced memory of `call()` in bytes, after one untraced call has
    filled numpy's FFT plan caches."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_fft_kernels_write_their_work_in_place():
    """At 23 x 23, T = 32, C = 4 and tied psi, in sizes of the (T, L, C)
    table: the emission peaks at 3.76 (the table's memory, one block of
    spectra, the centred frames, and the 0.25 MB of iterator buffers that
    numpy takes for a broadcast (T, 1) x (C,) spectra product, whatever
    its size), the statistics at 2.84.  The chains of fresh temporaries they replaced
    peaked at 5.34 and 4.14."""
    side, T, C = 23, 32, 4
    ts = build_translation_set(ImageShape(side, side), side, side, "wrap")
    mu, phi, psi, X, W = _stacked(ts, seed=4, C=C, T=T)
    no_factors = np.zeros((C, ts.shape.n, 0))
    table = T * ts.L * C * 8
    assert _peak(lambda: tca.cluster_loglik(ts, mu, no_factors, phi, psi, X)) < 4.0 * table
    assert _peak(lambda: gaussian_template_stats(
        ts, mu, no_factors, phi, psi, X, W)) < 3.25 * table


def _holds_no_table(ts):
    return not any(name in vars(ts) for name in ("source_matrix", "dest_matrix"))


def test_a_63x63_wrap_grid_trains_in_bounded_memory_without_its_tables():
    """The grid holds its (L,) rows, not three (L, n) tables of 126 MB
    each, and one tied-psi EM step on it stays under 100 MB."""
    side = 63
    tracemalloc.start()
    try:
        ts = build_translation_set(ImageShape(side, side), side, side, "wrap")
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    model, X = _model(tmg, ts, seed=3)
    X = X[:3]
    tracemalloc.start()
    try:
        tmg.em_step(model, X, EmOptions(tie_psi=True))
        assert tracemalloc.get_traced_memory()[1] < 100e6
    finally:
        tracemalloc.stop()
    assert _holds_no_table(ts)


def test_the_fft_path_reads_no_table():
    ts = build_translation_set(ImageShape(FFT_SIDE, FFT_SIDE), FFT_SIDE, FFT_SIDE, "wrap")
    model, X = _model(tmg, ts)
    tmg.loglik(model, X)
    tmg.posterior(model, X[0]).resp
    assert _holds_no_table(ts) and ts.wrap_rows is not None
