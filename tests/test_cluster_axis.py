"""The Gaussian kernels take a model's whole cluster axis: each cluster's
column is bit for bit what the kernel gives that cluster on its own (for the
dense emission, when each cluster's rows fill a block of their own: BLAS
rounds a stacked product by its shape), and the frames are prepared once per
call, not once per cluster."""

import tracemalloc

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from transmix import ImageShape, build_translation_set, transforms
from transmix import common, mtca, tca, thmm, tmg
from transmix.common import (EmOptions, _factor_posterior, _observed,
                             gaussian_template_stats)

from oracles import dense_matrix

SETS = {
    "zero-pad": lambda: build_translation_set(ImageShape(6, 7), 3, 5, "zero"),
    # one sensor variance on a full wrap grid at the crossover: the FFT path
    "wrap-15x15": lambda: build_translation_set(ImageShape(15, 15), 15, 15, "wrap"),
}


def _arrays(ts, C=3, K=0, seed=0):
    """(mu, loadings, phi, psi, rho, X, W) for C clusters on `ts`, with
    one sensor variance and weights W (T, L, C)."""
    rng = np.random.default_rng(seed)
    n, L, T = ts.shape.n, ts.L, 6
    W = rng.dirichlet(np.ones(L * C), size=T).reshape(T, L, C)
    return (rng.uniform(0.2, 0.8, (C, n)), rng.uniform(-0.1, 0.1, (C, n, K)),
            rng.uniform(0.05, 0.1, (C, n)), np.full(n, 0.04),
            rng.dirichlet(np.ones(L), size=C).T, rng.uniform(0.0, 1.0, (T, n)), W)


def _model(ts, arrays, keep=slice(None)):
    """A TMG (K = 0) or an MTCA over the clusters `keep` of `arrays`."""
    mu, loadings, phi, psi, rho = arrays[:5]
    C = mu[keep].shape[0]
    fields = dict(transforms=ts, pi=np.full(C, 1 / C), mu=mu[keep],
                  phi=phi[keep], rho=rho[:, keep], psi=psi)
    if loadings.shape[-1]:
        return mtca.MtcaModel(loadings=loadings[keep], **fields)
    return tmg.TmgModel(**fields)


def _thmm(ts, arrays, keep=slice(None)):
    mu, _, phi, psi = arrays[:4]
    C, L = mu[keep].shape[0], ts.L
    return thmm.ThmmModel(transforms=ts, mu=mu[keep], phi=phi[keep],
                          psi=psi, pi_s=np.full((C, L), 1 / (C * L)),
                          class_trans=np.full((C, C), 1 / C),
                          motion=thmm.uniform_motion(1.0))


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("K", [0, 2])
def test_each_cluster_is_its_own_one_cluster_result(name, K, monkeypatch):
    ts = SETS[name]()
    monkeypatch.setattr(tca, "_block_rows", lambda count, L, *sizes: L)
    arrays = _arrays(ts, K=K)
    mu, loadings, phi, psi, _, X, W = arrays
    family = mtca if K else tmg
    table = family.loglik_table(_model(ts, arrays), X)
    stats = gaussian_template_stats(ts, mu, loadings, phi, psi, X, W)
    emission = thmm.emission_table(_thmm(ts, arrays), X) if not K else None
    for c in range(mu.shape[0]):
        one = slice(c, c + 1)
        alone = family.loglik_table(_model(ts, arrays, one), X)
        assert np.array_equal(table[:, :, c], alone[:, :, 0])
        single = gaussian_template_stats(ts, mu[one], loadings[one], phi[one], psi, X,
                                         W[:, :, one])
        assert stats[7] == single[7]
        for s, s_one in zip(stats[:7], single[:7]):
            assert np.array_equal(s[c], s_one[0])
        if emission is not None:
            alone = thmm.emission_table(_thmm(ts, arrays, one), X)
            assert np.array_equal(emission[:, c], alone[:, 0])


def _dense_reference(ts, mu, loadings, phi, psi, X):
    """The dense emission table with a fresh array for every intermediate,
    over the kernel's stacked (cluster, op) rows in the kernel's row blocks:
    the reference for its reused work blocks."""
    shift = X.mean()
    X = X - shift
    (C, n, k), L = loadings.shape, ts.L
    cluster, op = np.divmod(np.arange(C * L), L)
    index = ts.source_matrix[op] + (cluster * (n + 1))[:, None]
    size = tca._block_rows(C * L, L, n, k, len(X))
    blocks = []
    for lo in range(0, C * L, size):
        at = slice(lo, lo + size)
        mean, var, rows = _observed(index[at], mu, loadings, phi, psi)
        mean = mean - shift
        const = (np.log(var).sum(axis=1) + np.vecdot(mean, mean / var)
                 + n * np.log(2.0 * np.pi))
        weights = np.concatenate([-0.5 / var, mean / var, -0.5 * const[:, None]], axis=1)
        out = np.concatenate([X * X, X, np.ones((len(X), 1))], axis=1) @ weights.T
        if k:
            logdet, woodbury, _ = _factor_posterior(mean, var, rows, X)
            out += (0.5 * (woodbury - logdet[:, None])).T
        blocks.append(out)
    return np.concatenate(blocks, axis=1).reshape(len(X), C, L).transpose(0, 2, 1)


DENSE_SETS = {
    "zero-pad": SETS["zero-pad"],
    "shear": lambda: transforms.build_shear_translation_set(ImageShape(8, 8),
                                                             boundary="zero"),
    # a full wrap grid, but untied psi keeps it off the FFT path
    "wrap-15x15": SETS["wrap-15x15"],
}


@pytest.mark.parametrize("name", sorted(DENSE_SETS))
@pytest.mark.parametrize("K", [0, 2])
def test_dense_columns_have_the_bits_of_the_out_of_place_kernel(name, K):
    ts = DENSE_SETS[name]()
    mu, loadings, phi, _, _, X, _ = _arrays(ts, K=K)
    psi = np.random.default_rng(1).uniform(0.02, 0.06, ts.shape.n)
    table = tca.cluster_loglik(ts, mu, loadings, phi, psi, X)
    assert np.array_equal(table, _dense_reference(ts, mu, loadings, phi, psi, X))


def _count(monkeypatch, module, name, counts, where=(), test=None):
    """Count the calls of `module.name` in `counts[name]`, patched in the
    modules `where` as well; with `test`, only the calls it accepts."""
    real = getattr(module, name)

    def spy(*args, **kwargs):
        counts[name] = counts.get(name, 0) + (test is None or test(*args))
        return real(*args, **kwargs)

    for m in (module, *where):
        monkeypatch.setattr(m, name, spy)


@pytest.mark.parametrize("C", [1, 3])
def test_the_frames_are_transformed_once_per_call(C, monkeypatch):
    ts = SETS["wrap-15x15"]()
    arrays = _arrays(ts, C=C)
    mu, loadings, phi, psi, _, X, W = arrays
    centred = X - X.mean()
    counts = {}
    _count(monkeypatch, common, "_spectra", counts, where=[tca], test=lambda shape, *
           images: any(a.shape == centred.shape and np.array_equal(a, centred)
                       for a in images))
    tmg.loglik_table(_model(ts, arrays), X)
    assert counts.pop("_spectra") == 1
    gaussian_template_stats(ts, mu, loadings, phi, psi, X, W)
    assert counts.pop("_spectra") == 1


def test_one_kernel_call_per_table_and_per_em_step(monkeypatch):
    ts = SETS["zero-pad"]()
    counts = {}
    _count(monkeypatch, tca, "cluster_loglik", counts)
    _count(monkeypatch, mtca, "gaussian_template_stats", counts)
    for K in (0, 2):
        arrays = _arrays(ts, K=K)
        X, model = arrays[5], _model(ts, arrays)
        mtca.loglik_table(model.as_mtca(), X)
        assert counts.pop("cluster_loglik") == 1
        (mtca if K else tmg).em_step(model, X, EmOptions())
        assert counts.pop("cluster_loglik") == 1
        assert counts.pop("gaussian_template_stats") == 1
    model = _thmm(ts, arrays)
    thmm.emission_table(model, X)
    assert counts.pop("cluster_loglik") == 1
    thmm.em_step(model, [X], EmOptions())
    assert counts.pop("gaussian_template_stats") == 1


STACKED = [pytest.param(name, block, C, K, shared, id=f"{name}-{block}-C{C}-K{K}-{shared}")
           for name, block in [("zero-pad", "default"), ("zero-pad", "split"),
                               ("shear", "default"), ("shear", "split"),
                               # 225 pixels a row: its blocks end inside clusters
                               ("wrap-15x15", "default")]
           for C in (1, 4) for K in (0, 1, 3) for shared in ("shared-psi", "psi-rows")]


@pytest.mark.parametrize("name, block, C, K, shared", STACKED)
def test_stacked_emission_matches_one_cluster_calls_and_the_dense_oracle(
        name, block, C, K, shared, monkeypatch):
    """All clusters' (cluster, op) rows in one call agree with one-cluster
    calls and with dense Gaussians to 1e-12 of the table's scale, over
    shared or per-cluster sensor noise (on the void-free wrap set, cluster
    0's row is 0, as under the fast likelihood) and row blocks that end
    inside a cluster."""
    ts = DENSE_SETS[name]()
    mu, loadings, phi, _, _, X, _ = _arrays(ts, C=C, K=K, seed=C + 10 * K)
    n, L = ts.shape.n, ts.L
    rng = np.random.default_rng(5)
    psi = rng.uniform(0.02, 0.06, n if shared == "shared-psi" else (C, n))
    if shared == "psi-rows" and not ts.has_void:
        psi[0] = 0.0
    if block == "split":
        monkeypatch.setattr(tca, "_EMISSION_BLOCK", 7 * (n + K * len(X)))
    size = tca._block_rows(C * L, L, n, K, len(X))
    assert size < L if block == "split" or name.startswith("wrap") else size == C * L
    table = tca.cluster_loglik(ts, mu, loadings, phi, psi, X)
    assert table.shape == (len(X), L, C)
    scale = 1e-12 * np.abs(table).max()
    for c in range(C):
        one = slice(c, c + 1)
        alone = tca.cluster_loglik(ts, mu[one], loadings[one], phi[one],
                                   psi if psi.ndim == 1 else psi[c], X)
        np.testing.assert_allclose(table[:, :, c], alone[:, :, 0], rtol=0, atol=scale)
        noise = np.diag(psi if psi.ndim == 1 else psi[c])
        for l in (0, L // 2, L - 1):
            g = dense_matrix(ts[l])
            cov = g @ (loadings[c] @ loadings[c].T + np.diag(phi[c])) @ g.T + noise
            want = multivariate_normal(mean=g @ mu[c], cov=cov).logpdf(X)
            np.testing.assert_allclose(table[:, l, c], want, rtol=0, atol=scale)


def _emission_peak(model, X):
    """Traced peak of one `thmm.emission_table` call, in sizes of its
    (T, C, L) table."""
    model.transforms.source_matrix     # a lazy grid builds its tables now
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = thmm.emission_table(model, X)
        return (tracemalloc.get_traced_memory()[1] - base) / table.nbytes
    finally:
        tracemalloc.stop()


def test_pacman_size_emission_holds_bounded_row_blocks(monkeypatch):
    """At pac-man's sizes (11x11 wrap grid, C = 6, T = 100, untied psi) one
    emission call's traced peak stays at most 2.6 tables, the peak of the
    per-cluster kernel it replaced (2.60, with its transposing copy); one
    block over every cluster's rows would hold 6.3."""
    ts = build_translation_set(ImageShape(11, 11), 11, 11, "wrap")
    rng = np.random.default_rng(7)
    C, n = 6, ts.shape.n
    model = thmm.ThmmModel(transforms=ts, mu=rng.uniform(0.0, 1.0, (C, n)),
                           phi=rng.uniform(0.05, 0.1, (C, n)), psi=rng.uniform(0.02, 0.06, n),
                           pi_s=np.full((C, ts.L), 1 / (C * ts.L)),
                           class_trans=np.full((C, C), 1 / C), motion=thmm.uniform_motion(3.0))
    X = rng.uniform(0.0, 1.0, (100, n))
    assert _emission_peak(model, X) <= 2.6
    monkeypatch.setattr(tca, "_EMISSION_BLOCK", 10 ** 7)
    assert _emission_peak(model, X) > 2.6
