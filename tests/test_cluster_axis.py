"""The Gaussian kernels take a model's whole cluster axis: each cluster's
column is bit for bit what the kernel gives that cluster on its own, and the
frames are prepared once per call, not once per cluster."""

import numpy as np
import pytest

from transmix import ImageShape, build_translation_set, transforms
from transmix import common, mtca, tca, thmm, tmg
from transmix.common import (EmOptions, _factor_posterior, _observed,
                             gaussian_template_stats)

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
def test_each_cluster_is_its_own_one_cluster_result(name, K):
    ts = SETS[name]()
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
    """One cluster's dense emission column with a fresh array for every
    intermediate: the reference for the kernel's reused work blocks."""
    shift = X.mean()
    X = X - shift
    mean, var, rows = _observed(ts.padded_source, mu, loadings, phi, psi)
    mean = mean - shift
    const = -0.5 * (np.log(var).sum(axis=1) + ts.shape.n * np.log(2.0 * np.pi))
    inv = 1.0 / var
    quad = (X * X) @ inv.T - 2.0 * (X @ (mean * inv).T)
    quad += (mean * mean * inv).sum(axis=1)
    out = const[None, :] - 0.5 * quad
    if rows.shape[-1]:
        M, _, proj, y_mean = _factor_posterior(mean, var, rows, X)
        out += 0.5 * ((proj * y_mean).sum(axis=-1) - np.linalg.slogdet(M)[1])
    return out


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
    for c in range(mu.shape[0]):
        want = _dense_reference(ts, mu[c], loadings[c], phi[c], psi, X)
        assert np.array_equal(table[:, :, c], want)


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
