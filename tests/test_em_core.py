"""The EM core shared by every family: cluster rescue and the psi tail."""

import numpy as np
import pytest

from transmix import EmOptions, ImageShape, build_translation_set
from transmix import mtca, tca, thmm, tmg

SHAPE = ImageShape(3, 3)
C, FAR = 3, 2


def _two_image_data():
    """Two distinct images, each repeated with tiny noise."""
    rng = np.random.default_rng(0)
    a = np.zeros(SHAPE.n)
    a[[1, 4, 7]] = 1.0
    b = np.zeros(SHAPE.n)
    b[[3, 4, 5]] = 1.0
    X = np.repeat(np.stack([a, b]), 10, axis=0)
    return X + 0.01 * rng.standard_normal(X.shape), np.stack([a, b])


def _starving_model(family, templates):
    """Clusters 0 and 1 sit on the two images with tight variances;
    cluster FAR sits far from every datum."""
    ts = build_translation_set(SHAPE, 3, 3, "wrap")
    mu = np.vstack([templates, np.full(SHAPE.n, 1e3)])
    phi = np.full((C, SHAPE.n), 1e-3)
    psi = np.full(SHAPE.n, 1e-3)
    if family is tmg:
        return tmg.TmgModel(shape=SHAPE, transforms=ts, pi=np.full(C, 1 / C),
                            mu=mu, phi=phi, rho=np.full((ts.L, C), 1 / ts.L), psi=psi)
    if family is mtca:
        return mtca.MtcaModel(shape=SHAPE, transforms=ts, pi=np.full(C, 1 / C),
                              mu=mu, loadings=np.full((C, SHAPE.n, 1), 1e-2),
                              phi=phi, rho=np.full((ts.L, C), 1 / ts.L), psi=psi)
    return thmm.ThmmModel(shape=SHAPE, transforms=ts, mu=mu, phi=phi, psi=psi,
                          pi_s=np.full((C, ts.L), 1 / (C * ts.L)),
                          class_trans=np.full((C, C), 1 / C),
                          motion=thmm.uniform_motion(1.0, per_class=True, n_classes=C))


def _prior_of(model, c):
    return model.pi_s[c].sum() if isinstance(model, thmm.ThmmModel) else model.pi[c]


@pytest.mark.parametrize("family", [tmg, mtca, thmm], ids=["tmg", "mtca", "thmm"])
def test_rescue_reseeds_resets_prior_and_keeps_fitting(family):
    X, templates = _two_image_data()
    model = _starving_model(family, templates)
    new, _ = family.em_step(model, X)
    # reseeded from a datum, with a uniform prior share before renormalising
    assert np.min(np.abs(new.mu[FAR] - X).max(axis=1)) < 0.1
    assert _prior_of(new, FAR) == pytest.approx(1 / (C + 1), rel=1e-9)

    # the reseeded cluster (broad variance) loses every datum to the tight
    # ones, so it is rescued on every iteration; with a tolerance any
    # change satisfies, only the rescue keeps `fit` running
    _, reports = family.fit(model, X, 3, tol=1e9)
    assert [r.rescued for r in reports] == [(FAR,)] * 3
    assert all(r.cluster_mass[FAR] < 1e-6 * X.shape[0] for r in reports)


def test_tca_tie_psi_ties_then_floors():
    rng = np.random.default_rng(4)
    ts = build_translation_set(SHAPE, 3, 3, "wrap")
    X = rng.standard_normal((30, SHAPE.n)) * np.linspace(0.1, 2.0, SHAPE.n)
    model = tca.init_tca(ts, 1, X, seed=1)
    raw = tca.em_step(model, X, EmOptions(floor=1e-300))[0].psi
    floor = float(np.median(raw))
    tied = tca.em_step(model, X, EmOptions(tie_psi=True, floor=floor))[0].psi
    np.testing.assert_allclose(tied, max(raw.mean(), floor), rtol=1e-12)
