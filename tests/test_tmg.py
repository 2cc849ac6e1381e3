import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from transmix import EmOptions, ImageShape, TransformationSet, UnderflowError
from transmix import apply, build_translation_set, identity_set, shift_op
from transmix.tmg import (TmgModel, cond_loglik, em_step, fit, init_tmg,
                          loglik, posterior, sample)

from oracles import tmg_cond_dense, tmg_loglik_dense, tmg_resp_quadrature


def small_set(shape, offsets, boundary="wrap"):
    rows = [shift_op(shape, di, dj, boundary).source_index for di, dj in offsets]
    return TransformationSet(np.stack(rows), shape, boundary,
                             params=tuple((float(a), float(b)) for a, b in offsets))


def random_tmg(seed, shape=ImageShape(2, 2), offsets=((0, 0), (0, 1)), C=2,
               boundary="wrap", psi_scale=1.0):
    rng = np.random.default_rng(seed)
    ts = small_set(shape, offsets, boundary)
    n, L = shape.n, len(offsets)
    pi = rng.dirichlet(np.ones(C) * 5)
    rho = rng.dirichlet(np.ones(L) * 5, size=C).T
    return TmgModel(transforms=ts, pi=pi,
                    mu=rng.uniform(-1, 1, (C, n)),
                    phi=rng.uniform(0.3, 1.5, (C, n)),
                    rho=rho,
                    psi=psi_scale * rng.uniform(0.3, 1.0, n))


def test_cond_loglik_matches_dense_oracle():
    for seed in range(20):
        model = random_tmg(seed, boundary="wrap" if seed % 2 else "zero",
                           offsets=((0, 0), (1, 0), (0, -1)))
        x = np.random.default_rng(100 + seed).uniform(-2, 2, model.n)
        for l in range(model.L):
            for c in range(model.C):
                assert cond_loglik(model, x, l, c) == pytest.approx(
                    tmg_cond_dense(model, x, l, c), abs=1e-9)


def test_cond_loglik_mode():
    shape = ImageShape(2, 2)
    ts = identity_set(shape)
    floor = 1e-4
    model = TmgModel(transforms=ts, pi=np.ones(1),
                     mu=np.array([[0.2, 0.4, 0.6, 0.8]]),
                     phi=np.full((1, 4), floor),
                     rho=np.ones((1, 1)), psi=np.full(4, 0.3))
    peak = cond_loglik(model, model.mu[0], 0, 0)
    assert peak == pytest.approx(-0.5 * np.sum(np.log(2 * np.pi * (floor + model.psi))))
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert cond_loglik(model, rng.uniform(-1, 2, 4), 0, 0) <= peak


def test_identity_single_op_is_mixture_of_gaussians():
    model = random_tmg(3, offsets=((0, 0),), C=2)
    rng = np.random.default_rng(9)
    for _ in range(10):
        x = rng.uniform(-2, 2, model.n)
        ref = logsumexp([np.log(model.pi[c]) + multivariate_normal(
            mean=model.mu[c], cov=np.diag(model.phi[c] + model.psi)).logpdf(x)
            for c in range(model.C)])
        assert loglik(model, x[None])[0] == pytest.approx(float(ref), abs=1e-10)


def test_posterior_single_state():
    model = random_tmg(4, offsets=((0, 0),), C=1)
    post = posterior(model, np.zeros(model.n))
    assert post.resp.shape == (1, 1)
    assert post.resp[0, 0] == pytest.approx(1.0)


def test_posterior_argmax_recovers_construction():
    shape = ImageShape(3, 3)
    ts = build_translation_set(shape, 3, 3)
    # shapes must not be shift-equivalent, or (l, c) is unidentifiable
    mu = np.zeros((2, 9))
    mu[0, 4] = 1.0              # single lit pixel
    mu[1, [0, 5]] = 1.0, 0.7    # asymmetric two-pixel pattern
    model = TmgModel(transforms=ts, pi=np.array([0.5, 0.5]),
                     mu=mu, phi=np.full((2, 9), 1e-4),
                     rho=np.full((9, 2), 1.0 / 9),
                     psi=np.full(9, 1e-4))
    for l_star in range(9):
        for c_star in range(2):
            x = apply(ts[l_star], mu[c_star])
            post = posterior(model, x)
            l_hat, c_hat = np.unravel_index(np.argmax(post.resp), post.resp.shape)
            assert (l_hat, c_hat) == (l_star, c_star)


def test_posterior_matches_quadrature():
    model = random_tmg(6)
    x = np.random.default_rng(7).uniform(-1, 1, model.n)
    post = posterior(model, x)
    ref = tmg_resp_quadrature(model, x, z_lo=-14.0, z_hi=14.0, points=561)
    assert np.allclose(post.resp, ref, atol=1e-6)
    assert post.resp.sum() == pytest.approx(1.0, abs=1e-12)
    assert loglik(model, x[None])[0] == pytest.approx(tmg_loglik_dense(model, x), abs=1e-8)


def test_posterior_zero_pad_matches_quadrature():
    model = random_tmg(8, offsets=((0, 0), (1, 1)), boundary="zero")
    x = np.random.default_rng(11).uniform(-1, 1, model.n)
    post = posterior(model, x)
    ref = tmg_resp_quadrature(model, x, z_lo=-14.0, z_hi=14.0, points=561)
    assert np.allclose(post.resp, ref, atol=1e-6)


def test_posterior_resp_builds_no_moment_array():
    """Reading only the responsibilities allocates less than one (L, C, n)
    array: the latent moments are not built, and the emission kernel's
    (L, n) tables stay few."""
    shape = ImageShape(15, 15)
    ts = build_translation_set(shape, 15, 15)
    X = np.random.default_rng(12).uniform(0, 1, (8, shape.n))
    model = init_tmg(ts, 4, X, seed=1)
    posterior(model, X[0]).resp    # builds the set's cached index tables
    tracemalloc.start()
    try:
        posterior(model, X[1]).resp
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.L * model.C * model.n * np.dtype(np.float64).itemsize


def test_em_monotone_on_model_data():
    gen = random_tmg(12, shape=ImageShape(3, 3),
                     offsets=((0, 0), (0, 1), (1, 0)), C=2)
    X = sample(gen, seed=1, size=40)
    model = init_tmg(gen.transforms, 2, X, seed=2)
    previous = -np.inf
    for _ in range(50):
        model, total = em_step(model, X)
        assert total >= previous - 1e-9 * abs(previous)
        previous = total


def test_em_single_datum_mean_converges():
    shape = ImageShape(2, 2)
    ts = identity_set(shape)
    x = np.array([[0.1, 0.9, -0.4, 0.3]])
    model = TmgModel(transforms=ts, pi=np.ones(1),
                     mu=np.zeros((1, 4)), phi=np.full((1, 4), 1.0),
                     rho=np.ones((1, 1)), psi=np.full(4, 1.0))
    opts = EmOptions(floor=1e-9)
    for _ in range(200):
        model, _ = em_step(model, x, opts)
    assert np.allclose(model.mu[0], x[0], atol=1e-3)


def test_em_recovers_shifted_template():
    rng = np.random.default_rng(42)
    shape = ImageShape(5, 5)
    template = np.zeros((5, 5))
    template[1:4, 1] = 1.0
    template[3, 1:4] = 1.0
    template = template.reshape(-1)
    ts = build_translation_set(shape, 3, 3)
    sigma = 0.05
    T = 30
    shifts = rng.integers(-1, 2, size=(T, 2))
    X = np.stack([apply(ts[ts.grid_index(di, dj)], template)
                  for di, dj in shifts])
    X = X + sigma * rng.standard_normal(X.shape)
    model = init_tmg(ts, 1, X, seed=0, init="mean")
    model, _ = fit(model, X, 30, tol=0.0)
    # registration gauge: compare against the best-aligned template
    mae = min(np.abs(model.mu[0] - apply(op, template)).mean() for op in ts)
    assert mae <= 2 * sigma / np.sqrt(T)


def test_em_options_freeze_and_tie():
    model = random_tmg(13, shape=ImageShape(3, 3), offsets=((0, 0), (0, 1)))
    X = sample(model, seed=3, size=25)
    new, _ = em_step(model, X, EmOptions(freeze_rho=True, tie_psi=True))
    assert np.array_equal(new.rho, model.rho)
    assert np.allclose(new.psi, new.psi[0])


def test_em_rescues_starved_cluster():
    shape = ImageShape(2, 2)
    ts = identity_set(shape)
    X = np.random.default_rng(0).normal(0.0, 0.1, (20, 4))
    # cluster 1 sits impossibly far away with minuscule prior mass
    model = TmgModel(transforms=ts, pi=np.array([1 - 1e-12, 1e-12]),
                     mu=np.stack([np.zeros(4), np.full(4, 500.0)]),
                     phi=np.full((2, 4), 1e-4), rho=np.ones((1, 2)),
                     psi=np.full(4, 1e-4))
    new, _ = em_step(model, X)
    assert np.abs(new.mu[1]).max() < 10.0  # reseeded from a datum
    assert new.pi[1] > 1e-6


def test_underflow_raises():
    model = random_tmg(14)
    with pytest.raises(UnderflowError):
        posterior(model, np.full(model.n, 1e200))


def test_fit_equivariant_under_wrap_permutation():
    shape = ImageShape(4, 4)
    ts = build_translation_set(shape, 3, 3)
    sigma_op = shift_op(shape, 1, 2, "wrap")
    rng = np.random.default_rng(21)
    X = rng.uniform(0, 1, (10, 16))
    Xp = apply(sigma_op, X)
    opts = EmOptions(freeze_rho=True)

    def train(data):
        model = init_tmg(ts, 1, data, seed=5, mean_noise=0.0)
        model, _ = fit(model, data, 5, opts, tol=0.0)
        return model

    a, b = train(X), train(Xp)
    assert np.allclose(apply(sigma_op, a.mu[0]), b.mu[0], atol=1e-6)


def test_sampling_statistics_and_determinism():
    model = random_tmg(15, shape=ImageShape(2, 2), offsets=((0, 0), (1, 0)), C=1)
    assert np.array_equal(sample(model, seed=7), sample(model, seed=7))

    draws = sample(model, seed=8, size=10_000)
    mean_true = sum(model.rho[l, 0] * apply(model.transforms[l], model.mu[0])
                    for l in range(model.L))
    var_x = sum(model.rho[l, 0] * (apply(model.transforms[l], model.phi[0]
                                         + model.mu[0] ** 2)
                                   + model.psi)
                for l in range(model.L)) - mean_true ** 2
    stderr = np.sqrt(var_x / draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0) - mean_true) <= 3 * stderr)

    floor = 1e-8
    near_det = TmgModel(transforms=identity_set(model.shape),
                        pi=np.ones(1), mu=model.mu[:1],
                        phi=np.full((1, 4), floor), rho=np.ones((1, 1)),
                        psi=np.full(4, floor))
    x = sample(near_det, seed=9)
    assert np.all(np.abs(x - near_det.mu[0]) <= 5 * np.sqrt(floor) * 2)
