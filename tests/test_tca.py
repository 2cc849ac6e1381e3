from dataclasses import replace

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from transmix import EmOptions, ImageShape, TransformationSet
from transmix import apply, build_shear_translation_set, build_translation_set, identity_set, shift_op
from transmix.tca import (TcaModel, cond_loglik, em_step, fit, init_tca,
                          loglik, posterior, sample, tangent_columns)
from transmix import mtca as mtca_mod
from transmix import tmg as tmg_mod

from oracles import (joint_zy_conditioning, dense_matrix, principal_angle_deg,
                     tca_cond_dense, tca_loglik_dense)


def small_set(shape, offsets, boundary="wrap"):
    rows = [shift_op(shape, di, dj, boundary).source_index for di, dj in offsets]
    return TransformationSet(np.stack(rows), shape, boundary,
                             params=tuple((float(a), float(b)) for a, b in offsets))


def random_tca(seed, shape=ImageShape(2, 2), offsets=((0, 0), (0, 1)), K=1,
               boundary="wrap", fast=False, psi_scale=1.0):
    rng = np.random.default_rng(seed)
    ts = small_set(shape, offsets, boundary)
    n, L = shape.n, len(offsets)
    return TcaModel(transforms=ts,
                    mu=rng.uniform(-1, 1, n),
                    loadings=rng.uniform(-1, 1, (n, K)),
                    phi=rng.uniform(0.3, 1.5, n),
                    rho=rng.dirichlet(np.ones(L) * 5),
                    psi=psi_scale * rng.uniform(0.3, 1.0, n),
                    fast_likelihood=fast)


def test_k0_reduces_to_tmg():
    model = random_tca(0, K=0)
    as_tmg = tmg_mod.TmgModel(transforms=model.transforms,
                              pi=np.ones(1), mu=model.mu[None, :],
                              phi=model.phi[None, :],
                              rho=model.rho[:, None], psi=model.psi)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-2, 2, model.n)
        assert loglik(model, x[None])[0] == pytest.approx(
            tmg_mod.loglik(as_tmg, x[None])[0], abs=1e-10)
        for l in range(model.L):
            assert cond_loglik(model, x, l) == pytest.approx(
                tmg_mod.cond_loglik(as_tmg, x, l, 0), abs=1e-10)


def test_exact_path_matches_dense():
    rng = np.random.default_rng(2)
    for seed in range(15):
        model = random_tca(seed + 10, K=1 + seed % 2,
                           offsets=((0, 0), (1, 0), (0, -1)),
                           boundary="wrap" if seed % 2 else "zero")
        x = rng.uniform(-2, 2, model.n)
        for offset in (0.0, 1e3):  # expanded squares must not cancel
            shifted = replace(model, mu=model.mu + offset)
            for l in range(model.L):
                assert cond_loglik(shifted, x + offset, l) == pytest.approx(
                    tca_cond_dense(shifted, x + offset, l, fast=False),
                    rel=1e-12, abs=1e-10)


def test_fast_path_matches_dense_and_approximates_exact():
    rng = np.random.default_rng(3)
    for seed in range(10):
        model = random_tca(seed + 30, K=2, fast=True)
        x = rng.uniform(-2, 2, model.n)
        for l in range(model.L):
            # fast path equals the dense density with the sensor term dropped
            assert cond_loglik(model, x, l) == pytest.approx(
                tca_cond_dense(model, x, l, fast=True), abs=1e-10)

    # with psi = 1e-6 * phi, the fast approximation is within 1e-3
    model = random_tca(50, K=1, fast=False)
    tiny = TcaModel(transforms=model.transforms,
                    mu=model.mu, loadings=model.loadings, phi=model.phi,
                    rho=model.rho, psi=1e-6 * model.phi, fast_likelihood=False)
    fast = TcaModel(transforms=model.transforms,
                    mu=model.mu, loadings=model.loadings, phi=model.phi,
                    rho=model.rho, psi=1e-6 * model.phi, fast_likelihood=True)
    x = np.random.default_rng(6).uniform(-2, 2, model.n)
    for l in range(model.L):
        assert cond_loglik(fast, x, l) == pytest.approx(
            cond_loglik(tiny, x, l), abs=1e-3)


def test_fast_path_forced_exact_with_void_ops():
    with pytest.raises(ValueError):
        random_tca(60, offsets=((0, 0), (1, 0)), boundary="zero", fast=True)


def test_factor_count_rejected():
    with pytest.raises(ValueError):
        random_tca(61, K=4)  # n = 4 pixels


def test_posterior_single_op_and_zero_loadings():
    model = random_tca(4, offsets=((0, 0),))
    post = posterior(model, np.zeros(model.n))
    assert post.resp.shape == (1,)
    assert post.resp[0] == pytest.approx(1.0)

    zero = TcaModel(transforms=model.transforms,
                    mu=model.mu, loadings=np.zeros((model.n, 2)),
                    phi=model.phi, rho=model.rho, psi=model.psi)
    for x in np.random.default_rng(5).uniform(-2, 2, (5, model.n)):
        post = posterior(zero, x)
        assert np.allclose(post.y_mean, 0.0)
        assert np.allclose(post.y_cov, np.eye(2))


def test_posterior_moments_match_dense_conditioning():
    model = random_tca(7, offsets=((0, 0), (1, 1)), K=1)
    x = np.random.default_rng(8).uniform(-1, 1, model.n)
    post = posterior(model, x)
    n = model.n
    for l in range(model.L):
        g = dense_matrix(model.transforms[l])
        mean_post, cov_post = joint_zy_conditioning(
            g, model.mu, model.loadings, model.phi, model.psi, x)
        assert np.allclose(post.z_mean[l], mean_post[:n], atol=1e-8)
        assert np.allclose(post.y_mean[l], mean_post[n:], atol=1e-8)
        assert np.allclose(post.z_var_diag[l], np.diag(cov_post)[:n], atol=1e-8)
        assert np.allclose(post.y_cov[l], cov_post[n:, n:], atol=1e-8)
    assert post.resp.sum() == pytest.approx(1.0, abs=1e-12)
    assert post.loglik == pytest.approx(tca_loglik_dense(model, x), abs=1e-9)


def test_em_k0_matches_tmg_trajectory():
    model = random_tca(9, K=0, offsets=((0, 0), (0, 1)))
    as_tmg = tmg_mod.TmgModel(transforms=model.transforms,
                              pi=np.ones(1), mu=model.mu[None, :],
                              phi=model.phi[None, :], rho=model.rho[:, None],
                              psi=model.psi)
    X = np.random.default_rng(10).uniform(-1, 1, (20, model.n))
    a, b = model, as_tmg
    for _ in range(5):
        a, la = em_step(a, X)
        b, lb = tmg_mod.em_step(b, X)
        assert la == pytest.approx(lb, abs=1e-8)
        assert np.allclose(a.mu, b.mu[0], atol=1e-8)
        assert np.allclose(a.phi, b.phi[0], atol=1e-8)
        assert np.allclose(a.psi, b.psi, atol=1e-8)


def test_em_monotone():
    gen = random_tca(11, shape=ImageShape(3, 3), offsets=((0, 0), (0, 1), (1, 0)), K=1)
    X = sample(gen, seed=12, size=40)
    model = init_tca(gen.transforms, 1, X, seed=13)
    previous = -np.inf
    for _ in range(50):
        model, total = em_step(model, X)
        assert total >= previous - 1e-9 * abs(previous)
        previous = total


def test_em_recovers_component_subspace():
    rng = np.random.default_rng(140)
    shape = ImageShape(4, 4)
    ts = build_shear_translation_set(shape, [-0.5, 0.0, 0.5], 3, boundary="wrap")
    n = shape.n
    mu_true = np.zeros((4, 4))
    mu_true[1:3, :] = 1.0  # horizontal bars
    mu_true = mu_true.reshape(-1)
    lam_true = np.zeros((n, 2))
    lam_true[:, 0] = mu_true * 0.8                      # brightness factor
    lam_true[np.arange(0, n, 2), 1] = 0.6               # stripe factor
    gen = TcaModel(transforms=ts, mu=mu_true, loadings=lam_true,
                   phi=np.full(n, 0.01), rho=np.full(ts.L, 1.0 / ts.L),
                   psi=np.full(n, 0.01))
    X = sample(gen, seed=15, size=300)
    model = init_tca(ts, 2, X, seed=16)
    model, _ = fit(model, X, 60, tol=0.0)
    assert principal_angle_deg(model.loadings, lam_true) < 15.0


def test_em_frozen_tangent_columns():
    shape = ImageShape(3, 3)
    ts = build_translation_set(shape, 3, 3)
    rng = np.random.default_rng(17)
    X = rng.uniform(0, 1, (25, 9))
    model = init_tca(ts, 2, X, seed=18)
    opts = EmOptions(tangent_directions=("h",))
    new, _ = em_step(model, X, opts)
    expected = tangent_columns(new.mu, ts, ("h",))
    assert np.allclose(new.loadings[:, :1], expected)


def test_more_tangent_directions_than_factors_are_refused(monkeypatch):
    ts = build_translation_set(ImageShape(3, 3), 3, 3)
    X = np.random.default_rng(19).uniform(0, 1, (10, 9))
    model = init_tca(ts, 1, X, seed=20)
    e_steps, log_joint = [], mtca_mod._log_joint
    monkeypatch.setattr(mtca_mod, "_log_joint",
                        lambda *args: e_steps.append(args) or log_joint(*args))
    opts = EmOptions(tangent_directions=("h", "v"))
    for run in (lambda: em_step(model, X, opts), lambda: fit(model, X, 3, opts)):
        with pytest.raises(ValueError, match="2 tangent directions need as many "
                                             "factors, but the model has 1"):
            run()
    assert not e_steps


def test_tangent_columns_examples():
    shape = ImageShape(3, 3)
    ts = build_translation_set(shape, 3, 3)
    const = np.full(9, 0.7)
    assert np.allclose(tangent_columns(const, ts, ("h", "v")), 0.0)

    single = np.zeros(9)
    single[4] = 1.0  # center pixel
    col = tangent_columns(single, ts, ("h",))[:, 0]
    expected = np.zeros(9)
    expected[5] = 0.5   # right neighbor
    expected[3] = -0.5  # left neighbor
    assert np.allclose(col, expected)

    ramp = np.tile(np.arange(3.0), 3)
    col = tangent_columns(ramp, ts, ("h",))[:, 0]
    grid = col.reshape(3, 3)
    # hand evaluation: rows are [0,1,2]; shifted right [2,0,1], left [1,2,0];
    # central difference is -1 in the interior, +0.5 at both seam columns
    assert np.allclose(grid[:, 1], -1.0)
    assert np.allclose(grid[:, 0], 0.5)
    assert np.allclose(grid[:, 2], 0.5)

    with pytest.raises(ValueError):
        tangent_columns(const, identity_set(shape), ("h",))
    with pytest.raises(ValueError):
        tangent_columns(const, ts, ("sideways",))

    # on the default shear family, "shift" is "h", and "shear" is the central
    # difference of the +/-0.25 shears, the smallest level
    shear = build_shear_translation_set(ImageShape(8, 8), boundary="zero")
    mu = np.random.default_rng(21).uniform(0, 1, 64)
    cols = tangent_columns(mu, shear, ("shift", "h", "shear"))
    assert np.array_equal(cols[:, 0], cols[:, 1])
    plus, minus = shear.params.index((0.25, 0)), shear.params.index((-0.25, 0))
    want = 0.5 * (apply(shear[plus], mu) - apply(shear[minus], mu))
    assert np.array_equal(cols[:, 2], want)


def test_sampling_deterministic():
    model = random_tca(19, K=2)
    assert np.array_equal(sample(model, seed=20), sample(model, seed=20))
    draws = sample(model, seed=21, size=2000)
    mean_true = sum(model.rho[l] * apply(model.transforms[l], model.mu)
                    for l in range(model.L))
    assert np.abs(draws.mean(axis=0) - mean_true).max() < 0.2
