import itertools

import numpy as np
import pytest

from transmix import ImageShape, TransformationSet, build_translation_set, shift_op
from transmix import classify
from transmix import mtca as mtca_mod
from transmix import tca as tca_mod
from transmix import thmm as thmm_mod
from transmix import tmg as tmg_mod
from transmix.classify import bayes_classify, classify_batch, marginal_loglik
from transmix.mtca import MtcaModel, init_mtca

from oracles import dense_matrix, joint_zy_conditioning, mtca_loglik_dense, tca_loglik_dense


def small_set(shape, offsets, boundary="wrap"):
    rows = [shift_op(shape, di, dj, boundary).source_index for di, dj in offsets]
    return TransformationSet(np.stack(rows), shape, boundary,
                             params=tuple((float(a), float(b)) for a, b in offsets))


def random_mtca(seed, shape=ImageShape(2, 2), offsets=((0, 0), (0, 1)), C=2,
                K=1, boundary="wrap", fast=False):
    rng = np.random.default_rng(seed)
    ts = small_set(shape, offsets, boundary)
    n, L = shape.n, len(offsets)
    return MtcaModel(transforms=ts,
                     pi=rng.dirichlet(np.ones(C) * 5),
                     mu=rng.uniform(-1, 1, (C, n)),
                     loadings=rng.uniform(-1, 1, (C, n, K)),
                     phi=rng.uniform(0.3, 1.5, (C, n)),
                     rho=rng.dirichlet(np.ones(L) * 5, size=C).T,
                     psi=rng.uniform(0.3, 1.0, n),
                     fast_likelihood=fast)


def test_k0_reduces_to_tmg():
    model = random_mtca(0, K=0, C=3)
    as_tmg = tmg_mod.TmgModel(transforms=model.transforms,
                              pi=model.pi, mu=model.mu, phi=model.phi,
                              rho=model.rho, psi=model.psi)
    rng = np.random.default_rng(1)
    for _ in range(10):
        x = rng.uniform(-2, 2, model.n)
        assert mtca_mod.loglik(model, x[None])[0] == pytest.approx(
            tmg_mod.loglik(as_tmg, x[None])[0], abs=1e-10)


def test_c1_reduces_to_tca():
    model = random_mtca(2, C=1, K=2)
    as_tca = tca_mod.TcaModel(transforms=model.transforms,
                              mu=model.mu[0], loadings=model.loadings[0],
                              phi=model.phi[0], rho=model.rho[:, 0],
                              psi=model.psi)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.uniform(-2, 2, model.n)
        assert mtca_mod.loglik(model, x[None])[0] == pytest.approx(
            tca_mod.loglik(as_tca, x[None])[0], abs=1e-10)


def test_posterior_matches_dense_oracle():
    for K, seed in itertools.product((0, 1, 2), range(8)):
        model = random_mtca(10 + seed, shape=ImageShape(2, 3),
                            offsets=((0, 0), (1, 0), (0, 1)), C=2, K=K,
                            boundary="wrap" if seed % 2 else "zero")
        x = np.random.default_rng(30 + seed).uniform(-1, 1, model.n)
        post = mtca_mod.posterior(model, x)
        assert post.loglik == pytest.approx(mtca_loglik_dense(model, x), abs=1e-6)
        assert post.resp.sum() == pytest.approx(1.0, abs=1e-12)
        assert post.y_mean.shape == (model.L, model.C, K)
        assert post.y_cov.shape == (model.L, model.C, K, K)
        n = model.n
        for l in range(model.L):
            g = dense_matrix(model.transforms[l])
            for c in range(model.C):
                mean, cov = joint_zy_conditioning(g, model.mu[c], model.loadings[c],
                                                  model.phi[c], model.psi, x)
                np.testing.assert_allclose(post.z_mean[l, c], mean[:n], atol=1e-10)
                np.testing.assert_allclose(post.z_var_diag[l, c], np.diag(cov)[:n],
                                           atol=1e-10)
                np.testing.assert_allclose(post.y_mean[l, c], mean[n:], atol=1e-10)
                np.testing.assert_allclose(post.y_cov[l, c], cov[n:, n:], atol=1e-10)


def test_em_monotone():
    gen = random_mtca(4, shape=ImageShape(3, 3), offsets=((0, 0), (0, 1)), C=2, K=1)
    X = mtca_mod.sample(gen, seed=5, size=40)
    model = init_mtca(gen.transforms, 2, 1, X, seed=6)
    previous = -np.inf
    for _ in range(50):
        model, total = mtca_mod.em_step(model, X)
        assert total >= previous - 1e-9 * abs(previous)
        previous = total


def test_bayes_classify_basics():
    model = random_mtca(7, C=1, K=1)
    twin = random_mtca(7, C=1, K=1)
    x = np.zeros(model.n)
    assert bayes_classify([model, twin], x) == 0  # identical models: tie-break

    # doubled prior on class 1 with equal likelihoods
    assert bayes_classify([model, twin], x, priors=[1.0, 2.0]) == 1

    with pytest.raises(ValueError):
        bayes_classify([model], x)


def test_bayes_classify_recovers_generator():
    rng = np.random.default_rng(8)
    shape = ImageShape(3, 3)
    ts = small_set(shape, ((0, 0), (0, 1)))
    models = []
    for c in range(2):
        mu = np.zeros(9)
        mu[c * 4] = 3.0  # well separated means
        models.append(tca_mod.TcaModel(
            transforms=ts, mu=mu,
            loadings=0.1 * rng.standard_normal((9, 1)),
            phi=np.full(9, 0.05), rho=np.array([0.6, 0.4]),
            psi=np.full(9, 0.05)))
    hits = 0
    for i in range(200):
        k = i % 2
        x = tca_mod.sample(models[k], seed=1000 + i)
        hits += bayes_classify(models, x) == k
    assert hits >= 190  # >= 95% of 200


def test_argmax_invariant_to_common_shift():
    class Shifted:
        def __init__(self, inner, delta):
            self.inner, self.delta = inner, delta

        def loglik(self, x):
            return marginal_loglik(self.inner, x) + self.delta

    a = random_mtca(9, C=1)
    b = random_mtca(19, C=1)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-1, 1, a.n)
        base = bayes_classify([a, b], x)
        shifted = bayes_classify([Shifted(a, 123.0), Shifted(b, 123.0)], x)
        assert base == shifted


def test_classify_batch_shape():
    a = random_mtca(20, C=1)
    b = random_mtca(21, C=1)
    X = np.random.default_rng(22).uniform(-1, 1, (6, a.n))
    out = classify_batch([a, b], X)
    assert out.shape == (6,) and out.dtype == np.int64


def test_classify_batch_matches_per_image_rule(monkeypatch):
    ts = small_set(ImageShape(3, 3), ((0, 0), (0, 1), (1, 0)))
    data = np.random.default_rng(23).uniform(-1, 1, (30, 9))
    tca_a = tca_mod.init_tca(ts, 1, data[:15], seed=1)
    tmg_b = tmg_mod.init_tmg(ts, 2, data[15:], seed=2, mean_noise=0.5)
    # the twin ties with tmg_b on every image; ties go to the lower index
    models = [tca_a, tmg_b, tmg_mod.init_tmg(ts, 2, data[15:], seed=2, mean_noise=0.5)]
    X = np.random.default_rng(24).uniform(-1.5, 1.5, (40, 9))
    for priors in (None, [2.0, 1.0, 1.0]):
        want = [bayes_classify(models, x, priors) for x in X]
        assert 0 in want and 1 in want and 2 not in want
        calls = []

        def counted(kernel):
            def wrapped(transforms, mu, loadings, phi, psi, X):
                calls.append((len(X), loadings.shape[-1], len(mu)))
                return kernel(transforms, mu, loadings, phi, psi, X)
            return wrapped

        # TMG and TCA models are scored as their MTCA view, one batched
        # emission call per K over every cluster of the models on the set
        monkeypatch.setattr(tca_mod, "cluster_loglik", counted(tca_mod.cluster_loglik))
        got = classify_batch(models, X, priors)
        monkeypatch.undo()
        assert got.tolist() == want
        assert sorted(calls) == [(len(X), 0, 4), (len(X), 1, 1)]


def test_classify_batch_scores_plain_objects_per_image():
    class Shifted:
        def __init__(self, inner, delta):
            self.inner, self.delta = inner, delta

        def loglik(self, x):
            return marginal_loglik(self.inner, x) + self.delta

    a = random_mtca(25, C=1)
    b = random_mtca(26, C=1)
    X = np.random.default_rng(27).uniform(-1, 1, (12, a.n))
    models = [a, Shifted(b, 0.5), b]
    assert classify_batch(models, X).tolist() == \
        [bayes_classify(models, x) for x in X]
    with pytest.raises(ValueError):
        classify_batch([a], X)


def _malformed(case):
    """Models whose arrays hold the right number of values in the wrong
    shape; each must be refused, not reshaped."""
    rng = np.random.default_rng(40)
    shape, C, K = ImageShape(2, 3), 2, 2
    ts = small_set(shape, ((0, 0), (0, 1)))
    n = shape.n
    fields = dict(transforms=ts, pi=np.full(C, 1 / C),
                  mu=rng.uniform(-1, 1, (C, n)), loadings=rng.uniform(-1, 1, (C, n, K)),
                  phi=np.full((C, n), 0.5), rho=np.full((ts.L, C), 1 / ts.L),
                  psi=np.full(n, 0.5))
    if case == "tca-loadings-K-by-n":
        return lambda: tca_mod.TcaModel(
            transforms=ts, mu=fields["mu"][0],
            loadings=fields["loadings"][0].T, phi=fields["phi"][0],
            rho=fields["rho"][:, 0], psi=fields["psi"])
    if case.startswith("thmm"):
        grid = build_translation_set(shape, 1, 3)
        mu = fields["mu"][0] if case == "thmm-mu-flat" else np.zeros((C, n + 1))
        return lambda: thmm_mod.ThmmModel(
            transforms=grid, mu=mu, phi=fields["phi"], psi=fields["psi"],
            pi_s=np.full((C, grid.L), 1 / (C * grid.L)),
            class_trans=np.full((C, C), 1 / C), motion=thmm_mod.uniform_motion(1.0))
    if case == "mtca-loadings-C-K-n":
        fields["loadings"] = fields["loadings"].transpose(0, 2, 1)
    elif case == "mtca-pi-column":
        fields["pi"] = fields["pi"][:, None]
    else:
        fields["psi"] = np.full((1, n), 0.5)
    return lambda: MtcaModel(**fields)


@pytest.mark.parametrize("case", ["tca-loadings-K-by-n", "mtca-loadings-C-K-n",
                                  "mtca-pi-column", "mtca-psi-row",
                                  "thmm-mu-too-wide", "thmm-mu-flat"])
def test_constructors_reject_malformed_shapes(case):
    field = case.split("-")[1]
    with pytest.raises(ValueError, match=f"^{field} must have shape"):
        _malformed(case)()


def _class_models(ts, count, K, seed, fast=()):
    """`count` TCA models on `ts`, each fitted to noisy shifts of its own
    random template, with its own perturbed sensor noise; the models whose
    index is in `fast` use the fast likelihood."""
    rng = np.random.default_rng(seed)
    models = []
    for c in range(count):
        template = rng.uniform(0.0, 1.0, ts.shape.n)
        data = template + 0.1 * rng.standard_normal((12, ts.shape.n))
        model = tca_mod.init_tca(ts, K, data, seed=c, fast_likelihood=c in fast)
        model = tca_mod.fit(model, data, 2, tol=0.0)[0]
        model.psi = model.psi * rng.uniform(0.5, 1.5, ts.shape.n)
        models.append(model)
    return models


def _per_model_rule(models, X, priors):
    """The Bayes rule with each model scored on its own: `mtca.loglik` on
    its MTCA view, or its own `loglik` image by image."""
    scores = np.stack([mtca_mod.loglik(m.as_mtca(), X) if hasattr(m, "as_mtca")
                       else np.array([m.loglik(x) for x in X]) for m in models], axis=1)
    return np.argmax(scores + np.log(priors), axis=1)


def _count_emissions(monkeypatch):
    calls = []
    real = tca_mod.cluster_loglik

    def spy(transforms, mu, loadings, phi, psi, X, **kwargs):
        calls.append((id(transforms), loadings.shape[-1], len(mu)))
        return real(transforms, mu, loadings, phi, psi, X, **kwargs)

    monkeypatch.setattr(tca_mod, "cluster_loglik", spy)
    return calls


def test_classify_batch_scores_models_on_one_set_in_one_emission(monkeypatch):
    """Ten TCA models on one set, half under the fast likelihood, take one
    emission call; each model's score is its `mtca.loglik` to rounding,
    and the rule picks what per-model scoring and dense Gaussians pick."""
    ts = build_translation_set(ImageShape(4, 5), 3, 3, "wrap")
    models = _class_models(ts, 10, 2, seed=50, fast=(1, 3, 5, 7, 9))
    X = np.random.default_rng(51).uniform(0.0, 1.0, (15, ts.shape.n))
    X[:10] = [m.mu + 0.05 * np.random.default_rng(c).standard_normal(ts.shape.n)
              for c, m in enumerate(models)]
    priors = np.linspace(1.0, 2.0, 10)
    calls = _count_emissions(monkeypatch)
    got = classify_batch(models, X, priors)
    assert calls == [(id(ts), 2, 10)]
    assert got.tolist() == _per_model_rule(models, X, priors).tolist()
    assert got[:10].tolist() == list(range(10))
    dense = np.array([[tca_loglik_dense(m, x) for m in models] for x in X])
    assert got.tolist() == np.argmax(dense + np.log(priors), axis=1).tolist()
    stacked = classify._stacked_loglik([m.as_mtca() for m in models], X)
    each = np.stack([tca_mod.loglik(m, X) for m in models], axis=1)
    np.testing.assert_allclose(stacked, each, rtol=1e-12, atol=0)
    np.testing.assert_allclose(stacked, dense, rtol=1e-10, atol=0)


def test_stacked_scores_models_of_different_cluster_counts():
    """One emission group whose models hold 1, 3 and 2 clusters: each
    model's score is its own log-likelihood, so each model's run of columns
    starts where the one before it ends."""
    ts = build_translation_set(ImageShape(4, 5), 3, 3, "wrap")
    data = np.random.default_rng(70).uniform(0.0, 1.0, (12, ts.shape.n))
    models = [tmg_mod.init_tmg(ts, C, data, seed=70 + C) for C in (1, 3, 2)]
    stacked = classify._stacked_loglik([m.as_mtca() for m in models], data)
    each = np.stack([tmg_mod.loglik(m, data) for m in models], axis=1)
    np.testing.assert_allclose(stacked, each, rtol=1e-12, atol=0)


def test_classify_batch_groups_a_mixed_list(monkeypatch):
    """Models on two sets, with two factor counts, a TMG beside TCAs and an
    object with only `loglik`: one emission call per (set, K) group, the
    per-model rule's predictions, and frames checked at the boundary."""
    shape = ImageShape(4, 5)
    ts_a = build_translation_set(shape, 3, 3, "wrap")
    ts_b = build_translation_set(shape, 3, 3, "zero")
    rng = np.random.default_rng(60)
    data = rng.uniform(0.0, 1.0, (20, shape.n))

    class OnlyLoglik:
        def __init__(self, inner):
            self.inner = inner

        def loglik(self, x):
            return tca_loglik_dense(self.inner, x) + 0.3

    one, two = _class_models(ts_a, 2, 1, seed=61), _class_models(ts_a, 2, 2, seed=62)
    models = [one[0], tmg_mod.init_tmg(ts_a, 3, data, seed=63), two[0], one[1],
              _class_models(ts_b, 1, 1, seed=64)[0], OnlyLoglik(two[1]), two[1]]
    X = np.concatenate([[m.mu for m in one + two], rng.uniform(0.0, 1.0, (6, shape.n))])
    priors = rng.uniform(0.5, 2.0, len(models))
    calls = _count_emissions(monkeypatch)
    got = classify_batch(models, X, priors)
    assert sorted(calls) == sorted([(id(ts_a), 1, 2), (id(ts_a), 0, 3), (id(ts_a), 2, 2),
                                    (id(ts_b), 1, 1)])
    want = _per_model_rule(models, X, priors)
    assert got.tolist() == want.tolist() and len(set(want.tolist())) > 2
    bad = X.copy()
    bad[2, 3] = np.nan
    with pytest.raises(ValueError, match="frame 2 has a non-finite pixel value"):
        classify_batch(models, bad)
    with pytest.raises(ValueError, match=f"frames must have {shape.n} pixels each"):
        classify_batch(models, X[:, :-1])
