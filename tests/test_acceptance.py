"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The heavy experiments (pac-man, glyph trends, occlusion) run at the
sizes fixed here; everything is seeded and deterministic.
"""

import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import logsumexp

from transmix import (EmOptions, ImageShape, Manifest, TransformationSet,
                      apply, build_translation_set, identity_set, shift_op)
from transmix import mtca as mtca_mod
from transmix import tca as tca_mod
from transmix import thmm as thmm_mod
from transmix import tmg as tmg_mod
from transmix.classify import bayes_classify
from transmix.cli import cmd_train
from transmix.metrics import (best_template_assignment, classification_error,
                              clustering_purity_error, tracking_agreement)
from transmix.synthgen import (DIRECTIONS, gen_occluded, gen_pacman,
                               gen_sheared_glyphs, gen_shifted_template,
                               render_pacman_frame)
from transmix.thmm import (MotionPrior, ThmmModel, forward_backward,
                           sample_sequence, score_sequence, uniform_motion,
                           viterbi)
from transmix.tmg import TmgModel

from oracles import (dense_transition, hmm_enumerate, mtca_loglik_dense,
                     tca_loglik_dense, tmg_loglik_dense)
from test_thmm import make_grid_set, oracle_emissions, random_motion


def report(number: int, passed: bool, text: str) -> None:
    print(f"\nACCEPTANCE {number} {'PASS' if passed else 'FAIL'}: {text}")


def small_set(rng, shape, L, boundary):
    offsets = {(0, 0)}
    while len(offsets) < L:
        offsets.add((int(rng.integers(-1, 2)), int(rng.integers(-1, 2))))
    rows = [shift_op(shape, di, dj, boundary).source_index
            for di, dj in sorted(offsets)]
    return TransformationSet(np.stack(rows), shape, boundary)


def random_instance(rng, family: str, wrap_only: bool):
    h = int(rng.integers(1, 4))
    w = int(rng.integers(1, max(2, 10 // h)))
    shape = ImageShape(h, w)
    n = shape.n
    L = int(rng.integers(1, 4))
    C = int(rng.integers(1, 4))
    K = int(rng.integers(0, min(3, n - 1) + 1))
    boundary = "wrap" if (wrap_only or rng.random() < 0.5) else "zero"
    ts = small_set(rng, shape, L, boundary)
    L = ts.L
    pi = rng.dirichlet(np.ones(C) * 4)
    rho_lc = rng.dirichlet(np.ones(L) * 4, size=C).T
    mu = rng.uniform(-1, 1, (C, n))
    phi = rng.uniform(0.3, 1.2, (C, n))
    psi = rng.uniform(0.3, 1.0, n)
    if family == "tmg":
        return TmgModel(transforms=ts, pi=pi, mu=mu, phi=phi,
                        rho=rho_lc, psi=psi)
    if family == "tca":
        return tca_mod.TcaModel(transforms=ts, mu=mu[0],
                                loadings=rng.uniform(-1, 1, (n, K)),
                                phi=phi[0], rho=rho_lc[:, 0], psi=psi)
    return mtca_mod.MtcaModel(transforms=ts, pi=pi, mu=mu,
                              loadings=rng.uniform(-1, 1, (C, n, K)),
                              phi=phi, rho=rho_lc, psi=psi)


def test_acceptance_1_static_oracle_equivalence():
    rng = np.random.default_rng(100)
    worst_fast, worst_exact = 0.0, 0.0
    for case in range(100):
        x = None
        tmg = random_instance(rng, "tmg", wrap_only=False)
        x = rng.uniform(-2, 2, tmg.n)
        got = float(tmg_mod.loglik(tmg, x[None])[0])
        worst_fast = max(worst_fast, abs(got - tmg_loglik_dense(tmg, x)))

        tca = random_instance(rng, "tca", wrap_only=True)
        x = rng.uniform(-2, 2, tca.n)
        exact = float(tca_mod.loglik(tca, x[None])[0])
        worst_exact = max(worst_exact, abs(exact - tca_loglik_dense(tca, x, fast=False)))
        fast = tca_mod.TcaModel(transforms=tca.transforms,
                                mu=tca.mu, loadings=tca.loadings, phi=tca.phi,
                                rho=tca.rho, psi=tca.psi, fast_likelihood=True)
        got = float(tca_mod.loglik(fast, x[None])[0])
        worst_fast = max(worst_fast, abs(got - tca_loglik_dense(fast, x, fast=True)))

        mtca = random_instance(rng, "mtca", wrap_only=True)
        x = rng.uniform(-2, 2, mtca.n)
        fast_m = mtca_mod.MtcaModel(transforms=mtca.transforms,
                                    pi=mtca.pi, mu=mtca.mu, loadings=mtca.loadings,
                                    phi=mtca.phi, rho=mtca.rho, psi=mtca.psi,
                                    fast_likelihood=True)
        got = float(mtca_mod.loglik(fast_m, x[None])[0])
        worst_fast = max(worst_fast, abs(got - mtca_loglik_dense(fast_m, x, fast=True)))
    ok = worst_fast <= 1e-6 and worst_exact <= 1e-10
    report(1, ok, f"static marginals vs dense oracle over 100 instances "
                  f"(fast worst {worst_fast:.2e} <= 1e-6, exact worst "
                  f"{worst_exact:.2e} <= 1e-10)")
    assert ok


def test_acceptance_2_dynamic_oracle_equivalence():
    from test_thmm import random_thmm
    worst = 0.0
    for seed in range(20):
        model = random_thmm(seed + 300, grid=(2, 2), C=2, threshold=1.0,
                            mode="vector" if seed % 2 else "magnitude",
                            per_class=seed % 3 == 0,
                            boundary="wrap" if seed % 2 else "zero")
        frames = np.random.default_rng(seed + 900).uniform(-1, 1, (4, model.n))
        post = forward_backward(model, frames)
        loglik, gamma, _, best_path, _ = hmm_enumerate(
            model.pi_s.reshape(-1), dense_transition(model),
            oracle_emissions(model, frames))
        worst = max(worst, abs(post.loglik - loglik),
                    float(np.abs(post.gamma.reshape(4, -1) - gamma).max()),
                    abs(score_sequence(model, frames) - loglik))
        path = viterbi(model, frames)
        lumped = path[:, 0] * model.L + path[:, 1]
        assert np.array_equal(lumped, best_path)
    ok = worst <= 1e-10
    report(2, ok, f"forward-backward/Viterbi/score vs 4096-path enumeration, "
                  f"20 models (worst {worst:.2e} <= 1e-10)")
    assert ok


def test_acceptance_3_em_monotonicity():
    drops = {}

    def check(name, step, model, data, steps=50):
        previous = None
        worst = 0.0
        for _ in range(steps):
            model, total = step(model, data)
            if previous is not None and total < previous:
                worst = max(worst, (previous - total) / abs(previous))
            previous = total
        drops[name] = worst

    shape = ImageShape(3, 3)
    ts = build_translation_set(shape, 3, 3)
    rng = np.random.default_rng(42)

    gen = tmg_mod.init_tmg(ts, 2, rng.uniform(0, 1, (8, 9)), seed=1)
    X = tmg_mod.sample(gen, seed=2, size=40)
    check("tmg", tmg_mod.em_step, tmg_mod.init_tmg(ts, 2, X, seed=3), X)

    gen_t = tca_mod.init_tca(ts, 2, rng.uniform(0, 1, (8, 9)), seed=4)
    Xt = tca_mod.sample(gen_t, seed=5, size=40)
    check("tca", tca_mod.em_step, tca_mod.init_tca(ts, 2, Xt, seed=6), Xt)

    gen_m = mtca_mod.init_mtca(ts, 2, 1, rng.uniform(0, 1, (8, 9)), seed=7)
    Xm = mtca_mod.sample(gen_m, seed=8, size=40)
    check("mtca", mtca_mod.em_step, mtca_mod.init_mtca(ts, 2, 1, Xm, seed=9), Xm)

    from test_thmm import random_thmm
    gen_h = random_thmm(10, shape=shape, grid=(3, 3), C=2, threshold=1.0,
                        per_class=True)
    frames, _ = sample_sequence(gen_h, 40, seed=11)
    model_h = thmm_mod.init_thmm(ts, 2, frames, seed=12,
                                 motion=uniform_motion(1.0, n_classes=2))
    check("thmm", thmm_mod.em_step, model_h, frames)

    ok = all(v <= 1e-9 for v in drops.values())
    detail = ", ".join(f"{k} worst drop {v:.1e}" for k, v in drops.items())
    report(3, ok, f"50 EM steps never decrease the log-likelihood ({detail})")
    assert ok


def _gap(a, b) -> float:
    """Largest absolute difference of two arrays; inf when the shapes differ."""
    if a is None or b is None or np.shape(a) != np.shape(b):
        return np.inf
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


def test_acceptance_4_reduction_lattice():
    rng = np.random.default_rng(200)
    worst = 0.0
    for case in range(100):
        h = int(rng.integers(1, 4))
        w = int(rng.integers(1, 4))
        shape = ImageShape(h, w)
        n = shape.n
        ts = small_set(rng, shape, int(rng.integers(1, 4)), "wrap")
        ident = identity_set(shape)
        C, K = 2, min(2, n - 1)
        pi = rng.dirichlet(np.ones(C) * 4)
        rho = rng.dirichlet(np.ones(ts.L) * 4, size=C).T
        mu = rng.uniform(-1, 1, (C, n))
        phi = rng.uniform(0.3, 1.2, (C, n))
        psi = rng.uniform(0.3, 1.0, n)
        loadings = rng.uniform(-1, 1, (C, n, K))
        x = rng.uniform(-2, 2, n)

        # MTCA(K=0) == TMG
        m0 = mtca_mod.MtcaModel(transforms=ts, pi=pi, mu=mu,
                                loadings=np.zeros((C, n, 0)), phi=phi,
                                rho=rho, psi=psi)
        t0 = TmgModel(transforms=ts, pi=pi, mu=mu, phi=phi,
                      rho=rho, psi=psi)
        worst = max(worst, abs(float(mtca_mod.loglik(m0, x[None])[0])
                               - float(tmg_mod.loglik(t0, x[None])[0])))

        # MTCA(C=1) == TCA
        m1 = mtca_mod.MtcaModel(transforms=ts, pi=np.ones(1),
                                mu=mu[:1], loadings=loadings[:1], phi=phi[:1],
                                rho=rho[:, :1] / rho[:, :1].sum(axis=0),
                                psi=psi)
        t1 = tca_mod.TcaModel(transforms=ts, mu=mu[0],
                              loadings=loadings[0], phi=phi[0],
                              rho=m1.rho[:, 0], psi=psi)
        worst = max(worst, abs(float(mtca_mod.loglik(m1, x[None])[0])
                               - float(tca_mod.loglik(t1, x[None])[0])))

        # ... and so are the views' EM steps and posteriors, TCA's with the
        # cluster axis squeezed out
        X = np.random.default_rng(case).uniform(-2, 2, (5, n))
        (a0, total_a0), (b0, total_b0) = tmg_mod.em_step(t0, X), mtca_mod.em_step(m0, X)
        (a1, total_a1), (b1, total_b1) = tca_mod.em_step(t1, X), mtca_mod.em_step(m1, X)
        p0, q0 = tmg_mod.posterior(t0, x), mtca_mod.posterior(m0, x)
        p1, q1 = tca_mod.posterior(t1, x), mtca_mod.posterior(m1, x)
        moments = ("resp", "z_mean", "z_var_diag", "y_mean", "y_cov")
        pairs = [(total_a0, total_b0), (total_a1, total_b1),
                 (p0.loglik, q0.loglik), (p1.loglik, q1.loglik),
                 (a1.mu, b1.mu[0]), (a1.loadings, b1.loadings[0]),
                 (a1.phi, b1.phi[0]), (a1.rho, b1.rho[:, 0]), (a1.psi, b1.psi)]
        pairs += [(getattr(a0, f), getattr(b0, f)) for f in ("pi", "mu", "phi", "rho", "psi")]
        pairs += [(getattr(p0, f), getattr(q0, f)) for f in moments]
        pairs += [(getattr(p1, f), getattr(q1, f)[:, 0]) for f in moments]
        worst = max([worst] + [_gap(u, v) for u, v in pairs])

        # TMG(L=1 identity) == mixture of Gaussians
        t2 = TmgModel(transforms=ident, pi=pi, mu=mu, phi=phi,
                      rho=np.ones((1, C)), psi=psi)
        mog = logsumexp([np.log(pi[c])
                         - 0.5 * np.sum(np.log(2 * np.pi * (phi[c] + psi)))
                         - 0.5 * np.sum((x - mu[c]) ** 2 / (phi[c] + psi))
                         for c in range(C)])
        worst = max(worst, abs(float(tmg_mod.loglik(t2, x[None])[0]) - float(mog)))

        # TCA(L=1 identity, fast off) == factor analysis
        t3 = tca_mod.TcaModel(transforms=ident, mu=mu[0],
                              loadings=loadings[0], phi=phi[0],
                              rho=np.ones(1), psi=psi)
        cov = loadings[0] @ loadings[0].T + np.diag(phi[0] + psi)
        sign, logdet = np.linalg.slogdet(cov)
        fa = -0.5 * (n * np.log(2 * np.pi) + logdet
                     + (x - mu[0]) @ np.linalg.solve(cov, x - mu[0]))
        worst = max(worst, abs(float(tca_mod.loglik(t3, x[None])[0]) - float(fa)))
    ok = worst <= 1e-10
    report(4, ok, f"reduction lattice over 100 random inputs, EM steps and "
                  f"posteriors of the TMG/TCA views "
                  f"(worst gap {worst:.2e} <= 1e-10)")
    assert ok


STEP = {0: (0, 1), 1: (-1, 0), 2: (0, -1), 3: (1, 0)}  # sprite motion (di, dj)
LEFT = {0: 1, 1: 2, 2: 3, 3: 0}


def _pacman_seed_passes(seed, tmp_path):
    man = Manifest.load(Path(__file__).resolve().parents[1]
                        / "manifests" / "pacman.txt")
    man = man.override({"seed": str(seed)})
    out = tmp_path / f"pacman-{seed}"
    from transmix import model_io
    model_path = cmd_train(man, out)
    model = model_io.load_model(model_path, family="thmm")

    frames, truth = gen_pacman(seed)
    shape = truth.params["shape"]
    sprites = np.stack([render_pacman_frame(shape, d, 0, 0, np.zeros((11, 11)))
                        for d in range(4)])
    corr, match = best_template_assignment(model.mu, sprites, shape)
    good = corr >= 0.9
    a = int(good.sum()) >= 4 and len(set(match[good])) == 4

    rows = thmm_mod.track(model, frames)
    agree = tracking_agreement(rows[:, 1:3].astype(int), truth.shifts,
                               wrap=11, align_offset=True)
    b = agree >= 0.9

    reps = {}
    for c in np.argsort(-corr):
        if good[c]:
            reps.setdefault(int(match[c]), int(c))
    r = model.motion.radius
    c_ok = len(reps) == 4
    for d, c in reps.items():
        di, dj = STEP[d]
        tab = model.motion.table[c]
        if tab[r, r] + tab[r + di, r + dj] < 0.85:
            c_ok = False

    d_ok = False
    if len(reps) == 4:
        a_mat = model.class_trans
        lt, other = [], []
        for d, c in reps.items():
            for d2, c2 in reps.items():
                if c2 == c:
                    continue
                (lt if c2 == reps[LEFT[d]] else other).append(a_mat[c, c2])
        d_ok = np.mean(lt) > np.mean(other)
    return (a, b, c_ok, d_ok)


def test_acceptance_5_pacman_reproduction(tmp_path):
    results = [_pacman_seed_passes(seed, tmp_path) for seed in range(5)]
    passes = sum(all(r) for r in results)
    ok = passes >= 4
    report(5, ok, f"pac-man default manifest: {passes}/5 seeds pass all of "
                  f"(sprites, track, motion mass, left turns); "
                  f"per-seed {['/'.join('TF'[not v] for v in r) for r in results]}")
    assert ok


def _cluster_assign(model, X):
    joint = tmg_mod.loglik_table(model, X)
    with np.errstate(divide="ignore"):
        joint = joint + np.log(model.rho)[None] + np.log(model.pi)[None, None]
    marg = logsumexp(joint, axis=1)  # marginalize transformations
    return marg.argmax(axis=1)


def test_acceptance_6_tmg_vs_mg_clustering():
    from transmix.transforms import build_shear_translation_set
    seed = 0
    images, labels, _ = gen_sheared_glyphs(seed, per_class=200)
    shape = ImageShape(8, 8)
    families = {"tmg": build_shear_translation_set(shape, boundary="zero"),
                "mg": identity_set(shape)}
    errors = {}
    for name, ts in families.items():
        best = None
        for r in range(5):
            model = tmg_mod.init_tmg(ts, 10, images, seed=seed + 101 * r)
            model, _ = tmg_mod.fit(model, images, 30, tol=1e-7)
            final = float(np.sum(tmg_mod.loglik(model, images)))
            if best is None or final > best[0]:
                best = (final, model)
        errors[name] = clustering_purity_error(_cluster_assign(best[1], images),
                                               labels)
    gap = errors["mg"] - errors["tmg"]
    ok = gap >= 0.10
    report(6, ok, f"10-cluster purity error: TMG {errors['tmg']:.3f} vs "
                  f"MG {errors['mg']:.3f} (gap {gap:.3f} >= 0.10)")
    assert ok


def test_acceptance_7_tca_vs_fa_classification():
    from transmix.transforms import build_shear_translation_set
    shape = ImageShape(8, 8)
    shear = build_shear_translation_set(shape, boundary="zero")
    ident = identity_set(shape)
    wins = 0
    detail = []
    for seed in range(5):
        X_tr, y_tr, _ = gen_sheared_glyphs(seed, per_class=200)
        X_te, y_te, _ = gen_sheared_glyphs(seed + 500, per_class=100)
        err = {}
        for name, ts in (("tca", shear), ("fa", ident)):
            logliks = np.empty((X_te.shape[0], 10))
            for c in range(10):
                Xc = X_tr[y_tr == c]
                model = tca_mod.init_tca(ts, 3, Xc, seed=seed)
                model, _ = tca_mod.fit(model, Xc, 25, tol=1e-7)
                logliks[:, c] = tca_mod.loglik(model, X_te)
            err[name] = classification_error(logliks.argmax(axis=1), y_te)
        wins += err["tca"] <= err["fa"]
        detail.append(f"{err['tca']:.3f}<={err['fa']:.3f}")
    ok = wins >= 3
    report(7, ok, f"Bayes-rule test error TCA <= FA on {wins}/5 seeds "
                  f"({', '.join(detail)})")
    assert ok


def test_acceptance_8_occlusion_suppression():
    seed = 1
    h = w = 14
    rng = np.random.default_rng(12345)
    template = rng.uniform(0.0, 1.0, (h, w))
    frames, truth = gen_shifted_template(seed, template, T=150, shift_range=2,
                                         sensor_noise=0.05, walk=True)
    shape = truth.params["shape"]
    clean = truth.clean
    noise = frames - clean
    occluded_clean, occ = gen_occluded(clean, (0, h, 6, 7), shape, value=0.0)
    degraded = occluded_clean + noise  # the sensor sees the bar too
    mask = occ.params["mask"]

    ts = build_translation_set(shape, 5, 5, "wrap")
    model = thmm_mod.init_thmm(ts, 1, degraded, seed=seed,
                               motion=uniform_motion(1.5))
    model, _ = thmm_mod.fit(model, degraded, 30, tol=0.0)

    psi_ratio = model.psi[mask].mean() / model.psi[~mask].mean()
    den = thmm_mod.denoise(model, degraded, mode="soft")
    mse_deg = float(np.mean((degraded[:, mask] - clean[:, mask]) ** 2))
    mse_den = float(np.mean((den[:, mask] - clean[:, mask]) ** 2))
    reduction = 1.0 - mse_den / mse_deg
    ok = psi_ratio >= 5.0 and reduction >= 0.5
    report(8, ok, f"occluded-bar sensor variance ratio {psi_ratio:.1f} >= 5 "
                  f"and soft-denoise bar-MSE reduction {reduction:.2f} >= 0.5")
    assert ok


def test_acceptance_9_property_suites():
    rng = np.random.default_rng(400)
    from oracles import dense_matrix
    from transmix import transform_diag_cov, apply_adjoint

    # transform-ops: wrap bijection, diag-cov vs dense, grid indexing
    for _ in range(100):
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        shape = ImageShape(h, w)
        op = shift_op(shape, int(rng.integers(-6, 7)), int(rng.integers(-6, 7)),
                      "wrap")
        v = rng.standard_normal(shape.n)
        assert np.allclose(apply_adjoint(op, apply(op, v)), v, atol=1e-12)

        boundary = "wrap" if rng.random() < 0.5 else "zero"
        op2 = shift_op(shape, int(rng.integers(-(h - 1), h)),
                       int(rng.integers(-(w - 1), w)), boundary)
        phi = rng.uniform(0.2, 2.0, shape.n)
        psi = rng.uniform(0.0, 1.0, shape.n)
        g = dense_matrix(op2)
        dense = np.diag(g @ np.diag(phi) @ g.T) + psi
        assert np.allclose(transform_diag_cov(op2, phi, psi), dense, atol=1e-13)

        mv, mh = int(rng.integers(1, 4)) * 2 + 1, int(rng.integers(1, 4)) * 2 + 1
        big = ImageShape(max(mv, 4), max(mh, 4))
        ts = build_translation_set(big, mv, mh)
        l = int(rng.integers(ts.L))
        di, dj = ts.grid_offsets()[l]
        assert ts.grid_index(di, dj) == l
        ref = shift_op(big, di, dj, "wrap")
        assert np.array_equal(ts[l].source_index, ref.source_index)

    # static-models: responsibility normalization and classify shift-invariance
    for case in range(100):
        model = random_instance(rng, ("tmg", "tca", "mtca")[case % 3],
                                wrap_only=False)
        x = rng.uniform(-1, 1, model.n)
        mod = {0: tmg_mod, 1: tca_mod, 2: mtca_mod}[case % 3]
        post = mod.posterior(model, x)
        assert abs(post.resp.sum() - 1.0) <= 1e-12
        assert np.all(post.z_var_diag > 0)
        assert np.isfinite(post.loglik)

    class Shifted:
        def __init__(self, inner, delta):
            self.inner, self.delta = inner, delta

        def loglik(self, x):
            from transmix.classify import marginal_loglik
            return marginal_loglik(self.inner, x) + self.delta

    for case in range(100):
        a = random_instance(rng, "tmg", wrap_only=False)
        b = TmgModel(transforms=a.transforms, pi=a.pi,
                     mu=a.mu + rng.uniform(-1, 1, a.mu.shape), phi=a.phi,
                     rho=a.rho, psi=a.psi)
        x = rng.uniform(-1, 1, a.n)
        delta = float(rng.uniform(-50, 50))
        assert bayes_classify([a, b], x) == \
            bayes_classify([Shifted(a, delta), Shifted(b, delta)], x)

    # TMG fit equivariance under a fixed wrap permutation
    shape = ImageShape(3, 3)
    ts = build_translation_set(shape, 3, 3)
    for case in range(100):
        sigma = shift_op(shape, int(rng.integers(3)), int(rng.integers(3)), "wrap")
        X = rng.uniform(0, 1, (6, 9))
        opts = EmOptions(freeze_rho=True)

        def train(data):
            model = tmg_mod.init_tmg(ts, 1, data, seed=case, mean_noise=0.0)
            model, _ = tmg_mod.fit(model, data, 3, opts, tol=0.0)
            return model

        assert np.allclose(apply(sigma, train(X).mu[0]),
                           train(apply(sigma, X)).mu[0], atol=1e-6)

    # thmm: normalization, xi mass, Viterbi dominance, thresholds,
    # wrap-shift equivariance
    from test_thmm import path_logprob, random_thmm
    for case in range(100):
        model = random_thmm(500 + case, grid=(2, 2), C=2, threshold=1.0,
                            per_class=bool(case % 2),
                            mode="vector" if case % 3 else "magnitude")
        frames = rng.uniform(-1, 1, (4, model.n))
        post = forward_backward(model, frames)
        assert np.allclose(post.gamma.sum(axis=(1, 2)), 1.0, atol=1e-10)
        assert abs(post.xi_motion.sum() - 3.0) <= 1e-9
        path = viterbi(model, frames)
        vit = path[:, 0] * model.L + path[:, 1]
        point = post.gamma.reshape(4, -1).argmax(axis=1)
        assert path_logprob(model, frames, vit) >= \
            path_logprob(model, frames, point) - 1e-12

        trans = dense_transition(model)
        mv, mh = model.transforms.grid
        for s1 in range(trans.shape[0]):
            for s2 in range(trans.shape[0]):
                if trans[s1, s2] > 0:
                    i1, j1 = divmod(s1 % model.L, mh)
                    i2, j2 = divmod(s2 % model.L, mh)
                    di = min((i2 - i1) % mv, (i1 - i2) % mv)
                    dj = min((j2 - j1) % mh, (j1 - j2) % mh)
                    assert math.hypot(di, dj) <= model.motion.threshold + 1e-9

    for case in range(100):
        model = random_thmm(700 + case, grid=(3, 3), shape=ImageShape(3, 3),
                            C=2, mode="magnitude", threshold=1.5,
                            scalar_psi=True, uniform_pi=True)
        frames, _ = sample_sequence(model, 5, seed=case)
        a, b = int(rng.integers(3)), int(rng.integers(3))
        shifted = apply(shift_op(model.shape, a, b, "wrap"), frames)
        assert score_sequence(model, shifted) == pytest.approx(
            score_sequence(model, frames), abs=1e-8)
        base = thmm_mod.track(model, frames)
        moved = thmm_mod.track(model, shifted)
        assert np.array_equal((base[:, 1] + a) % 3, moved[:, 1] % 3)
        assert np.array_equal((base[:, 2] + b) % 3, moved[:, 2] % 3)

    report(9, True, "transform/static/dynamic property suites, "
                    ">= 100 random cases per invariant")


def test_acceptance_10_reproducible_training(tmp_path):
    man = Manifest.load(Path(__file__).resolve().parents[1]
                        / "manifests" / "pacman-small.txt")
    p1 = cmd_train(man, tmp_path / "run1")
    p2 = cmd_train(man, tmp_path / "run2")
    same = p1.read_bytes() == p2.read_bytes()
    report(10, same, "cmd_train on the bundled manifest twice gives "
                     "byte-identical model files")
    assert same
