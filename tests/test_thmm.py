import math

import numpy as np
import pytest

from transmix import EmOptions, ImageShape, TransformationSet, UnderflowError
from transmix import apply, build_translation_set, identity_set, shift_op
from transmix import thmm as thmm_mod
from transmix import tmg as tmg_mod
from transmix.thmm import (MotionPrior, ThmmModel, dense_transition, denoise,
                           emission_loglik, emission_table, forward_backward,
                           from_tmg, em_step, fit, init_thmm, sample_sequence,
                           score_sequence, stabilize, track, uniform_motion,
                           viterbi)

from oracles import dense_matrix, gauss_logpdf, hmm_enumerate


def make_grid_set(shape, mv, mh, boundary="wrap"):
    """Grid-structured shift set without the odd-count restriction of the
    public builder (tests need tiny even grids)."""
    ops, params = [], []
    for i in range(mv):
        for j in range(mh):
            di, dj = i - mv // 2, j - mh // 2
            ops.append(shift_op(shape, di, dj, boundary))
            params.append((float(di), float(dj)))
    return TransformationSet(tuple(ops), boundary, grid=(mv, mh),
                             params=tuple(params), kind="translate")


def random_motion(rng, threshold, mode, per_class, C):
    prior = uniform_motion(threshold, mode, per_class, C)
    table = np.where(prior.table > 0, rng.uniform(0.2, 1.0, prior.table.shape), 0.0)
    flat = table.reshape(C, -1) if per_class else table.reshape(1, -1)
    flat /= flat.sum(axis=1, keepdims=True)
    return MotionPrior(mode=mode, threshold=threshold,
                       table=table if per_class else flat.reshape(prior.table.shape),
                       per_class=per_class)


def random_thmm(seed, shape=ImageShape(2, 2), grid=(2, 2), C=2,
                boundary="wrap", mode="vector", per_class=False,
                threshold=1.0, scalar_psi=False, uniform_pi=False):
    rng = np.random.default_rng(seed)
    ts = make_grid_set(shape, *grid, boundary)
    n, L = shape.n, ts.L
    pi_s = np.full((C, L), 1.0 / (C * L)) if uniform_pi \
        else rng.dirichlet(np.ones(C * L)).reshape(C, L)
    psi = np.full(n, rng.uniform(0.3, 0.8)) if scalar_psi \
        else rng.uniform(0.3, 1.0, n)
    return ThmmModel(shape=shape, transforms=ts,
                     mu=rng.uniform(-1, 1, (C, n)),
                     phi=rng.uniform(0.3, 1.5, (C, n)),
                     psi=psi, pi_s=pi_s,
                     class_trans=rng.dirichlet(np.ones(C) * 3, size=C),
                     motion=random_motion(rng, threshold, mode, per_class, C))


def oracle_transition(model):
    """Dense transition matrix rebuilt from the factorization rules with
    plain loops, independent of the library's kernel machinery."""
    mv, mh = model.transforms.grid
    C, L = model.C, model.L
    thr = model.motion.threshold
    r = int(math.floor(thr))
    offs = [(di, dj) for di in range(-r, r + 1) for dj in range(-r, r + 1)
            if math.hypot(di, dj) <= thr + 1e-9]

    def bin_key(di, dj):
        if model.motion.mode == "vector":
            return (di, dj)
        return int(np.rint(math.hypot(di, dj)))

    mult = {}
    for o in offs:
        mult[bin_key(*o)] = mult.get(bin_key(*o), 0) + 1

    def kweight(c, di, dj):
        tab = model.motion.table[c] if model.motion.per_class else model.motion.table
        if model.motion.mode == "vector":
            w = tab[di + r, dj + r]
        else:
            w = tab[bin_key(di, dj)]
        return w / mult[bin_key(di, dj)]

    wrap = model.transforms.boundary == "wrap"
    out = np.zeros((C * L, C * L))
    for c in range(C):
        for i in range(mv):
            for j in range(mh):
                feas = [(di, dj) for di, dj in offs
                        if wrap or (0 <= i + di < mv and 0 <= j + dj < mh)]
                z = sum(kweight(c, di, dj) for di, dj in feas)
                for di, dj in feas:
                    i2, j2 = (i + di) % mv, (j + dj) % mh
                    for c2 in range(C):
                        out[c * L + i * mh + j, c2 * L + i2 * mh + j2] += \
                            model.class_trans[c, c2] * kweight(c, di, dj) / z
    return out


def oracle_emissions(model, frames):
    T = frames.shape[0]
    out = np.empty((T, model.C * model.L))
    for t in range(T):
        for c in range(model.C):
            for l in range(model.L):
                g = dense_matrix(model.transforms[l])
                cov = g @ np.diag(model.phi[c]) @ g.T + np.diag(model.psi)
                out[t, c * model.L + l] = gauss_logpdf(frames[t], g @ model.mu[c], cov)
    return out


def test_emission_reduces_to_tmg():
    shape = ImageShape(2, 2)
    ts = make_grid_set(shape, 1, 1)
    rng = np.random.default_rng(0)
    model = ThmmModel(shape=shape, transforms=ts, mu=rng.uniform(-1, 1, (1, 4)),
                      phi=rng.uniform(0.3, 1.0, (1, 4)), psi=rng.uniform(0.3, 1.0, 4),
                      pi_s=np.ones((1, 1)), class_trans=np.ones((1, 1)),
                      motion=uniform_motion(1.0))
    as_tmg = tmg_mod.TmgModel(shape=shape, transforms=ts, pi=np.ones(1),
                              mu=model.mu, phi=model.phi, rho=np.ones((1, 1)),
                              psi=model.psi)
    x = rng.uniform(-1, 1, 4)
    assert emission_loglik(model, x)[0, 0] == pytest.approx(
        tmg_mod.cond_loglik(as_tmg, x, 0, 0), abs=1e-12)


def test_emission_matches_dense_oracle():
    model = random_thmm(1)
    x = np.random.default_rng(2).uniform(-1, 1, model.n)
    table = emission_loglik(model, x)
    ref = oracle_emissions(model, x[None])[0].reshape(model.C, model.L)
    assert np.allclose(table, ref, atol=1e-8)


def test_emission_argmax_recovers_construction():
    shape = ImageShape(3, 3)
    ts = make_grid_set(shape, 3, 3)
    mu = np.zeros((2, 9))
    mu[0, 4] = 1.0
    mu[1, [0, 5]] = 1.0, 0.6
    model = ThmmModel(shape=shape, transforms=ts, mu=mu,
                      phi=np.full((2, 9), 1e-4), psi=np.full(9, 1e-4),
                      pi_s=np.full((2, 9), 1.0 / 18),
                      class_trans=np.full((2, 2), 0.5),
                      motion=uniform_motion(1.0))
    for c_star in range(2):
        for l_star in range(9):
            x = apply(ts[l_star], mu[c_star])
            table = emission_loglik(model, x)
            c_hat, l_hat = np.unravel_index(np.argmax(table), table.shape)
            assert (c_hat, l_hat) == (c_star, l_star)


def test_forward_backward_t1():
    model = random_thmm(3)
    x = np.random.default_rng(4).uniform(-1, 1, model.n)
    post = forward_backward(model, x[None])
    log_joint = emission_loglik(model, x) + np.log(model.pi_s)
    expected = np.exp(log_joint - post.loglik)
    assert np.allclose(post.gamma[0], expected, atol=1e-12)
    assert post.gamma[0].sum() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_forward_backward_matches_enumeration(seed):
    per_class = seed % 2 == 0
    mode = "vector" if seed % 3 else "magnitude"
    boundary = "wrap" if seed % 2 else "zero"
    model = random_thmm(seed + 10, grid=(2, 2), C=2, boundary=boundary,
                        mode=mode, per_class=per_class, threshold=1.0)
    frames = np.random.default_rng(seed + 50).uniform(-1, 1, (4, model.n))
    post = forward_backward(model, frames)

    trans = oracle_transition(model)
    assert np.allclose(trans.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(dense_transition(model), trans, atol=1e-12)
    log_e = oracle_emissions(model, frames)
    loglik, gamma, xi, best_path, best_score = hmm_enumerate(
        model.pi_s.reshape(-1), trans, log_e)

    assert post.loglik == pytest.approx(loglik, abs=1e-10)
    assert np.allclose(post.gamma.reshape(4, -1), gamma, atol=1e-10)
    # pooled statistics agree with the enumerated transition counts
    xi_class_ref = np.zeros((model.C, model.C))
    for s1 in range(trans.shape[0]):
        for s2 in range(trans.shape[0]):
            xi_class_ref[s1 // model.L, s2 // model.L] += xi[s1, s2]
    assert np.allclose(post.xi_class, xi_class_ref, atol=1e-10)
    assert post.xi_motion.sum() == pytest.approx(3.0, abs=1e-9)

    path = viterbi(model, frames)
    lumped = path[:, 0] * model.L + path[:, 1]
    assert np.array_equal(lumped, best_path)
    assert score_sequence(model, frames) == pytest.approx(loglik, abs=1e-10)


def test_uniform_emissions_give_prior_chain():
    shape = ImageShape(2, 2)
    ts = make_grid_set(shape, 2, 2)
    rng = np.random.default_rng(20)
    mu = np.tile(np.full(4, 0.4), (2, 1))       # shift-invariant templates
    phi = np.tile(np.full(4, 0.7), (2, 1))
    model = ThmmModel(shape=shape, transforms=ts, mu=mu, phi=phi,
                      psi=np.full(4, 0.5),
                      pi_s=rng.dirichlet(np.ones(8)).reshape(2, 4),
                      class_trans=rng.dirichlet(np.ones(2), size=2),
                      motion=random_motion(rng, 1.0, "vector", False, 2))
    frames = np.full((5, 4), 0.3)
    post = forward_backward(model, frames)
    trans = oracle_transition(model)
    marg = model.pi_s.reshape(-1)
    for t in range(5):
        assert np.allclose(post.gamma[t].reshape(-1), marg, atol=1e-10)
        marg = marg @ trans


def test_viterbi_t1_and_deterministic_chain():
    model = random_thmm(21)
    x = np.random.default_rng(22).uniform(-1, 1, model.n)
    path = viterbi(model, x[None])
    log_joint = emission_loglik(model, x) + np.log(model.pi_s)
    c, l = np.unravel_index(np.argmax(log_joint), log_joint.shape)
    assert tuple(path[0]) == (c, l)

    # deterministic dynamics: swap classes, always move one step right
    shape = ImageShape(2, 2)
    ts = make_grid_set(shape, 1, 3)
    table = np.zeros((3, 3))
    table[1, 2] = 1.0  # displacement (0, +1)
    motion = MotionPrior(mode="vector", threshold=1.0, table=table)
    pi_s = np.zeros((2, 3))
    pi_s[0, 0] = 1.0
    model = ThmmModel(shape=shape, transforms=ts,
                      mu=np.tile(np.full(4, 0.2), (2, 1)),
                      phi=np.full((2, 4), 0.5), psi=np.full(4, 0.5),
                      pi_s=pi_s, class_trans=np.array([[0.0, 1.0], [1.0, 0.0]]),
                      motion=motion)
    frames = np.full((5, 4), 0.1)
    path = viterbi(model, frames)
    expected_c = [0, 1, 0, 1, 0]
    expected_l = [(0 + t) % 3 for t in range(5)]
    assert np.array_equal(path[:, 0], expected_c)
    assert np.array_equal(path[:, 1], expected_l)


def path_logprob(model, frames, lumped_path):
    trans = oracle_transition(model)
    log_e = oracle_emissions(model, frames)
    lp = np.log(model.pi_s.reshape(-1)[lumped_path[0]]) + log_e[0, lumped_path[0]]
    for t in range(1, len(lumped_path)):
        with np.errstate(divide="ignore"):
            lp += np.log(trans[lumped_path[t - 1], lumped_path[t]])
        lp += log_e[t, lumped_path[t]]
    return lp


def test_viterbi_beats_pointwise_decoding():
    for seed in range(10):
        model = random_thmm(seed + 30, grid=(2, 2), threshold=1.0,
                            per_class=bool(seed % 2))
        frames = np.random.default_rng(seed + 70).uniform(-1, 1, (5, model.n))
        post = forward_backward(model, frames)
        vit = post.map_path[:, 0] * model.L + post.map_path[:, 1]
        point = post.gamma.reshape(5, -1).argmax(axis=1)
        assert path_logprob(model, frames, vit) >= \
            path_logprob(model, frames, point) - 1e-12


def test_motion_threshold_respected():
    model = random_thmm(40, grid=(2, 2), threshold=1.0)
    trans = dense_transition(model)
    mv, mh = model.transforms.grid
    for s1 in range(trans.shape[0]):
        for s2 in range(trans.shape[0]):
            if trans[s1, s2] <= 0:
                continue
            l1, l2 = s1 % model.L, s2 % model.L
            i1, j1 = divmod(l1, mh)
            i2, j2 = divmod(l2, mh)
            di = min((i2 - i1) % mv, (i1 - i2) % mv)
            dj = min((j2 - j1) % mh, (j1 - j2) % mh)
            assert math.hypot(di, dj) <= model.motion.threshold + 1e-9


def test_em_reduces_to_tmg_for_single_state_dynamics():
    shape = ImageShape(2, 2)
    ts = make_grid_set(shape, 1, 1)
    rng = np.random.default_rng(41)
    X = rng.uniform(0, 1, (15, 4))
    thmm = ThmmModel(shape=shape, transforms=ts, mu=rng.uniform(0, 1, (1, 4)),
                     phi=np.full((1, 4), 0.5), psi=np.full(4, 0.5),
                     pi_s=np.ones((1, 1)), class_trans=np.ones((1, 1)),
                     motion=uniform_motion(0.0))
    tmg = tmg_mod.TmgModel(shape=shape, transforms=ts, pi=np.ones(1),
                           mu=thmm.mu, phi=thmm.phi, rho=np.ones((1, 1)),
                           psi=thmm.psi)
    new_thmm, ll_thmm = em_step(thmm, X)
    new_tmg, ll_tmg = tmg_mod.em_step(tmg, X)
    assert ll_thmm == pytest.approx(ll_tmg, abs=1e-9)
    assert np.allclose(new_thmm.mu, new_tmg.mu, atol=1e-10)
    assert np.allclose(new_thmm.phi, new_tmg.phi, atol=1e-10)
    assert np.allclose(new_thmm.psi, new_tmg.psi, atol=1e-10)


def test_em_monotone_on_sampled_sequences():
    gen = random_thmm(42, shape=ImageShape(3, 3), grid=(3, 3), C=2,
                      threshold=1.0, per_class=True)
    frames, _ = sample_sequence(gen, 40, seed=43)
    model = init_thmm(gen.transforms, 2, frames, seed=44,
                      motion=uniform_motion(1.0, per_class=True, n_classes=2))
    previous = -np.inf
    for _ in range(30):
        model, total = em_step(model, frames)
        assert total >= previous - 1e-9 * abs(previous)
        previous = total


def test_em_clamped_motion_stays_fixed():
    gen = random_thmm(45, grid=(3, 3), shape=ImageShape(3, 3), threshold=1.0)
    frames, _ = sample_sequence(gen, 20, seed=46)
    clamp = uniform_motion(1.0).table
    model, _ = em_step(gen, frames, EmOptions(clamp_motion=clamp))
    assert np.array_equal(model.motion.table, clamp)
    model2, _ = em_step(gen, frames, EmOptions(freeze_motion=True))
    assert np.array_equal(model2.motion.table, gen.motion.table)


def test_denoise_limits():
    shape = ImageShape(3, 3)
    ts = make_grid_set(shape, 3, 3)
    rng = np.random.default_rng(47)
    mu = rng.uniform(0, 1, (1, 9))
    frames = rng.uniform(0, 1, (4, 9))
    common = dict(shape=shape, transforms=ts, mu=mu, phi=np.full((1, 9), 0.2),
                  pi_s=np.full((1, 9), 1.0 / 9),
                  class_trans=np.ones((1, 1)),
                  motion=uniform_motion(1.0))
    tiny_psi = ThmmModel(psi=np.full(9, 1e-9), **common)
    assert np.allclose(denoise(tiny_psi, frames, mode="soft"), frames, atol=1e-5)
    huge_psi = ThmmModel(psi=np.full(9, 1e9), **common)
    out = denoise(huge_psi, frames, mode="soft")
    states = forward_backward(huge_psi, frames)
    for t in range(4):
        c, l = np.unravel_index(states.gamma[t].argmax(), (1, 9))
        assert np.allclose(out[t], apply(ts[l], mu[c]), atol=1e-5)


def test_stabilize_identity_set_equals_soft_denoise():
    shape = ImageShape(2, 2)
    ts = make_grid_set(shape, 1, 1)
    rng = np.random.default_rng(48)
    model = ThmmModel(shape=shape, transforms=ts, mu=rng.uniform(0, 1, (2, 4)),
                      phi=np.full((2, 4), 0.3), psi=np.full(4, 0.2),
                      pi_s=np.full((2, 1), 0.5),
                      class_trans=np.full((2, 2), 0.5),
                      motion=uniform_motion(0.0))
    frames = rng.uniform(0, 1, (5, 4))
    assert np.allclose(stabilize(model, frames),
                       denoise(model, frames, mode="soft"))


def test_stabilize_registers_moving_scene():
    rng = np.random.default_rng(49)
    shape = ImageShape(5, 5)
    ts = build_translation_set(shape, 5, 5)
    scene = rng.uniform(0, 1, 25)
    walk = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 1), (1, 1), (1, 0)]
    frames = np.stack([apply(ts[ts.grid_index(di, dj)], scene)
                       for di, dj in walk])
    frames += 0.02 * rng.standard_normal(frames.shape)
    model = ThmmModel(shape=shape, transforms=ts,
                      mu=scene[None, :] + 0.01,
                      phi=np.full((1, 25), 0.02), psi=np.full(25, 0.02 ** 2),
                      pi_s=np.full((1, 25), 1.0 / 25),
                      class_trans=np.ones((1, 1)),
                      motion=uniform_motion(1.5))
    stab = stabilize(model, frames)

    def pairwise_mse(seq):
        diffs = seq[1:] - seq[:-1]
        return float(np.mean(diffs ** 2))

    assert pairwise_mse(stab) <= 0.1 * pairwise_mse(frames)


def test_stabilize_t1_matches_static_posterior_mean():
    model = random_thmm(50, grid=(3, 3), shape=ImageShape(3, 3), threshold=1.0)
    x = np.random.default_rng(51).uniform(-1, 1, model.n)
    out = stabilize(model, x[None])
    class_marg = model.pi_s.sum(axis=1)
    as_tmg = tmg_mod.TmgModel(shape=model.shape, transforms=model.transforms,
                              pi=class_marg, mu=model.mu, phi=model.phi,
                              rho=(model.pi_s / class_marg[:, None]).T,
                              psi=model.psi)
    post = tmg_mod.posterior(as_tmg, x)
    l_hat, c_hat = np.unravel_index(post.resp.argmax(), post.resp.shape)
    assert np.allclose(out[0], post.z_mean[l_hat, c_hat], atol=1e-10)


def test_track_static_and_t1():
    shape = ImageShape(3, 3)
    ts = make_grid_set(shape, 3, 3)
    rng = np.random.default_rng(52)
    mu = np.zeros((1, 9))
    mu[0, 4] = 1.0
    model = ThmmModel(shape=shape, transforms=ts, mu=mu,
                      phi=np.full((1, 9), 0.01), psi=np.full(9, 0.01),
                      pi_s=np.full((1, 9), 1.0 / 9),
                      class_trans=np.ones((1, 1)),
                      motion=uniform_motion(1.0))
    frames = np.tile(mu[0], (6, 1)) + 0.01 * rng.standard_normal((6, 9))
    out = track(model, frames)
    assert np.array_equal(out[:, 1:3], np.zeros((6, 2)))

    single = track(model, frames[:1])
    post = forward_backward(model, frames[:1])
    c, l = np.unravel_index(post.gamma[0].argmax(), (1, 9))
    offsets = ts.grid_offsets()
    assert tuple(single[0, :3].astype(int)) == (c, offsets[l, 0], offsets[l, 1])


def test_smoothed_decoding_runs_no_viterbi_pass(monkeypatch):
    def no_viterbi(*args, **kwargs):
        raise AssertionError("Viterbi pass run for smoothed decoding")

    model = random_thmm(53, grid=(3, 3), shape=ImageShape(3, 3), threshold=1.0)
    frames = np.random.default_rng(54).uniform(-1, 1, (5, model.n))
    monkeypatch.setattr(thmm_mod, "viterbi", no_viterbi)
    assert track(model, frames, use_viterbi=False).shape == (5, 4)
    assert denoise(model, frames, mode="soft", use_viterbi=False).shape == frames.shape
    assert stabilize(model, frames, use_viterbi=False).shape == frames.shape


def test_score_paired_models():
    # mismatched templates and motion habits: A holds a bright center blob
    # drifting right, B a corner blob drifting down
    shape = ImageShape(3, 3)
    ts = make_grid_set(shape, 3, 3)

    def build(bright_pixel, step):
        mu = np.full((1, 9), 0.1)
        mu[0, bright_pixel] = 1.0
        r = 1
        table = np.zeros((3, 3))
        table[r, r] = 0.3
        table[r + step[0], r + step[1]] = 0.7
        return ThmmModel(shape=shape, transforms=ts, mu=mu,
                         phi=np.full((1, 9), 0.02), psi=np.full(9, 0.02),
                         pi_s=np.full((1, 9), 1.0 / 9),
                         class_trans=np.ones((1, 1)),
                         motion=MotionPrior("vector", 1.0, table))

    a = build(4, (0, 1))
    b = build(0, (1, 0))
    wins = 0
    for trial in range(50):
        frames, _ = sample_sequence(a, 12, seed=100 + trial)
        wins += score_sequence(a, frames) > score_sequence(b, frames)
    assert wins >= 48


def test_wrap_shift_equivariance():
    model = random_thmm(62, grid=(3, 3), shape=ImageShape(3, 3), C=2,
                        mode="magnitude", threshold=1.5, scalar_psi=True,
                        uniform_pi=True)
    rng = np.random.default_rng(63)
    frames, _ = sample_sequence(model, 6, seed=64)
    sigma = shift_op(model.shape, 1, 2, "wrap")
    shifted = apply(sigma, frames)

    assert score_sequence(model, shifted) == pytest.approx(
        score_sequence(model, frames), abs=1e-8)
    base = track(model, frames)
    moved = track(model, shifted)
    assert np.array_equal(base[:, 0], moved[:, 0])
    mv, mh = model.transforms.grid
    assert np.array_equal((base[:, 1] + 1) % mv, moved[:, 1] % mv)
    assert np.array_equal((base[:, 2] + 2) % mh, moved[:, 2] % mh)


def test_underflow_error():
    model = random_thmm(65)
    with pytest.raises(UnderflowError):
        score_sequence(model, np.full((3, model.n), 1e200))


def test_from_tmg_promotion():
    shape = ImageShape(3, 3)
    ts = make_grid_set(shape, 3, 3)
    rng = np.random.default_rng(66)
    tmg = tmg_mod.TmgModel(shape=shape, transforms=ts,
                           pi=np.array([0.7, 0.3]),
                           mu=rng.uniform(0, 1, (2, 9)),
                           phi=np.full((2, 9), 0.4),
                           rho=np.full((9, 2), 1.0 / 9),
                           psi=np.full(9, 0.3))
    model = from_tmg(tmg, align_gauge=False)
    assert np.array_equal(model.mu, tmg.mu)
    assert model.pi_s.sum() == pytest.approx(1.0)
    assert np.allclose(model.class_trans.sum(axis=1), 1.0)


def test_from_tmg_gauge_alignment():
    # cluster 1 holds the same pattern as cluster 0, rolled by (1, 2); the
    # promotion should undo the roll so both templates share one frame
    shape = ImageShape(4, 4)
    ts = make_grid_set(shape, 3, 3)
    rng = np.random.default_rng(67)
    base = rng.uniform(0, 1, 16)
    rolled = apply(shift_op(shape, 1, 2, "wrap"), base)
    tmg = tmg_mod.TmgModel(shape=shape, transforms=ts,
                           pi=np.array([0.6, 0.4]),
                           mu=np.stack([base, rolled]),
                           phi=np.full((2, 16), 0.4),
                           rho=np.full((9, 2), 1.0 / 9),
                           psi=np.full(16, 0.3))
    model = from_tmg(tmg)
    assert np.allclose(model.mu[0], model.mu[1], atol=1e-12)
