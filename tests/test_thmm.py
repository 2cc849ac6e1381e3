import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from transmix import EmOptions, ImageShape, TransformationSet, UnderflowError
from transmix import apply, build_translation_set, identity_set, shift_op
from transmix import thmm as thmm_mod
from transmix import tmg as tmg_mod
from transmix.common import CUT
from transmix.thmm import (MotionPrior, ThmmModel, denoise, emission_loglik,
                           emission_table, forward_backward, from_tmg, em_step,
                           fit, init_thmm, sample_sequence, score_sequence,
                           stabilize, track, uniform_motion, viterbi)

from oracles import (dense_matrix, dense_transition, gauss_logpdf,
                     hmm_enumerate, hmm_forward_logdomain, hmm_viterbi_dense,
                     motion_kernel, motion_moves, thmm_backward_reference,
                     thmm_forward_reference)


def make_grid_set(shape, mv, mh, boundary="wrap"):
    """Grid-structured shift set without the odd-count restriction of the
    public builder (tests need tiny even grids)."""
    rows, params = [], []
    for i in range(mv):
        for j in range(mh):
            di, dj = i - mv // 2, j - mh // 2
            rows.append(shift_op(shape, di, dj, boundary).source_index)
            params.append((float(di), float(dj)))
    return TransformationSet(np.stack(rows), shape, boundary, grid=(mv, mh),
                             params=tuple(params), kind="translate")


def random_motion(rng, threshold, mode, per_class, C):
    prior = uniform_motion(threshold, mode, C if per_class else None)
    table = np.where(prior.table > 0, rng.uniform(0.2, 1.0, prior.table.shape), 0.0)
    flat = table.reshape(C, -1) if per_class else table.reshape(1, -1)
    flat /= flat.sum(axis=1, keepdims=True)
    return MotionPrior(mode=mode, threshold=threshold,
                       table=table if per_class else flat.reshape(prior.table.shape))


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
    return ThmmModel(transforms=ts,
                     mu=rng.uniform(-1, 1, (C, n)),
                     phi=rng.uniform(0.3, 1.5, (C, n)),
                     psi=psi, pi_s=pi_s,
                     class_trans=rng.dirichlet(np.ones(C) * 3, size=C),
                     motion=random_motion(rng, threshold, mode, per_class, C))


def dynamics_transition(model):
    """(C*L, C*L) transition matrix materialized from the library's motion
    step tables (`thmm._Dynamics`), lumped index c * L + l."""
    dyn = thmm_mod._Dynamics(model)
    C, L = model.C, model.L
    motion = np.zeros((C, L, L))
    np.add.at(motion, (np.arange(C)[:, None, None], np.arange(L), dyn.dst),
              np.exp(dyn.log_from - dyn.log_z[:, None, :]))
    out = model.class_trans[:, None, :, None] * motion[:, :, None, :]
    return out.reshape(C * L, C * L)


def oracle_motion_counts(model, xi):
    """Expected motion-table counts from enumerated lumped transition counts
    xi (S, S): each (s -> s') count is spread over the displacements that
    carry l onto l', in proportion to their weights, then pooled per bin."""
    C, L = model.C, model.L
    _, bin_index, _ = motion_kernel(model)
    out = np.zeros_like(model.motion.table)
    for c in range(C):
        for l in range(L):
            moves = motion_moves(model, c, l)
            for s2 in range(C * L):
                l2 = s2 % L
                into = [(d, w) for d, w, target in moves if target == l2]
                total = sum(w for _, w in into)
                for d, w in into:
                    idx = bin_index(*d)
                    if model.motion.per_class:
                        idx = (c,) + idx
                    out[idx] += xi[c * L + l, s2] * w / total
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
    model = ThmmModel(transforms=ts, mu=rng.uniform(-1, 1, (1, 4)),
                      phi=rng.uniform(0.3, 1.0, (1, 4)), psi=rng.uniform(0.3, 1.0, 4),
                      pi_s=np.ones((1, 1)), class_trans=np.ones((1, 1)),
                      motion=uniform_motion(1.0))
    as_tmg = tmg_mod.TmgModel(transforms=ts, pi=np.ones(1),
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
    model = ThmmModel(transforms=ts, mu=mu,
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

    trans = dense_transition(model)
    assert np.allclose(trans.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(dynamics_transition(model), trans, atol=1e-12)
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
    model = ThmmModel(transforms=ts, mu=mu, phi=phi,
                      psi=np.full(4, 0.5),
                      pi_s=rng.dirichlet(np.ones(8)).reshape(2, 4),
                      class_trans=rng.dirichlet(np.ones(2), size=2),
                      motion=random_motion(rng, 1.0, "vector", False, 2))
    frames = np.full((5, 4), 0.3)
    post = forward_backward(model, frames)
    trans = dense_transition(model)
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
    model = ThmmModel(transforms=ts,
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
    trans = dense_transition(model)
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
        path = viterbi(model, frames)
        vit = path[:, 0] * model.L + path[:, 1]
        point = post.gamma.reshape(5, -1).argmax(axis=1)
        assert path_logprob(model, frames, vit) >= \
            path_logprob(model, frames, point) - 1e-12


VITERBI_GRIDS = [  # (grid, threshold): aliasing moves on the 3x3 and 4x3 tori
    ((3, 3), 2.0), ((4, 3), 2.0), ((5, 5), 1.5)]


@pytest.mark.parametrize("grid,threshold", VITERBI_GRIDS)
@pytest.mark.parametrize("boundary", ["wrap", "zero"])
@pytest.mark.parametrize("mode", ["vector", "magnitude"])
def test_viterbi_path_scores_the_dense_maximum(grid, threshold, boundary, mode):
    seed = 80 + 10 * VITERBI_GRIDS.index((grid, threshold)) \
        + 2 * (boundary == "wrap") + (mode == "vector")
    model = random_thmm(seed, shape=ImageShape(*grid), grid=grid, C=2,
                        boundary=boundary, mode=mode, threshold=threshold,
                        per_class=bool(seed % 2))
    frames = np.random.default_rng(seed).uniform(-1, 1, (5, model.n))
    trans = dense_transition(model)
    assert np.allclose(dynamics_transition(model), trans, atol=1e-12)
    want = hmm_viterbi_dense(model.pi_s.reshape(-1), trans,
                             oracle_emissions(model, frames))
    path = viterbi(model, frames)
    got = path_logprob(model, frames, path[:, 0] * model.L + path[:, 1])
    assert got == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("boundary", ["wrap", "zero"])
def test_xi_motion_per_bin_matches_enumeration(seed, boundary):
    # on the 2x2 torus the displacements +1 and -1 land on the same state
    model = random_thmm(seed + 90, grid=(2, 2), C=2, boundary=boundary,
                        mode="vector" if seed % 2 else "magnitude",
                        per_class=seed % 4 < 2, threshold=1.0)
    frames = np.random.default_rng(seed + 95).uniform(-1, 1, (4, model.n))
    trans = dense_transition(model)
    _, _, xi, _, _ = hmm_enumerate(model.pi_s.reshape(-1), trans,
                                   oracle_emissions(model, frames))
    post = forward_backward(model, frames)
    assert post.xi_motion.shape == model.motion.table.shape
    np.testing.assert_allclose(post.xi_motion, oracle_motion_counts(model, xi),
                               atol=1e-10)


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


@pytest.mark.parametrize("mode", ["vector", "magnitude"])
def test_motion_offsets_and_bins_match_the_hypot_definition(mode):
    """Displacements within each threshold, di major, and each one's bin:
    its own table cell (vector) or its rounded norm (magnitude).  A
    magnitude threshold that rounds some norm up past the table's last bin,
    floor(threshold), is refused."""
    for threshold in np.arange(0.0, 6.01, 0.25):
        r = math.floor(threshold)
        want = [(di, dj) for di in range(-r, r + 1) for dj in range(-r, r + 1)
                if math.hypot(di, dj) <= threshold + 1e-9]
        assert thmm_mod.motion_offsets(threshold).tolist() == [list(d) for d in want]
        if mode == "vector":
            bins = [np.ravel_multi_index((di + r, dj + r), (2 * r + 1, 2 * r + 1))
                    for di, dj in want]
        else:
            bins = [round(math.hypot(di, dj)) for di, dj in want]
        if max(bins) > r and mode == "magnitude":
            with pytest.raises(ValueError, match="past the magnitude table"):
                uniform_motion(threshold, mode)
            continue
        prior = uniform_motion(threshold, mode, n_classes=2)
        assert prior.offsets.tolist() == [list(d) for d in want]
        assert prior.bins.tolist() == bins
        for c in range(2):
            cells = prior.table[c].reshape(-1)
            share = [cells[b] / bins.count(b) for b in bins]
            assert prior.weights()[c].tolist() == share


def test_em_reduces_to_tmg_for_single_state_dynamics():
    shape = ImageShape(2, 2)
    ts = make_grid_set(shape, 1, 1)
    rng = np.random.default_rng(41)
    X = rng.uniform(0, 1, (15, 4))
    thmm = ThmmModel(transforms=ts, mu=rng.uniform(0, 1, (1, 4)),
                     phi=np.full((1, 4), 0.5), psi=np.full(4, 0.5),
                     pi_s=np.ones((1, 1)), class_trans=np.ones((1, 1)),
                     motion=uniform_motion(0.0))
    tmg = tmg_mod.TmgModel(transforms=ts, pi=np.ones(1),
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
                      motion=uniform_motion(1.0, n_classes=2))
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
    model2, _ = em_step(gen, frames, EmOptions(clamp_motion=gen.motion.table))
    assert np.array_equal(model2.motion.table, gen.motion.table)


def test_denoise_limits():
    shape = ImageShape(3, 3)
    ts = make_grid_set(shape, 3, 3)
    rng = np.random.default_rng(47)
    mu = rng.uniform(0, 1, (1, 9))
    frames = rng.uniform(0, 1, (4, 9))
    common = dict(transforms=ts, mu=mu, phi=np.full((1, 9), 0.2),
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
    model = ThmmModel(transforms=ts, mu=rng.uniform(0, 1, (2, 4)),
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
    model = ThmmModel(transforms=ts,
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
    as_tmg = tmg_mod.TmgModel(transforms=model.transforms,
                              pi=class_marg, mu=model.mu, phi=model.phi,
                              rho=(model.pi_s / class_marg[:, None]).T,
                              psi=model.psi)
    post = tmg_mod.posterior(as_tmg, x)
    l_hat, c_hat = np.unravel_index(post.resp.argmax(), post.resp.shape)
    assert np.allclose(out[0], post.z_mean[l_hat, c_hat], atol=1e-10)


@pytest.mark.parametrize("task", ["soft", "hard", "stabilize"])
def test_decoding_on_a_zero_padded_grid_matches_per_frame_posteriors(task):
    """Each frame's output is the per-frame TMG posterior mean (or template)
    at its decoded state, seen through the state's op; the zero-padded grid
    has latent pixels that land nowhere and observed pixels with no source."""
    model = random_thmm(70, shape=ImageShape(3, 4), grid=(3, 3), C=2,
                        boundary="zero", threshold=1.5)
    assert model.transforms.has_void
    frames, _ = sample_sequence(model, 12, 71)
    if task == "hard":
        states = viterbi(model, frames)
        got = denoise(model, frames, mode="hard")
    else:
        best = forward_backward(model, frames).gamma.reshape(len(frames), -1).argmax(axis=1)
        states = np.stack(np.divmod(best, model.L), axis=1)
        got = (stabilize(model, frames) if task == "stabilize"
               else denoise(model, frames, mode="soft"))
    as_tmg = tmg_mod.TmgModel(transforms=model.transforms,
                              pi=np.full(2, 0.5), mu=model.mu, phi=model.phi,
                              rho=np.full((model.L, 2), 1.0 / model.L), psi=model.psi)
    assert len({tuple(s) for s in states}) > 1
    for t, (c, l) in enumerate(states):
        z = tmg_mod.posterior(as_tmg, frames[t]).z_mean[l, c]
        op = model.transforms[l]
        want = {"soft": apply(op, z), "hard": apply(op, model.mu[c]),
                "stabilize": z}[task]
        np.testing.assert_allclose(got[t], want, rtol=1e-12, atol=1e-12)


def test_track_static_and_t1():
    shape = ImageShape(3, 3)
    ts = make_grid_set(shape, 3, 3)
    rng = np.random.default_rng(52)
    mu = np.zeros((1, 9))
    mu[0, 4] = 1.0
    model = ThmmModel(transforms=ts, mu=mu,
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
        return ThmmModel(transforms=ts, mu=mu,
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


def test_unreachable_best_state_scores_exactly():
    # frame 1 is the template moved two pixels diagonally, beyond the
    # radius-1 motion prior; with tight variances every reachable state
    # explains it thousands of nats worse than the unreachable best one
    shape = ImageShape(5, 5)
    ts = build_translation_set(shape, 5, 5)
    rng = np.random.default_rng(67)
    C, n, L = 2, shape.n, ts.L
    mu = rng.uniform(0.0, 1.0, (C, n))
    pi_s = np.zeros((C, L))
    pi_s[:, ts.grid_index(0, 0)] = (0.7, 0.3)
    model = ThmmModel(transforms=ts, mu=mu,
                      phi=np.full((C, n), 5e-4), psi=np.full(n, 5e-4),
                      pi_s=pi_s, class_trans=np.array([[0.9, 0.1], [0.2, 0.8]]),
                      motion=uniform_motion(1.0))
    X = np.stack([apply(ts[ts.grid_index(0, 0)], mu[0]),
                  apply(ts[ts.grid_index(2, 2)], mu[0])])
    emis = emission_table(model, X)
    assert emis[1].max() - emis[1, :, ts.grid_index(1, 1)].max() > 800.0
    want = hmm_forward_logdomain(pi_s.reshape(-1), dense_transition(model),
                                 emis.reshape(2, -1))
    assert score_sequence(model, X) == pytest.approx(want, rel=1e-9, abs=1e-9)
    post = forward_backward(model, X)
    assert post.loglik == pytest.approx(want, rel=1e-9, abs=1e-9)
    np.testing.assert_allclose(post.gamma.sum(axis=(1, 2)), 1.0, rtol=1e-12)


def _far_start_case(boundary="wrap", motion=None):
    """Tight variances (1e-4) and frames at shifts (0, 0), (1, 1), (1, 1) on
    a 3x3 grid under threshold-1 motion: the only paths that reach frame 1's
    diagonal shift start from states thousands of nats below frame 0's best
    state.  Returns (model, frames, emission table, dense transition)."""
    shape = ImageShape(3, 3)
    ts = make_grid_set(shape, 3, 3, boundary)
    rng = np.random.default_rng(68)
    C, n, L = 2, shape.n, ts.L
    mu = rng.uniform(0.0, 1.0, (C, n))
    model = ThmmModel(transforms=ts, mu=mu,
                      phi=np.full((C, n), 1e-4), psi=np.full(n, 1e-4),
                      pi_s=np.full((C, L), 1.0 / (C * L)),
                      class_trans=np.array([[0.9, 0.1], [0.2, 0.8]]),
                      motion=motion or uniform_motion(1.0))
    frames = np.stack([apply(ts[ts.grid_index(0, 0)], mu[0])]
                      + 2 * [apply(ts[ts.grid_index(1, 1)], mu[0])])
    emis = emission_table(model, frames)
    assert emis[0, 0, ts.grid_index(0, 0)] - emis[0, 0, ts.grid_index(0, 1)] > 800.0
    return model, frames, emis, dense_transition(model)


def test_smoothing_exact_when_the_best_path_starts_far_below_the_best_state():
    model, frames, emis, trans = _far_start_case()
    C, L = model.C, model.L
    loglik, gamma, xi, _, _ = hmm_enumerate(model.pi_s.reshape(-1), trans,
                                            emis.reshape(3, -1))
    post = forward_backward(model, frames)
    assert post.loglik == pytest.approx(loglik, rel=1e-9)
    assert score_sequence(model, frames) == pytest.approx(loglik, rel=1e-9)
    np.testing.assert_allclose(post.gamma.reshape(3, -1), gamma, atol=1e-9)
    xi_class = xi.reshape(C, L, C, L).sum(axis=(1, 3))
    np.testing.assert_allclose(post.xi_class, xi_class, atol=1e-9)


@pytest.mark.parametrize("per_class", [False, True], ids=["shared", "per-class"])
@pytest.mark.parametrize("boundary", ["wrap", "zero"])
def test_xi_motion_exact_when_the_best_path_starts_far_below_the_best_state(
        boundary, per_class):
    # the backward pass weighs each move against the best move out of its
    # state; here those log weights and the states' posteriors reach far
    # below -700, where the per-bin counts must still match enumeration
    motion = random_motion(np.random.default_rng(69), 1.0, "vector", per_class, 2)
    model, frames, emis, trans = _far_start_case(boundary, motion)
    _, _, xi, _, _ = hmm_enumerate(model.pi_s.reshape(-1), trans,
                                   emis.reshape(3, -1))
    post = forward_backward(model, frames)
    want = oracle_motion_counts(model, xi)
    assert want.sum() == pytest.approx(2.0)
    np.testing.assert_allclose(post.xi_motion, want, rtol=1e-9, atol=1e-12)


def _class_switch_case(class_trans, boundary):
    """Tight variances (1e-4) on a 3x3 grid under threshold-1 motion; frame 0
    is class 0's template at shift (0, 0), frames 1 and 2 class 1's.  Class
    1 explains frame 0 more than 700 nats worse than class 0, so when
    class_trans carries little or nothing from class 0 to class 1, the class
    step of frame 1 rests on states far below their position's best class.
    Returns (model, frames, emission table, dense transition)."""
    shape = ImageShape(3, 3)
    ts = make_grid_set(shape, 3, 3, boundary)
    rng = np.random.default_rng(72)
    C, n, L = 2, shape.n, ts.L
    mu = rng.uniform(0.0, 1.0, (C, n))
    model = ThmmModel(transforms=ts, mu=mu,
                      phi=np.full((C, n), 1e-4), psi=np.full(n, 1e-4),
                      pi_s=np.full((C, L), 1.0 / (C * L)),
                      class_trans=np.array(class_trans), motion=uniform_motion(1.0))
    start = ts.grid_index(0, 0)
    frames = np.stack([apply(ts[start], mu[0])] + 2 * [apply(ts[start], mu[1])])
    emis = emission_table(model, frames)
    assert emis[0, 0, start] - emis[0, 1, start] > 700.0
    return model, frames, emis, dense_transition(model)


@pytest.mark.parametrize("boundary", ["wrap", "zero"])
def test_class_step_exact_through_a_tiny_class_transition(boundary):
    # the switch to class 1 has probability 1e-300, below the linear class
    # step's floor: those positions are summed in the log domain
    model, frames, emis, trans = _class_switch_case([[1.0, 1e-300], [0.5, 0.5]],
                                                    boundary)
    C, L = model.C, model.L
    loglik, gamma, xi, _, _ = hmm_enumerate(model.pi_s.reshape(-1), trans,
                                            emis.reshape(3, -1))
    post = forward_backward(model, frames)
    assert post.loglik == pytest.approx(loglik, rel=1e-12)
    assert score_sequence(model, frames) == pytest.approx(loglik, rel=1e-12)
    np.testing.assert_allclose(post.gamma.reshape(3, -1), gamma, rtol=1e-9, atol=1e-12)
    want = xi.reshape(C, L, C, L).sum(axis=(1, 3))
    assert want[0, 1] == pytest.approx(1.0)
    np.testing.assert_allclose(post.xi_class, want, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("boundary", ["wrap", "zero"])
def test_class_step_exact_through_a_zero_class_transition(boundary):
    # class 0 never switches to class 1, so frames 1 and 2 can only be class
    # 1 if frame 0 is, far below its position's best class
    model, frames, emis, trans = _class_switch_case([[1.0, 0.0], [0.5, 0.5]],
                                                    boundary)
    want = hmm_forward_logdomain(model.pi_s.reshape(-1), trans, emis.reshape(3, -1))
    assert score_sequence(model, frames) == pytest.approx(want, rel=1e-12)
    loglik, gamma, _, _, _ = hmm_enumerate(model.pi_s.reshape(-1), trans,
                                           emis.reshape(3, -1))
    post = forward_backward(model, frames)
    assert post.loglik == pytest.approx(loglik, rel=1e-12)
    np.testing.assert_allclose(post.gamma.reshape(3, -1), gamma, rtol=1e-9, atol=1e-12)
    assert post.xi_class[0, 1] == 0.0



@pytest.mark.parametrize("boundary", ["wrap", "zero"])
@pytest.mark.parametrize("switch", [1e-300, 0.0], ids=["tiny", "zero"])
def test_class_step_cuts_terms_at_or_below_the_cut_to_zero(switch, boundary, monkeypatch):
    """The class step's exponentials are exactly 0 at or below e^CUT of
    their position's best term, and exp(logs - top) above it, so the class
    counts read no clamped term."""
    model, frames, _, _ = _class_switch_case([[1.0, switch], [0.5, 0.5]], boundary)
    seen = []
    step = thmm_mod._class_step

    def spy(M, log_M, logs):
        result = step(M, log_M, logs)
        seen.append((logs.copy(), result))
        return result

    monkeypatch.setattr(thmm_mod, "_class_step", spy)
    forward_backward(model, frames)
    cut_finite = 0
    for logs, (_, lin, top, _) in seen:
        d = logs - np.where(top > -np.inf, top, 0.0)
        below = d <= CUT
        assert np.all(lin[below] == 0.0)
        np.testing.assert_array_equal(lin[~below], np.exp(d[~below]))
        cut_finite += np.count_nonzero(below & np.isfinite(logs))
    # the fixture does put a finite term below the cut
    assert cut_finite >= 1

REFERENCE_CASES = [  # (grid, boundary, mode, per_class, threshold)
    ((5, 5), "wrap", "vector", False, 1.5),
    ((5, 5), "wrap", "magnitude", True, 2.0),
    ((5, 5), "zero", "vector", True, 2.0),
    ((5, 5), "zero", "magnitude", False, 1.5),
    ((2, 5), "wrap", "vector", True, 1.5),   # 2-wide torus: rows +1 and -1 alias
    ((2, 5), "wrap", "magnitude", False, 1.0),
]


@pytest.mark.parametrize("grid,boundary,mode,per_class,threshold", REFERENCE_CASES)
def test_passes_match_the_log_domain_reference(grid, boundary, mode, per_class,
                                               threshold):
    """Both passes against the frame-by-frame log-domain recursions, on
    models past what path enumeration can check (L up to 25, C = 3, T = 20).
    Every table is held to 1e-12 relative with no absolute slack: the bound
    `forward_backward` states is below the least subnormal."""
    seed = 300 + REFERENCE_CASES.index((grid, boundary, mode, per_class, threshold))
    model = random_thmm(seed, shape=ImageShape(5, 5), grid=grid, C=3,
                        boundary=boundary, mode=mode, per_class=per_class,
                        threshold=threshold)
    frames, _ = sample_sequence(model, 20, seed)
    emis = emission_table(model, frames)
    dyn = thmm_mod._Dynamics(model)
    if grid[0] == 2:
        assert len(dyn.log_from[0]) < len(dyn.offsets)
    _check_passes(model, emis, dyn)


def _check_forward(model, emis, dyn):
    """`thmm._forward` against the log-domain reference recursion at 1e-12
    relative, -inf where the reference has -inf; returns its tables and the
    reference's (log_alpha, moved, steps, log_pred)."""
    ref = thmm_forward_reference(model.pi_s, model.class_trans, dyn, emis)
    log_alpha, _, steps, log_pred = ref
    fwd = thmm_mod._forward(model, emis, dyn)
    np.testing.assert_allclose(fwd.log_alpha, log_alpha, rtol=1e-12)
    np.testing.assert_allclose(fwd.log_pred, log_pred, rtol=1e-12)
    np.testing.assert_allclose(fwd.steps, steps, rtol=1e-12)
    assert fwd.loglik == pytest.approx(steps.sum(), rel=1e-12)
    return fwd, ref


def _check_passes(model, emis, dyn):
    """`thmm._forward` and `thmm._backward` against the log-domain reference
    recursions at 1e-12 relative; returns the smoothed marginals."""
    fwd, (log_alpha, moved, steps, _) = _check_forward(model, emis, dyn)
    gamma, xi_class, xi_moves = thmm_backward_reference(
        model.class_trans, dyn, emis, log_alpha, moved, steps)
    got = thmm_mod._backward(model, dyn, fwd)
    np.testing.assert_allclose(got[0], gamma, rtol=1e-12)
    np.testing.assert_allclose(got[1], xi_class, rtol=1e-12)
    np.testing.assert_allclose(got[2], xi_moves, rtol=1e-12)
    # decoding skips the counts and keeps gamma's bits
    assert np.array_equal(thmm_mod._backward(model, dyn, fwd, counts=False)[0], got[0])
    return got[0]


def _pacman_size_case(variance_scale, T=100, seed=310, boundary="wrap", **fields):
    """A model at pac-man's sizes (C = 6 on an 11x11 grid, wrap by default,
    per-class vector motion within threshold 3) with its variances scaled
    and any other `fields` replaced, a sequence of T frames sampled from
    it, its emission table and dynamics."""
    model = random_thmm(seed, shape=ImageShape(11, 11), grid=(11, 11), C=6,
                        boundary=boundary, per_class=True, threshold=3.0)
    model = replace(model, phi=model.phi * variance_scale,
                    psi=model.psi * variance_scale, **fields)
    frames, _ = sample_sequence(model, T, seed)
    return model, emission_table(model, frames), thmm_mod._Dynamics(model)


def _support_sizes(gamma):
    """Per frame, the number of positions where some class's gamma is
    nonzero, a subset of the positions the smoothing pass reads there (those
    above e^-800)."""
    return (gamma.max(axis=1) > 0).sum(axis=1)


def test_smoothing_matches_the_reference_on_a_concentrated_pacman_size_posterior():
    """Tight variances: the smoothed mass of most frames sits in a few of the
    121 positions, so the smoothing pass reads only those."""
    model, emis, dyn = _pacman_size_case(0.03)
    gamma = _check_passes(model, emis, dyn)
    support = _support_sizes(gamma)
    assert np.median(support) <= 8 and support.max() < model.L


def test_smoothing_matches_the_reference_on_a_flat_posterior():
    """Huge variances: every position holds smoothed mass in every frame,
    the smoothing pass's widest case."""
    model, emis, dyn = _pacman_size_case(1e4, T=30)
    gamma = _check_passes(model, emis, dyn)
    assert (_support_sizes(gamma) == model.L).all()


def _never_to_the_next_class(C=6, L=121, seed=311):
    """Class transitions under which no class switches to the next one
    (mod C), and a start in class 0 at the grid's centre only."""
    trans = np.random.default_rng(seed).dirichlet(np.ones(C) * 3, size=C)
    trans[np.arange(C), (np.arange(C) + 1) % C] = 0.0
    pi_s = np.zeros((C, L))
    pi_s[0, L // 2] = 1.0
    return {"class_trans": trans / trans.sum(axis=1, keepdims=True), "pi_s": pi_s}


@pytest.mark.parametrize("case", ["concentrated", "scrambled", "zero-padded",
                                  "zero-transition"])
def test_forward_matches_the_reference_far_below_each_frames_best(case, monkeypatch):
    """The forward pass shifts each target position by its best source and
    sums linearly; at pac-man's sizes with tight variances (and on a
    scrambled copy of the frames) most states lie more than 700 nats below
    their frame's best, and each keeps its exact log weight.  On a
    zero-padded grid the edge states renormalise (log z != 0).  Where the
    dominant class never switches to some class, that class's linear sums
    fall below the floor and those positions are summed in the log domain,
    -inf where no path reaches them."""
    fields = _never_to_the_next_class() if case == "zero-transition" else {}
    model, emis, dyn = _pacman_size_case(
        0.03, boundary="zero" if case == "zero-padded" else "wrap", **fields)
    if case == "scrambled":
        emis = emis[np.random.default_rng(312).permutation(len(emis))]
    calls = []
    real = thmm_mod.logsumexp
    monkeypatch.setattr(thmm_mod, "logsumexp",
                        lambda *args: calls.append(1) or real(*args))
    log_alpha = _check_forward(model, emis, dyn)[1][0]
    finite = np.isfinite(log_alpha)
    below = log_alpha.max(axis=(1, 2), keepdims=True) - log_alpha
    assert (below[finite] > 700.0).any()
    assert (np.abs(dyn.log_z).max() > 1e-3) == (case == "zero-padded")
    assert bool(calls) == (case == "zero-transition")
    assert (not finite.all()) == (case == "zero-transition")


def test_smoothing_holds_no_motion_block_on_a_concentrated_posterior():
    """On a concentrated posterior `_backward` works on (C, moves, support)
    blocks only: its traced peak, less its gamma output, stays below one
    (C, moves, L) float block.  A term clamped up to e^CUT and left there
    would give every source of the support more than e^-800, and the
    support would spread to every position within a few frames."""
    model, emis, dyn = _pacman_size_case(0.03)
    fwd = thmm_mod._forward(model, emis, dyn)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        gamma = thmm_mod._backward(model, dyn, fwd)[0]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak - gamma.nbytes < dyn.log_into.nbytes


def test_underflow_error():
    model = random_thmm(65)
    with pytest.raises(UnderflowError):
        score_sequence(model, np.full((3, model.n), 1e200))


def test_from_tmg_promotion():
    shape = ImageShape(3, 3)
    ts = make_grid_set(shape, 3, 3)
    rng = np.random.default_rng(66)
    tmg = tmg_mod.TmgModel(transforms=ts,
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
    tmg = tmg_mod.TmgModel(transforms=ts,
                           pi=np.array([0.6, 0.4]),
                           mu=np.stack([base, rolled]),
                           phi=np.full((2, 16), 0.4),
                           rho=np.full((9, 2), 1.0 / 9),
                           psi=np.full(16, 0.3))
    model = from_tmg(tmg)
    assert np.allclose(model.mu[0], model.mu[1], atol=1e-12)


def _loop_gauge_shift(ref, template, shape):
    """The first wrap shift whose centred template scores best against the
    centred reference, by the per-shift loop; and every shift's score."""
    shifts = [shift_op(shape, di, dj, "wrap")
              for di in range(shape.height) for dj in range(shape.width)]
    scores = [(ref - ref.mean()) @ (apply(op, template) - apply(op, template).mean())
              for op in shifts]
    return shifts[int(np.argmax(scores))], scores


def test_from_tmg_ties_go_to_the_first_shift():
    # cluster 1's template repeats with period 2 along both axes, so four
    # wrap shifts tie for the best score; its variance map does not repeat,
    # so the chosen shift shows in phi.  All scores are exact in float64.
    shape = ImageShape(4, 4)
    ref = np.arange(16.0)
    periodic = np.tile([[0.0, 2.0], [1.0, 5.0]], (2, 2)).reshape(-1)
    phi = np.stack([np.ones(16), np.arange(1.0, 17.0)])
    tmg = tmg_mod.TmgModel(transforms=make_grid_set(shape, 3, 3),
                           pi=np.array([0.6, 0.4]), mu=np.stack([ref, periodic]),
                           phi=phi, rho=np.full((9, 2), 1.0 / 9), psi=np.full(16, 0.3))
    first, scores = _loop_gauge_shift(ref, periodic, shape)
    assert scores.count(max(scores)) == 4
    model = from_tmg(tmg)
    assert np.array_equal(model.mu[1], apply(first, periodic))
    assert np.array_equal(model.phi[1], apply(first, phi[1]))
    assert np.array_equal(model.mu[0], ref) and np.array_equal(model.phi[0], phi[0])


@pytest.mark.parametrize("seed", range(5))
def test_from_tmg_picks_the_shift_of_the_per_shift_loop(seed):
    rng = np.random.default_rng(80 + seed)
    shape, C = ImageShape(5, 6), 3
    tmg = tmg_mod.TmgModel(transforms=make_grid_set(shape, 3, 3),
                           pi=rng.dirichlet(np.ones(C)), mu=rng.uniform(0, 1, (C, 30)),
                           phi=rng.uniform(0.1, 1.0, (C, 30)),
                           rho=np.full((9, C), 1.0 / 9), psi=np.full(30, 0.3))
    model = from_tmg(tmg)
    for c in range(C):
        best, _ = _loop_gauge_shift(tmg.mu[np.argmax(tmg.pi)], tmg.mu[c], shape)
        assert np.array_equal(model.mu[c], apply(best, tmg.mu[c]))
        assert np.array_equal(model.phi[c], apply(best, tmg.phi[c]))


def _broken_motion_table(mode, case):
    """A threshold-1 motion table of `mode` ((3, 3) for "vector", (2,) for
    "magnitude"), broken as `case` says."""
    good = uniform_motion(1.0, mode).table
    if case == "rank-below":
        return good[0]
    if case == "rank-above":
        return good[None, None]
    if case == "per-class-bins":
        return np.ones((2,) + good.shape[:-1] + (good.shape[-1] + 1,))
    if case == "negative":
        return -good
    if case == "sum":
        return 2 * good
    if case == "per-class-sum":
        return np.stack([good, 2 * good])
    if case == "no-classes":
        return good[None][:0]
    if case in BAD_THRESHOLDS:
        return good
    beyond = good.copy()
    beyond[0, 0] = beyond[1, 1]  # the corner (-1, -1) lies beyond radius 1
    return beyond / beyond.sum()


MOTION_REFUSALS = {
    "rank-below": r"table shape \(.*\) does not match mode/threshold",
    "rank-above": r"table shape \(.*\) does not match mode/threshold",
    "per-class-bins": r"table shape \(.*\) does not match mode/threshold",
    "negative": "entries must be nonnegative",
    "sum": r"must sum to 1 \(per class\)",
    "per-class-sum": r"must sum to 1 \(per class\)",
    "beyond": "mass beyond the threshold",
    "no-classes": "n_classes must be >= 1",
    "negative-threshold": r"threshold must be finite and >= 0, got -1\.0",
    "nan-threshold": "threshold must be finite and >= 0, got nan",
    "inf-threshold": "threshold must be finite and >= 0, got inf",
}
# a good table under each of these thresholds
BAD_THRESHOLDS = {"negative-threshold": -1.0, "nan-threshold": np.nan,
                  "inf-threshold": np.inf}
# every magnitude bin holds some displacement within the threshold, so only
# a vector table can put mass beyond it
MOTION_CASES = [f"{mode}-{case}" for mode in ("vector", "magnitude")
                for case in MOTION_REFUSALS if (mode, case) != ("magnitude", "beyond")]


@pytest.mark.parametrize("name", MOTION_CASES)
def test_motion_prior_refuses_a_bad_table(name):
    """...or a bad threshold or class count, in `MotionPrior` and in
    `uniform_motion` alike; threshold 0, the stay-put prior, is valid."""
    mode, case = name.split("-", 1)
    threshold = BAD_THRESHOLDS.get(case, 1.0)
    with pytest.raises(ValueError, match=MOTION_REFUSALS[case]):
        MotionPrior(mode=mode, threshold=threshold, table=_broken_motion_table(mode, case))
    if case in BAD_THRESHOLDS or case == "no-classes":
        with pytest.raises(ValueError, match=MOTION_REFUSALS[case]):
            uniform_motion(threshold, mode, n_classes=0 if case == "no-classes" else None)
    stay = uniform_motion(0.0, mode, n_classes=2)
    assert stay.offsets.tolist() == [[0, 0]] and stay.weights().tolist() == [[1.0], [1.0]]


@pytest.mark.parametrize("mode", ["vector", "magnitude"])
def test_motion_sharing_is_read_from_the_table_rank(mode):
    shared = uniform_motion(1.0, mode)
    per_class = uniform_motion(1.0, mode, n_classes=3)
    assert not shared.per_class and per_class.per_class
    assert per_class.table.shape == (3,) + shared.table.shape
    assert all(np.array_equal(row, shared.table) for row in per_class.table)
    assert uniform_motion(1.0, mode, n_classes=1).per_class


@pytest.mark.parametrize("case, match", [
    ("no-grid", "needs a grid-structured transformation set"),
    ("per-class-rows", "per-class motion table does not match C"),
], ids=["no-grid", "per-class-rows"])
def test_thmm_model_refuses_a_set_without_grid_or_a_table_of_other_classes(case, match):
    shape = ImageShape(2, 2)
    ts = make_grid_set(shape, 2, 2)
    if case == "no-grid":
        ts = TransformationSet(ts.source_matrix, shape, "wrap")
    rows = 3 if case == "per-class-rows" else 2
    with pytest.raises(ValueError, match=match):
        ThmmModel(transforms=ts, mu=np.zeros((2, 4)), phi=np.ones((2, 4)),
                  psi=np.ones(4), pi_s=np.full((2, 4), 1 / 8),
                  class_trans=np.full((2, 2), 0.5),
                  motion=uniform_motion(1.0, n_classes=rows))


def test_viterbi_track_and_the_one_state_margin():
    model = random_thmm(55, grid=(3, 3), shape=ImageShape(3, 3), threshold=1.0,
                        per_class=True)
    frames, _ = sample_sequence(model, 12, seed=56)
    path = viterbi(model, frames)
    out = track(model, frames, use_viterbi=True)
    assert np.array_equal(out[:, 0], path[:, 0])
    assert np.array_equal(out[:, 1:3], model.transforms.grid_offsets()[path[:, 1]])

    one = ThmmModel(transforms=make_grid_set(ImageShape(2, 2), 1, 1),
                    mu=np.zeros((1, 4)), phi=np.ones((1, 4)), psi=np.ones(4),
                    pi_s=np.ones((1, 1)), class_trans=np.ones((1, 1)),
                    motion=uniform_motion(0.0))
    for use_viterbi in (False, True):
        margin = track(one, frames[:4, :4], use_viterbi=use_viterbi)[:, 3]
        assert np.all(margin == np.inf)


def test_an_em_step_builds_the_dynamics_once_for_every_sequence(monkeypatch):
    """The dynamics depend on the model alone: a two-sequence step builds
    them once and smooths each sequence with them, to the bits of each
    sequence's own `forward_backward`."""
    model = random_thmm(59, grid=(3, 3), shape=ImageShape(3, 3), C=2)
    seqs = [sample_sequence(model, length, seed=60 + length)[0] for length in (6, 9)]
    posts = [forward_backward(model, X) for X in seqs]
    calls = []
    real = thmm_mod._Dynamics
    monkeypatch.setattr(thmm_mod, "_Dynamics", lambda *a: calls.append(a) or real(*a))
    new, total = em_step(model, seqs)
    assert len(calls) == 1
    assert total == 0.0 + posts[0].loglik + posts[1].loglik
    trans = np.zeros((2, 2)) + posts[0].xi_class + posts[1].xi_class + 1e-12
    assert np.array_equal(new.class_trans, trans / trans.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("task", ["track", "track-viterbi", "denoise-soft", "denoise-hard",
                                  "stabilize-viterbi"])
def test_each_decoding_builds_the_emission_table_and_dynamics_once(task, monkeypatch):
    """Viterbi tracking reads the smoothed margins too, from the same
    emission table and dynamics; its path and margins keep their bits."""
    model = random_thmm(57, grid=(3, 3), shape=ImageShape(3, 3), C=2)
    frames, _ = sample_sequence(model, 10, seed=58)
    path, post = viterbi(model, frames), forward_backward(model, frames)
    smoothed_margin = track(model, frames)[:, 3]
    counts = {"emission_table": 0, "_Dynamics": 0}
    for name in counts:
        real = getattr(thmm_mod, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(thmm_mod, name, counted)
    kind, _, how = task.partition("-")
    if kind == "track":
        out = track(model, frames, use_viterbi=how == "viterbi")
    elif kind == "denoise":
        out = denoise(model, frames, mode=how)
    else:
        out = stabilize(model, frames, use_viterbi=True)
    assert counts == {"emission_table": 1, "_Dynamics": 1}
    if task == "track-viterbi":
        assert np.array_equal(out[:, 0], path[:, 0])
        assert np.array_equal(out[:, 3], smoothed_margin)
    if task == "track":
        best = post.gamma.reshape(len(frames), -1).argmax(axis=1)
        assert np.array_equal(out[:, 0], best // model.L)
