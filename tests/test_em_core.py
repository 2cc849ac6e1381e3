"""The EM core shared by every family: cluster rescue, the psi tail, the
log-domain sums and the boundary checks."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from transmix import (EmOptions, ImageShape, TransformationSet, UnderflowError,
                      build_translation_set, identity_set)
from transmix import common, model_io, mtca, tca, thmm, tmg
from transmix.common import CUT, _cutexp, _latent_posterior, _normalise, logsumexp

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
        return tmg.TmgModel(transforms=ts, pi=np.full(C, 1 / C),
                            mu=mu, phi=phi, rho=np.full((ts.L, C), 1 / ts.L), psi=psi)
    if family is mtca:
        return mtca.MtcaModel(transforms=ts, pi=np.full(C, 1 / C),
                              mu=mu, loadings=np.full((C, SHAPE.n, 1), 1e-2),
                              phi=phi, rho=np.full((ts.L, C), 1 / ts.L), psi=psi)
    return thmm.ThmmModel(transforms=ts, mu=mu, phi=phi, psi=psi,
                          pi_s=np.full((C, ts.L), 1 / (C * ts.L)),
                          class_trans=np.full((C, C), 1 / C),
                          motion=thmm.uniform_motion(1.0, n_classes=C))


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


def _fresh_model(family, X):
    ts = build_translation_set(SHAPE, 3, 3, "wrap")
    if family is thmm:
        return thmm.init_thmm(ts, 2, X, seed=1)
    if family is tca:
        return tca.init_tca(ts, 1, X, seed=1)
    if family is mtca:
        return mtca.init_mtca(ts, 2, 1, X, seed=1)
    return tmg.init_tmg(ts, 2, X, seed=1)


def _entry_points(family, model):
    """Every public call of the family that takes frames, as F -> result."""
    if family is thmm:
        return [lambda F: thmm.score_sequence(model, F),
                lambda F: thmm.forward_backward(model, F),
                lambda F: thmm.viterbi(model, F),
                lambda F: thmm.emission_table(model, F),
                lambda F: thmm.em_step(model, F),
                lambda F: thmm.fit(model, [F], 1),
                lambda F: _fresh_model(family, F)]
    return [lambda F: family.loglik(model, F),
            lambda F: family.loglik_table(model, F),
            lambda F: family.posterior(model, F[-1]),
            lambda F: family.em_step(model, F),
            lambda F: family.fit(model, F, 1),
            lambda F: _fresh_model(family, F)]


@pytest.mark.parametrize("family", [tmg, tca, mtca, thmm],
                         ids=["tmg", "tca", "mtca", "thmm"])
def test_frames_are_checked_at_the_boundary(family):
    X, _ = _two_image_data()
    model = _fresh_model(family, X)
    with_nan = X.copy()
    with_nan[-1, 4] = np.nan
    for call in _entry_points(family, model):
        call(X)
        with pytest.raises(ValueError, match=r"frame \d+ has a non-finite"):
            call(with_nan)
        with pytest.raises(ValueError, match="9 pixels"):
            call(X[:, :-1])
    with pytest.raises(ValueError, match=f"frame {len(X) - 1} has"):
        _entry_points(family, model)[0](with_nan)
    # finite frames the model gives no probability still underflow
    huge = np.full_like(X, 1e200)
    score = thmm.score_sequence if family is thmm else family.em_step
    with pytest.raises(UnderflowError), np.errstate(all="ignore"):
        score(model, huge)


@pytest.mark.parametrize("family", [tmg, tca, mtca, thmm],
                         ids=["tmg", "tca", "mtca", "thmm"])
def test_empty_batches_are_refused(family):
    X, _ = _two_image_data()
    model = _fresh_model(family, X)
    if family is thmm:
        calls = [lambda F: thmm.score_sequence(model, F),
                 lambda F: thmm.forward_backward(model, F),
                 lambda F: thmm.viterbi(model, F),
                 lambda F: thmm.track(model, F),
                 lambda F: thmm.emission_table(model, F),
                 lambda F: thmm.em_step(model, F),
                 lambda F: thmm.em_step(model, [X, F]),
                 lambda F: thmm.fit(model, [F], 1)]
    else:
        calls = [lambda F: family.loglik(model, F),
                 lambda F: family.loglik_table(model, F),
                 lambda F: family.em_step(model, F),
                 lambda F: family.fit(model, F, 1)]
    calls.append(lambda F: _fresh_model(family, F))
    for call in calls:
        call(X)
        with pytest.raises(ValueError, match="no frames: the batch is empty"):
            call(X[:0])
    if family is thmm:
        for call in (thmm.em_step, lambda m, seqs: thmm.fit(m, seqs, 1)):
            with pytest.raises(ValueError, match="no sequences: the list is empty"):
                call(model, [])


SINGLE_FRAME_CALLS = {
    "tmg.posterior": (tmg, lambda m, x: tmg.posterior(m, x)),
    "tmg.cond_loglik": (tmg, lambda m, x: tmg.cond_loglik(m, x, 0, 0)),
    "tca.posterior": (tca, lambda m, x: tca.posterior(m, x)),
    "tca.cond_loglik": (tca, lambda m, x: tca.cond_loglik(m, x, 0)),
    "mtca.posterior": (mtca, lambda m, x: mtca.posterior(m, x)),
    "mtca.cond_loglik": (mtca, lambda m, x: mtca.cond_loglik(m, x, 0, 0)),
    "thmm.emission_loglik": (thmm, lambda m, x: thmm.emission_loglik(m, x)),
}


@pytest.mark.parametrize("entry", sorted(SINGLE_FRAME_CALLS))
def test_single_frame_is_checked_at_the_boundary(entry):
    family, call = SINGLE_FRAME_CALLS[entry]
    X, _ = _two_image_data()
    model = _fresh_model(family, X)
    call(model, X[0])
    with_nan = X[0].copy()
    with_nan[4] = np.nan
    with pytest.raises(ValueError, match="frame 0 has a non-finite"):
        call(model, with_nan)
    with pytest.raises(ValueError, match="single frame of 9 pixels, got 2"):
        call(model, X[:2])
    with pytest.raises(ValueError, match="9 pixels"):
        call(model, X[0, :-1])


OFFSET = 1e3


def _on_grid(a):
    """Values on a 2^-20 grid, so adding OFFSET to them is exact."""
    return np.round(a * 2.0 ** 20) / 2.0 ** 20


def _offset_case(family, offset, side=5, tied=False):
    """One family's model and frames on a side x side full wrap set, with
    the templates and the data moved by `offset`; any difference between
    offsets then comes from the arithmetic.  `tied` gives one sensor
    variance, which above the crossover takes the FFT kernels."""
    rng = np.random.default_rng(30)
    shape = ImageShape(side, side)
    n, C = shape.n, 2
    ts = build_translation_set(shape, side, side, "wrap")
    mu = offset + _on_grid(rng.uniform(0.2, 0.8, (C, n)))
    X = offset + _on_grid(rng.uniform(0.0, 1.0, (12, n)))
    phi, psi = rng.uniform(0.01, 0.05, (C, n)), rng.uniform(0.01, 0.05, n)
    if tied:
        psi = np.full(n, 0.03)
    rho = rng.dirichlet(np.ones(ts.L) * 4, size=C).T
    loadings = rng.uniform(-0.1, 0.1, (C, n, 2))
    pi = np.array([0.4, 0.6])
    if family is tmg:
        model = tmg.TmgModel(transforms=ts, pi=pi, mu=mu, phi=phi,
                             rho=rho, psi=psi)
    elif family is tca:
        model = tca.TcaModel(transforms=ts, mu=mu[0],
                             loadings=loadings[0], phi=phi[0], rho=rho[:, 0], psi=psi)
    elif family is mtca:
        model = mtca.MtcaModel(transforms=ts, pi=pi, mu=mu,
                               loadings=loadings, phi=phi, rho=rho, psi=psi)
    else:
        model = thmm.ThmmModel(transforms=ts, mu=mu, phi=phi, psi=psi,
                               pi_s=np.full((C, ts.L), 1 / (C * ts.L)),
                               class_trans=np.array([[0.7, 0.3], [0.4, 0.6]]),
                               motion=thmm.uniform_motion(1.5, n_classes=C))
    return model, X


# the smallest odd side at or above the FFT crossover
FFT_SIDE = int(np.ceil(np.sqrt(common.FFT_MIN_PIXELS))) // 2 * 2 + 1


@pytest.mark.parametrize("family, side, tied", [
    pytest.param(tmg, 5, False, id="tmg"), pytest.param(tca, 5, False, id="tca"),
    pytest.param(mtca, 5, False, id="mtca"), pytest.param(thmm, 5, False, id="thmm"),
    pytest.param(tmg, FFT_SIDE, True, id="tmg-fft")])
def test_em_step_is_offset_equivariant(family, side, tied, monkeypatch):
    """Moving the data and the templates by a common offset leaves an EM
    step's variances and log-likelihood unchanged (to rounding at the
    centred scale, not at the offset's)."""
    if tied:
        monkeypatch.setattr(common, "_block_stats", None)   # the FFT kernels run
    near, total_near = family.em_step(*_offset_case(family, 0.0, side, tied))
    far, total_far = family.em_step(*_offset_case(family, OFFSET, side, tied))
    assert total_far == pytest.approx(total_near, rel=1e-12, abs=0)
    np.testing.assert_allclose(far.phi, near.phi, rtol=1e-12, atol=0)
    np.testing.assert_allclose(far.psi, near.psi, rtol=1e-12, atol=0)
    np.testing.assert_allclose(far.mu - OFFSET, near.mu, rtol=0, atol=1e-10)


def test_cutexp_zeroes_terms_at_or_below_the_cut():
    got = _cutexp(np.array([0.0, -1.0, CUT + 1.0, CUT, -800.0, -np.inf, np.nan]))
    np.testing.assert_array_equal(got[:3], np.exp([0.0, -1.0, CUT + 1.0]))
    np.testing.assert_array_equal(got[3:6], 0.0)
    assert np.isnan(got[6])


def test_normalise_cuts_responsibilities_at_or_below_the_cut():
    """Entries at or below e^CUT of their datum's total are exactly 0, not
    subnormals; the rest are the plain exponentials."""
    log_joint = np.array([[[0.0, -1.0, CUT - 1e-3], [CUT, CUT + 1.0, -740.0]],
                          [[5.0, -np.inf, 5.0 + CUT], [-800.0, 4.0, 5.0 + CUT + 0.5]]])
    per_datum, resp = _normalise(log_joint, "configuration")
    d = log_joint - per_datum[:, None, None]
    assert np.count_nonzero(d <= CUT) == 6
    np.testing.assert_array_equal(resp[d <= CUT], 0.0)
    np.testing.assert_array_equal(resp[d > CUT], np.exp(d[d > CUT]))


def _uncut_normalise(log_joint, what):
    per_datum, _ = _normalise(log_joint, what)
    axes = tuple(range(1, log_joint.ndim))
    return per_datum, np.exp(log_joint - np.expand_dims(per_datum, axes))


@pytest.mark.parametrize("case", ["starving-tmg", "starving-mtca", "offset-tmg",
                                  "offset-tca", "offset-mtca", "offset-tmg-fft"])
def test_cut_responsibilities_keep_the_em_step(case, monkeypatch):
    kind, family = case.split("-")[:2]
    family = {"tmg": tmg, "tca": tca, "mtca": mtca}[family]
    if kind == "starving":
        X, templates = _two_image_data()
        model = _starving_model(family, templates)
    else:
        model, X = _offset_case(family, 0.0, *((FFT_SIDE, True) if "fft" in case else ()))
    cut, total_cut = family.em_step(model, X)
    monkeypatch.setattr(mtca, "_normalise", _uncut_normalise)
    uncut, total_uncut = family.em_step(model, X)
    assert total_cut == pytest.approx(total_uncut, rel=1e-12, abs=0)
    for name in ("mu", "phi", "psi", "rho"):
        np.testing.assert_allclose(getattr(cut, name), getattr(uncut, name),
                                   rtol=1e-12, atol=0)


def test_logsumexp_edge_cases():
    inf = np.inf
    # an all -inf slice stays -inf: clipping without the mask would make it
    # finite (about CUT + log 2 here)
    np.testing.assert_array_equal(
        logsumexp(np.array([[-inf, -inf], [0.0, -inf]]), 1), [-inf, 0.0])
    assert logsumexp(np.array([0.0, -800.0, -inf]), 0) == 0.0
    # the cut is relative to each slice's largest term, not to zero
    assert logsumexp(np.array([-1000.0, -1000.0]), 0) == -1000.0 + np.log(2.0)
    assert logsumexp(np.array([inf, 0.0]), 0) == inf
    assert logsumexp(np.array([inf, -inf]), 0) == inf
    assert np.isnan(logsumexp(np.array([np.nan, 0.0]), 0))
    assert np.isnan(logsumexp(np.array([np.nan, -inf]), 0))


@pytest.mark.parametrize("axis", [0, 1, 2, -1, (0, 2), (1, 2)])
def test_logsumexp_matches_scipy_on_deep_terms(axis):
    rng = np.random.default_rng(7)
    a = rng.uniform(-5000.0, 0.0, (6, 40, 30))
    a[rng.uniform(size=a.shape) < 0.2] = -np.inf
    a[2, :, 3] = -np.inf
    got = logsumexp(a, axis)
    want = scipy_logsumexp(a, axis=axis)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=1e-15, atol=0)


def _deep_table(shape=(300, 29, 10), seed=11):
    """A log-joint table whose terms span thousands of nats, with -inf."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-3000.0, 50.0, shape)
    a[rng.uniform(size=shape) < 0.1] = -np.inf
    return a


def test_cutexp_works_in_place_with_the_bits_of_the_formula():
    d = np.concatenate([_deep_table((4, 50, 3)).ravel() / 4.0,
                        [np.nan, -np.inf, np.inf, CUT, np.nextafter(CUT, 0.0), 0.0]])
    want = np.exp(np.maximum(d, CUT)) * (d > CUT)
    got = _cutexp(d)
    assert got is d
    assert np.array_equal(got, want, equal_nan=True)


def test_logsumexp_and_normalise_leave_their_input_alone():
    a = _deep_table()
    before = a.copy()
    logsumexp(a, (1, 2))
    assert np.array_equal(a, before)
    _normalise(a, "configuration")
    assert np.array_equal(a, before)


def test_normalise_has_the_bits_of_the_out_of_place_formula():
    for seed in range(3):
        log_joint = _deep_table(seed=seed)
        per_datum, resp = _normalise(log_joint, "configuration")
        d = log_joint - per_datum[:, None, None]
        assert np.array_equal(resp, np.exp(np.maximum(d, CUT)) * (d > CUT))


def _peak_tables(call, table):
    """Peak traced memory of `call(table)`, in sizes of `table`."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(table)
        return (tracemalloc.get_traced_memory()[1] - base) / table.nbytes
    finally:
        tracemalloc.stop()


def test_logsumexp_and_normalise_hold_one_table_at_a_time():
    """The exponential works in place on the shifted table, so neither call
    holds more than one full-size float table (plus a boolean mask); the
    out-of-place formula peaked near three."""
    table = _deep_table()
    assert _peak_tables(lambda a: logsumexp(a, (1, 2)), table) <= 1.5
    assert _peak_tables(lambda a: _normalise(a, "configuration"), table) <= 1.5


def _mtca_case(ts, C=3, K=1, T=8, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (T, ts.shape.n))
    return mtca.init_mtca(ts, C, K, X, seed=seed), X


def test_log_joint_adds_the_priors_to_the_emission_table():
    model, X = _mtca_case(build_translation_set(SHAPE, 3, 3, "wrap"))
    model.rho[[0, 4], 1] = 0.0
    model.rho[:, 1] /= model.rho[:, 1].sum()
    with np.errstate(divide="ignore"):
        want = mtca.loglik_table(model, X) + np.log(model.rho) + np.log(model.pi)
    got = mtca._log_joint(model, X)
    assert np.isneginf(got[:, [0, 4], 1]).all()
    assert np.array_equal(got, want)


@pytest.mark.parametrize("one_op", [False, True], ids=["wrap-3x3", "identity"])
def test_rho_update_sums_each_cluster_over_the_frames(one_op):
    """rho is each cluster's responsibilities summed over the frames, over
    its mass, with the bits of the gathered form; on a one-op set that is
    exactly 1."""
    ts = identity_set(SHAPE) if one_op else build_translation_set(SHAPE, 3, 3, "wrap")
    model, X = _mtca_case(ts, T=300)
    _, resp = _normalise(mtca._log_joint(model, X), "configuration")
    live = list(range(model.C))
    mass = np.array([resp[:, :, c].sum() for c in live])
    new, _ = mtca.em_step(model, X)
    assert np.array_equal(new.rho, resp[:, :, live].sum(axis=0) / mass)
    if one_op:
        assert np.array_equal(new.rho, np.ones((1, model.C)))


@pytest.mark.parametrize("family", [tmg, tca, mtca, thmm],
                         ids=["tmg", "tca", "mtca", "thmm"])
def test_factor_count(family):
    X = np.random.default_rng(3).uniform(0, 1, (6, SHAPE.n))
    want = {tmg: 0, tca: 1, mtca: 1, thmm: 0}[family]
    assert _fresh_model(family, X).K == want


@pytest.mark.parametrize("family", [tmg, tca, mtca, thmm],
                         ids=["tmg", "tca", "mtca", "thmm"])
def test_cluster_count(family):
    X = np.random.default_rng(3).uniform(0, 1, (6, SHAPE.n))
    want = {tmg: 2, tca: 1, mtca: 2, thmm: 2}[family]
    assert _fresh_model(family, X).C == want


@pytest.mark.parametrize("family", [tmg, tca, mtca, thmm],
                         ids=["tmg", "tca", "mtca", "thmm"])
def test_non_injective_op_is_refused_at_construction(family):
    """Op 1 copies source pixel 0 to two output pixels: the diagonal
    kernels would score it wrongly, so no model may be built on it.  The
    set constructor already refuses it, before any model sees the set."""
    shape = ImageShape(1, 3)
    X = np.random.default_rng(4).uniform(0, 1, (5, 3))
    init = {tmg: lambda ts: tmg.init_tmg(ts, 2, X),
            tca: lambda ts: tca.init_tca(ts, 1, X),
            mtca: lambda ts: mtca.init_mtca(ts, 2, 1, X),
            thmm: lambda ts: thmm.init_thmm(ts, 2, X)}[family]
    with pytest.raises(ValueError, match="op 1 is not injective"):
        init(TransformationSet(np.array([[0, 1, 2], [0, 0, 2]]), shape, "wrap",
                               grid=(1, 2) if family is thmm else None))


@pytest.mark.parametrize("family", [tmg, tca, mtca, thmm],
                         ids=["tmg", "tca", "mtca", "thmm"])
def test_the_image_shape_is_the_sets(family, tmp_path):
    """A model has no shape of its own to disagree with its set: arrays of
    another image size are refused against the set's."""
    X = np.random.default_rng(5).uniform(0, 1, (6, SHAPE.n))
    model = _fresh_model(family, X)
    model_io.save_model(model, tmp_path / "m.txm")
    for m in (model, model_io.load_model(tmp_path / "m.txm")):
        assert m.shape is m.transforms.shape
    with pytest.raises(TypeError):
        dataclasses.replace(model, shape=SHAPE)
    with pytest.raises(ValueError, match=r"must have shape \(.*16"):
        dataclasses.replace(model, transforms=build_translation_set(ImageShape(4, 4), 3, 3))


GAUSSIAN_REFUSALS = {  # family, field, how it is broken, message
    "tmg-pi": (tmg, "pi", lambda a: 2 * a, r"^pi must sum to 1$"),
    "tca-rho": (tca, "rho", lambda a: 2 * a, r"^rho must sum to 1$"),
    "mtca-rho": (mtca, "rho", lambda a: 2 * a, "^rho must sum to 1 along axis 0$"),
    "thmm-pi_s": (thmm, "pi_s", lambda a: 2 * a, "^pi_s must sum to 1$"),
    "thmm-class_trans": (thmm, "class_trans", lambda a: 2 * a,
                         "^class_trans must sum to 1 along axis 1$"),
    "tmg-phi": (tmg, "phi", lambda a: -a, "^variances must be positive$"),
    "tca-psi": (tca, "psi", np.zeros_like, "^variances must be positive$"),
    "mtca-phi": (mtca, "phi", np.zeros_like, "^variances must be positive$"),
    "thmm-psi": (thmm, "psi", lambda a: -a, "^variances must be positive$"),
}


@pytest.mark.parametrize("case", sorted(GAUSSIAN_REFUSALS))
def test_constructor_refuses_an_unnormalised_distribution_or_a_bad_variance(case):
    family, name, broken, match = GAUSSIAN_REFUSALS[case]
    model = _fresh_model(family, np.random.default_rng(6).uniform(0, 1, (6, SHAPE.n)))
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(model, **{name: broken(getattr(model, name))})


@pytest.mark.parametrize("family", [tmg, tca, mtca, thmm],
                         ids=["tmg", "tca", "mtca", "thmm"])
def test_fit_stops_early_and_streams_its_reports(family):
    X, _ = _two_image_data()
    model = _fresh_model(family, X)
    seen = []
    _, early = family.fit(model, X, 5, tol=1e9, callback=seen.append)
    _, full = family.fit(model, X, 5, tol=0.0)
    assert not any(rep.rescued for rep in early + full)
    assert len(early) == 2 and len(full) == 5
    assert seen == early
    assert [rep.iteration for rep in full] == list(range(5))


@pytest.mark.parametrize("family", [tmg, tca, mtca, thmm],
                         ids=["tmg", "tca", "mtca", "thmm"])
def test_em_steps_skip_the_constructor_check(family, monkeypatch):
    """An EM step's result is a record of arrays that are valid already: a
    3-iteration fit runs the constructor check no more often than the init
    does, and its model passes the check when rebuilt through it."""
    X, _ = _two_image_data()
    checks = []
    # THMM has a check of its own, which runs the shared one
    cls = thmm.ThmmModel if family is thmm else common._GaussianModel
    real = cls.__post_init__
    monkeypatch.setattr(cls, "__post_init__", lambda self: checks.append(self) or real(self))
    model = _fresh_model(family, X)
    at_init = len(checks)
    fitted, reports = family.fit(model, [X] if family is thmm else X, 3, tol=0.0)
    assert len(reports) == 3 and at_init >= 1
    assert len(checks) == at_init
    fields = {f.name: getattr(fitted, f.name) for f in dataclasses.fields(fitted)}
    rebuilt = type(fitted)(**fields)
    for name in type(fitted)._AXES:
        assert np.array_equal(getattr(rebuilt, name), getattr(fitted, name))


@pytest.mark.parametrize("boundary", ["wrap", "zero"])
def test_latent_posterior_forms_agree(boundary):
    """Every op for one image, and one op per image row, give the same
    moments; a latent pixel that lands nowhere keeps its prior."""
    rng = np.random.default_rng(41)
    ts = build_translation_set(ImageShape(4, 5), 3, 3, boundary)
    n, L, dest = ts.shape.n, ts.L, ts.dest_matrix
    mu, x = rng.uniform(0, 1, n), rng.uniform(0, 1, n)
    phi, psi = rng.uniform(0.05, 0.2, n), rng.uniform(0.05, 0.2, n)
    every_op = _latent_posterior(dest, mu, phi, psi, x)
    per_row = _latent_posterior(dest, np.tile(mu, (L, 1)), np.tile(phi, (L, 1)), psi,
                                np.tile(x, (L, 1)))
    for got, want in zip(per_row, every_op):
        assert got.shape == (L, n)
        np.testing.assert_array_equal(got, want)
    nowhere = dest < 0
    assert nowhere.any() == (boundary == "zero")
    z_mean, z_var = every_op
    np.testing.assert_allclose(z_mean[nowhere], np.tile(mu, (L, 1))[nowhere], rtol=1e-14)
    np.testing.assert_allclose(z_var[nowhere], np.tile(phi, (L, 1))[nowhere], rtol=1e-14)


MOMENTS = ("z_mean", "z_var_diag", "y_mean", "y_cov")
# (family, factors, boundary): zero-padded sets have VOID pixels
MOMENT_CASES = [(family, K, boundary) for family, K in ((tmg, 0), (tca, 0), (tca, 2),
                                                        (mtca, 0), (mtca, 2))
                for boundary in ("wrap", "zero")]
MOMENT_IDS = [f"{family.__name__.rsplit('.', 1)[-1]}-K{K}-{boundary}"
              for family, K, boundary in MOMENT_CASES]


def _moment_case(family, K, boundary):
    """A model of the family on a 4x4 set of 3x3 shifts, and one frame."""
    rng = np.random.default_rng(40)
    shape = ImageShape(4, 4)
    ts = build_translation_set(shape, 3, 3, boundary)
    n, C = shape.n, 2
    mu, loadings = rng.uniform(0, 1, (C, n)), rng.uniform(-0.3, 0.3, (C, n, K))
    phi, psi = rng.uniform(0.05, 0.2, (C, n)), rng.uniform(0.05, 0.2, n)
    rho, pi = rng.dirichlet(np.ones(ts.L), size=C).T, np.array([0.4, 0.6])
    if family is tmg:
        model = tmg.TmgModel(transforms=ts, pi=pi, mu=mu, phi=phi,
                             rho=rho, psi=psi)
    elif family is tca:
        model = tca.TcaModel(transforms=ts, mu=mu[0], loadings=loadings[0],
                             phi=phi[0], rho=rho[:, 0], psi=psi)
    else:
        model = mtca.MtcaModel(transforms=ts, pi=pi, mu=mu,
                               loadings=loadings, phi=phi, rho=rho, psi=psi)
    return model, rng.uniform(0, 1, n)


def _kernel_moments(model, x):
    """The moments of `posterior`, from `tca._op_posterior` per cluster."""
    core = model.as_mtca()
    per_cluster = [tca._op_posterior(core.transforms, core.mu[c], core.loadings[c],
                                     core.phi[c], core.psi, x) for c in range(core.C)]
    y_cov, y_mean, z_mean, z_var = (np.stack(m, axis=1) for m in zip(*per_cluster))
    moments = (z_mean, z_var, y_mean, y_cov)
    return tuple(m[:, 0] for m in moments) if isinstance(model, tca.TcaModel) else moments


@pytest.mark.parametrize("case", MOMENT_CASES, ids=MOMENT_IDS)
def test_reading_resp_never_runs_the_moment_kernel(case, monkeypatch):
    model, x = _moment_case(*case)

    def kernel(*args):
        raise AssertionError("the moment kernel ran")

    monkeypatch.setattr(tca, "_op_posterior", kernel)
    post = case[0].posterior(model, x)
    assert post.resp.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(post.loglik)
    with pytest.raises(AssertionError, match="moment kernel ran"):
        post.z_mean


@pytest.mark.parametrize("case", MOMENT_CASES, ids=MOMENT_IDS)
def test_moments_are_computed_once_and_equal_the_kernel(case, monkeypatch):
    model, x = _moment_case(*case)
    want = _kernel_moments(model, x)
    calls = []
    kernel = tca._op_posterior
    monkeypatch.setattr(tca, "_op_posterior", lambda *a: calls.append(a) or kernel(*a))
    post = case[0].posterior(model, x)
    first = [getattr(post, name) for name in MOMENTS]
    assert len(calls) == model.as_mtca().C
    for name, got, expected in zip(MOMENTS, first, want):
        assert getattr(post, name) is got
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got, expected, err_msg=name)
    assert len(calls) == model.as_mtca().C


@pytest.mark.parametrize("case", MOMENT_CASES, ids=MOMENT_IDS)
def test_moments_are_those_of_the_call(case):
    """Moments read after the caller edits the frame and the model in place
    are those of the arrays at the `posterior` call."""
    family, K, _ = case
    model, x = _moment_case(*case)
    read_at_once = family.posterior(model, x)
    want = [getattr(read_at_once, name) for name in MOMENTS]
    post = family.posterior(model, x)
    x += 0.5
    model.mu += 0.5
    model.phi *= 2.0
    model.psi *= 2.0
    if K:
        model.loadings *= 2.0
    for name, expected in zip(MOMENTS, want):
        np.testing.assert_array_equal(getattr(post, name), expected, err_msg=name)
    # the edits do move the moments of a new call
    assert not np.array_equal(family.posterior(model, x).z_mean, want[0])
