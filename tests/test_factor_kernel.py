"""The factor posterior kernel, `common._factor_posterior`: one Cholesky
factor per (cluster, op) row gives log det M, the Woodbury term and the
posterior moments.  Checked against dense Gaussians, and the paths that
read it: scoring, the exact EM step's hand-over, the M-step's batched
solve, and `classify_batch`'s grouping of models loaded from files."""

import tracemalloc

import numpy as np
import pytest

from transmix import ImageShape, build_shear_translation_set, build_translation_set
from transmix import classify, common, mtca, tca
from transmix.common import _factor_moments, _factor_posterior, _index, _observed
from transmix.model_io import load_model, save_model
from transmix.transforms import TransformationSet, wrap_shift_index

from oracles import dense_matrix, mtca_cond_dense

SHAPE = ImageShape(4, 4)


def _model(boundary, K, psi_kind, seed, C=3, scale=0.3):
    """An MTCA with C clusters on the 3x3 shift grid of SHAPE; `psi_kind`
    is "tied", "untied" or "fast" (untied, scored without psi).  A `scale`
    of None gives the ill-conditioned loadings 10^3 sqrt(psi)."""
    ts = build_translation_set(SHAPE, 3, 3, boundary)
    rng = np.random.default_rng(seed)
    n = SHAPE.n
    psi = np.full(n, 0.05) if psi_kind == "tied" else rng.uniform(0.02, 0.1, n)
    loadings = rng.standard_normal((C, n, K))
    loadings *= 1e3 * np.sqrt(psi)[:, None] if scale is None else scale
    return mtca.MtcaModel(transforms=ts, pi=rng.dirichlet(np.ones(C)),
                          mu=rng.uniform(0.0, 1.0, (C, n)), loadings=loadings,
                          phi=rng.uniform(0.05, 0.3, (C, n)),
                          rho=rng.dirichlet(np.ones(ts.L), size=C).T, psi=psi,
                          fast_likelihood=psi_kind == "fast")


ORACLE = [pytest.param(boundary, K, psi, id=f"{boundary}-K{K}-{psi}")
          for boundary in ("zero", "wrap") for K in (1, 3, 6)
          for psi in ("tied", "untied", "fast") if not (psi == "fast" and boundary == "zero")]


@pytest.mark.parametrize("boundary, K, psi_kind", ORACLE)
def test_emission_matches_dense_gaussians(boundary, K, psi_kind):
    """Every (t, l, c) entry of the table is the dense Gaussian's log
    density to 1e-12 relative, over C = 3 clusters; the fast likelihood
    drops psi from the covariance (void-free ops only)."""
    model = _model(boundary, K, psi_kind, seed=K)
    X = mtca.sample(model, 5, size=4)
    got = mtca.loglik_table(model, X)
    want = np.array([[[mtca_cond_dense(model, x, l, c) for c in range(model.C)]
                      for l in range(model.L)] for x in X])
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-12


def _dense_factor_terms(ts, mu, loadings, phi, psi, X):
    """log det M (L,), the Woodbury term (L, T), y_mean (L, T, K) and y_cov
    (L, K, K) of one analyzer, from dense op matrices and dense solves."""
    n, k = loadings.shape
    logdet, woodbury, y_mean, y_cov = [], [], [], []
    for op in ts:
        g = dense_matrix(op)
        a = g @ loadings
        d = g @ phi + psi                   # a pixel with no source sees psi alone
        M = np.eye(k) + a.T @ (a / d[:, None])
        proj = ((X - g @ mu) / d) @ a         # (T, K)
        solved = np.linalg.solve(M, proj.T).T
        logdet.append(np.linalg.slogdet(M)[1])
        woodbury.append((proj * solved).sum(axis=1))
        y_mean.append(solved)
        y_cov.append(np.linalg.inv(M))
    return np.array(logdet), np.array(woodbury), np.array(y_mean), np.array(y_cov)


@pytest.mark.parametrize("boundary", ["zero", "wrap"])
@pytest.mark.parametrize("K", [1, 3, 6])
def test_kernel_terms_hold_for_an_ill_conditioned_m(boundary, K):
    """With loadings 10^3 sqrt(psi), M's eigenvalues reach ~10^6 n: log det
    M, the Woodbury term and the posterior moments still match dense solves
    to 1e-12 relative.  (The table's own error there, ~1e-11 against an
    exact dense Gaussian with the old inverse or this kernel alike, comes
    from the diagonal quadratic cancelling the Woodbury term.)"""
    model = _model(boundary, K, "untied", seed=10 + K, C=1, scale=None)
    ts, mu, loadings, phi = model.transforms, model.mu[0], model.loadings[0], model.phi[0]
    rng = np.random.default_rng(K)
    X = np.array([dense_matrix(ts[l]) @ mu for l in (0, 4, 7)])
    X += 0.2 * rng.standard_normal(X.shape)
    logdet, woodbury, moments = _factor_posterior(
        *_observed(ts.source_matrix, mu, loadings, phi, model.psi), X)
    y_cov, y_mean = _factor_moments(*moments)
    want = _dense_factor_terms(ts, mu, loadings, phi, model.psi, X)
    assert want[0].min() > K * np.log(1e4)
    np.testing.assert_allclose(logdet, want[0], rtol=1e-12, atol=0)
    np.testing.assert_allclose(woodbury, want[1], rtol=1e-12, atol=0)
    np.testing.assert_allclose(y_mean.transpose(1, 2, 0), want[2], rtol=1e-12,
                               atol=1e-12 * np.abs(want[2]).max())
    np.testing.assert_allclose(y_cov, want[3], rtol=1e-12, atol=1e-12 * np.abs(want[3]).max())


def _class_tcas(ts, count, K, seed):
    rng = np.random.default_rng(seed)
    models = []
    for c in range(count):
        data = rng.uniform(0.0, 1.0, ts.shape.n) + 0.1 * rng.standard_normal((10, ts.shape.n))
        models.append(tca.fit(tca.init_tca(ts, K, data, seed=c), data, 2, tol=0.0)[0])
    return models


def test_scoring_runs_no_inverse_or_log_determinant(monkeypatch):
    """Scoring, the exact EM step and the frame posterior take log det M
    and M^-1 from the Cholesky factor alone."""
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.inv or slogdet was called")

    ts = build_shear_translation_set(ImageShape(6, 6), boundary="zero")
    models = _class_tcas(ts, 3, 2, seed=1)
    X = np.random.default_rng(2).uniform(0.0, 1.0, (5, ts.shape.n))
    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "slogdet", refuse)
    classify.classify_batch(models, X)
    tca.loglik(models[0], X)
    mtca.loglik(mtca.init_mtca(ts, 2, 3, X, seed=3), X)
    tca.em_step(models[1], X)
    assert tca.posterior(models[2], X[0]).y_cov.shape == (ts.L, 2, 2)


@pytest.mark.parametrize("C, K", [(1, 1), (1, 3), (3, 2)])
def test_log_joint_has_the_same_bits_with_and_without_the_hand_over(C, K):
    """The emission's table does not depend on whether it keeps the factor
    posterior for the M-step."""
    ts = build_shear_translation_set(ImageShape(6, 6), boundary="zero")
    X = np.random.default_rng(C + K).uniform(0.0, 1.0, (12, ts.shape.n))
    model = mtca.fit(mtca.init_mtca(ts, C, K, X, seed=C), X, 2, tol=0.0)[0]
    kept = []
    assert np.array_equal(mtca._log_joint(model, X, kept), mtca._log_joint(model, X))
    assert len(kept) == C


@pytest.mark.parametrize("K", [1, 3, 6])
def test_kernel_rows_depend_on_themselves_alone(K):
    """Any split of the (cluster, op) rows into blocks gives every row the
    bits of one call over all rows: log det M, the Woodbury term and both
    moments."""
    model = _model("zero", K, "untied", seed=20 + K)
    C, L, n = model.C, model.L, model.n
    cluster, op = np.divmod(np.arange(C * L), L)
    index = model.transforms.source_matrix[op] + (cluster * (n + 1))[:, None]
    gathered = _observed(index, model.mu, model.loadings, model.phi, model.psi)
    X = mtca.sample(model, 3, size=5)

    def run(rows):
        logdet, woodbury, moments = _factor_posterior(*(a[..., rows, :] for a in gathered), X)
        return (logdet, woodbury) + _factor_moments(*moments)

    whole = run(slice(None))
    for size in (1, 5, L, 2 * L - 3):
        parts = [run(slice(lo, lo + size)) for lo in range(0, C * L, size)]
        for i, axis in enumerate((0, 0, 0, 1)):
            assert np.array_equal(np.concatenate([p[i] for p in parts], axis=axis), whole[i])


def test_read_only_tables_are_gathered_without_a_copy():
    """A set's tables are read-only views of writeable arrays: `np.take`
    copies a read-only index on every call, and `_index` hands it the
    writeable one, with the same bits out and no copy."""
    ts = build_translation_set(ImageShape(40, 40), 9, 9, "zero")
    table = ts.source_matrix
    assert not table.flags.writeable
    index = _index(table)
    assert index.flags.writeable and np.shares_memory(index, table)
    assert not table.flags.writeable
    lazy = build_translation_set(ImageShape(5, 7), 5, 7, "wrap").source_matrix
    assert not lazy.flags.writeable and _index(lazy).flags.writeable
    assert np.shares_memory(_index(lazy), lazy) and _index(lazy).shape == lazy.shape
    n = ts.shape.n
    rng = np.random.default_rng(4)
    mu, loadings = rng.uniform(0, 1, n), rng.standard_normal((n, 2))
    phi, psi = rng.uniform(0.1, 1, n), rng.uniform(0.1, 1, n)
    peaks, outs = [], []
    for src in (table, index):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            outs.append(_observed(src, mu, loadings, phi, psi))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            tracemalloc.stop()
    for a, b in zip(*outs):
        assert np.array_equal(a, b)
    gathered = (2 + 2) * table.size * 8           # mean, var and K = 2 loading rows
    assert peaks[0] >= gathered + table.nbytes
    assert peaks[1] < gathered + 0.25 * table.nbytes


def test_frame_posterior_and_statistics_gather_through_writeable_indices(monkeypatch):
    """`tca._op_posterior` and the statistics that form their own factor
    posterior hand `_observed` views of the set's table that `np.take`
    need not copy, and get the bits of the read-only table."""
    ts = build_shear_translation_set(ImageShape(6, 6), boundary="zero")
    n = ts.shape.n
    rng = np.random.default_rng(5)
    mu, loadings = rng.uniform(0, 1, (2, n)), rng.standard_normal((2, n, 2))
    phi, psi = rng.uniform(0.1, 1, (2, n)), rng.uniform(0.1, 1, n)
    X = rng.uniform(0, 1, (4, n))
    W = rng.dirichlet(np.ones(ts.L * 2), size=4).reshape(4, ts.L, 2)
    runs, real = [], common._observed
    for index in (_index, lambda table: table):
        sources = []

        def spy(src, *args, **kwargs):
            sources.append(src)
            return real(src, *args, **kwargs)

        for module in (common, tca):
            monkeypatch.setattr(module, "_observed", spy)
            monkeypatch.setattr(module, "_index", index)
        runs.append((tca._op_posterior(ts, mu[0], loadings[0], phi[0], psi, X[0]),
                     common.gaussian_template_stats(ts, mu, loadings, phi, psi, X, W),
                     sources))
    (post, stats, sources), (post_ro, stats_ro, sources_ro) = runs
    assert len(sources) == 3 and all(src.flags.writeable for src in sources)
    assert all(np.shares_memory(src, ts.source_matrix) for src in sources)
    assert not any(src.flags.writeable for src in sources_ro)
    for a, b in zip(post + stats[:7], post_ro + stats_ro[:7]):
        assert np.array_equal(a, b)


def test_batched_m_step_solves_each_cluster_as_alone():
    """One batched solve over the clusters gives each cluster the result of
    a solve over it alone, with tangent columns held, and a rescued cluster
    keeps its loadings."""
    ts = build_shear_translation_set(ImageShape(6, 6), boundary="zero")
    rng = np.random.default_rng(6)
    X = rng.uniform(0.0, 1.0, (20, ts.shape.n))
    model = mtca.init_mtca(ts, 3, 3, X, seed=6)
    post = []
    _, resp = common._normalise(mtca._log_joint(model, X, post), "configuration")
    stats = common.gaussian_template_stats(ts, model.mu, model.loadings, model.phi,
                                           model.psi, X, resp, post)
    for fixed in (0, 1):
        every = tca.solve_mstep(stats, slice(None), model.loadings, fixed)
        for c in range(model.C):
            alone = tca.solve_mstep(stats, [c], model.loadings, fixed)
            for a, b in zip(every, alone):
                np.testing.assert_allclose(a[c], b[0], rtol=1e-13, atol=1e-15)
        assert np.array_equal(every[0][:, :, :fixed], model.loadings[:, :, :fixed])
    resp[:, :, 1] = 0.0
    resp /= resp.sum(axis=(1, 2), keepdims=True)
    _, _, rescued, _, loadings, _ = mtca._cluster_mstep(
        ts, model.mu, model.loadings, model.phi, model.psi, X, resp)
    assert rescued == (1,)
    assert np.array_equal(loadings[1], model.loadings[1])
    assert not np.array_equal(loadings[0], model.loadings[0])


def test_models_loaded_from_separate_files_share_one_emission(tmp_path, monkeypatch):
    """Ten models saved and loaded one file each hold ten set objects with
    equal tables: one `tca.cluster_loglik` call scores them all, with the
    predictions of the models that share one set."""
    ts = build_shear_translation_set(ImageShape(6, 6), boundary="zero")
    models = _class_tcas(ts, 10, 2, seed=7)
    X = np.concatenate([[m.mu for m in models],
                        np.random.default_rng(8).uniform(0.0, 1.0, (6, ts.shape.n))])
    for c, m in enumerate(models):
        save_model(m, tmp_path / f"class{c}.txm")
    loaded = [load_model(tmp_path / f"class{c}.txm", family="tca") for c in range(10)]
    assert len({id(m.transforms) for m in loaded}) == 10
    want = classify.classify_batch(models, X)
    calls = []
    real = tca.cluster_loglik
    monkeypatch.setattr(tca, "cluster_loglik",
                        lambda *a, **k: calls.append(len(a[1])) or real(*a, **k))
    got = classify.classify_batch(loaded, X)
    assert calls == [10]
    assert np.array_equal(got, want)
    assert got[:10].tolist() == list(range(10))


def test_same_tables_builds_no_lazy_grid_table(tmp_path):
    """Full wrap grids compare by their rows however they were made (the
    builder, a caller's table, a `.txm` file), and no comparison builds a
    grid's (L, n) tables; a reordered grid, a set that is not a grid and a
    differently bounded set differ, and two sets that are not grids compare
    their tables."""
    shape = ImageShape(5, 7)
    grid, other = (build_translation_set(shape, 5, 7, "wrap") for _ in range(2))
    source = np.array(build_translation_set(shape, 5, 7, "wrap").source_matrix)
    table = TransformationSet(source, shape, "wrap")
    save_model(mtca.init_mtca(grid, 1, 0, np.zeros((2, shape.n)), seed=0), tmp_path / "grid.txm")
    loaded = load_model(tmp_path / "grid.txm").transforms
    grids = (grid, other, table, loaded)
    assert all(a.same_tables(b) for a in grids for b in grids)
    swapped = TransformationSet(source[::-1], shape, "wrap")
    permuted = source.copy()
    permuted[3, [0, 1]] = permuted[3, [1, 0]]
    permuted = TransformationSet(permuted, shape, "wrap")
    shifted = TransformationSet(wrap_shift_index(shape)[:29], shape, "wrap")
    zero = build_translation_set(shape, 5, 7, "zero")
    for a in grids:
        assert not any(a.same_tables(b) or b.same_tables(a)
                       for b in (swapped, permuted, shifted, zero))
    assert not any({"source_matrix", "dest_matrix"} & set(vars(ts)) for ts in grids + (swapped,))
    assert permuted.wrap_rows is None and permuted.same_tables(
        TransformationSet(np.array(permuted.source_matrix), shape, "wrap"))
    assert zero.same_tables(build_translation_set(shape, 5, 7, "zero"))
    reversed_zero = TransformationSet(np.array(zero.source_matrix[::-1]), shape, "zero")
    assert not zero.same_tables(reversed_zero) and not permuted.same_tables(shifted)
