"""Every gather through a table with VOID pixels against a loop that masks
VOID explicitly.  The tables hold VOID = -1 and the kernels read it as the
zero pixel that ends each gathered array; a gather that clipped -1 to 0, or
read any real pixel there, fails here."""

import numpy as np
import pytest

from transmix import (VOID, ImageShape, apply, apply_adjoint, build_shear_translation_set,
                      build_translation_set, transform_diag_cov)
from transmix import common, tca

from oracles import template_stats_dense

SETS = {
    "zero-pad": lambda: build_translation_set(ImageShape(4, 5), 3, 3, "zero"),
    "shear": lambda: build_shear_translation_set(ImageShape(5, 6), boundary="zero"),
}


def _inputs(ts, C, K, T=4, seed=0):
    """Strictly positive templates and variances, so that no real pixel
    reads as the 0 that a VOID pixel must give."""
    rng = np.random.default_rng(seed)
    n = ts.shape.n
    return (rng.uniform(0.5, 1.5, (C, n)), rng.uniform(0.2, 0.6, (C, n, K)),
            rng.uniform(0.1, 1.0, (C, n)), rng.uniform(0.05, 0.5, n),
            rng.uniform(0.0, 1.2, (T, n)))


def _observed_loop(src_rows, mu, loadings, phi, psi_rows):
    """Per index row (its source row and the cluster it reads), the mean,
    variance and K-first loading rows of `common._observed`, pixel by pixel."""
    rows, n = len(src_rows), mu.shape[-1]
    k = loadings.shape[-1]
    mean, var, loads = np.zeros((rows, n)), np.zeros((rows, n)), np.zeros((k, rows, n))
    for r, (c, src) in enumerate(src_rows):
        for p, q in enumerate(src):
            var[r, p] = psi_rows[r][p]
            if q != VOID:
                mean[r, p] = mu[c, q]
                var[r, p] += phi[c, q]
                loads[:, r, p] = loadings[c, q]
    return mean, var, loads


@pytest.mark.parametrize("name", sorted(SETS))
def test_observed_reads_zero_at_void_for_one_analyzer(name):
    ts = SETS[name]()
    assert ts.has_void
    mu, loadings, phi, psi, _ = _inputs(ts, C=1, K=2)
    got = common._observed(ts.source_matrix, mu[0], loadings[0], phi[0], psi)
    want = _observed_loop([(0, row) for row in ts.source_matrix], mu, loadings, phi,
                          [psi] * ts.L)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("lo, hi", [(0, None), (0, 5), (3, 40), (25, 64)])
def test_observed_reads_zero_at_void_for_a_stack_of_clusters(name, lo, hi):
    """Rows lo:hi of the stacked (cluster, op) index, as one emission block
    takes them: some slices run across cluster boundaries, and cluster 0's
    VOID pixels sit at index -1, the last cluster's pad."""
    ts = SETS[name]()
    C, L, n = 3, ts.L, ts.shape.n
    mu, loadings, phi, psi, _ = _inputs(ts, C=C, K=2, seed=1)
    cluster_psi = psi * np.arange(1, C + 1)[:, None]
    cluster, op = np.divmod(np.arange(C * L)[lo:hi], L)
    index = ts.source_matrix[op] + (cluster * (n + 1))[:, None]
    got = common._observed(index, mu, loadings, phi, cluster_psi[cluster])
    want = _observed_loop(list(zip(cluster, ts.source_matrix[op])), mu, loadings, phi,
                          cluster_psi[cluster])
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("K", [0, 2])
def test_emission_blocks_across_clusters_read_zero_at_void(name, K, monkeypatch):
    """The dense emission with blocks of fewer rows than a cluster has ops,
    so blocks straddle clusters, against the log-density of the loop's
    observed Gaussians, covariance diag(var) + a a^T."""
    ts = SETS[name]()
    C, L, n, T = 3, ts.L, ts.shape.n, 4
    mu, loadings, phi, psi, X = _inputs(ts, C=C, K=K, T=T, seed=2)
    monkeypatch.setattr(tca, "_EMISSION_BLOCK", (L - 3) * (n + K * T))
    assert tca._block_rows(C * L, L, n, K, T) == L - 3
    table = tca.cluster_loglik(ts, mu, loadings, phi, psi, X)
    for c in range(C):
        mean, var, loads = _observed_loop([(c, row) for row in ts.source_matrix],
                                          mu, loadings, phi, [psi] * L)
        for l in range(L):
            cov = np.diag(var[l]) + loads[:, l].T @ loads[:, l]
            diff = X - mean[l]
            _, logdet = np.linalg.slogdet(cov)
            want = -0.5 * (np.einsum("tp,tp->t", diff @ np.linalg.inv(cov), diff)
                           + logdet + n * np.log(2 * np.pi))
            np.testing.assert_allclose(table[:, l, c], want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("name", sorted(SETS))
@pytest.mark.parametrize("K", [0, 2])
@pytest.mark.parametrize("block", [slice(0, 7), slice(4, 13), np.array([0, 2, 3, 8])],
                         ids=["first-ops", "later-ops", "indexed"])
def test_block_stats_gather_and_scatter_through_void(name, K, block):
    """One block of `_block_stats`, uncentred (m = 0): its flat gathers
    read op l's pixel q at l (n + 1) + q and VOID at the pad before it, and
    its scatter drops the latent pixels that land nowhere.  The oracle
    conditions through dense 0/1 matrices with no entry at VOID."""
    ts = SETS[name]()
    mu, loadings, phi, psi, X = _inputs(ts, C=1, K=K, T=5, seed=3)
    W = np.random.default_rng(4).dirichlet(np.ones(ts.L), size=len(X))
    got = common._block_stats(ts, block, W, X, X * X, mu[0], loadings[0], phi[0], psi,
                              0.0)
    ops = np.arange(ts.L)[block]
    sub = type(ts)(ts.source_matrix[ops], ts.shape, ts.boundary)
    want = template_stats_dense(sub, mu[0], loadings[0], phi[0], psi, X, W[:, ops])
    # (s_z, s_zz, s_psi), then with factors (s_y, s_yy, s_zy)
    order = (1, 2, 6, 3, 4, 5) if K else (1, 2, 6)
    assert len(got) == len(order)
    for g, i in zip(got, order):
        np.testing.assert_allclose(g, want[i], rtol=1e-10, atol=1e-14)


def _latent_loop(dest, mu, phi, psi, x):
    """The latent posterior of one op's row of destinations, pixel by pixel."""
    mean, var = np.empty(len(dest)), np.empty(len(dest))
    for q, d in enumerate(dest):
        b, seen = (0.0, 0.0) if d == VOID else (1.0 / psi[d], x[d] / psi[d])
        var[q] = 1.0 / (1.0 / phi[q] + b)
        mean[q] = var[q] * (mu[q] / phi[q] + seen)
    return mean, var


@pytest.mark.parametrize("name", sorted(SETS))
def test_latent_posterior_reads_zero_at_void(name):
    ts = SETS[name]()
    mu, _, phi, psi, X = _inputs(ts, C=1, K=0, T=ts.L, seed=5)
    mu, phi = mu[0], phi[0]
    dest = ts.dest_matrix
    assert (dest == VOID).any()
    every_op = common._latent_posterior(dest, mu, phi, psi, X[0])
    per_row = common._latent_posterior(dest, np.tile(mu, (ts.L, 1)),
                                       np.tile(phi, (ts.L, 1)), psi, X)
    for l in range(ts.L):
        for got, x in ((every_op, X[0]), (per_row, X[l])):
            want = _latent_loop(dest[l], mu, phi, psi, x)
            np.testing.assert_allclose(got[0][l], want[0], rtol=1e-14, atol=0)
            np.testing.assert_allclose(got[1][l], want[1], rtol=1e-14, atol=0)


@pytest.mark.parametrize("name", sorted(SETS))
def test_apply_adjoint_and_diag_cov_read_zero_at_void(name):
    ts = SETS[name]()
    rng = np.random.default_rng(6)
    n = ts.shape.n
    x, phi, psi = rng.uniform(0.5, 1.5, (3, n)), rng.uniform(0.1, 1.0, n), \
        rng.uniform(0.05, 0.5, n)
    assert (ts.source_matrix == VOID).any() and (ts.dest_matrix == VOID).any()
    for op in ts:
        src, dst = op.source_index, op.dest_index
        want = np.array([[0.0 if q == VOID else row[q] for q in src] for row in x])
        back = np.array([[0.0 if p == VOID else row[p] for p in dst] for row in x])
        diag = np.array([psi[p] + (0.0 if q == VOID else phi[q]) for p, q in enumerate(src)])
        np.testing.assert_array_equal(apply(op, x), want)
        np.testing.assert_array_equal(apply_adjoint(op, x), back)
        np.testing.assert_array_equal(transform_diag_cov(op, phi, psi), diag)
