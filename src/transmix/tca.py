"""Transformed component analysis (TCA).

A factor analyzer on the latent image — mean plus a low-rank loading matrix
plus diagonal noise — observed through a discrete transformation and sensor
noise.  Likelihoods use rank-K determinant/inverse identities, so evaluation
costs O(n K^2) per transformation instead of O(n^3).  The fast likelihood is
the same kernel with the sensor noise dropped (psi = 0): the latent variances
absorb it, and with void-free ops each transformation's covariance is then a
permuted copy of one matrix.  The emission table here and the M-step
statistics (`common.gaussian_template_stats`) each take a model's whole
cluster stack in one call, over all ops; the latent posterior of one frame
is one kernel over all ops, which `mtca` runs per cluster.  A TCA is a view
of an MTCA with one cluster: each model function below runs the `mtca` one
on `as_mtca()`, which shares the model's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .common import (EmOptions, PosteriorSummary, _GaussianModel, _factor_gain,
                     _fft_rows, _fit, _latent_posterior, _observed, _record,
                     _spectra, _unspectra)
from .transforms import ImageShape, TransformationSet, apply
from . import mtca as _mtca

_LOG2PI = np.log(2.0 * np.pi)


@dataclass(eq=False)
class TcaModel(_GaussianModel):
    """Parameters of a transformed component analyzer.

    mu        (n,)    latent mean image
    loadings  (n, K)  latent image components (factor loading matrix)
    phi       (n,)    diagonal latent variances
    rho       (L,)    transformation probabilities
    psi       (n,)    diagonal sensor variances
    fast_likelihood   evaluate likelihoods with sensor noise folded into the
                      latent variances (requires void-free ops)
    """

    shape: ImageShape
    transforms: TransformationSet
    mu: np.ndarray
    loadings: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    psi: np.ndarray
    fast_likelihood: bool = False

    _AXES = {"mu": "n", "loadings": "nK", "phi": "n", "rho": "L", "psi": "n"}
    _SUMS = {"rho": None}

    def as_mtca(self) -> _mtca.MtcaModel:
        """This model as an MTCA with one cluster, sharing its arrays."""
        return _record(_mtca.MtcaModel, shape=self.shape, transforms=self.transforms,
                       pi=np.ones(1), mu=self.mu[None], loadings=self.loadings[None],
                       phi=self.phi[None], rho=self.rho[:, None], psi=self.psi,
                       fast_likelihood=self.fast_likelihood)


def init_tca(transforms: TransformationSet, n_factors: int, data,
             seed: int = 0, fast_likelihood: bool = False) -> TcaModel:
    """Mean from the data average, loadings from orthogonalized random
    directions, variances from the global pixel variance, uniform rho."""
    X = np.atleast_2d(np.asarray(data, dtype=np.float64))
    rng = np.random.default_rng(seed)
    n = transforms.shape.n
    var = max(float(np.var(X)), 1e-6)
    loadings = np.zeros((n, n_factors))
    if n_factors:
        q, _ = np.linalg.qr(rng.standard_normal((n, n_factors)))
        loadings = 0.5 * np.sqrt(var) * q
    return TcaModel(
        shape=transforms.shape,
        transforms=transforms,
        mu=X.mean(axis=0),
        loadings=loadings,
        phi=np.full(n, var),
        rho=np.full(transforms.L, 1.0 / transforms.L),
        psi=np.full(n, var),
        fast_likelihood=fast_likelihood,
    )


def cluster_loglik(transforms, mu, loadings, phi, psi, X):
    """(T, L, C) table of log p(x | l, c) for the latent component analyzers
    mu (C, n), loadings (C, n, K), phi (C, n) with sensor noise psi.

    Given op l the image is Gaussian with covariance D_l + a_l a_l^T (D_l
    diagonal, a_l the loading rows in observed coordinates).  The diagonal
    part takes two matrix products over all ops; K > 0 factors add log det
    M_l and a K-dimensional Woodbury term per (t, l) from one more product.

    At K = 0 on a full wrap grid with one sensor variance (`_fft_rows`), op
    l reads latent pixel p - d_l at observed pixel p, so with v = phi + psi
    in latent coordinates the log-determinant and sum mu^2/v are the same
    for every op, and the rest of the quadratic term is
    sum_p x_p^2 / v[p - d] - 2 x_p mu[p - d] / v[p - d] =
    corr(x^2, 1/v)[d] - 2 corr(x, mu/v)[d], with the circular
    cross-correlation corr(f, g)[d] = sum_p f[p] g[p - d]: one inverse 2-D
    FFT per cluster and datum, all in one call, with the frames' spectra
    shared (`_fft_loglik`).
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    # the squares expanded below cancel when the data sit far from zero;
    # x - mean is unchanged by a common shift, so shift all by the batch mean
    shift = X.mean()
    X = X - shift
    with np.errstate(over="ignore"):
        X2 = X * X
    wrap = _fft_rows(transforms, loadings, psi)
    if wrap is not None:
        return _fft_loglik(transforms.shape, wrap, mu - shift, phi + psi[0], X, X2)
    (C, n, k), L = loadings.shape, transforms.L
    table = np.empty((X.shape[0], L, C))
    for c in range(C):
        mean, var, rows = _observed(transforms.padded_source, mu[c], loadings[c],
                                    phi[c], psi)
        mean -= shift
        if k:
            scaled, M = _factor_gain(rows, var)       # M = I + PSD: det M >= 1
        # (L, n) tables are megabytes at large L * n, and paging in fresh memory
        # costs more than the arithmetic on it, so two blocks are worked in
        # place: mean and var (var takes mean/var, then mean^2/var), log(var), 1/var
        inv = np.log(var)
        const = -0.5 * (inv.sum(axis=1) + n * _LOG2PI)
        np.divide(1.0, var, out=inv)
        with np.errstate(over="ignore"):
            mean_inv = np.multiply(mean, inv, out=var)
            quad = X2 @ inv.T - 2.0 * (X @ mean_inv.T)
            np.multiply(mean, mean, out=mean_inv)
            mean_inv *= inv
            quad += mean_inv.sum(axis=1)
            out = const[None, :] - 0.5 * quad
            if k:
                logdet = np.linalg.slogdet(M)[1]
                U = ((X @ scaled.transpose(1, 0, 2).reshape(n, L * k)).reshape(-1, L, k)
                     - np.einsum("lp,lpk->lk", mean, scaled))
                V = np.linalg.solve(M, U.transpose(1, 2, 0))       # (L, k, T)
                out += 0.5 * (np.einsum("tlk,lkt->tl", U, V) - logdet[None, :])
        table[:, :, c] = out
    return table


def _fft_loglik(shape, rows, mu, v, X, X2):
    """`cluster_loglik` at K = 0 on a full wrap grid, op l the shift d_l =
    rows[l], with v = phi + psi, from centred frames X and their squares X2.
    The table is (L, T, C) in memory, the gather's order: sums over it add
    in memory order, so the layout fixes their rounding.  Every cluster goes
    through one forward and one inverse transform call, and each column has
    the bits of a one-cluster call."""
    T, C = X.shape[0], mu.shape[0]
    table = np.empty((len(rows), T, C)).transpose(1, 0, 2)
    fx, fx2 = _spectra(shape, X, X2)
    inv = 1.0 / v
    mean_inv = mu * inv
    const = -0.5 * (np.log(v).sum(axis=1) + shape.n * _LOG2PI + (mu * mean_inv).sum(axis=1))
    f_inv, f_mean = np.conj(_spectra(shape, inv, mean_inv))[:, :, None]
    quad = _unspectra(shape, fx2 * f_inv - 2.0 * fx * f_mean)      # (C, T, n)
    table[...] = const - 0.5 * quad[:, :, rows].transpose(1, 2, 0)
    return table


def loglik_table(model: TcaModel, X) -> np.ndarray:
    """(T, L) table of log p(x_t | l), fast or exact per the model flag."""
    return _mtca.loglik_table(model.as_mtca(), X)[:, :, 0]


def cond_loglik(model: TcaModel, x, l: int) -> float:
    """log p(x | l) for one image and one transformation."""
    return _mtca.cond_loglik(model.as_mtca(), x, l, 0)


def loglik(model: TcaModel, X) -> np.ndarray:
    """(T,) marginal log p(x_t)."""
    return _mtca.loglik(model.as_mtca(), X)


def _op_posterior(transforms, mu, loadings, phi, psi, x):
    """Exact joint posterior moments of (z, y) given one image x, for every
    op at once.

    Returns y_cov (L, K, K), y_mean (L, K), z_mean (L, n) and the diagonal
    z_var (L, n).  Given y the latent prior is N(mu + loadings y, diag phi),
    so z is the diagonal posterior of `_latent_posterior` at the factors'
    posterior mean, widened by r^2 diag(loadings y_cov loadings^T) with
    r = var/phi.
    """
    L, k = transforms.L, loadings.shape[1]
    if not k:
        z_mean, z_var = _latent_posterior(transforms.padded_dest, mu, phi, psi, x)
        return np.zeros((L, 0, 0)), np.zeros((L, 0)), z_mean, z_var
    mean, var, rows = _observed(transforms.padded_source, mu, loadings, phi, psi)
    scaled, M = _factor_gain(rows, var)
    y_cov = np.linalg.inv(M)
    y_mean = np.einsum("lp,lpk,lkj->lj", x - mean, scaled, y_cov)
    z_mean, var = _latent_posterior(transforms.padded_dest,
                                    mu + y_mean @ loadings.T, phi, psi, x)
    r = var / phi
    z_var = var + r * r * np.einsum("pk,lkj,pj->lp", loadings, y_cov, loadings)
    return y_cov, y_mean, z_mean, z_var


def posterior(model: TcaModel, x) -> PosteriorSummary:
    """Responsibilities p(l | x) plus exact latent posteriors per op, the
    latter computed on first read (see `PosteriorSummary`)."""
    post = _mtca.posterior(model.as_mtca(), x)
    return PosteriorSummary(resp=post.resp[:, 0], loglik=post.loglik,
                            _compute=lambda: tuple(m[:, 0] for m in post._moments))


def solve_mstep(stats, c: int, loadings_old, tangent_cols: int):
    """Maximize the expected complete log-likelihood for cluster c's
    (loadings, mu, phi) from the sums of `gaussian_template_stats`, those of
    z' = z - m for the centre m that ends the tuple.  Regressing z' on
    (y, 1), the mean is the extra column and comes out as mu - m; phi is
    formed from residuals at the centred scale, so it does not cancel when
    the data sit far from zero.  The first `tangent_cols` loading columns
    are held fixed (their values come from template derivatives, not
    learning).
    """
    (mass, s_z, s_zz, s_y, s_yy, s_zy), centre = (s[c] for s in stats[:6]), stats[7]
    n, k = loadings_old.shape
    syy_aug = np.empty((k + 1, k + 1))
    syy_aug[:k, :k] = s_yy
    syy_aug[:k, k] = s_y
    syy_aug[k, :k] = s_y
    syy_aug[k, k] = mass
    szy_aug = np.concatenate([s_zy, s_z[:, None]], axis=1)

    free = list(range(tangent_cols, k + 1))
    fixed = list(range(tangent_cols))
    w_full = np.concatenate([loadings_old, np.zeros((n, 1))], axis=1)
    target = szy_aug[:, free]
    if fixed:
        target = target - w_full[:, fixed] @ syy_aug[np.ix_(fixed, free)]
    sol = np.linalg.solve(syy_aug[np.ix_(free, free)], target.T).T
    w_full[:, free] = sol
    loadings_new = w_full[:, :k]
    mu_new = w_full[:, k] + centre
    resid = (s_zz - 2.0 * np.einsum("pk,pk->p", w_full, szy_aug)
             + np.einsum("pk,kj,pj->p", w_full, syy_aug, w_full))
    phi_new = resid / mass
    return loadings_new, mu_new, phi_new


def tangent_columns(mu, transforms: TransformationSet, directions) -> np.ndarray:
    """Loading columns from central differences of the template along
    one-parameter subfamilies of the transformation set.

    Directions for shift grids: "h"/"horizontal", "v"/"vertical"; for shear
    families: "shear", "shift".  The set must contain the +/- unit-step ops.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if transforms.params is None:
        raise ValueError("transformation set carries no op parameters")
    lookup = {tuple(p): i for i, p in enumerate(transforms.params)}

    def pair(plus, minus):
        if plus not in lookup or minus not in lookup:
            raise ValueError(f"set lacks the +/- unit steps {plus}/{minus}")
        return lookup[plus], lookup[minus]

    cols = []
    for name in directions:
        if name in ("h", "horizontal"):
            ip, im = pair((0.0, 1.0), (0.0, -1.0))
        elif name in ("v", "vertical"):
            ip, im = pair((1.0, 0.0), (-1.0, 0.0))
        elif name == "shear":
            shears = sorted({p[0] for p in transforms.params if p[0] > 0})
            if not shears:
                raise ValueError("set has no positive shear level")
            s = shears[0]
            ip, im = pair((s, 0.0), (-s, 0.0))
        elif name == "shift":
            ip, im = pair((0.0, 1.0), (0.0, -1.0))
        else:
            raise ValueError(f"unknown tangent direction {name!r}")
        cols.append(0.5 * (apply(transforms[ip], mu) - apply(transforms[im], mu)))
    return np.stack(cols, axis=1)


def _em_step_full(model: TcaModel, X, options: EmOptions):
    new, total, mass, rescued = _mtca._em_step_full(model.as_mtca(), X, options)
    return (replace(model, mu=new.mu[0], loadings=new.loadings[0], phi=new.phi[0],
                    rho=new.rho[:, 0], psi=new.psi), total, mass, rescued)


def em_step(model: TcaModel, X, options: EmOptions | None = None):
    """One EM step; the returned log-likelihood is under the input model."""
    return _em_step_full(model, X, options or EmOptions())[:2]


def fit(model: TcaModel, X, iterations: int, options: EmOptions | None = None,
        tol: float = 1e-7, callback=None):
    """Run EM until the iteration budget or a relative improvement below
    `tol`.  Returns (model, step reports)."""
    return _fit(_em_step_full, model, X, iterations, options, tol, callback)


def sample(model: TcaModel, seed, size: int | None = None) -> np.ndarray:
    """Ancestral sample: factors, latent image, transformation, sensor noise."""
    return _mtca.sample(model.as_mtca(), seed, size)
