"""Transformed component analysis (TCA).

A factor analyzer on the latent image — mean plus a low-rank loading matrix
plus diagonal noise — observed through a discrete transformation and sensor
noise.  Likelihoods use rank-K determinant/inverse identities, so evaluation
costs O(n K^2) per transformation instead of O(n^3).  The fast path drops the
sensor noise term entirely (the latent variances absorb it), which makes the
per-transformation covariance a permuted copy of one matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .common import (EmOptions, PosteriorSummary, _fit, _latent_posterior,
                     _mstep_tail, _normalise)
from .transforms import ImageShape, TransformationSet, apply

_LOG2PI = np.log(2.0 * np.pi)


@dataclass(eq=False)
class TcaModel:
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

    def __post_init__(self):
        n, L = self.shape.n, self.transforms.L
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.loadings = np.asarray(self.loadings, dtype=np.float64).reshape(n, -1)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        self.psi = np.asarray(self.psi, dtype=np.float64)
        if self.mu.shape != (n,) or self.phi.shape != (n,) or self.psi.shape != (n,):
            raise ValueError("mu, phi, psi must be pixel vectors")
        if self.rho.shape != (L,) or not np.isclose(self.rho.sum(), 1.0):
            raise ValueError("rho must be a distribution over the L ops")
        if self.loadings.shape[1] >= n:
            raise ValueError("the factor count must be below the pixel count")
        if np.any(self.phi <= 0) or np.any(self.psi <= 0):
            raise ValueError("variances must be positive")
        if self.fast_likelihood and self.transforms.has_void:
            raise ValueError("fast likelihood needs void-free (invertible) ops")

    @property
    def K(self) -> int:
        return self.loadings.shape[1]

    @property
    def L(self) -> int:
        return self.transforms.L

    @property
    def n(self) -> int:
        return self.shape.n


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


def _use_fast(model) -> bool:
    # void rows make G(..)G^T singular; the exact path is forced then
    return model.fast_likelihood and not model.transforms.has_void


def _per_op_pieces(transforms, mu, loadings, phi, psi, l):
    """Mean/diag/loading rows of the op-l observation covariance D + A A^T."""
    src = transforms.source_matrix[l]
    valid = src >= 0
    src_safe = np.where(valid, src, 0)
    mean = np.where(valid, mu[src_safe], 0.0)
    diag = np.where(valid, phi[src_safe], 0.0) + psi
    a = np.where(valid[:, None], loadings[src_safe], 0.0)
    return mean, diag, a


def _lowrank_loglik(X, mean, diag, a):
    """log N(x; mean, diag(diag) + a a^T) for a batch, via the rank-K
    determinant lemma and Woodbury identity."""
    n, k = a.shape
    d = X - mean[None, :]
    dd = d / diag[None, :]
    quad = np.einsum("tp,tp->t", d, dd)
    logdet = float(np.log(diag).sum())
    if k:
        m = np.eye(k) + a.T @ (a / diag[:, None])
        sign, extra = np.linalg.slogdet(m)
        if sign <= 0:
            raise np.linalg.LinAlgError("low-rank system not positive definite")
        logdet += extra
        u = dd @ a
        quad -= np.einsum("tk,tk->t", u, np.linalg.solve(m, u.T).T)
    return -0.5 * (n * _LOG2PI + logdet + quad)


def cluster_loglik(transforms, mu, loadings, phi, psi, X, fast: bool):
    """(T, L) table of log p(x | l) for one latent component analyzer."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty((X.shape[0], transforms.L))
    if fast:
        dst = transforms.dest_matrix
        for l in range(transforms.L):
            out[:, l] = _lowrank_loglik(X[:, dst[l]], mu, phi, loadings)
    else:
        for l in range(transforms.L):
            mean, diag, a = _per_op_pieces(transforms, mu, loadings, phi, psi, l)
            out[:, l] = _lowrank_loglik(X, mean, diag, a)
    return out


def loglik_table(model: TcaModel, X) -> np.ndarray:
    """(T, L) table of log p(x_t | l), fast or exact per the model flag."""
    return cluster_loglik(model.transforms, model.mu, model.loadings,
                          model.phi, model.psi, X, _use_fast(model))


def cond_loglik(model: TcaModel, x, l: int) -> float:
    """log p(x | l) for one image and one transformation."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n,) or not np.all(np.isfinite(x)):
        raise ValueError("x must be a finite pixel vector of the model size")
    return float(loglik_table(model, x[None, :])[0, l])


def _log_joint(model: TcaModel, X) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return loglik_table(model, X) + np.log(model.rho)[None, :]


def loglik(model: TcaModel, X) -> np.ndarray:
    """(T,) marginal log p(x_t)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return logsumexp(_log_joint(model, X), axis=1)


def _op_posterior(transforms, mu, loadings, phi, psi, X, l):
    """Exact joint posterior moments of (z, y) given x and op l.

    Returns (y_mean (T,K), y_cov (K,K), z_mean (T,n), z_var (n,),
    cov_zy (n,K)); the t-independent pieces depend only on the op.
    """
    k = loadings.shape[1]
    mean, diag, a = _per_op_pieces(transforms, mu, loadings, phi, psi, l)
    d = X - mean[None, :]
    m = np.eye(k) + a.T @ (a / diag[:, None])
    y_cov = np.linalg.inv(m) if k else np.zeros((0, 0))
    y_mean = (d / diag[None, :]) @ a @ y_cov if k else np.zeros((X.shape[0], 0))

    # given y the latent prior is N(mu + W y, diag(phi))
    z_mean, var = _latent_posterior(transforms.dest_matrix[l],
                                    mu + y_mean @ loadings.T, phi, psi, X)
    jac = loadings * (var / phi)[:, None]
    cov_zy = jac @ y_cov
    z_var = var + np.einsum("pk,pk->p", cov_zy, jac)
    return y_mean, y_cov, z_mean, z_var, cov_zy


def posterior(model: TcaModel, x) -> PosteriorSummary:
    """Responsibilities p(l | x) plus exact latent posteriors per op."""
    x = np.asarray(x, dtype=np.float64)
    per_datum, resp = _normalise(_log_joint(model, x[None, :]), "transformation")
    L, n, K = model.L, model.n, model.K
    z_mean = np.empty((L, n))
    z_var = np.empty((L, n))
    y_mean = np.empty((L, K))
    y_cov = np.empty((L, K, K))
    for l in range(L):
        ym, yc, zm, zv, _ = _op_posterior(model.transforms, model.mu,
                                          model.loadings, model.phi,
                                          model.psi, x[None, :], l)
        y_mean[l], y_cov[l], z_mean[l], z_var[l] = ym[0], yc, zm[0], zv
    return PosteriorSummary(resp=resp[0], z_mean=z_mean, z_var_diag=z_var,
                            loglik=float(per_datum[0]), y_mean=y_mean, y_cov=y_cov)


def accumulate_stats(transforms, mu, loadings, phi, psi, X, W):
    """Responsibility-weighted posterior sufficient statistics for one latent
    component analyzer.  W is (T, L)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    n, k = loadings.shape
    src_all = transforms.source_matrix
    mass = 0.0
    s_z = np.zeros(n)
    s_zz = np.zeros(n)
    s_y = np.zeros(k)
    s_yy = np.zeros((k, k))
    s_zy = np.zeros((n, k))
    s_psi = np.zeros(n)
    for l in range(transforms.L):
        w = W[:, l]
        wsum = float(w.sum())
        y_mean, y_cov, z_mean, z_var, cov_zy = _op_posterior(
            transforms, mu, loadings, phi, psi, X, l)
        mass += wsum
        s_z += w @ z_mean
        s_zz += w @ np.square(z_mean) + wsum * z_var
        s_y += w @ y_mean
        s_yy += wsum * y_cov + (w[:, None] * y_mean).T @ y_mean
        s_zy += wsum * cov_zy + z_mean.T @ (w[:, None] * y_mean)
        src = src_all[l]
        valid = src >= 0
        src_safe = np.where(valid, src, 0)
        resid = np.where(valid, X - z_mean[:, src_safe], X) ** 2
        resid += np.where(valid, z_var[src_safe], 0.0)
        s_psi += w @ resid
    return mass, s_z, s_zz, s_y, s_yy, s_zy, s_psi


def solve_mstep(stats, loadings_old, tangent_cols: int):
    """Maximize the expected complete log-likelihood for (loadings, mu, phi).

    The mean is appended as an extra regression column; the first
    `tangent_cols` loading columns are held fixed (their values come from
    template derivatives, not learning).
    """
    mass, s_z, s_zz, s_y, s_yy, s_zy, _ = stats
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
    mu_new = w_full[:, k]
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
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    T = X.shape[0]
    per_datum, resp = _normalise(_log_joint(model, X), "transformation")
    stats = accumulate_stats(model.transforms, model.mu, model.loadings,
                             model.phi, model.psi, X, resp)
    n_tangent = len(options.tangent_directions)
    loadings, mu, phi = solve_mstep(stats, model.loadings, n_tangent)
    if n_tangent and options.refresh_tangent:
        loadings = loadings.copy()
        loadings[:, :n_tangent] = tangent_columns(
            mu, model.transforms, options.tangent_directions)
    rho = model.rho if options.freeze_rho else resp.sum(axis=0) / T
    phi, psi, _ = _mstep_tail(X, options, [stats], (), mu, phi)
    new = replace(model, mu=mu, loadings=loadings, phi=phi, rho=rho, psi=psi)
    return new, float(per_datum.sum()), (float(T),), ()


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
    rng = np.random.default_rng(seed)
    count = 1 if size is None else size
    out = np.empty((count, model.n))
    for t in range(count):
        l = rng.choice(model.L, p=model.rho)
        y = rng.standard_normal(model.K)
        z = (model.mu + model.loadings @ y
             + np.sqrt(model.phi) * rng.standard_normal(model.n))
        out[t] = apply(model.transforms[l], z) + np.sqrt(model.psi) * rng.standard_normal(model.n)
    return out[0] if size is None else out
