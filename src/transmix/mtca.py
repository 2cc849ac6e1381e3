"""Mixture of transformed component analyzers (MTCA).

Clusters, low-rank appearance components and discrete transformations in one
model: each cluster owns a template, loading matrix and latent variances;
cluster and transformation index are lumped for exact inference.  With zero
factors per cluster this is exactly a TMG; with one cluster, exactly a TCA.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy.special import logsumexp

from .common import (EmOptions, PosteriorSummary, _fit, _frame, _frames,
                     _mstep_tail, _normalise, _starved, gaussian_template_stats)
from .transforms import ImageShape, TransformationSet, apply
from . import tca as _tca


@dataclass(eq=False)
class MtcaModel:
    """Per-cluster component analyzers under a shared transformation family.

    pi (C,), mu (C, n), loadings (C, n, K), phi (C, n), rho (L, C),
    psi (n,) shared sensor variances.
    """

    shape: ImageShape
    transforms: TransformationSet
    pi: np.ndarray
    mu: np.ndarray
    loadings: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    psi: np.ndarray
    fast_likelihood: bool = False

    def __post_init__(self):
        n, L = self.shape.n, self.transforms.L
        self.pi = np.asarray(self.pi, dtype=np.float64)
        C = self.pi.shape[0]
        self.mu = np.asarray(self.mu, dtype=np.float64)
        self.loadings = np.asarray(self.loadings, dtype=np.float64).reshape(C, n, -1)
        self.phi = np.asarray(self.phi, dtype=np.float64)
        self.rho = np.asarray(self.rho, dtype=np.float64)
        self.psi = np.asarray(self.psi, dtype=np.float64)
        if self.mu.shape != (C, n) or self.phi.shape != (C, n):
            raise ValueError("mu and phi must be (C, n)")
        if self.rho.shape != (L, C) or not np.allclose(self.rho.sum(axis=0), 1.0):
            raise ValueError("rho columns must be distributions over ops")
        if not np.isclose(self.pi.sum(), 1.0):
            raise ValueError("pi must sum to 1")
        if self.loadings.shape[2] >= n:
            raise ValueError("the factor count must be below the pixel count")
        if np.any(self.phi <= 0) or np.any(self.psi <= 0):
            raise ValueError("variances must be positive")
        if self.fast_likelihood and self.transforms.has_void:
            raise ValueError("fast likelihood needs void-free (invertible) ops")

    @property
    def C(self) -> int:
        return self.pi.shape[0]

    @property
    def K(self) -> int:
        return self.loadings.shape[2]

    @property
    def L(self) -> int:
        return self.transforms.L

    @property
    def n(self) -> int:
        return self.shape.n


def init_mtca(transforms: TransformationSet, n_clusters: int, n_factors: int,
              data, seed: int = 0, mean_noise: float = 0.05,
              fast_likelihood: bool = False) -> MtcaModel:
    X = np.atleast_2d(np.asarray(data, dtype=np.float64))
    rng = np.random.default_rng(seed)
    n = transforms.shape.n
    picks = rng.choice(X.shape[0], size=n_clusters, replace=X.shape[0] < n_clusters)
    spread = max(float(np.std(X)), 1e-3)
    mu = X[picks] + mean_noise * spread * rng.standard_normal((n_clusters, n))
    var = max(float(np.var(X)), 1e-6)
    loadings = np.zeros((n_clusters, n, n_factors))
    for c in range(n_clusters):
        if n_factors:
            q, _ = np.linalg.qr(rng.standard_normal((n, n_factors)))
            loadings[c] = 0.5 * np.sqrt(var) * q
    return MtcaModel(
        shape=transforms.shape, transforms=transforms,
        pi=np.full(n_clusters, 1.0 / n_clusters), mu=mu, loadings=loadings,
        phi=np.full((n_clusters, n), var),
        rho=np.full((transforms.L, n_clusters), 1.0 / transforms.L),
        psi=np.full(n, var), fast_likelihood=fast_likelihood)


def loglik_table(model: MtcaModel, X) -> np.ndarray:
    """(T, L, C) table of log p(x_t | l, c)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty((X.shape[0], model.L, model.C))
    psi = _tca._emission_psi(model)
    for c in range(model.C):
        out[:, :, c] = _tca.cluster_loglik(model.transforms, model.mu[c],
                                           model.loadings[c], model.phi[c],
                                           psi, X)
    return out


def cond_loglik(model: MtcaModel, x, l: int, c: int) -> float:
    x = _frame(x, model.n)
    return float(loglik_table(model, x[None, :])[0, l, c])


def _log_joint(model: MtcaModel, X) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return (loglik_table(model, X) + np.log(model.rho)[None, :, :]
                + np.log(model.pi)[None, None, :])


def loglik(model: MtcaModel, X) -> np.ndarray:
    """(T,) marginal log p(x_t)."""
    X = _frames(X, model.n)
    return logsumexp(_log_joint(model, X), axis=(1, 2))


def posterior(model: MtcaModel, x) -> PosteriorSummary:
    """Responsibilities P(l, c | x) plus per-(l, c) latent moments."""
    x = _frame(x, model.n)
    per_datum, resp = _normalise(_log_joint(model, x[None, :]), "(l, c) configuration")
    L, C, n, K = model.L, model.C, model.n, model.K
    z_mean, z_var = np.empty((L, C, n)), np.empty((L, C, n))
    y_mean, y_cov = np.empty((L, C, K)), np.empty((L, C, K, K))
    for c in range(C):
        y_cov[:, c], y_mean[:, c], z_mean[:, c], z_var[:, c] = _tca._op_posterior(
            model.transforms, model.mu[c], model.loadings[c], model.phi[c],
            model.psi, x)
    return PosteriorSummary(resp=resp[0], z_mean=z_mean, z_var_diag=z_var,
                            loglik=float(per_datum[0]), y_mean=y_mean, y_cov=y_cov)


def _em_step_full(model: MtcaModel, X, options: EmOptions):
    X = _frames(X, model.n)
    T = X.shape[0]
    per_datum, resp = _normalise(_log_joint(model, X), "(l, c) configuration")
    stats = [gaussian_template_stats(model.transforms, model.mu[c], model.loadings[c],
                                     model.phi[c], model.psi, X, resp[:, :, c])
             for c in range(model.C)]
    mass = np.array([s[0] for s in stats])
    rescued = _starved(mass, T)
    n_tangent = len(options.tangent_directions)
    mu, phi = model.mu.copy(), model.phi.copy()
    loadings, rho = model.loadings.copy(), model.rho.copy()
    for c, st in enumerate(stats):
        if c in rescued:
            continue
        loadings[c], mu[c], phi[c] = _tca.solve_mstep(st, model.loadings[c], n_tangent)
        if n_tangent:
            loadings[c, :, :n_tangent] = _tca.tangent_columns(
                mu[c], model.transforms, options.tangent_directions)
        if not options.freeze_rho:
            rho[:, c] = resp[:, :, c].sum(axis=0) / mass[c]
    phi, psi, pi = _mstep_tail(X, options, stats, rescued, mu, phi, mass / T, rho)
    new = replace(model, pi=pi, mu=mu, loadings=loadings, phi=phi, rho=rho, psi=psi)
    return new, float(per_datum.sum()), tuple(mass), rescued


def em_step(model: MtcaModel, X, options: EmOptions | None = None):
    """One EM step; the returned log-likelihood is under the input model."""
    return _em_step_full(model, X, options or EmOptions())[:2]


def fit(model: MtcaModel, X, iterations: int, options: EmOptions | None = None,
        tol: float = 1e-7, callback=None):
    """Run EM until the iteration budget or a relative improvement below
    `tol`.  Returns (model, step reports)."""
    return _fit(_em_step_full, model, X, iterations, options, tol, callback)


def sample(model: MtcaModel, seed, size: int | None = None) -> np.ndarray:
    """Ancestral sample through cluster, factors, latent image, op, noise."""
    rng = np.random.default_rng(seed)
    count = 1 if size is None else size
    out = np.empty((count, model.n))
    for t in range(count):
        c = rng.choice(model.C, p=model.pi)
        l = rng.choice(model.L, p=model.rho[:, c])
        y = rng.standard_normal(model.K)
        z = (model.mu[c] + model.loadings[c] @ y
             + np.sqrt(model.phi[c]) * rng.standard_normal(model.n))
        out[t] = apply(model.transforms[l], z) + np.sqrt(model.psi) * rng.standard_normal(model.n)
    return out[0] if size is None else out
