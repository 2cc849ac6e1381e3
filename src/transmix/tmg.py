"""Transformed mixture of Gaussians (TMG).

Each cluster is a latent template with diagonal variance; an observed image
is a discretely transformed latent image plus diagonal sensor noise.  The
transformation index and cluster are lumped into one discrete variable, so
posteriors, likelihoods and EM are exact, with per-configuration cost linear
in the pixel count.  A template is a component analyzer with no factors, so
TMG runs the component-analyzer kernels (emission table, M-step statistics,
latent posterior) with zero-width loadings.
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
class TmgModel:
    """Parameters of a transformed mixture of Gaussians.

    pi    (C,)   mixing proportions
    mu    (C, n) latent template per cluster
    phi   (C, n) diagonal latent variances per cluster
    rho   (L, C) transformation probabilities per cluster
    psi   (n,)   diagonal sensor variances, shared
    """

    shape: ImageShape
    transforms: TransformationSet
    pi: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    psi: np.ndarray

    def __post_init__(self):
        n, L, C = self.shape.n, self.transforms.L, self.pi.shape[0]
        for name, arr, want in (("pi", self.pi, (C,)), ("mu", self.mu, (C, n)),
                                ("phi", self.phi, (C, n)), ("rho", self.rho, (L, C)),
                                ("psi", self.psi, (n,))):
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
            setattr(self, name, arr)
        if not np.isclose(self.pi.sum(), 1.0):
            raise ValueError("pi must sum to 1")
        if not np.allclose(self.rho.sum(axis=0), 1.0):
            raise ValueError("each rho column must sum to 1")
        if np.any(self.phi <= 0) or np.any(self.psi <= 0):
            raise ValueError("variances must be positive")

    @property
    def C(self) -> int:
        return self.pi.shape[0]

    @property
    def L(self) -> int:
        return self.transforms.L

    @property
    def n(self) -> int:
        return self.shape.n


def init_tmg(transforms: TransformationSet, n_clusters: int, data,
             seed: int = 0, mean_noise: float = 0.05,
             init: str = "sample") -> TmgModel:
    """Start a model from the data: templates from distinct random items
    (init="sample") or the data mean (init="mean", an annealing-style start
    that registers single templates reliably), plus a little noise;
    variances from the global pixel variance, uniform priors."""
    X = np.atleast_2d(np.asarray(data, dtype=np.float64))
    rng = np.random.default_rng(seed)
    n = transforms.shape.n
    spread = max(float(np.std(X)), 1e-3)
    if init == "sample":
        picks = rng.choice(X.shape[0], size=n_clusters, replace=X.shape[0] < n_clusters)
        base = X[picks]
    elif init == "mean":
        base = np.broadcast_to(X.mean(axis=0), (n_clusters, n))
    else:
        raise ValueError("init must be 'sample' or 'mean'")
    mu = base + mean_noise * spread * rng.standard_normal((n_clusters, n))
    var = max(float(np.var(X)), 1e-6)
    return TmgModel(
        shape=transforms.shape,
        transforms=transforms,
        pi=np.full(n_clusters, 1.0 / n_clusters),
        mu=mu,
        phi=np.full((n_clusters, n), var),
        rho=np.full((transforms.L, n_clusters), 1.0 / transforms.L),
        psi=np.full(n, var),
    )


def loglik_table(model: TmgModel, X) -> np.ndarray:
    """(T, L, C) table of log p(x_t | l, c)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    out = np.empty((X.shape[0], model.L, model.C))
    for c in range(model.C):
        out[:, :, c] = _tca.cluster_loglik(model.transforms, model.mu[c],
                                           np.zeros((model.n, 0)), model.phi[c],
                                           model.psi, X)
    return out


def cond_loglik(model: TmgModel, x, l: int, c: int) -> float:
    """log p(x | l, c): Gaussian with transformed template mean and
    transform-propagated diagonal covariance."""
    x = _frame(x, model.n)
    return float(loglik_table(model, x[None, :])[0, l, c])


def _log_joint(model: TmgModel, X) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return (loglik_table(model, X)
                + np.log(model.rho)[None, :, :]
                + np.log(model.pi)[None, None, :])


def loglik(model: TmgModel, X) -> np.ndarray:
    """(T,) marginal log p(x_t)."""
    X = _frames(X, model.n)
    return logsumexp(_log_joint(model, X), axis=(1, 2))


def posterior(model: TmgModel, x) -> PosteriorSummary:
    """Responsibilities P(l, c | x) plus latent-image posterior moments."""
    x = _frame(x, model.n)
    per_datum, resp = _normalise(_log_joint(model, x[None, :]), "(l, c) configuration")
    z_mean = np.empty((model.L, model.C, model.n))
    z_var = np.empty((model.L, model.C, model.n))
    for c in range(model.C):
        z_mean[:, c], z_var[:, c] = _tca._op_posterior(
            model.transforms, model.mu[c], np.zeros((model.n, 0)), model.phi[c],
            model.psi, x)[2:]
    return PosteriorSummary(resp=resp[0], z_mean=z_mean, z_var_diag=z_var,
                            loglik=float(per_datum[0]))


def _em_step_full(model: TmgModel, X, options: EmOptions):
    X = _frames(X, model.n)
    T = X.shape[0]
    per_datum, resp = _normalise(_log_joint(model, X), "(l, c) configuration")
    stats = [gaussian_template_stats(model.transforms, model.mu[c],
                                     np.zeros((model.n, 0)), model.phi[c],
                                     model.psi, X, resp[:, :, c])
             for c in range(model.C)]
    mass = np.array([s[0] for s in stats])
    rescued = _starved(mass, T)
    mu, phi, rho = model.mu.copy(), model.phi.copy(), model.rho.copy()
    for c, (m_c, s1, s2) in enumerate(s[:3] for s in stats):
        if c in rescued:
            continue
        mu[c] = s1 / m_c
        phi[c] = s2 / m_c - mu[c] ** 2
        if not options.freeze_rho:
            rho[:, c] = resp[:, :, c].sum(axis=0) / m_c
    phi, psi, pi = _mstep_tail(X, options, stats, rescued, mu, phi, mass / T, rho)
    new = replace(model, pi=pi, mu=mu, phi=phi, rho=rho, psi=psi)
    return new, float(per_datum.sum()), tuple(mass), rescued


def em_step(model: TmgModel, X, options: EmOptions | None = None):
    """One EM step.  Returns (updated model, total log-likelihood of the
    batch under the *input* model)."""
    return _em_step_full(model, X, options or EmOptions())[:2]


def fit(model: TmgModel, X, iterations: int, options: EmOptions | None = None,
        tol: float = 1e-7, callback=None):
    """Run EM until the iteration budget or a relative improvement below
    `tol`.  Returns (model, step reports)."""
    return _fit(_em_step_full, model, X, iterations, options, tol, callback)


def sample(model: TmgModel, seed, size: int | None = None) -> np.ndarray:
    """Ancestral sample: cluster, transformation, latent image, sensor noise.
    Deterministic given the seed."""
    rng = np.random.default_rng(seed)
    count = 1 if size is None else size
    out = np.empty((count, model.n))
    for t in range(count):
        c = rng.choice(model.C, p=model.pi)
        l = rng.choice(model.L, p=model.rho[:, c])
        z = model.mu[c] + np.sqrt(model.phi[c]) * rng.standard_normal(model.n)
        x = apply(model.transforms[l], z)
        out[t] = x + np.sqrt(model.psi) * rng.standard_normal(model.n)
    return out[0] if size is None else out
