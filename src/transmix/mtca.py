"""Mixture of transformed component analyzers (MTCA): the Gaussian model core.

Clusters, low-rank appearance components and discrete transformations in one
model: each cluster owns a template, loading matrix and latent variances;
cluster and transformation index are lumped for exact inference.  With zero
factors per cluster this is exactly a TMG; with one cluster, exactly a TCA.
So `tmg` and `tca` are views: their functions call the ones here on the
model's `as_mtca()`, a record sharing its arrays, and reshape the result.
The emission table and the M-step statistics are one kernel call each over
all clusters; the dense emission takes every (cluster, op) row in one
stacked pass (see `tca.cluster_loglik`), and with factors hands the
M-step each cluster's view of the factor posterior it formed.  One frame's
latent moments are computed per cluster.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .common import (EmOptions, PosteriorSummary, _GaussianModel, _fit, _frame,
                     _frames, _mstep_tail, _normalise, _record, _starting_templates,
                     _starved, gaussian_template_stats, logsumexp)
from .transforms import TransformationSet, apply
from . import tca as _tca


@dataclass(eq=False)
class MtcaModel(_GaussianModel):
    """Per-cluster component analyzers under a shared transformation family.

    pi (C,), mu (C, n), loadings (C, n, K), phi (C, n), rho (L, C),
    psi (n,) shared sensor variances.
    """

    transforms: TransformationSet
    pi: np.ndarray
    mu: np.ndarray
    loadings: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    psi: np.ndarray
    fast_likelihood: bool = False

    _AXES = {"pi": "C", "mu": "Cn", "loadings": "CnK", "phi": "Cn",
             "rho": "LC", "psi": "n"}
    _SUMS = {"pi": None, "rho": 0}

    def as_mtca(self) -> MtcaModel:
        """The model itself; TMG and TCA models return their MTCA view."""
        return self


def init_mtca(transforms: TransformationSet, n_clusters: int, n_factors: int,
              data, seed: int = 0, mean_noise: float = 0.05,
              fast_likelihood: bool = False) -> MtcaModel:
    rng = np.random.default_rng(seed)
    n = transforms.shape.n
    X = _frames(data, n)
    mu, var = _starting_templates(rng, X, n_clusters, mean_noise)
    loadings = np.zeros((n_clusters, n, n_factors))
    for c in range(n_clusters):
        if n_factors:
            q, _ = np.linalg.qr(rng.standard_normal((n, n_factors)))
            loadings[c] = 0.5 * np.sqrt(var) * q
    return MtcaModel(
        transforms=transforms,
        pi=np.full(n_clusters, 1.0 / n_clusters), mu=mu, loadings=loadings,
        phi=np.full((n_clusters, n), var),
        rho=np.full((transforms.L, n_clusters), 1.0 / transforms.L),
        psi=np.full(n, var), fast_likelihood=fast_likelihood)


def loglik_table(model: MtcaModel, X, *, posterior=None) -> np.ndarray:
    """(T, L, C) table of log p(x_t | l, c); the fast likelihood drops the
    sensor noise (see `tca`).  The table is a view of (T, C, L) memory, so
    sums over it add in that order.  A list given as `posterior` receives
    each cluster's factor posterior (`tca.cluster_loglik`)."""
    psi = np.zeros_like(model.psi) if model.fast_likelihood else model.psi
    return _tca.cluster_loglik(model.transforms, model.mu, model.loadings, model.phi,
                               psi, _frames(X, model.n), posterior=posterior)


def cond_loglik(model: MtcaModel, x, l: int, c: int) -> float:
    x = _frame(x, model.n)
    return float(loglik_table(model, x[None, :])[0, l, c])


def _log_joint(model: MtcaModel, X, posterior=None) -> np.ndarray:
    """log p(x_t, l, c): the emission table, with log rho and then log pi
    added in place."""
    table = loglik_table(model, X, posterior=posterior)
    with np.errstate(divide="ignore"):
        table += np.log(model.rho)
        table += np.log(model.pi)
    return table


def loglik(model: MtcaModel, X) -> np.ndarray:
    """(T,) marginal log p(x_t)."""
    X = _frames(X, model.n)
    return logsumexp(_log_joint(model, X), axis=(1, 2))


def posterior(model: MtcaModel, x) -> PosteriorSummary:
    """Responsibilities P(l, c | x) plus per-(l, c) latent moments.  The
    moments are computed on first read, from copies of x and the parameters
    taken now (see `PosteriorSummary`)."""
    x = _frame(x, model.n)
    per_datum, resp = _normalise(_log_joint(model, x[None, :]), "(l, c) configuration")
    return PosteriorSummary(resp=resp[0], loglik=float(per_datum[0]), _compute=partial(
        _latent_moments, model.transforms, model.mu.copy(), model.loadings.copy(),
        model.phi.copy(), model.psi.copy(), x.copy()))


def _latent_moments(transforms, mu, loadings, phi, psi, x):
    """(z_mean, z_var_diag, y_mean, y_cov) of `posterior`: the exact latent
    moments per (l, c), from `tca._op_posterior` per cluster."""
    L, (C, n, K) = transforms.L, loadings.shape
    z_mean, z_var = np.empty((L, C, n)), np.empty((L, C, n))
    y_mean, y_cov = np.empty((L, C, K)), np.empty((L, C, K, K))
    for c in range(C):
        y_cov[:, c], y_mean[:, c], z_mean[:, c], z_var[:, c] = _tca._op_posterior(
            transforms, mu[c], loadings[c], phi[c], psi, x)
    return z_mean, z_var, y_mean, y_cov


def _cluster_mstep(transforms, mu, loadings, phi, psi, X, W, directions=(),
                   posterior=None):
    """The per-cluster M-step of every Gaussian family, from weights W[t, l, c]
    and, when given, the E-step's factor posterior per cluster.

    Returns the clusters' s_psi (C, n), masses and starved clusters, and the
    new (mu, loadings, phi), where a starved cluster keeps its old values for
    `_mstep_tail` to reseed.  The first loading columns follow the template
    derivatives along `directions` instead of being learned.
    """
    stats = gaussian_template_stats(transforms, mu, loadings, phi, psi, X, W, posterior)
    rescued = _starved(stats[0], X.shape[0])
    mu, loadings, phi = mu.copy(), loadings.copy(), phi.copy()
    for c in range(mu.shape[0]):
        if c in rescued:
            continue
        loadings[c], mu[c], phi[c] = _tca.solve_mstep(stats, c, loadings[c], len(directions))
        if directions:
            loadings[c, :, :len(directions)] = _tca.tangent_columns(
                mu[c], transforms, directions)
    return stats[6], stats[0], rescued, mu, loadings, phi


def _em_step_full(model: MtcaModel, X, options: EmOptions):
    if len(options.tangent_directions) > model.K:
        raise ValueError(f"{len(options.tangent_directions)} tangent directions "
                         f"need as many factors, but the model has {model.K}")
    X = _frames(X, model.n)
    T = X.shape[0]
    # the exact emission forms the factor posterior that the M-step reads;
    # the fast one drops psi, so the M-step forms its own
    posterior = [] if model.K and not model.fast_likelihood else None
    per_datum, resp = _normalise(_log_joint(model, X, posterior), "(l, c) configuration")
    s_psi, mass, rescued, mu, loadings, phi = _cluster_mstep(
        model.transforms, model.mu, model.loadings, model.phi, model.psi, X, resp,
        options.tangent_directions, posterior)
    rho = model.rho.copy()
    if not options.freeze_rho:
        # column by column, which copies nothing; on a one-op set a column
        # then adds its frames in the order `mass` does, so rho stays exactly 1
        for c in range(model.C):
            if c not in rescued:
                rho[:, c] = resp[:, :, c].sum(axis=0) / mass[c]
    phi, psi, pi = _mstep_tail(X, options, s_psi, rescued, mu, phi, mass / T, rho)
    new = _record(MtcaModel, **{**vars(model), "pi": pi, "mu": mu, "loadings": loadings,
                                "phi": phi, "rho": rho, "psi": psi})
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
