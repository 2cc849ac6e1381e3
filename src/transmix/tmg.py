"""Transformed mixture of Gaussians (TMG).

Each cluster is a latent template with diagonal variance; an observed image
is a discretely transformed latent image plus diagonal sensor noise.  The
transformation index and cluster are lumped into one discrete variable, so
posteriors, likelihoods and EM are exact, with per-configuration cost linear
in the pixel count.  A template is a component analyzer with no factors, so
a TMG is a view of an MTCA with zero factors: each function below runs the
`mtca` one on `as_mtca()`, which shares the model's arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import (EmOptions, PosteriorSummary, _GaussianModel, _fit, _frames,
                     _record, _starting_templates)
from .transforms import TransformationSet
from . import mtca as _mtca


@dataclass(eq=False)
class TmgModel(_GaussianModel):
    """Parameters of a transformed mixture of Gaussians.

    pi    (C,)   mixing proportions
    mu    (C, n) latent template per cluster
    phi   (C, n) diagonal latent variances per cluster
    rho   (L, C) transformation probabilities per cluster
    psi   (n,)   diagonal sensor variances, shared
    """

    transforms: TransformationSet
    pi: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    psi: np.ndarray

    _AXES = {"pi": "C", "mu": "Cn", "phi": "Cn", "rho": "LC", "psi": "n"}
    _SUMS = {"pi": None, "rho": 0}

    def as_mtca(self) -> _mtca.MtcaModel:
        """This model as an MTCA with zero factors, sharing its arrays."""
        return _record(_mtca.MtcaModel, transforms=self.transforms, pi=self.pi,
                       mu=self.mu, loadings=np.zeros((self.C, self.n, 0)),
                       phi=self.phi, rho=self.rho, psi=self.psi, fast_likelihood=False)


def init_tmg(transforms: TransformationSet, n_clusters: int, data,
             seed: int = 0, mean_noise: float = 0.05,
             init: str = "sample") -> TmgModel:
    """Start a model from the data: templates from distinct random items
    (init="sample") or the data mean (init="mean", an annealing-style start
    that registers single templates reliably), plus a little noise;
    variances from the global pixel variance, uniform priors."""
    if init not in ("sample", "mean"):
        raise ValueError("init must be 'sample' or 'mean'")
    n = transforms.shape.n
    X = _frames(data, n)
    mu, var = _starting_templates(np.random.default_rng(seed), X, n_clusters,
                                  mean_noise, pick=init == "sample")
    return TmgModel(
        transforms=transforms,
        pi=np.full(n_clusters, 1.0 / n_clusters),
        mu=mu,
        phi=np.full((n_clusters, n), var),
        rho=np.full((transforms.L, n_clusters), 1.0 / transforms.L),
        psi=np.full(n, var),
    )


def loglik_table(model: TmgModel, X) -> np.ndarray:
    """(T, L, C) table of log p(x_t | l, c)."""
    return _mtca.loglik_table(model.as_mtca(), X)


def cond_loglik(model: TmgModel, x, l: int, c: int) -> float:
    """log p(x | l, c): Gaussian with transformed template mean and
    transform-propagated diagonal covariance."""
    return _mtca.cond_loglik(model.as_mtca(), x, l, c)


def loglik(model: TmgModel, X) -> np.ndarray:
    """(T,) marginal log p(x_t)."""
    return _mtca.loglik(model.as_mtca(), X)


def posterior(model: TmgModel, x) -> PosteriorSummary:
    """Responsibilities P(l, c | x) plus latent-image posterior moments,
    computed on first read (see `PosteriorSummary`); the factor moments are
    zero-width."""
    return _mtca.posterior(model.as_mtca(), x)


def _em_step_full(model: TmgModel, X, options: EmOptions):
    new, total, mass, rescued = _mtca._em_step_full(model.as_mtca(), X, options)
    return (_record(TmgModel, **{**vars(model), "pi": new.pi, "mu": new.mu, "phi": new.phi,
                                 "rho": new.rho, "psi": new.psi}), total, mass, rescued)


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
    return _mtca.sample(model.as_mtca(), seed, size)
