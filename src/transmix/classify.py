"""Bayes-rule classification with per-class generative models."""

from __future__ import annotations

import numpy as np

from . import mtca, tca, tmg

_FAMILIES = ((tmg.TmgModel, tmg), (tca.TcaModel, tca), (mtca.MtcaModel, mtca))


def marginal_loglik(model, x) -> float:
    """log p(x) under any model family (or any object with a loglik method)."""
    for cls, mod in _FAMILIES:
        if isinstance(model, cls):
            return float(mod.loglik(model, np.asarray(x)[None, :])[0])
    if hasattr(model, "loglik"):
        return float(model.loglik(x))
    raise TypeError(f"no marginal likelihood for {type(model).__name__}")


def bayes_classify(models, x, priors=None) -> int:
    """argmax over classes of log p(x | class) + log prior.

    Ties break toward the lowest class index.  Priors default to uniform and
    may be unnormalized.
    """
    if len(models) < 2:
        raise ValueError("need at least two class models")
    if priors is None:
        priors = np.full(len(models), 1.0 / len(models))
    priors = np.asarray(priors, dtype=np.float64)
    if priors.shape != (len(models),) or np.any(priors <= 0):
        raise ValueError("priors must be positive, one per model")
    scores = np.array([marginal_loglik(m, x) for m in models]) + np.log(priors)
    return int(np.argmax(scores))


def classify_batch(models, X, priors=None) -> np.ndarray:
    """Vector of bayes_classify results for a batch of images."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    return np.array([bayes_classify(models, x, priors) for x in X], dtype=np.int64)
