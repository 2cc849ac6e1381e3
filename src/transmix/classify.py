"""Bayes-rule classification with per-class generative models."""

from __future__ import annotations

import numpy as np

from . import mtca


def marginal_loglik(model, x) -> float:
    """log p(x) under a TMG, TCA or MTCA model, scored as its MTCA view, or
    under any object with a loglik method."""
    if hasattr(model, "as_mtca"):
        return float(mtca.loglik(model.as_mtca(), np.asarray(x)[None, :])[0])
    if hasattr(model, "loglik"):
        return float(model.loglik(x))
    raise TypeError(f"no marginal likelihood for {type(model).__name__}")


def _log_priors(models, priors) -> np.ndarray:
    """Checked log class priors, uniform when none are given."""
    if len(models) < 2:
        raise ValueError("need at least two class models")
    if priors is None:
        priors = np.full(len(models), 1.0 / len(models))
    priors = np.asarray(priors, dtype=np.float64)
    if priors.shape != (len(models),) or np.any(priors <= 0):
        raise ValueError("priors must be positive, one per model")
    return np.log(priors)


def bayes_classify(models, x, priors=None) -> int:
    """argmax over classes of log p(x | class) + log prior.

    Ties break toward the lowest class index.  Priors default to uniform and
    may be unnormalized.  The rule is `classify_batch`'s, on a batch of one.
    """
    return int(classify_batch(models, np.asarray(x)[None], priors)[0])


def classify_batch(models, X, priors=None) -> np.ndarray:
    """The Bayes rule for each image of a batch.  A TMG, TCA or MTCA model
    scores the whole batch in one call; other objects go image by image."""
    log_priors = _log_priors(models, priors)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    scores = np.empty((X.shape[0], len(models)))
    for k, model in enumerate(models):
        if hasattr(model, "as_mtca"):
            scores[:, k] = mtca.loglik(model.as_mtca(), X)
        else:
            scores[:, k] = [marginal_loglik(model, x) for x in X]
    return np.argmax(scores + log_priors, axis=1).astype(np.int64)
