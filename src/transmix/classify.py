"""Bayes-rule classification with per-class generative models."""

from __future__ import annotations

import numpy as np

from . import mtca, tca, tmg

_FAMILIES = ((tmg.TmgModel, tmg), (tca.TcaModel, tca), (mtca.MtcaModel, mtca))


def _family(model):
    """The module scoring `model`, or None for other objects."""
    for cls, mod in _FAMILIES:
        if isinstance(model, cls):
            return mod
    return None


def marginal_loglik(model, x) -> float:
    """log p(x) under any model family (or any object with a loglik method)."""
    mod = _family(model)
    if mod is not None:
        return float(mod.loglik(model, np.asarray(x)[None, :])[0])
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
    may be unnormalized.
    """
    log_priors = _log_priors(models, priors)
    scores = np.array([marginal_loglik(m, x) for m in models]) + log_priors
    return int(np.argmax(scores))


def classify_batch(models, X, priors=None) -> np.ndarray:
    """bayes_classify for each image of a batch.  A family model scores the
    whole batch in one call; other objects are scored image by image."""
    log_priors = _log_priors(models, priors)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    scores = np.empty((X.shape[0], len(models)))
    for k, model in enumerate(models):
        mod = _family(model)
        if mod is not None:
            scores[:, k] = mod.loglik(model, X)
        else:
            scores[:, k] = [marginal_loglik(model, x) for x in X]
    return np.argmax(scores + log_priors, axis=1).astype(np.int64)
