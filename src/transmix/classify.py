"""Bayes-rule classification with per-class generative models.

`classify_batch` scores the TMG, TCA and MTCA models of a list in as few
emission calls as it can: the models whose transformation sets hold equal
tables (`TransformationSet.same_tables`, so models loaded from separate
model files count) and which have one factor count K go into one
`tca.cluster_loglik` call over all their clusters, each model with its own
sensor-variance rows (zeros under the fast likelihood), and each model's
score is the log-sum-exp of its own columns of that table plus its log rho
and log pi.  Any other object is scored image by image through its `loglik`
method.
"""

from __future__ import annotations

import numpy as np

from . import mtca, tca
from .common import _cutexp, _frames


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


def _stacked_loglik(cores, X) -> np.ndarray:
    """(T, models) log p(x_t) under MTCA models whose sets hold equal
    tables and which have one K, from one emission call over all their
    clusters: cluster rows follow the models' order, each with its model's
    psi (0 under the fast likelihood).  The table's memory is (T, clusters,
    L) on either emission path, so the (T, clusters L) joint is a view and
    each model's is one run of every frame's row."""
    X = _frames(X, cores[0].n)
    counts = [m.C for m in cores]
    mu, loadings, phi = (np.concatenate([getattr(m, name) for m in cores])
                         for name in ("mu", "loadings", "phi"))
    psi = np.repeat([np.zeros_like(m.psi) if m.fast_likelihood else m.psi for m in cores],
                    counts, axis=0)
    table = tca.cluster_loglik(cores[0].transforms, mu, loadings, phi, psi, X)
    with np.errstate(divide="ignore"):
        table += np.log(np.concatenate([m.rho for m in cores], axis=1))
        table += np.log(np.concatenate([m.pi for m in cores]))
    joint = table.transpose(0, 2, 1).reshape(X.shape[0], -1)
    # one log-sum-exp per model over its run of columns: segment maxima,
    # the shifted exponentials in place, segment sums
    runs = np.multiply(counts, cores[0].L)
    starts = np.cumsum(runs) - runs
    top = np.maximum.reduceat(joint, starts, axis=1)
    top[~np.isfinite(top)] = 0.0
    joint -= np.repeat(top, runs, axis=1)
    with np.errstate(divide="ignore"):
        return np.log(np.add.reduceat(_cutexp(joint), starts, axis=1)) + top


def classify_batch(models, X, priors=None) -> np.ndarray:
    """The Bayes rule for each image of a batch.  TMG, TCA and MTCA models
    whose sets hold equal tables and which have one K are scored in one
    emission call over all their clusters, on the first one's set (see the
    module docstring); any other object goes image by image."""
    log_priors = _log_priors(models, priors)
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    scores = np.empty((X.shape[0], len(models)))
    groups, plain = [], []
    for k, model in enumerate(models):
        if not hasattr(model, "as_mtca"):
            plain.append(k)
            continue
        core = model.as_mtca()
        for members in groups:
            first = members[0][1]
            if first.K == core.K and first.transforms.same_tables(core.transforms):
                members.append((k, core))
                break
        else:
            groups.append([(k, core)])
    for members in groups:
        columns, cores = zip(*members)
        scores[:, list(columns)] = _stacked_loglik(cores, X)
    for k in plain:
        scores[:, k] = [marginal_loglik(models[k], x) for x in X]
    return np.argmax(scores + log_priors, axis=1).astype(np.int64)
