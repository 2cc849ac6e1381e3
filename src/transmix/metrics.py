"""Evaluation metrics: classification, cluster purity, track agreement,
and shift-invariant template correlation."""

from __future__ import annotations

import numpy as np

from .transforms import ImageShape, wrap_shift_index


def classification_error(pred, truth) -> float:
    """Fraction of mismatched labels."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.size == 0:
        raise ValueError("label vectors must be nonempty and aligned")
    return float(np.mean(pred != truth))


def clustering_purity_error(clusters, truth) -> float:
    """Error rate after labeling each cluster with its most prevalent class."""
    clusters = np.asarray(clusters)
    truth = np.asarray(truth)
    if clusters.shape != truth.shape or clusters.size == 0:
        raise ValueError("label vectors must be nonempty and aligned")
    correct = 0
    for k in np.unique(clusters):
        members = truth[clusters == k]
        correct += np.bincount(members).max()
    return 1.0 - correct / truth.size


def tracking_agreement(pred_shifts, true_shifts, wrap: int | None = None,
                       align_offset: bool = False) -> float:
    """Fraction of frames whose (di, dj) shifts match.

    `wrap` compares shifts modulo a grid size.  `align_offset` removes one
    global constant offset (the registration gauge: a model trained without
    supervision can only recover shifts relative to wherever its template
    settled) by choosing the most common difference.
    """
    pred = np.asarray(pred_shifts, dtype=np.int64)
    true = np.asarray(true_shifts, dtype=np.int64)
    if pred.shape != true.shape or pred.ndim != 2 or pred.shape[1] != 2:
        raise ValueError("shift arrays must both be (T, 2)")
    diff = pred - true
    if wrap is not None:
        diff = diff % wrap
    if align_offset:
        keys, counts = np.unique(diff, axis=0, return_counts=True)
        diff = diff - keys[np.argmax(counts)]
        if wrap is not None:
            diff = diff % wrap
    return float(np.mean(np.all(diff == 0, axis=1)))


def normalized_correlation(a, b) -> float:
    """Centered cosine similarity of two pixel vectors."""
    a = np.asarray(a, dtype=np.float64).reshape(-1)
    b = np.asarray(b, dtype=np.float64).reshape(-1)
    a = a - a.mean()
    b = b - b.mean()
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(a @ b / denom) if denom > 0 else 0.0


def shift_max_correlation(image, template, shape: ImageShape) -> float:
    """Normalized correlation maximized over all wrap shifts of the template
    (transformation-invariant template match)."""
    image = np.asarray(image, dtype=np.float64).reshape(-1)
    template = np.asarray(template, dtype=np.float64).reshape(-1)
    a = image - image.mean()
    cands = template[wrap_shift_index(shape)]
    b = cands - cands.mean(axis=1, keepdims=True)
    denom = np.linalg.norm(a) * np.linalg.norm(b, axis=1)
    corr = np.divide(b @ a, denom, out=np.zeros_like(denom), where=denom > 0)
    return max(-1.0, float(corr.max()))


def best_template_assignment(means, templates, shape: ImageShape):
    """Assign learned means to ground-truth templates.

    Returns (corr (n_means,), match (n_means,)): the shift-max correlation of
    every mean against its best template, with the bipartite assignment
    maximizing total correlation marked first (surplus means keep their best
    match).  Needs scipy, which only this function imports.
    """
    from scipy.optimize import linear_sum_assignment

    means = np.atleast_2d(means)
    templates = np.atleast_2d(templates)
    corr = np.array([[shift_max_correlation(m, t, shape) for t in templates]
                     for m in means])
    rows, cols = linear_sum_assignment(-corr)
    match = corr.argmax(axis=1)
    match[rows] = cols
    return corr[np.arange(means.shape[0]), match], match
