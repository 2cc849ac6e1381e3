"""Shared pieces of the EM machinery: options, reports, posterior containers,
and the EM loop, E-step normaliser, M-step tail and latent-posterior kernel
that every model family runs on."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import logsumexp

FLOOR_REL = 1e-6
FLOOR_ABS = 1e-12
# responsibility mass per cluster, as a fraction of the batch, below which
# the M-step reseeds the cluster from a random datum
RESCUE_THRESHOLD = 1e-6


class UnderflowError(ArithmeticError):
    """All discrete configurations underflowed despite log-domain math."""


def variance_floor(data: np.ndarray, override: float | None = None) -> float:
    """Floor applied to all variances after every M-step.

    Relative to the global pixel variance of the batch so it adapts to the
    data scale; a tiny absolute floor guards constant data.
    """
    if override is not None:
        return float(override)
    return max(FLOOR_REL * float(np.var(data)), FLOOR_ABS)


@dataclass
class EmOptions:
    """Knobs for a single EM step.  Fields irrelevant to a family are ignored.

    freeze_rho        keep transformation probabilities at their current value
    tie_psi           average sensor variances to one scalar after the
                      update; the variance floor applies after the tie
    freeze_pi         keep mixing proportions fixed
    floor             variance floor override (default: relative to the data)
    seed              RNG seed for cluster rescues (kept in options for
                      determinism)
    tangent_directions  TCA/MTCA: leading loading columns pinned to template
                      derivatives along these directions, recomputed each
                      M-step instead of learned
    refresh_tangent   set False to keep tangent columns fixed at their
                      initial values
    clamp_motion      THMM: fixed motion table (per the model's mode/shape);
                      the M-step leaves it untouched
    freeze_motion     THMM: keep the current motion table
    joint_pi          THMM: learn the full initial state table instead of the
                      factorized class-marginal x uniform-shift default
    """

    freeze_rho: bool = False
    tie_psi: bool = False
    freeze_pi: bool = False
    floor: float | None = None
    seed: int = 0
    tangent_directions: Sequence[str] = ()
    refresh_tangent: bool = True
    clamp_motion: np.ndarray | None = None
    freeze_motion: bool = False
    joint_pi: bool = False


@dataclass(eq=False)
class StepReport:
    """One EM iteration, as streamed by the trainers."""

    iteration: int
    loglik: float
    cluster_mass: tuple[float, ...]
    rescued: tuple[int, ...] = ()

    def to_line(self) -> str:
        mass = " ".join(f"{m:.6g}" for m in self.cluster_mass)
        resc = ",".join(str(i) for i in self.rescued) if self.rescued else "-"
        return f"{self.iteration} {self.loglik:.10g} [{mass}] {resc}"


@dataclass(eq=False)
class PosteriorSummary:
    """Posterior for one image: discrete responsibilities plus latent moments.

    resp        P(l, c | x) as (L, C), or P(l | x) as (L,) for TCA
    z_mean      posterior latent-image mean per discrete configuration
    z_var_diag  matching diagonal posterior variances
    y_mean      factor posterior means (TCA/MTCA), None otherwise
    y_cov       factor posterior covariances, None otherwise
    loglik      log p(x) under the model
    """

    resp: np.ndarray
    z_mean: np.ndarray
    z_var_diag: np.ndarray
    loglik: float
    y_mean: np.ndarray | None = None
    y_cov: np.ndarray | None = None


@dataclass(eq=False)
class SequencePosterior:
    """Smoothed posterior for one frame sequence.

    gamma      (T, C, L) smoothed state marginals
    xi_class   (C, C) expected class-transition counts
    xi_motion  expected relative-motion counts, pooled per bin (and per class
               when the motion prior is class-conditional); same layout as
               the model's motion table
    map_path   (T, 2) Viterbi (class, transform) indices
    loglik     log p(x_1..T)
    """

    gamma: np.ndarray
    xi_class: np.ndarray
    xi_motion: np.ndarray
    map_path: np.ndarray
    loglik: float


def _latent_posterior(dst, mu, phi, psi, X):
    """Posterior mean and variance of the latent image given data and op(s).

    The latent prior is N(mu, diag(phi)); `dst` holds, per latent pixel, the
    observed pixel it lands on (VOID when it falls off the image).  The
    posterior is diagonal with precision 1/phi + 1/psi_back on landing pixels
    and 1/phi elsewhere.  `dst` is either one op's row (n,), with data X
    (T, n) and mu (n,) or per datum (T, n), or every op's rows (L, n) with
    one image X (n,).  The mean has the broadcast shape, (T, n) or (L, n);
    the variance has the shape of `dst`.
    """
    observed = dst >= 0
    dst_safe = np.where(observed, dst, 0)
    psi_back = psi[dst_safe]
    prior_prec = 1.0 / phi
    var = 1.0 / (prior_prec + np.where(observed, 1.0 / psi_back, 0.0))
    mean = (mu * prior_prec
            + np.where(observed, X[..., dst_safe] / psi_back, 0.0)) * var
    return mean, var


def gaussian_template_stats(transforms, mu, phi, psi, X, W):
    """Weighted posterior-moment sums for one latent template.

    For each datum t and op l, the latent posterior given (x_t, l) is the
    diagonal Gaussian of `_latent_posterior`.  Accumulates, with weights
    ``W[t, l]``:

      s1      sum of E[z]                      (n,)
      s2      sum of E[z]^2 + Var[z]           (n,)
      s_psi   sum of (x - G E[z])^2 + G Var[z] (n,)  in observed coordinates

    plus the total weight.  These are exactly the statistics the template,
    latent-variance and sensor-variance updates need.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    W = np.atleast_2d(np.asarray(W, dtype=np.float64))
    n = transforms.shape.n
    src_all = transforms.source_matrix
    dst_all = transforms.dest_matrix
    s1 = np.zeros(n)
    s2 = np.zeros(n)
    s_psi = np.zeros(n)
    mass = 0.0
    for l in range(transforms.L):
        w = W[:, l]
        e_z, var_z = _latent_posterior(dst_all[l], mu, phi, psi, X)
        mass += w.sum()
        s1 += w @ e_z
        s2 += w @ np.square(e_z) + w.sum() * var_z
        src = src_all[l]
        valid = src >= 0
        src_safe = np.where(valid, src, 0)
        resid = np.where(valid, X - e_z[:, src_safe], X) ** 2
        resid += np.where(valid, var_z[src_safe], 0.0)
        s_psi += w @ resid
    return mass, s1, s2, s_psi


def _normalise(log_joint: np.ndarray, what: str):
    """E-step normaliser: per-datum log-evidence and responsibilities from a
    (T, ...) log-joint table over the discrete configurations."""
    axes = tuple(range(1, log_joint.ndim))
    per_datum = logsumexp(log_joint, axis=axes)
    if not np.all(np.isfinite(per_datum)):
        raise UnderflowError(f"a datum underflowed every {what}")
    return per_datum, np.exp(log_joint - np.expand_dims(per_datum, axes))


def _starved(mass, T: int) -> tuple[int, ...]:
    """Clusters whose responsibility mass fell below the rescue threshold;
    the M-step skips their update and `_mstep_tail` reseeds them."""
    return tuple(c for c, m in enumerate(mass) if m < RESCUE_THRESHOLD * T)


def _mstep_tail(X, options: EmOptions, stats, rescued, mu, phi, pi=None, rho=None):
    """The end of every family's M-step.

    Reseeds each rescued cluster from a random datum (template, latent
    variance, uniform `rho` column) and resets its rows of the prior `pi`
    (mixing proportions, or the (C, L) initial-state table) to uniform before
    renormalising.  Then psi = sum of the per-cluster s_psi (the last entry of
    each statistics tuple) over the batch size, tied to its mean when asked,
    and phi and psi are floored.  Writes into mu, rho and pi; returns
    (phi, psi, pi).
    """
    T, n = X.shape
    floor = variance_floor(X, options.floor)
    rng = np.random.default_rng(options.seed)
    for c in rescued:
        pick = rng.integers(T)
        mu[c] = X[pick] + 0.01 * max(float(np.std(X)), 1e-3) * rng.standard_normal(n)
        phi[c] = max(float(np.var(X)), floor)
        if rho is not None:
            rho[:, c] = 1.0 / rho.shape[0]
    if rescued:
        pi[list(rescued)] = 1.0 / pi.size
        pi = pi / pi.sum()
    s_psi = np.zeros(n)
    for s in stats:
        s_psi += s[-1]
    psi = s_psi / T
    if options.tie_psi:
        psi = np.full(n, psi.mean())
    return np.maximum(phi, floor), np.maximum(psi, floor), pi


def _fit(step, model, data, iterations: int, options: EmOptions | None,
         tol: float, callback):
    """The EM loop behind every family's `fit`.

    `step(model, data, options)` returns (model, log-likelihood under the
    input model, per-cluster mass, rescued clusters).  Runs until the
    iteration budget or a relative improvement below `tol`; an iteration that
    rescued a cluster never ends the run.  Returns (model, step reports).
    """
    options = options or EmOptions()
    reports = []
    previous = None
    for it in range(iterations):
        model, total, mass, rescued = step(model, data, options)
        report = StepReport(it, total, mass, rescued)
        reports.append(report)
        if callback is not None:
            callback(report)
        if tol > 0 and previous is not None and not rescued \
                and total - previous < tol * abs(previous):
            break
        previous = total
    return model, reports
