"""Transformed component analysis (TCA).

A factor analyzer on the latent image — mean plus a low-rank loading matrix
plus diagonal noise — observed through a discrete transformation and sensor
noise.  Likelihoods use rank-K determinant/inverse identities, so evaluation
costs O(n K^2) per transformation instead of O(n^3), with one Cholesky factor
of the K x K matrix M = I + a^T D^-1 a per transformation in place of any
inverse or determinant.  The fast likelihood is the same kernel with the
sensor noise dropped (psi = 0): the latent variances absorb it, and with
void-free ops each transformation's covariance is then a permuted copy of
one matrix.  The emission table here and the M-step
statistics (`common.gaussian_template_stats`) take a model's whole cluster
stack, and a frame's posterior one cluster, in one call over all ops.  The
dense emission stacks every cluster's ops into (cluster, op) rows, gathered
through one index and evaluated in row blocks of at most `_EMISSION_BLOCK`
values (`_block_rows`), with one sensor-noise row shared by all clusters or
one per cluster; so `classify.classify_batch` scores many models in one
call.  All three get the factors' posterior from one kernel,
`common._factor_posterior`, whose arrays lay K out first: scoring reads
log det M and the Woodbury term, and only the callers that read the
posterior moments form them (`common._factor_moments`).  An exact EM step
forms them once: the emission keeps them and the M-step statistics read
each cluster's view.  The fast likelihood's emission drops psi, so there
the statistics form their own.  The M-step solves every cluster's
regression in one batched call (`solve_mstep`).
A TCA is a view of an MTCA with one cluster: each model function below runs
the `mtca` one on `as_mtca()`, which shares the model's arrays.  The EM step
and the posterior are MTCA's own and take the TCA itself: the step returns
a TCA, and the responsibilities are (L,) like rho, the moments (L, ...).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .common import (EmOptions, PosteriorSummary, _GaussianModel, _diag_quad,
                     _factor_moments, _factor_posterior, _fft_rows, _fit, _frames,
                     _latent_posterior, _floats, _index, _observed, _record, _spectra,
                     _unspectra)
from .transforms import TransformationSet, apply
from . import mtca as _mtca

_LOG2PI = np.log(2.0 * np.pi)
# values per row block of the dense emission, whose rows are the (cluster,
# op) pairs of every cluster in one stacked gather; a row counts its n pixels
# and its factors' K T posterior values (`_block_rows`).  Measured on one CPU
# with one BLAS thread, min of 150 calls: the glyph mixture's 290 rows (n =
# 64, T = 300) took 0.83-1.24 ms as one block against 1.39-2.06 ms as two,
# and ten glyph TCA models (K = 3, T = 5) 1.43-1.96 ms as one block against
# 2.65-2.81 ms as five.  Pac-man's 121-op clusters (n = 121) go one per
# block, which holds a call's traced peak at 2.3 emission tables, below the
# 2.6 of the per-cluster kernel it replaced; one block over all six clusters
# held 6.3
_EMISSION_BLOCK = 24576


@dataclass(eq=False)
class TcaModel(_GaussianModel):
    """Parameters of a transformed component analyzer.

    mu        (n,)    latent mean image
    loadings  (n, K)  latent image components (factor loading matrix)
    phi       (n,)    diagonal latent variances
    rho       (L,)    transformation probabilities
    psi       (n,)    diagonal sensor variances
    fast_likelihood   evaluate likelihoods with sensor noise folded into the
                      latent variances (requires void-free ops)
    """

    transforms: TransformationSet
    mu: np.ndarray
    loadings: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    psi: np.ndarray
    fast_likelihood: bool = False

    _AXES = {"mu": "n", "loadings": "nK", "phi": "n", "rho": "L", "psi": "n"}
    _SUMS = {"rho": None}

    def as_mtca(self) -> _mtca.MtcaModel:
        """This model as an MTCA with one cluster, sharing its arrays."""
        return _record(_mtca.MtcaModel, transforms=self.transforms, pi=np.ones(1),
                       mu=self.mu[None], loadings=self.loadings[None],
                       phi=self.phi[None], rho=self.rho[:, None], psi=self.psi,
                       fast_likelihood=self.fast_likelihood)


def init_tca(transforms: TransformationSet, n_factors: int, data,
             seed: int = 0, fast_likelihood: bool = False) -> TcaModel:
    """Mean from the data average, loadings from orthogonalized random
    directions, variances from the global pixel variance, uniform rho."""
    rng = np.random.default_rng(seed)
    n = transforms.shape.n
    X = _frames(data, n)
    var = max(float(np.var(X)), 1e-6)
    loadings = np.zeros((n, n_factors))
    if n_factors:
        q, _ = np.linalg.qr(rng.standard_normal((n, n_factors)))
        loadings = 0.5 * np.sqrt(var) * q
    return TcaModel(
        transforms=transforms,
        mu=X.mean(axis=0),
        loadings=loadings,
        phi=np.full(n, var),
        rho=np.full(transforms.L, 1.0 / transforms.L),
        psi=np.full(n, var),
        fast_likelihood=fast_likelihood,
    )


def cluster_loglik(transforms, mu, loadings, phi, psi, X, *, posterior=None):
    """(T, L, C) table of log p(x | l, c) for the latent component analyzers
    mu (C, n), loadings (C, n, K), phi (C, n) with sensor noise psi, shared
    (n,) or one row per cluster (C, n).  On either path the table's memory
    is (T, C, L), so sums over it add in that order.

    Given op l the image is Gaussian with covariance D_l + a_l a_l^T (D_l
    diagonal, a_l the loading rows in observed coordinates).  The dense
    kernel makes one pass over the C L (cluster, op) rows: row c L + l
    gathers cluster c's latent arrays through op l, from one stacked index
    (`_observed`), in blocks of `_block_rows` rows, whole clusters when one
    fits the `_EMISSION_BLOCK` budget.  The diagonal part of a block is one
    matrix product of the frames [x^2 | x | 1] with the block's weights
    [-1/(2 var) | mean/var | -c/2], written into the table; K > 0 factors
    add (proj^T M_l^-1 proj - log det M_l) / 2 per (t, row), both from one
    Cholesky factor of M_l (`_factor_posterior`), with no inverse or
    determinant call.  Given a list as `posterior`, each cluster's factor
    posterior (y_cov (L, K, K), y_mean (K, L, T), `_factor_moments`) is
    appended to it, as views of one array for all rows, for an exact EM
    step's M-step; nothing is formed or kept otherwise, and the table has
    the same bits either way.  The diagonal part's product runs over a
    whole row block, so a table's last bits depend on the blocking
    (`_block_rows`): tables made under different block sizes agree to
    rounding, not bit for bit.

    At K = 0 on a full wrap grid with one sensor variance (`_fft_rows`; a
    per-cluster psi counts when every entry is one value), op
    l reads latent pixel p - d_l at observed pixel p, so with v = phi + psi
    in latent coordinates the log-determinant and sum mu^2/v are the same
    for every op, and the rest of the quadratic term is
    sum_p x_p^2 / v[p - d] - 2 x_p mu[p - d] / v[p - d] =
    corr(x^2, 1/v)[d] - 2 corr(x, mu/v)[d], with the circular
    cross-correlation corr(f, g)[d] = sum_p f[p] g[p - d]: one inverse 2-D
    FFT per cluster and datum, all in one call, with the frames' spectra
    shared (`_fft_loglik`).
    """
    data = np.atleast_2d(np.asarray(X, dtype=np.float64))
    (C, n, k), L, T = loadings.shape, transforms.L, data.shape[0]
    wrap = _fft_rows(transforms, loadings, psi)
    count = C * L
    size = 0 if wrap is not None else _block_rows(count, L, n, k, T)
    # (rows, n) blocks are megabytes at large L * n, and paging in fresh
    # memory costs more than the arithmetic on it, so the call's work is one
    # allocation that every row block reuses (glibc gives back freed heap
    # beyond twice its largest freed block, so as several blocks it would be
    # paged in afresh on every call): the frames, the gathered mean, var
    # (which then takes log(var)) and loading rows, and the block's weights,
    # whose memory holds the writeable stacked index until the block is
    # gathered
    width = 2 * n + 1
    work = np.empty(T * width + size * ((2 + k) * n + width))
    # the squares expanded below cancel when the data sit far from zero;
    # x - mean is unchanged by a common shift, so shift all by the batch
    # mean.  Each frame is laid out [x^2 | x | 1], so that one product with a
    # row block's weights [-1/(2 var) | mean/var | -c/2] forms the whole
    # log-density -(sum x^2/var - 2 x mean/var + c)/2, with c = sum log var
    # + sum mean^2/var + n log 2 pi, in the table itself
    frames = work[:T * width].reshape(T, width)
    X2, X = frames[:, :n], frames[:, n:2 * n]
    shift = data.mean()
    np.subtract(data, shift, out=X)
    with np.errstate(over="ignore"):
        np.multiply(X, X, out=X2)
    if wrap is not None:
        return _fft_loglik(transforms.shape, wrap, mu - shift, phi + psi.flat[0], X, X2)
    frames[:, 2 * n] = 1.0
    gathered = work[T * width:T * width + (2 + k) * size * n]
    weights = work[T * width + (2 + k) * size * n:]
    index = weights[:size * n].view(np.intp).reshape(size, n)
    table = np.empty((T, C, L))
    by_row = table.reshape(T, count)
    y_covs = np.empty((count, k, k)) if posterior is not None and k else None
    y_means = np.empty((k, count, T)) if y_covs is not None else None
    for lo in range(0, count, size):
        rows = min(size, count - lo)
        block = slice(lo, lo + rows)
        at = index[:rows]
        # the block's rows run over whole clusters or part of one or two:
        # each cluster's share is a run of its ops
        for c in range(lo // L, (lo + rows - 1) // L + 1):
            first, last = max(lo, c * L), min(lo + rows, (c + 1) * L)
            np.add(transforms.source_matrix[first - c * L:last - c * L], c * (n + 1),
                   out=at[first - lo:last - lo])
        mean, var, loads = _observed(at, mu, loadings, phi,
                                     psi if psi.ndim == 1 else psi[np.arange(lo, lo + rows) // L],
                                     out=gathered[:(2 + k) * rows * n].reshape(2 + k, rows, n))
        mean -= shift
        if k:
            # the posterior's memory takes the Woodbury term until the
            # moments overwrite it, below
            kept = None if y_covs is None else y_means[:, block]
            logdet, woodbury, moments = _factor_posterior(mean, var, loads, X, kept)
            woodbury -= logdet[:, None]
            woodbury *= 0.5
        block_weights = weights[:rows * width].reshape(rows, width)
        np.divide(-0.5, var, out=block_weights[:, :n])
        with np.errstate(over="ignore"):
            mean_inv = np.divide(mean, var, out=block_weights[:, n:2 * n])
            np.log(var, out=var)
            const = var.sum(axis=1)
            const += np.vecdot(mean, mean_inv)
            const += n * _LOG2PI
            np.multiply(const, -0.5, out=block_weights[:, 2 * n])
            out = np.matmul(frames, block_weights.T, out=by_row[:, block])
            if k:
                out += woodbury.T
                if kept is not None:
                    y_covs[block] = _factor_moments(*moments, out=kept)[0]
    if y_covs is not None:
        posterior.extend((y_covs[c * L:(c + 1) * L], y_means[:, c * L:(c + 1) * L])
                         for c in range(C))
    return table.transpose(0, 2, 1)


def _block_rows(count, L, n, k, T):
    """Rows per block of the dense emission over `count` (cluster, op) rows
    of L ops each: as many as `_EMISSION_BLOCK` holds at n + k T values a
    row (its pixels, and its factors' posterior over T frames), rounded
    down to whole clusters when one fits."""
    size = min(count, max(1, _EMISSION_BLOCK // (n + k * T)))
    return size - size % L if size >= L else size


def _fft_loglik(shape, rows, mu, v, X, X2):
    """`cluster_loglik` at K = 0 on a full wrap grid, op l the shift d_l =
    rows[l], with v = phi + psi, from centred frames X and their squares X2.
    Every cluster goes through one forward and one inverse transform call,
    and each column has the bits of a one-cluster call.  The full-size work,
    written in place, is one complex block (the frames' spectra, then the
    second spectra product, whose memory takes the inverse transform's
    (T, C, n) pixels) and the table's own memory, which holds the (T, C)
    spectra until each op's pixel rows[l] is gathered into it along the
    last axis."""
    T, C, n = X.shape[0], mu.shape[0], shape.n
    inv = 1.0 / v
    mean_inv = mu * inv
    const = -0.5 * (np.log(v).sum(axis=1) + n * _LOG2PI + (mu * mean_inv).sum(axis=1))
    f_inv, f_mean = np.conj(_spectra(shape, inv, mean_inv))
    work = np.empty((2 + C, T, shape.height, shape.width // 2 + 1), dtype=complex)
    spec = np.empty((T, C) + work.shape[2:], dtype=complex)     # the table's memory
    fx, fx2 = _spectra(shape, X, X2, out=work[:2])[:, :, None]
    prod = work[2:].reshape(spec.shape)
    fx *= 2.0
    np.multiply(fx2, f_inv, out=spec)
    np.multiply(fx, f_mean, out=prod)
    spec -= prod
    quad = _unspectra(shape, spec, out=_floats(prod, (T, C, n)))
    quad *= -0.5
    quad += const[:, None]                # const - quad / 2, with the same bits
    # rows are in range: "clip" skips the check, and the buffered output
    # that np.take's default "raise" writes through
    table = np.take(quad, rows, axis=2, out=_floats(spec, (T, C, len(rows))), mode="clip")
    return table.transpose(0, 2, 1)


def loglik_table(model: TcaModel, X) -> np.ndarray:
    """(T, L) table of log p(x_t | l), fast or exact per the model flag."""
    return _mtca.loglik_table(model.as_mtca(), X)[:, :, 0]


def cond_loglik(model: TcaModel, x, l: int) -> float:
    """log p(x | l) for one image and one transformation."""
    return _mtca.cond_loglik(model.as_mtca(), x, l, 0)


def loglik(model: TcaModel, X) -> np.ndarray:
    """(T,) marginal log p(x_t)."""
    return _mtca.loglik(model.as_mtca(), X)


def _op_posterior(transforms, mu, loadings, phi, psi, x):
    """Exact joint posterior moments of (z, y) given one image x, for every
    op at once.

    Returns y_cov (L, K, K), y_mean (L, K), z_mean (L, n) and the diagonal
    z_var (L, n).  Given y the latent prior is N(mu + loadings y, diag phi),
    so z is the diagonal posterior of `_latent_posterior` at the factors'
    posterior mean, widened by r^2 diag(loadings y_cov loadings^T) with
    r = var/phi.  Without factors it is that posterior itself, and the
    factor moments are zero-width.
    """
    if not loadings.shape[1]:
        z_mean, z_var = _latent_posterior(transforms.dest_matrix, mu, phi, psi, x)
        return np.empty((transforms.L, 0, 0)), np.empty((transforms.L, 0)), z_mean, z_var
    y_cov, y_mean = _factor_moments(*_factor_posterior(
        *_observed(_index(transforms.source_matrix), mu, loadings, phi, psi), x[None])[2])
    y_mean = y_mean[:, :, 0].T
    z_mean, var = _latent_posterior(transforms.dest_matrix,
                                    mu + y_mean @ loadings.T, phi, psi, x)
    r = var / phi
    z_var = var + r * r * _diag_quad(loadings, y_cov)
    return y_cov, y_mean, z_mean, z_var


def posterior(model: TcaModel, x) -> PosteriorSummary:
    """Responsibilities p(l | x), shape (L,), plus exact latent posteriors
    per op, the latter computed on first read (see `mtca.posterior`)."""
    return _mtca.posterior(model, x)


def solve_mstep(stats, clusters, loadings_old, tangent_cols: int):
    """Maximize the expected complete log-likelihood for the (loadings, mu,
    phi) of the clusters that `clusters` (an index list or a slice) picks,
    one batched (K + 1)^2 solve over all of them, from the sums of
    `gaussian_template_stats`, those of z' = z - m for the centre m that
    ends the tuple.  Regressing z' on (y, 1), the mean is the extra column
    and comes out as mu - m; phi is formed from residuals at the centred
    scale, so it does not cancel when the data sit far from zero.  The first
    `tangent_cols` loading columns are held fixed at loadings_old[clusters]
    (their values come from template derivatives, not learning).
    """
    (mass, s_z, s_zz, s_y, s_yy, s_zy), centre = (s[clusters] for s in stats[:6]), stats[7]
    C, (n, k) = len(mass), loadings_old.shape[1:]
    syy_aug = np.empty((C, k + 1, k + 1))
    syy_aug[:, :k, :k] = s_yy
    syy_aug[:, :k, k] = s_y
    syy_aug[:, k, :k] = s_y
    syy_aug[:, k, k] = mass
    szy_aug = np.concatenate([s_zy, s_z[:, :, None]], axis=2)

    free, fixed = slice(tangent_cols, k + 1), slice(tangent_cols)
    w_full = np.concatenate([loadings_old[clusters], np.zeros((C, n, 1))], axis=2)
    target = szy_aug[:, :, free] - w_full[:, :, fixed] @ syy_aug[:, fixed, free]
    w_full[:, :, free] = np.linalg.solve(syy_aug[:, free, free],
                                         target.transpose(0, 2, 1)).transpose(0, 2, 1)
    resid = (s_zz - 2.0 * np.einsum("cpk,cpk->cp", w_full, szy_aug)
             + np.einsum("cpk,ckj,cpj->cp", w_full, syy_aug, w_full))
    return w_full[:, :, :k], w_full[:, :, k] + centre, resid / mass[:, None]


def tangent_columns(mu, transforms: TransformationSet, directions) -> np.ndarray:
    """Loading columns from central differences of the template along
    one-parameter subfamilies of the transformation set.

    Directions for shift grids: "h"/"horizontal", "v"/"vertical"; for shear
    families: "shear", "shift".  The set must contain the +/- unit-step ops.
    """
    mu = np.asarray(mu, dtype=np.float64)
    if transforms.params is None:
        raise ValueError("transformation set carries no op parameters")
    lookup = {tuple(p): i for i, p in enumerate(transforms.params)}

    def pair(plus, minus):
        if plus not in lookup or minus not in lookup:
            raise ValueError(f"set lacks the +/- unit steps {plus}/{minus}")
        return lookup[plus], lookup[minus]

    cols = []
    for name in directions:
        if name in ("h", "horizontal"):
            ip, im = pair((0.0, 1.0), (0.0, -1.0))
        elif name in ("v", "vertical"):
            ip, im = pair((1.0, 0.0), (-1.0, 0.0))
        elif name == "shear":
            shears = sorted({p[0] for p in transforms.params if p[0] > 0})
            if not shears:
                raise ValueError("set has no positive shear level")
            s = shears[0]
            ip, im = pair((s, 0.0), (-s, 0.0))
        elif name == "shift":
            ip, im = pair((0.0, 1.0), (0.0, -1.0))
        else:
            raise ValueError(f"unknown tangent direction {name!r}")
        cols.append(0.5 * (apply(transforms[ip], mu) - apply(transforms[im], mu)))
    return np.stack(cols, axis=1)


def em_step(model: TcaModel, X, options: EmOptions | None = None):
    """One EM step; the returned log-likelihood is under the input model."""
    return _mtca._em_step_full(model, X, options or EmOptions())[:2]


def fit(model: TcaModel, X, iterations: int, options: EmOptions | None = None,
        tol: float = 1e-7, callback=None):
    """Run EM until the iteration budget or a relative improvement below
    `tol`.  Returns (model, step reports)."""
    return _fit(_mtca._em_step_full, model, X, iterations, options, tol, callback)


def sample(model: TcaModel, seed, size: int | None = None) -> np.ndarray:
    """Ancestral sample: factors, latent image, transformation, sensor noise."""
    return _mtca.sample(model.as_mtca(), seed, size)
