"""Shared pieces of the EM machinery: options, reports, posterior containers,
the model classes' constructor check, and the EM loop, E-step
normaliser, M-step tail and latent- and factor-posterior kernels that every
model family runs on.  Needs numpy alone."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

FLOOR_REL = 1e-6
FLOOR_ABS = 1e-12
# responsibility mass per cluster, as a fraction of the batch, below which
# the M-step reseeds the cluster from a random datum
RESCUE_THRESHOLD = 1e-6
# ops per block in gaussian_template_stats: bounds its temporaries to
# (block, n) arrays
_STATS_BLOCK = 32
# pixel count from which the K = 0 kernels on a full wrap grid with one
# sensor variance take the FFT path (see `_fft_rows`).  Per cluster of a C = 4
# call sharing the frames' spectra, T = 100, one CPU and BLAS thread, best of
# 100, emission / statistics in ms: 9x9 dense 0.20 / 0.49, FFT 0.29 / 0.67;
# 11x11 dense 0.43 / 1.04, FFT 0.35 / 1.00; 13x13 dense 0.66 / 1.84, FFT 0.64
# / 1.50; 15x15 dense 1.44 / 2.86, FFT 0.48 / 1.46; 23x23 dense 6.66 / 15.7,
# FFT 1.75 / 4.00.  At T = 1 the FFT is faster from 9x9 (statistics: 7x7).
# Below 15x15 tied full grids still take the dense reference path
FFT_MIN_PIXELS = 225
# shifted log terms at or below this count as exactly 0 in `_cutexp`:
# e^-700 ~ 1e-304 is below the rounding of any sum whose largest term is 1,
# and numpy's exp takes a slow path on arguments below about -708
CUT = -700.0


class UnderflowError(ArithmeticError):
    """All discrete configurations underflowed despite log-domain math."""


def _cutexp(d: np.ndarray, cut: float = CUT) -> np.ndarray:
    """exp(d) for shifted log terms d, with terms at or below `cut` (and
    -inf) exactly 0.  NaN stays NaN.  Works in place: the caller hands over
    a fresh float array that it does not read again, and gets it back
    holding the exponentials, with the bits of
    `np.exp(np.maximum(d, cut)) * (d > cut)`."""
    keep = d > cut
    np.maximum(d, cut, out=d)
    np.exp(d, out=d)
    d *= keep
    return d


def logsumexp(a: np.ndarray, axis) -> np.ndarray:
    """log(sum(exp(a))) over `axis`, an int or a tuple of ints; -inf where
    every term is -inf.  After the shift by the largest term, which is then
    exactly 1, terms below e^CUT of it are dropped: they cannot move the
    float64 sum."""
    top = np.max(a, axis=axis, keepdims=True)
    top = np.where(np.isfinite(top), top, 0.0)
    with np.errstate(divide="ignore"):
        return np.log(_cutexp(a - top).sum(axis=axis)) + np.squeeze(top, axis)


def variance_floor(data: np.ndarray, override: float | None = None) -> float:
    """Floor applied to all variances after every M-step.

    Relative to the global pixel variance of the batch so it adapts to the
    data scale; a tiny absolute floor guards constant data.
    """
    if override is not None:
        return float(override)
    return max(FLOOR_REL * float(np.var(data)), FLOOR_ABS)


def _frames(X, n: int) -> np.ndarray:
    """Frames as a (T, n) float array, checked at a public entry point: one
    frame or a stack of at least one, n pixels each, every value finite."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != n:
        raise ValueError(f"frames must have {n} pixels each, got shape {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("no frames: the batch is empty")
    bad = ~np.isfinite(X).all(axis=1)
    if bad.any():
        raise ValueError(f"frame {int(np.argmax(bad))} has a non-finite pixel value")
    return X


def _frame(x, n: int) -> np.ndarray:
    """One frame as an (n,) float array, checked like `_frames`; a stack of
    more than one frame is refused."""
    X = _frames(x, n)
    if X.shape[0] != 1:
        raise ValueError(f"expected a single frame of {n} pixels, got {X.shape[0]}")
    return X[0]


def _starting_templates(rng, X, count: int, mean_noise: float, pick: bool = True):
    """The starting templates, one row each, and the starting variance of
    every family's init, from data X (T, n).  Each template is a random datum (with `pick`; else the
    data mean) plus mean_noise times the data's spread of Gaussian noise;
    the variance is the data's pixel variance.  Draws from the caller's
    generator, so the caller's later draws keep their place in its stream."""
    if pick:
        base = X[rng.choice(X.shape[0], size=count, replace=X.shape[0] < count)]
    else:
        base = np.broadcast_to(X.mean(axis=0), (count, X.shape[1]))
    spread = max(float(np.std(X)), 1e-3)
    mu = base + mean_noise * spread * rng.standard_normal(base.shape)
    return mu, max(float(np.var(X)), 1e-6)


def _record(cls, **fields):
    """A `cls` over `fields` without the constructor's check, for arrays that
    are valid already: a model's view as an MTCA, or an EM step's result."""
    model = object.__new__(cls)
    model.__dict__.update(fields)
    return model


class _GaussianModel:
    """Base of the model classes (TMG, TCA, MTCA and THMM).  Each lists its
    array fields with the fields' axes in `_AXES`, in the order of its
    model file's blocks, and in `_SUMS` the fields that are distributions,
    each with the axis it sums to one over (None: the whole array).  The
    image shape is not a field: it is the transformation set's."""

    _AXES: dict = {}
    _SUMS: dict = {}

    def __post_init__(self):
        """The one constructor check.  Each field becomes float64 of exactly
        its axes' shape: n and L come from the transformation set, C
        and K from the first field that has them.  The distributions must
        sum to one, the variances be positive, the factors be fewer than the
        pixels, and a fast likelihood run only over void-free ops.  The
        transformation set has already refused non-injective ops."""
        size = {"n": self.shape.n, "L": self.transforms.L}
        for name, axes in self._AXES.items():
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.ndim != len(axes) or any(axis in size and size[axis] != d
                                            for axis, d in zip(axes, arr.shape)):
                want = ", ".join(str(size.get(axis, axis)) for axis in axes)
                raise ValueError(f"{name} must have shape ({want}), got {arr.shape}")
            size.update(zip(axes, arr.shape))
            setattr(self, name, arr)
        for name, axis in self._SUMS.items():
            if not np.allclose(getattr(self, name).sum(axis=axis), 1.0):
                over = "" if axis is None else f" along axis {axis}"
                raise ValueError(f"{name} must sum to 1{over}")
        if np.any(self.phi <= 0) or np.any(self.psi <= 0):
            raise ValueError("variances must be positive")
        if size.get("K", 0) >= size["n"]:
            raise ValueError("the factor count must be below the pixel count")
        if getattr(self, "fast_likelihood", False) and self.transforms.has_void:
            raise ValueError("fast likelihood needs void-free (invertible) ops")

    @property
    def C(self) -> int:
        """Cluster count; 1 for a class whose template has no cluster axis."""
        return self.mu.shape[0] if self._AXES["mu"] == "Cn" else 1

    @property
    def K(self) -> int:
        """Factor count; 0 for a class that declares no loadings."""
        return self.loadings.shape[-1] if "loadings" in self._AXES else 0

    @property
    def shape(self):
        """The image shape, the transformation set's own."""
        return self.transforms.shape

    @property
    def L(self) -> int:
        return self.transforms.L

    @property
    def n(self) -> int:
        return self.shape.n


@dataclass
class EmOptions:
    """Knobs for a single EM step.  Fields irrelevant to a family are ignored.

    freeze_rho        keep transformation probabilities at their current value
    tie_psi           average sensor variances to one scalar after the
                      update; the variance floor applies after the tie
    floor             variance floor override (default: relative to the data)
    seed              RNG seed for cluster rescues (kept in options for
                      determinism)
    tangent_directions  TCA/MTCA: leading loading columns pinned to template
                      derivatives along these directions, recomputed each
                      M-step instead of learned; at most one per factor
    clamp_motion      THMM: fixed motion table (per the model's mode/shape);
                      the M-step leaves it untouched
    """

    freeze_rho: bool = False
    tie_psi: bool = False
    floor: float | None = None
    seed: int = 0
    tangent_directions: Sequence[str] = ()
    clamp_motion: np.ndarray | None = None


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
    loglik      log p(x) under the model
    z_mean      posterior latent-image mean per discrete configuration
    z_var_diag  matching diagonal posterior variances
    y_mean      factor posterior means per configuration, (..., K)
    y_cov       factor posterior covariances, (..., K, K); a TMG has no
                factors, so both are zero-width: (L, C, 0) and (L, C, 0, 0)

    `resp` and `loglik` are computed with the summary.  The moments are as
    large as L * C * n, so all four are computed when one of them is first
    read, then kept: a caller that reads only `resp` never pays for them.
    They are those of the frame and parameters as they were at the
    `posterior` call: the summary holds copies of both until then, so later
    in-place edits to the caller's arrays do not change them.
    """

    resp: np.ndarray
    loglik: float
    _compute: Callable[[], tuple] = field(repr=False)

    @cached_property
    def _moments(self) -> tuple:
        """(z_mean, z_var_diag, y_mean, y_cov), computed on first read."""
        moments, self._compute = self._compute(), None
        return moments

    @property
    def z_mean(self) -> np.ndarray:
        return self._moments[0]

    @property
    def z_var_diag(self) -> np.ndarray:
        return self._moments[1]

    @property
    def y_mean(self) -> np.ndarray:
        return self._moments[2]

    @property
    def y_cov(self) -> np.ndarray:
        return self._moments[3]


@dataclass(eq=False)
class SequencePosterior:
    """Smoothed posterior for one frame sequence.

    gamma      (T, C, L) smoothed state marginals
    xi_class   (C, C) expected class-transition counts
    xi_motion  expected relative-motion counts, pooled per bin (and per class
               when the motion prior is class-conditional); same layout as
               the model's motion table
    loglik     log p(x_1..T)
    """

    gamma: np.ndarray
    xi_class: np.ndarray
    xi_motion: np.ndarray
    loglik: float


def _read_only(a: np.ndarray) -> np.ndarray:
    """A read-only view of the contiguous array `a`, which stays writeable
    beneath it for `_index`."""
    view = a.view()
    view.setflags(write=False)
    return view


def _index(table: np.ndarray) -> np.ndarray:
    """A writeable view of the index `table`, a `_read_only` view (as every
    table of a `TransformationSet` is), for `np.take`: it copies a read-only
    index on every call, though it only reads it.  At 63x63 that is a
    120 MiB copy.  Nothing writes through the view."""
    return table if table.flags.writeable else table.base.reshape(table.shape)


def _padded(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """`a` with one zero pixel appended along its pixel `axis`: the entry
    that ``VOID`` = -1 reads (see the `transforms` module docstring)."""
    return np.concatenate([a, np.zeros_like(np.take(a, [0], axis=axis))], axis=axis)


def _padded_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b with one zero column appended, like `_padded`.  The product is
    written into the padded block, so its bits are those of a @ b: a
    product with padded data can take another BLAS kernel and round
    differently."""
    out = np.zeros((a.shape[0], b.shape[1] + 1))
    np.matmul(a, b, out=out[:, :-1])
    return out


def _latent_var(dst, phi, psi):
    """(b, var) of the latent posterior through the op(s) with destinations
    `dst` (rows of `TransformationSet.dest_matrix`): b = 1/psi at the
    observed pixel each latent pixel lands on, 0 where it lands on none
    (``VOID`` reads the pad), and the posterior variance var = 1/(1/phi + b)."""
    b = _padded(1.0 / psi)[dst]
    return b, 1.0 / (1.0 / phi + b)


def _latent_posterior(dst, mu, phi, psi, X):
    """Posterior mean and variance of the latent image given data and op(s).

    The latent prior is N(mu, diag(phi)); `dst` is `dest_matrix` of every op
    for one image X (n,), or one row per image X (T, n), with mu and phi
    (n,) or one row per row.  The posterior is diagonal: the variance of
    `_latent_var`, the mean var * (mu/phi + (x/psi)[dst]).  Both have the
    shape of `dst`.
    """
    _, var = _latent_var(dst, phi, psi)
    seen = _padded(X / psi, axis=-1)
    seen = seen[dst] if seen.ndim == 1 else np.take_along_axis(seen, dst, axis=-1)
    return (mu * (1.0 / phi) + seen) * var, var


def _observed(src, mu, loadings, phi, psi, out=None):
    """N(mu + loadings y, diag phi) seen through the op(s) with source rows
    `src` (rows of `TransformationSet.source_matrix`), plus noise psi: per
    observed pixel the mean, the variance phi[src] + psi and the loading
    rows (psi and 0s with no source).  One analyzer (mu (n,), loadings (n,
    K), phi (n,)) is read at `src` (n,) or (L, n) directly; a stack of C
    (mu (C, n), loadings (C, n, K), phi (C, n)) is read flat, each cluster's
    pixels followed by its zero pixel, so index c (n + 1) + q reads cluster
    c's pixel q.  psi broadcasts against the rows: (n,), or one row per
    index row.  One gather fills the (2 + K,) + src.shape block `out` (a
    fresh one when it is not given), which the caller may overwrite: mean,
    var and the loading rows, K-first.  Mode "wrap" reads ``VOID`` = -1 at
    a zero pad, the previous cluster's (cluster 0: the last), so every pad
    must stay zero; it fills `out` without the buffer of mode "raise" ("clip"
    would read pixel 0), and with a writeable `src` it copies nothing."""
    n, k = mu.shape[-1], loadings.shape[-1]
    source = np.zeros((2 + k,) + mu.shape[:-1] + (n + 1,))
    source[0, ..., :n] = mu
    source[1, ..., :n] = phi
    source[2:, ..., :n] = np.moveaxis(loadings, -1, 0)
    gathered = np.take(source.reshape(2 + k, -1), src, axis=-1, out=out, mode="wrap")
    gathered[1] += psi
    return gathered[0], gathered[1], gathered[2:]


def _factor_posterior(mean, var, rows, X, out=None):
    """The factors' posterior per row l of `_observed`'s arrays (an op, or a
    (cluster, op) pair of a stacked gather), given frames X (T, n): x | y ~
    N(mean[l] + a y, D) with a = rows[:, l].T, D = diag var[l] and y ~ N(0,
    I_K), K >= 1 (Ghahramani & Hinton 1996).  M = I + a^T D^-1 a is
    symmetric with every eigenvalue at least 1, so one batched Cholesky
    factor M = chol chol^T gives the rest.  Returns log det M = 2 sum log
    diag chol (l,), the Woodbury term proj^T M^-1 proj = |chol^-1 proj|^2
    (l, T), with proj = a^T D^-1 (x - mean[l]), and the pair (chol^-1,
    proj) from which `_factor_moments` forms the posterior moments.
    chol^-1 comes from a column-oriented forward substitution on the
    identity, and chol^-1 proj is one small product per row, squared and
    summed over K in place, in `out` (K, l, T) when it is given: the
    Woodbury term is a view of that memory, so a caller that hands the same
    `out` to `_factor_moments` reads the term first, and the kernel holds no
    (K, l, T) array beyond proj and `out`.  K leads the scaled loadings,
    proj and chol^-1, so no elementwise op or sum runs over a trailing K
    axis, no transposing copy precedes a product, and each substitution step
    is one elementwise op over every row at once.  So every result of a row
    depends on that row alone, bit for bit: a block of the M-step that forms
    its ops' posterior again gets the bits of the emission's."""
    (k, l, n), T = rows.shape, len(X)
    scaled = rows / var
    M = np.matmul(rows.transpose(1, 0, 2), scaled.transpose(1, 2, 0))
    M.reshape(l, k * k)[:, ::k + 1] += 1.0
    chol = np.linalg.cholesky(M)
    logdet = np.log(chol.diagonal(axis1=1, axis2=2)).sum(axis=1)
    logdet *= 2.0
    proj = np.empty((k, l, T))
    np.matmul(scaled.transpose(1, 0, 2), X.T, out=proj.transpose(1, 0, 2))
    proj -= np.vecdot(scaled, mean)[..., None]
    # chol_inv[i, l] is row i of chol[l]^-1: per column j of chol, row j is
    # divided by its diagonal and removed from every later row
    chol_inv = np.zeros((k, l, k))
    for i in range(k):
        chol_inv[i, :, i] = 1.0
    cols = chol.transpose(2, 1, 0)[..., None]           # cols[j, i] = chol[:, i, j]
    for j in range(k):
        chol_inv[j] /= cols[j, j]
        chol_inv[j + 1:] -= cols[j, j + 1:] * chol_inv[j]
    white = np.empty_like(proj) if out is None else out
    np.matmul(chol_inv.transpose(1, 0, 2), proj.transpose(1, 0, 2),
              out=white.transpose(1, 0, 2))
    np.square(white, out=white)
    for term in white[1:]:
        white[0] += term
    return logdet, white[0], (chol_inv, proj)


def _factor_moments(chol_inv, proj, out=None):
    """The factors' posterior covariance y_cov = M^-1 = chol^-T chol^-1
    (l, K, K) and mean y_mean = M^-1 proj (K, l, T), written to `out` when
    it is given, from `_factor_posterior`'s (chol^-1, proj): one small
    product per row for each."""
    y_cov = np.matmul(chol_inv.transpose(1, 2, 0), chol_inv.transpose(1, 0, 2))
    y_mean = np.empty_like(proj) if out is None else out
    np.matmul(y_cov, proj.transpose(1, 0, 2), out=y_mean.transpose(1, 0, 2))
    return y_cov, y_mean


def _diag_quad(loadings, S):
    """diag(loadings S_l loadings^T) (l, n) for loadings (n, K) and S (l, K, K)."""
    n, k = loadings.shape
    outer = (loadings[:, :, None] * loadings[:, None, :]).reshape(n, k * k)
    return S.reshape(len(S), k * k) @ outer.T


def _fft_rows(transforms, loadings, psi):
    """`TransformationSet.wrap_rows` when the exact FFT kernels apply: the
    set holds every wrap shift once, there are no factors, the image has at
    least `FFT_MIN_PIXELS` pixels and psi is one value (0 counts).  Every
    op then sees the same variances, only shifted, so the op-dependent sums
    are circular correlations.  Else None, for the dense kernels."""
    fft = not loadings.shape[-1] and transforms.shape.n >= FFT_MIN_PIXELS
    return transforms.wrap_rows if fft and psi.min() == psi.max() else None


def _spectra(shape, *images, out=None):
    """2-D real spectra of (..., n) pixel arrays, one per argument, with the
    bits of `np.fft.rfft2`, written to `out` (a fresh complex block when it
    is not given): each image is transformed along its rows, then the block
    in place along its columns."""
    h, w = shape.height, shape.width
    if out is None:
        out = np.empty((len(images),) + images[0].shape[:-1] + (h, w // 2 + 1), dtype=complex)
    for image, spec in zip(images, out):
        np.fft.rfft(image.reshape(image.shape[:-1] + (h, w)), axis=-1, out=spec)
    return np.fft.fft(out, axis=-2, out=out)


def _unspectra(shape, spec, out=None):
    """Pixel arrays (..., n) from `_spectra`-style 2-D spectra, with the bits
    of `np.fft.irfft2`, written to `out` when it is given.  `spec` is spent:
    the transform along the columns runs in place, then the one along the
    rows writes the pixels."""
    h, w = shape.height, shape.width
    if out is None:
        out = np.empty(spec.shape[:-2] + (h * w,))
    np.fft.ifft(spec, axis=-2, out=spec)
    np.fft.irfft(spec, n=w, axis=-1, out=out.reshape(spec.shape[:-2] + (h, w)))
    return out


def _floats(block, shape):
    """A float array of `shape` over the memory of the contiguous complex
    work array `block`, whose contents are spent and which holds at least
    as many bytes."""
    return block.view(np.float64).reshape(-1)[:int(np.prod(shape))].reshape(shape)


def gaussian_template_stats(transforms, mu, loadings, phi, psi, X, W, posterior=None):
    """Weighted posterior-moment sums of C latent component analyzers.

    Cluster c's latent image z = mu[c] + loadings[c] y + N(0, diag phi[c]),
    with factors y ~ N(0, I_K), is seen through op l with sensor noise psi;
    K = 0 is a plain template.  With weights ``W[t, l, c]`` it sums per
    cluster the exact joint posterior moments of (z, y) that
    `tca.solve_mstep` and the sensor-variance update read, in this order:

      mass (C,), s_z = sum E[z'], s_zz = sum E[z']^2 + Var[z] (C, n),
      s_y = sum E[y] (C, K), s_yy = sum E[y] E[y]^T + Cov[y] (C, K, K),
      s_zy = sum E[z'] E[y]^T + Cov[z, y] (C, n, K),
      s_psi = sum (x - G E[z])^2 + G Var[z] (C, n), in observed coordinates,
      m, the centre: z' = z - m is the latent image centred on it.

    Given y the latent posterior is that of `_latent_posterior`: its
    variance ``var = 1/(1/phi + b)``, with ``b = 1/psi[dst]`` on latent
    pixels that land in the image and 0 elsewhere, does not depend on the
    datum, and E[z | y] = var * (mu/phi + b * x[dst]) + r * loadings y with
    r = var/phi.  So at K = 0 the data enter only through A = W.T @ X,
    Q = W.T @ (X*X) and w = W.sum(0), each gathered once at dst (see the
    `transforms` module docstring), and the sums
    over ops are products: sum_l w var = w @ var, and so on.  An observed
    pixel's residual is r * (x - mu - loadings y) at its source pixel.  It
    is formed per op at the latent pixel that lands there, R^2 (Q - 2 mu A
    + mu^2 w)[dst] + w var at K = 0, and one `np.bincount` over dst + 1
    scatters every op's residual to the observed pixels (a latent pixel
    that lands on none, ``VOID``, falls into a dropped bin 0); a pixel
    with no source keeps its whole x^2.  With factors, U = E[y] per (t, l)
    is affine in x too, and the factor terms read only sum_t w U U^T,
    (w U)^T X (in (K, op, n) layout, gathered at dst) and w y_cov, summed
    over ops as (n, K) and (n, K^2) products with r, r var and r^2.  U and y_cov are
    the factor posterior of `_factor_moments`: the one an exact EM step's
    emission formed, handed over as `posterior` (per cluster, y_cov (L, K,
    K) and U (K, L, T), of which each block reads its ops), or else formed
    here for the block's ops.  The fast likelihood's emission drops psi, so
    its posterior is not this one and is never handed over.

    Those expanded squares cancel when the data sit far from zero, so X
    (once for all clusters) and mu are first centred on the batch's mean
    pixel value m, which leaves var and E[y] unchanged (E[y] reads only
    pixels that have a source) and shifts E[z] by m.  The latent sums stay
    centred, so the variances formed from them do not cancel either (Chan,
    Golub & LeVeque 1983); s_psi is moved back, since a pixel with no source
    predicts 0, not m.  Each cluster visits only its live ops, whose weight
    column W[:, l, c] holds a nonzero: an all-zero column adds exactly 0
    (each term has a factor w, A, Q or W U), so this is still exact EM, and
    a cluster with no live op gets mass 0, which the M-step rescues.  The
    zeros are the E-step's own (`_normalise` cuts at e^CUT; THMM's gamma is
    0 below e^-746); no further cut is made.  The live ops go in blocks of
    `_STATS_BLOCK` (a slice where they are consecutive), one cluster at a
    time, so the temporaries stay (block, n) and (block, K, n) however
    large L and C are.

    At K = 0 on a full wrap grid with one sensor variance (`_fft_rows`),
    b, var and r are the same for every op, op l carries latent pixel q to
    observed pixel q + d_l, and the gathers become circular correlations
    corr(f, g)[q] = sum_d f[q + d] g[d] and convolutions conv(g, f)[p] =
    sum_d g[d] f[p - d], with W_t datum t's weights laid out over the shifts
    d (`_fft_stats`): sum_l A[l, q + d_l] = sum_t corr(Xc_t, W_t)[q] and
    likewise Q with Xc_t^2, while s_psi = sum_t Xc_t^2 conv(W_t, r^2) -
    2 Xc_t conv(W_t, r^2 mu_c) + conv(sum_t W_t, r^2 mu_c^2 + var).  The
    frames' spectra serve every cluster; summed over t as spectra, A and Q
    take one inverse 2-D FFT each per cluster, s_psi two per datum.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    C, n, k = loadings.shape
    m = float(X.mean())
    Xc, mu_c = X - m, mu - m
    Xc2 = Xc * Xc
    sums = [np.zeros((C, n)), np.zeros((C, n)), np.zeros((C, n)),
            np.zeros((C, k)), np.zeros((C, k, k)), np.zeros((C, n, k))]
    rows = _fft_rows(transforms, loadings, psi)
    if rows is not None:
        sums[:3] = _fft_stats(transforms.shape, rows, W, Xc, Xc2, mu_c, phi, psi[0])
    else:
        live_ops = W.any(axis=0)
        for c in range(C):
            live = np.flatnonzero(live_ops[:, c])
            for lo in range(0, live.size, _STATS_BLOCK):
                ops = live[lo:lo + _STATS_BLOCK]
                # consecutive ops as a slice: a view, where an index copies
                if ops[-1] - ops[0] == ops.size - 1:
                    ops = slice(ops[0], ops[-1] + 1)
                post = None
                if posterior is not None:
                    y_cov, y_mean = posterior[c]
                    post = y_cov[ops], y_mean[:, ops]
                # without factors a block yields three sums and zip stops there
                for total, part in zip(sums, _block_stats(
                        transforms, ops, W[:, :, c], Xc, Xc2,
                        mu_c[c], loadings[c], phi[c], psi, m, post)):
                    total[c] += part
    s_z, s_zz, s_psi, s_y, s_yy, s_zy = sums
    # one sum per cluster: W.sum(axis=(0, 1)) adds in another order
    mass = np.array([W[:, :, c].sum() for c in range(C)])
    return mass, s_z, s_zz, s_y, s_yy, s_zy, s_psi, m


def _fft_stats(shape, rows, W, Xc, Xc2, mu_c, phi, psi):
    """(s_z, s_zz, s_psi) of `gaussian_template_stats` at K = 0 on a full
    wrap grid with one sensor variance psi, op l the shift d_l = rows[l]
    (`TransformationSet.wrap_rows`), by the correlation identities there.
    A correlation with W_t multiplies spectra by conj(F W_t), a convolution
    by F W_t.  The full-size work is one complex block (the frames'
    spectra, then per cluster two products and the weights' spectra) and
    one float block (the weights laid out over the shifts, then the two
    convolutions), written in place."""
    b = 1.0 / psi
    T, n = Xc.shape
    sums = np.empty((3,) + mu_c.shape)
    spectra = np.empty((5, T, shape.height, shape.width // 2 + 1), dtype=complex)
    pixels = np.empty((2, T, n))
    fx, fx2 = _spectra(shape, Xc, Xc2, out=spectra[:2])
    prod, fw = spectra[2:4], spectra[4]
    for c in range(mu_c.shape[0]):
        var = 1.0 / (1.0 / phi[c] + b)
        a, r2 = mu_c[c] / phi[c], (var / phi[c]) ** 2
        pixels[0][:, rows] = W[:, :, c]         # rows is a permutation of the shifts
        tot = float(W[:, :, c].sum())
        _spectra(shape, pixels[0], out=spectra[4:])
        np.conjugate(fw, out=prod[1])
        np.multiply(fx, prod[1], out=prod[0])
        np.multiply(fx2, prod[1], out=prod[1])
        A, Q = _unspectra(shape, prod.sum(axis=1))
        sums[0, c] = var * (tot * a + b * A)
        sums[1, c] = var * var * (tot * a * a + 2.0 * a * b * A + b * b * Q) + tot * var
        g = _spectra(shape, r2, r2 * mu_c[c], r2 * mu_c[c] * mu_c[c] + var)
        np.multiply(fw, g[:2, None], out=prod)
        spread = _unspectra(shape, fw.sum(axis=0) * g[2])
        conv = _unspectra(shape, prod, out=pixels)
        conv[0] *= Xc2
        conv[1] *= Xc
        sums[2, c] = conv[0].sum(axis=0) - 2.0 * conv[1].sum(axis=0) + spread
    return sums


def _block_stats(transforms, block, W, Xc, Xc2, mu_c, loadings, phi, psi, m,
                 posterior=None):
    """(s_z, s_zz, s_psi) of `gaussian_template_stats` over one block of ops,
    for data Xc (squared: Xc2) and template mu_c centred on m; with factors,
    followed by (s_y, s_yy, s_zy), from the factor posterior (y_cov, E[y])
    of the block's ops when it is given, else formed here.  The data sums
    are gathered at `dest_matrix`, once each (``VOID`` reads the zero pad
    before op l's row); the sums over ops are products with the (block, n)
    latent terms, and the residual, formed per op in latent coordinates,
    reaches the observed pixels in one scatter."""
    # the block's weights op by op, contiguous: W is a strided column
    Wb = np.ascontiguousarray(W[:, block].T)
    w = Wb.sum(axis=1)
    A, Q = _padded_product(Wb, Xc), _padded_product(Wb, Xc2)
    nb, n = A.shape[0], Xc.shape[1]
    dst, src = transforms.dest_matrix[block], _index(transforms.source_matrix)[block]
    # flat positions in a padded (nb, n + 1) block: one 1-D gather per array
    at_dst = np.arange(nb)[:, None] * (n + 1) + dst
    A_dst, Q_dst = A.ravel()[at_dst], Q.ravel()[at_dst]
    a = mu_c / phi
    b, var = _latent_var(dst, phi, psi)
    vb = var * b
    R = var / phi
    seen = vb * A_dst                                   # sum_t w var b x[dst]
    s_z = a * (w @ var) + seen.sum(axis=0)
    seen *= var
    s_zz = a * a * (w @ (var * var)) + 2.0 * a * seen.sum(axis=0) + w @ var
    seen = np.multiply(vb, vb, out=seen)
    seen *= Q_dst
    s_zz += seen.sum(axis=0)
    # the residual of latent pixel q at the observed pixel it lands on:
    # R^2 (Q - 2 mu A + mu^2 w)[dst] + w var, plus the factor terms below
    resid = np.multiply(mu_c, w[:, None], out=seen)
    resid -= 2.0 * A_dst
    resid *= mu_c
    resid += Q_dst
    k = loadings.shape[1]
    if k:
        T = Xc.shape[0]
        if posterior is None:
            moments = _factor_posterior(*_observed(src, mu_c, loadings, phi, psi), Xc)[2]
            posterior = _factor_moments(*moments)
        y_cov, U = posterior
        # U: E[y] per (k, l, t), K-first; w u likewise, read along t
        WU = np.multiply(U, Wb, order="C")
        s_y = WU.sum(axis=2)
        s_yy = WU.transpose(1, 0, 2) @ U.transpose(1, 2, 0) + w[:, None, None] * y_cov
        flat = s_yy.reshape(nb, k * k)
        outer = (loadings[:, :, None] * loadings[:, None, :]).reshape(n, k * k)
        # P[j, l] = sum_t w x u_j, (K, block, n + 1), gathered at dst
        P = _padded_product(WU.reshape(k * nb, T), Xc)
        P_dst = P.ravel()[np.arange(k * nb).reshape(k, nb, 1) * (n + 1) + dst]
        xu = (P_dst * loadings.T[:, None, :]).sum(axis=0)      # sum_t w x[dst] (L u)
        s_y = s_y.T                                             # (block, K)
        lam_y = s_y @ loadings.T                                # sum_t w (L u)
        # latent coordinates: E[z] gains R loadings E[y]
        s_z += (loadings * (R.T @ s_y)).sum(axis=1)
        s_zz += (2.0 * a * (loadings * ((R * var).T @ s_y)).sum(axis=1)
                 + 2.0 * (R * vb * xu).sum(axis=0) + (outer * ((R * R).T @ flat)).sum(axis=1))
        s_zy = (a[:, None] * (var.T @ s_y) + (vb * P_dst).sum(axis=1).T
                + (loadings[:, :, None] * (R.T @ flat).reshape(n, k, k)).sum(axis=1))
        # observed coordinates: the residual gains -R (L u)
        resid += flat @ outer.T                                 # diag(L s_yy L^T)
        resid -= 2.0 * xu
        lam_y *= mu_c
        resid += 2.0 * lam_y
    resid *= R * R
    resid += w[:, None] * var
    # a latent pixel that lands on no observed one goes to bin 0, dropped
    s_psi = np.bincount(dst.ravel() + 1, weights=resid.ravel(), minlength=n + 1)[1:]
    if transforms.has_void and (void := src < 0).any():
        # a pixel with no source keeps its whole x^2
        A, Q = A[:, :n], Q[:, :n]
        s_psi += np.where(void, Q + m * (2.0 * A + m * w[:, None]), 0.0).sum(axis=0)
    if not k:
        return s_z, s_zz, s_psi
    return s_z, s_zz, s_psi, s_y.sum(axis=0), s_yy.sum(axis=0), s_zy


def _normalise(log_joint: np.ndarray, what: str):
    """E-step normaliser: per-datum log-evidence and responsibilities from a
    (T, ...) log-joint table over the discrete configurations.  A
    responsibility at or below e^CUT of its datum's total is exactly 0
    (`_cutexp`), not a subnormal."""
    axes = tuple(range(1, log_joint.ndim))
    per_datum = logsumexp(log_joint, axis=axes)
    if not np.all(np.isfinite(per_datum)):
        raise UnderflowError(f"a datum underflowed every {what}")
    return per_datum, _cutexp(log_joint - np.expand_dims(per_datum, axes))


def _starved(mass, T: int) -> tuple[int, ...]:
    """Clusters whose responsibility mass fell below the rescue threshold;
    the M-step skips their update and `_mstep_tail` reseeds them."""
    return tuple(c for c, m in enumerate(mass) if m < RESCUE_THRESHOLD * T)


def _mstep_tail(X, options: EmOptions, s_psi, rescued, mu, phi, pi, rho=None):
    """The end of every family's M-step.

    Reseeds each rescued cluster from a random datum (template, latent
    variance, uniform `rho` column) and resets its rows of the prior `pi`
    (mixing proportions, or the (C, L) initial-state table) to uniform before
    renormalising.  Then psi = the clusters' s_psi sums (C, n) summed over
    clusters and divided by the batch size, tied to its mean when asked,
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
    psi = s_psi.sum(axis=0) / T
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
