"""Transformed hidden Markov model (THMM) over frame sequences.

The state lumps a class index with a transformation index, s = (c, l).  The
transition factorizes into a class chain and a relative-motion prior over the
shift difference between consecutive transformations, optionally conditioned
on the previous class.  Truncating the motion prior at a threshold makes the
per-step cost O(C^2 L + C L B) for B in-range displacements instead of
O((C L)^2), while forward-backward and Viterbi stay exact.

Motion differences are taken modulo the shift grid when the transformation
set wraps (the grid is then a torus and every state has the same moves);
with zero-padded sets, edge states renormalize over their feasible moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import tmg as _tmg
from .common import (EmOptions, SequencePosterior, UnderflowError, _fit,
                     _latent_posterior, _mstep_tail, _starved,
                     gaussian_template_stats)
from .transforms import ImageShape, TransformationSet, apply, shift_op
from .tmg import TmgModel


def motion_offsets(threshold: float) -> tuple[tuple[int, int], ...]:
    """Integer displacements with Euclidean norm within the threshold."""
    r = int(math.floor(threshold))
    out = []
    for di in range(-r, r + 1):
        for dj in range(-r, r + 1):
            if math.hypot(di, dj) <= threshold + 1e-9:
                out.append((di, dj))
    return tuple(out)


@dataclass(eq=False)
class MotionPrior:
    """Distribution over the relative motion between consecutive frames.

    mode "vector" bins on the displacement (di, dj) itself; "magnitude" bins
    on the rounded Euclidean norm, splitting each bin's mass uniformly over
    the displacements that realize it.  Entries beyond the threshold are
    zero.  With per_class=True the table carries a leading class axis and
    conditions on the previous frame's class.
    """

    mode: str
    threshold: float
    table: np.ndarray
    per_class: bool = False

    def __post_init__(self):
        if self.mode not in ("vector", "magnitude"):
            raise ValueError("mode must be 'vector' or 'magnitude'")
        self.table = np.asarray(self.table, dtype=np.float64)
        r = int(math.floor(self.threshold))
        want = (2 * r + 1, 2 * r + 1) if self.mode == "vector" else (r + 1,)
        got = self.table.shape[1:] if self.per_class else self.table.shape
        if got != want:
            raise ValueError(f"table shape {got} does not match mode/threshold {want}")
        if np.any(self.table < 0):
            raise ValueError("motion table entries must be nonnegative")
        flat = self.table.reshape(-1, self.table[0].size if self.per_class else self.table.size)
        if not np.allclose(flat.sum(axis=1), 1.0):
            raise ValueError("motion table must sum to 1 (per class)")
        if self.mode == "vector":
            mask = np.ones((2 * r + 1, 2 * r + 1), dtype=bool)
            for di, dj in motion_offsets(self.threshold):
                mask[di + r, dj + r] = False
            if np.any(self.table[..., mask] > 0):
                raise ValueError("motion table has mass beyond the threshold")

    @property
    def radius(self) -> int:
        return int(math.floor(self.threshold))

    def n_classes(self) -> int | None:
        return self.table.shape[0] if self.per_class else None

    def bin_of(self, di: int, dj: int):
        if self.mode == "vector":
            return (di + self.radius, dj + self.radius)
        return (int(np.rint(math.hypot(di, dj))),)

    def weights(self, offsets) -> np.ndarray:
        """Per-displacement transition weights, (C?, B).

        Vector bins hold one displacement each; magnitude bins split their
        mass over the displacements sharing the rounded norm.
        """
        mult = {}
        for di, dj in offsets:
            b = self.bin_of(di, dj)
            mult[b] = mult.get(b, 0) + 1
        cols = []
        for di, dj in offsets:
            b = self.bin_of(di, dj)
            cols.append(self.table[(...,) + b] / mult[b])
        return np.stack(cols, axis=-1)


def uniform_motion(threshold: float = 3.0, mode: str = "vector",
                   per_class: bool = False, n_classes: int = 1) -> MotionPrior:
    """Uniform-over-bins motion prior within the threshold."""
    r = int(math.floor(threshold))
    offsets = motion_offsets(threshold)
    if mode == "vector":
        table = np.zeros((2 * r + 1, 2 * r + 1))
        for di, dj in offsets:
            table[di + r, dj + r] = 1.0
    else:
        bins = sorted({int(np.rint(math.hypot(*o))) for o in offsets})
        table = np.zeros(r + 1)
        table[bins] = 1.0
    table = table / table.sum()
    if per_class:
        table = np.tile(table, (n_classes,) + (1,) * table.ndim)
    return MotionPrior(mode=mode, threshold=threshold, table=table,
                       per_class=per_class)


@dataclass(eq=False)
class ThmmModel:
    """Class templates with variances, sensor noise, and factorized dynamics.

    mu (C, n), phi (C, n), psi (n,), pi_s (C, L) initial state probabilities,
    class_trans (C, C) rows p(c_t | c_{t-1}), motion prior over relative
    shifts.  The transformation set must be grid-structured.
    """

    shape: ImageShape
    transforms: TransformationSet
    mu: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    pi_s: np.ndarray
    class_trans: np.ndarray
    motion: MotionPrior

    def __post_init__(self):
        if self.transforms.grid is None:
            raise ValueError("THMM needs a grid-structured transformation set")
        n, L = self.shape.n, self.transforms.L
        self.mu = np.asarray(self.mu, dtype=np.float64)
        C = self.mu.shape[0]
        for name, arr, want in (("phi", self.phi, (C, n)), ("psi", self.psi, (n,)),
                                ("pi_s", self.pi_s, (C, L)),
                                ("class_trans", self.class_trans, (C, C))):
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != want:
                raise ValueError(f"{name} must have shape {want}, got {arr.shape}")
            setattr(self, name, arr)
        if not np.isclose(self.pi_s.sum(), 1.0):
            raise ValueError("pi_s must sum to 1")
        if not np.allclose(self.class_trans.sum(axis=1), 1.0):
            raise ValueError("class_trans rows must sum to 1")
        if np.any(self.phi <= 0) or np.any(self.psi <= 0):
            raise ValueError("variances must be positive")
        if self.motion.per_class and self.motion.table.shape[0] != C:
            raise ValueError("per-class motion table does not match C")

    @property
    def C(self) -> int:
        return self.mu.shape[0]

    @property
    def L(self) -> int:
        return self.transforms.L

    @property
    def n(self) -> int:
        return self.shape.n

    @property
    def wrap_motion(self) -> bool:
        return self.transforms.boundary == "wrap"


def init_thmm(transforms: TransformationSet, n_classes: int, frames,
              seed: int = 0, motion: MotionPrior | None = None,
              mean_noise: float = 0.05) -> ThmmModel:
    """Random-frame templates, uniform dynamics with a diagonal boost."""
    X = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    rng = np.random.default_rng(seed)
    n, L = transforms.shape.n, transforms.L
    picks = rng.choice(X.shape[0], size=n_classes, replace=X.shape[0] < n_classes)
    spread = max(float(np.std(X)), 1e-3)
    mu = X[picks] + mean_noise * spread * rng.standard_normal((n_classes, n))
    var = max(float(np.var(X)), 1e-6)
    if motion is None:
        motion = uniform_motion(per_class=True, n_classes=n_classes)
    trans = np.full((n_classes, n_classes), 1.0 / n_classes)
    trans = trans + np.eye(n_classes)
    trans = trans / trans.sum(axis=1, keepdims=True)
    return ThmmModel(shape=transforms.shape, transforms=transforms, mu=mu,
                     phi=np.full((n_classes, n), var), psi=np.full(n, var),
                     pi_s=np.full((n_classes, L), 1.0 / (n_classes * L)),
                     class_trans=trans, motion=motion)


def from_tmg(model: TmgModel, motion: MotionPrior | None = None,
             align_gauge: bool = True) -> ThmmModel:
    """Promote a trained TMG to a THMM: templates and noise carry over, the
    class chain starts near the TMG mixing proportions with a sticky
    diagonal, and the motion prior defaults to uniform.

    A TMG fixes each cluster's template only up to a shift (its registration
    gauge is free per cluster), but the THMM's relative-motion prior assumes
    all classes share one spatial frame.  `align_gauge` canonicalizes the
    promotion by rolling every template, with its variance map, to the wrap
    shift best correlating with the heaviest cluster's template.
    """
    C, L = model.C, model.L
    if motion is None:
        motion = uniform_motion(per_class=True, n_classes=C)
    mu, phi = model.mu.copy(), model.phi.copy()
    if align_gauge and model.transforms.grid is not None \
            and model.transforms.boundary == "wrap" and C > 1:
        shape = model.shape
        ref = mu[int(np.argmax(model.pi))]
        ref_c = ref - ref.mean()
        for c in range(C):
            best, best_op = -np.inf, None
            for di in range(shape.height):
                for dj in range(shape.width):
                    op = shift_op(shape, di, dj, "wrap")
                    cand = apply(op, mu[c])
                    score = float(ref_c @ (cand - cand.mean()))
                    if score > best:
                        best, best_op = score, op
            mu[c] = apply(best_op, mu[c])
            phi[c] = apply(best_op, phi[c])
    trans = np.tile(model.pi, (C, 1)) + np.eye(C)
    trans = trans / trans.sum(axis=1, keepdims=True)
    pi_s = np.tile(model.pi[:, None], (1, L)) / L
    return ThmmModel(shape=model.shape, transforms=model.transforms,
                     mu=mu, phi=phi,
                     psi=model.psi.copy(), pi_s=pi_s, class_trans=trans,
                     motion=motion)


def emission_loglik(model: ThmmModel, x) -> np.ndarray:
    """(C, L) table of log p(x | c, l); the per-frame TMG conditional."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.n,):
        raise ValueError("frame length must match the model")
    return emission_table(model, x[None, :])[0]


def emission_table(model: ThmmModel, frames) -> np.ndarray:
    """(T, C, L) emission log-likelihood tables: the TMG conditional table
    with its state axes in (class, op) order."""
    return np.ascontiguousarray(_tmg.loglik_table(model, frames).transpose(0, 2, 1))


def _shift2d(a: np.ndarray, di: int, dj: int, wrap: bool, fill: float = 0.0) -> np.ndarray:
    """Move a[..., r, c] to [..., r + di, c + dj]; wrap or fill vacated cells."""
    if wrap:
        return np.roll(a, (di, dj), axis=(-2, -1))
    out = np.full_like(a, fill)
    h, w = a.shape[-2:]
    if abs(di) >= h or abs(dj) >= w:
        return out
    rs, rd = (slice(0, h - di), slice(di, h)) if di >= 0 else (slice(-di, h), slice(0, h + di))
    cs, cd = (slice(0, w - dj), slice(dj, w)) if dj >= 0 else (slice(-dj, w), slice(0, w + dj))
    out[..., rd, cd] = a[..., rs, cs]
    return out


class _Dynamics:
    """Precomputed motion kernels and normalizers for one model.

    `offsets`/`weights` keep one entry per raw displacement (the motion
    M-step needs counts split per displacement).  `f_offsets`/`f_weights`
    merge displacements that alias on a small wrapped grid; max-product
    recursions must use the merged weights.
    """

    def __init__(self, model: ThmmModel):
        self.grid = model.transforms.grid
        self.wrap = model.wrap_motion
        self.offsets = motion_offsets(model.motion.threshold)
        w = model.motion.weights(self.offsets)
        self.weights = w if model.motion.per_class else np.tile(w, (model.C, 1))
        mv, mh = self.grid
        folded = {}
        for b, (di, dj) in enumerate(self.offsets):
            key = (di % mv, dj % mh) if self.wrap else (di, dj)
            if key in folded:
                folded[key] = folded[key] + self.weights[:, b]
            else:
                folded[key] = self.weights[:, b].copy()
        self.f_offsets = tuple(folded.keys())
        self.f_weights = np.stack(list(folded.values()), axis=1)
        ones = np.ones((model.C, mv, mh))
        # z[c, l]: total kernel mass over moves that stay on the grid
        self.z = sum(self.f_weights[:, b, None, None]
                     * _shift2d(ones, -di, -dj, self.wrap)
                     for b, (di, dj) in enumerate(self.f_offsets))
        if np.any(self.z <= 0):
            raise ValueError("motion prior leaves some state with no move")

    def fwd(self, a: np.ndarray) -> np.ndarray:
        """(C, Mv, Mh) -> sum over sources: a normalized-kernel step forward."""
        scaled = a / self.z
        return sum(self.f_weights[:, b, None, None]
                   * _shift2d(scaled, di, dj, self.wrap)
                   for b, (di, dj) in enumerate(self.f_offsets))

    def bwd(self, g: np.ndarray) -> np.ndarray:
        """Adjoint step: out[c, l] = sum_d k_c(d) g[c, l + d] / z[c, l]."""
        return sum(self.f_weights[:, b, None, None]
                   * _shift2d(g, -di, -dj, self.wrap)
                   for b, (di, dj) in enumerate(self.f_offsets)) / self.z


def dense_transition(model: ThmmModel) -> np.ndarray:
    """(C*L, C*L) transition matrix materialized from the factorization.
    Row/column order is the lumped index c * L + l."""
    dyn = _Dynamics(model)
    mv, mh = model.transforms.grid
    C, L = model.C, model.L
    out = np.zeros((C * L, C * L))
    for c in range(C):
        for i in range(mv):
            for j in range(mh):
                l = i * mh + j
                for wk, (di, dj) in zip(dyn.weights[c], dyn.offsets):
                    i2, j2 = i + di, j + dj
                    if model.wrap_motion:
                        i2, j2 = i2 % mv, j2 % mh
                    elif not (0 <= i2 < mv and 0 <= j2 < mh):
                        continue
                    l2 = i2 * mh + j2
                    for c2 in range(C):
                        out[c * L + l, c2 * L + l2] += (
                            model.class_trans[c, c2] * wk / dyn.z[c, i, j])
    return out


def _forward(model: ThmmModel, emis: np.ndarray, dyn: _Dynamics):
    """Scaled forward pass.  Returns (loglik, alpha_hat, log_scale)."""
    T = emis.shape[0]
    mv, mh = model.transforms.grid
    shift_log = emis.max(axis=(1, 2))
    with np.errstate(invalid="ignore"):
        e = np.exp(emis - shift_log[:, None, None]).reshape(T, model.C, mv, mh)
    pi_grid = model.pi_s.reshape(model.C, mv, mh)
    alpha = np.empty_like(e)
    scale = np.empty(T)
    a = pi_grid * e[0]
    for t in range(T):
        if t > 0:
            moved = dyn.fwd(alpha[t - 1])
            mixed = np.einsum("cd,cij->dij", model.class_trans, moved)
            a = mixed * e[t]
        s = a.sum()
        if s <= 0.0 or not np.isfinite(s):
            raise UnderflowError(f"zero total path probability at frame {t}")
        scale[t] = s
        alpha[t] = a / s
    loglik = float(np.log(scale).sum() + shift_log.sum())
    return loglik, alpha, scale, e


def forward_backward(model: ThmmModel, frames,
                     map_path: bool = True) -> SequencePosterior:
    """Exact smoothed marginals, transition statistics, Viterbi path and
    sequence log-likelihood under the factorized transition.

    `map_path=False` skips the Viterbi pass (the EM loop does not need it).
    """
    X = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    emis = emission_table(model, X)
    dyn = _Dynamics(model)
    loglik, alpha, scale, e = _forward(model, emis, dyn)
    T = X.shape[0]
    C = model.C

    beta = np.empty_like(alpha)
    beta[T - 1] = 1.0
    xi_class = np.zeros((C, C))
    xi_motion = np.zeros((C, len(dyn.offsets)))
    for t in range(T - 2, -1, -1):
        g = e[t + 1] * beta[t + 1]
        mixed_back = np.einsum("cd,dij->cij", model.class_trans, g)
        beta[t] = dyn.bwd(mixed_back) / scale[t + 1]
        # pooled transition statistics for this step
        moved = dyn.fwd(alpha[t])
        xi_class += (model.class_trans
                     * np.einsum("cij,dij->cd", moved, g)) / scale[t + 1]
        norm_alpha = alpha[t] / dyn.z
        for b, (di, dj) in enumerate(dyn.offsets):
            pulled = _shift2d(mixed_back, -di, -dj, dyn.wrap)
            xi_motion[:, b] += (dyn.weights[:, b]
                                * np.einsum("cij,cij->c", norm_alpha, pulled)
                                / scale[t + 1])
    gamma = (alpha * beta).reshape(T, C, model.L)

    path = viterbi(model, X, emis=emis, dyn=dyn) if map_path else None
    xi_bins = _pool_motion(model.motion, dyn.offsets, xi_motion)
    return SequencePosterior(gamma=gamma, xi_class=xi_class,
                             xi_motion=xi_bins, map_path=path, loglik=loglik)


def _pool_motion(motion: MotionPrior, offsets, counts: np.ndarray) -> np.ndarray:
    """Pool per-displacement expected counts into the motion table's bins."""
    pooled = np.zeros_like(motion.table, dtype=np.float64)
    per_class = motion.per_class
    for b, (di, dj) in enumerate(offsets):
        idx = motion.bin_of(di, dj)
        if per_class:
            pooled[(slice(None),) + idx] += counts[:, b]
        else:
            pooled[idx] += counts[:, b].sum()
    return pooled


def score_sequence(model: ThmmModel, frames) -> float:
    """log p(x_1..T): the forward-pass likelihood, exact and deterministic."""
    X = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    emis = emission_table(model, X)
    loglik, _, _, _ = _forward(model, emis, _Dynamics(model))
    return loglik


def viterbi(model: ThmmModel, frames, emis=None, dyn=None) -> np.ndarray:
    """MAP state path as (T, 2) (class, op) indices; ties break toward the
    smallest lumped index c * L + l."""
    X = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if emis is None:
        emis = emission_table(model, X)
    if dyn is None:
        dyn = _Dynamics(model)
    T = X.shape[0]
    mv, mh = model.transforms.grid
    C, L = model.C, model.L
    with np.errstate(divide="ignore"):
        log_e = emis.reshape(T, C, mv, mh)
        log_pi = np.log(model.pi_s).reshape(C, mv, mh)
        log_trans = np.log(model.class_trans)
        log_w = np.log(dyn.f_weights)
        log_z = np.log(dyn.z)

    # lumped source index at target (i', j') for each (source class, move)
    ii, jj = np.meshgrid(np.arange(mv), np.arange(mh), indexing="ij")
    src_idx = np.empty((C, len(dyn.f_offsets), mv, mh), dtype=np.int64)
    feasible = np.empty((len(dyn.f_offsets), mv, mh), dtype=bool)
    for b, (di, dj) in enumerate(dyn.f_offsets):
        si, sj = ii - di, jj - dj
        if dyn.wrap:
            si, sj = si % mv, sj % mh
            feasible[b] = True
        else:
            feasible[b] = (si >= 0) & (si < mv) & (sj >= 0) & (sj < mh)
            si, sj = np.clip(si, 0, mv - 1), np.clip(sj, 0, mh - 1)
        for c in range(C):
            src_idx[c, b] = c * L + si * mh + sj

    v = log_pi + log_e[0]
    back = np.empty((T, C, mv, mh), dtype=np.int64)
    big = np.iinfo(np.int64).max
    for t in range(1, T):
        cand = np.empty((C, len(dyn.f_offsets), mv, mh))
        base = v - log_z
        for b, (di, dj) in enumerate(dyn.f_offsets):
            cand[:, b] = (_shift2d(base, di, dj, dyn.wrap, fill=-np.inf)
                          + log_w[:, b, None, None])
            if not dyn.wrap:
                cand[:, b][:, ~feasible[b]] = -np.inf
        v_new = np.empty_like(v)
        for c2 in range(C):
            scored = cand + log_trans[:, c2][:, None, None, None]
            best = scored.max(axis=(0, 1))
            tie = np.where(scored == best[None, None], src_idx, big)
            back[t, c2] = tie.min(axis=(0, 1))
            v_new[c2] = best + log_e[t, c2]
        v = v_new

    flat = v.reshape(-1)
    best = flat.max()
    last = int(np.flatnonzero(flat == best)[0])
    path = np.empty((T, 2), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        c, l = divmod(last, L)
        path[t] = (c, l)
        if t > 0:
            last = int(back[t].reshape(-1)[last])
    return path


def _seq_list(frames) -> list[np.ndarray]:
    if isinstance(frames, np.ndarray) and frames.ndim == 2:
        return [np.asarray(frames, dtype=np.float64)]
    return [np.atleast_2d(np.asarray(f, dtype=np.float64)) for f in frames]


def _em_step_full(model: ThmmModel, sequences, options: EmOptions):
    seqs = _seq_list(sequences)
    C, L = model.C, model.L
    total = 0.0
    gamma_first = np.zeros((C, L))
    xi_class = np.zeros((C, C))
    xi_motion = np.zeros_like(model.motion.table, dtype=np.float64)
    gammas = []
    for X in seqs:
        post = forward_backward(model, X, map_path=False)
        total += post.loglik
        gamma_first += post.gamma[0]
        xi_class += post.xi_class
        xi_motion += post.xi_motion
        gammas.append(post.gamma)

    all_frames = np.concatenate(seqs, axis=0)
    stats = [gaussian_template_stats(
        model.transforms, model.mu[c], model.phi[c], model.psi, all_frames,
        np.concatenate([g[:, c, :] for g in gammas], axis=0)) for c in range(C)]
    mass = np.array([s[0] for s in stats])
    rescued = _starved(mass, all_frames.shape[0])
    mu, phi = model.mu.copy(), model.phi.copy()
    for c, (m_c, s1, s2, _) in enumerate(stats):
        if c in rescued:
            continue
        mu[c] = s1 / m_c
        phi[c] = s2 / m_c - mu[c] ** 2

    # dynamics
    if options.joint_pi:
        pi_s = gamma_first / gamma_first.sum()
    else:
        class_marg = gamma_first.sum(axis=1)
        class_marg = class_marg / class_marg.sum()
        pi_s = np.tile(class_marg[:, None], (1, L)) / L
    phi, psi, pi_s = _mstep_tail(all_frames, options, stats, rescued, mu, phi, pi_s)
    tiny = 1e-12
    trans = xi_class + tiny
    if rescued:
        trans[list(rescued), :] = 1.0
        trans[:, list(rescued)] += tiny
    class_trans = trans / trans.sum(axis=1, keepdims=True)

    motion = model.motion
    if options.clamp_motion is not None:
        motion = replace(model.motion, table=np.asarray(options.clamp_motion,
                                                        dtype=np.float64))
    elif not options.freeze_motion:
        # smoothing mass only inside the threshold support
        support = uniform_motion(model.motion.threshold, model.motion.mode).table > 0
        pooled = xi_motion + tiny * support
        if model.motion.per_class:
            sums = pooled.reshape(C, -1).sum(axis=1).reshape((C,) + (1,) * (pooled.ndim - 1))
            motion = replace(model.motion, table=pooled / sums)
        else:
            motion = replace(model.motion, table=pooled / pooled.sum())

    new = ThmmModel(shape=model.shape, transforms=model.transforms, mu=mu,
                    phi=phi, psi=psi, pi_s=pi_s, class_trans=class_trans,
                    motion=motion)
    return new, total, tuple(mass), rescued


def em_step(model: ThmmModel, sequences, options: EmOptions | None = None):
    """One EM step over one or more sequences; the returned log-likelihood
    is under the input model."""
    return _em_step_full(model, sequences, options or EmOptions())[:2]


def fit(model: ThmmModel, sequences, iterations: int,
        options: EmOptions | None = None, tol: float = 1e-7, callback=None):
    """Run EM until the iteration budget or a relative improvement below
    `tol`.  Returns (model, step reports)."""
    return _fit(_em_step_full, model, sequences, iterations, options, tol, callback)


def _map_states(model: ThmmModel, frames, use_viterbi: bool):
    X = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if use_viterbi:
        return X, viterbi(model, X), None
    post = forward_backward(model, X, map_path=False)
    T = X.shape[0]
    flat = post.gamma.reshape(T, -1)
    best = flat.argmax(axis=1)
    states = np.stack(np.divmod(best, model.L), axis=1)
    return X, states, post


def _z_mean(model: ThmmModel, x, c: int, l: int) -> np.ndarray:
    """Posterior-mean latent image given one frame and one state."""
    return _latent_posterior(model.transforms.dest_matrix[l], model.mu[c],
                             model.phi[c], model.psi, x)[0]


def denoise(model: ThmmModel, frames, mode: str = "soft",
            use_viterbi: bool | None = None) -> np.ndarray:
    """Reconstruct frames from the model.

    "hard" emits the transformed class template along the MAP path; "soft"
    emits the transformed posterior-mean latent image, which blends the
    observation and the template pixelwise by their precisions.
    """
    if mode not in ("soft", "hard"):
        raise ValueError("mode must be 'soft' or 'hard'")
    if use_viterbi is None:
        use_viterbi = mode == "hard"
    X, states, _ = _map_states(model, frames, use_viterbi)
    out = np.empty_like(X)
    for t, (c, l) in enumerate(states):
        op = model.transforms[l]
        if mode == "hard":
            out[t] = apply(op, model.mu[c])
        else:
            out[t] = apply(op, _z_mean(model, X[t], c, l))
    return out


def stabilize(model: ThmmModel, frames, use_viterbi: bool = False) -> np.ndarray:
    """Posterior-mean latent images per frame: the tracked object appears
    registered in the latent coordinate frame."""
    X, states, _ = _map_states(model, frames, use_viterbi)
    out = np.empty_like(X)
    for t, (c, l) in enumerate(states):
        out[t] = _z_mean(model, X[t], c, l)
    return out


def track(model: ThmmModel, frames, use_viterbi: bool = False):
    """Per-frame (class, di, dj, log-margin) from the smoothed-MAP states
    (or the Viterbi path), decoded through the shift grid."""
    X, states, post = _map_states(model, frames, use_viterbi)
    if post is None:
        post = forward_backward(model, X, map_path=False)
    offsets = model.transforms.grid_offsets()
    T = X.shape[0]
    out = np.empty((T, 4))
    flat = post.gamma.reshape(T, -1)
    order = np.sort(flat, axis=1)
    with np.errstate(divide="ignore"):
        margin = np.log(order[:, -1]) - np.log(order[:, -2]) if flat.shape[1] > 1 \
            else np.full(T, np.inf)
    for t, (c, l) in enumerate(states):
        out[t] = (c, offsets[l, 0], offsets[l, 1], margin[t])
    return out


def sample_sequence(model: ThmmModel, length: int, seed):
    """Generate frames and their (class, op) states; deterministic per seed."""
    rng = np.random.default_rng(seed)
    dyn = _Dynamics(model)
    mv, mh = model.transforms.grid
    frames = np.empty((length, model.n))
    states = np.empty((length, 2), dtype=np.int64)
    flat_pi = model.pi_s.reshape(-1)
    s = rng.choice(flat_pi.size, p=flat_pi)
    c, l = divmod(s, model.L)
    for t in range(length):
        states[t] = (c, l)
        z = model.mu[c] + np.sqrt(model.phi[c]) * rng.standard_normal(model.n)
        frames[t] = apply(model.transforms[l], z) \
            + np.sqrt(model.psi) * rng.standard_normal(model.n)
        if t + 1 < length:
            i, j = divmod(l, mh)
            w = dyn.weights[c].copy()
            if not dyn.wrap:
                for b, (di, dj) in enumerate(dyn.offsets):
                    if not (0 <= i + di < mv and 0 <= j + dj < mh):
                        w[b] = 0.0
            w = w / w.sum()
            b = rng.choice(len(dyn.offsets), p=w)
            di, dj = dyn.offsets[b]
            i2, j2 = (i + di) % mv, (j + dj) % mh
            c = rng.choice(model.C, p=model.class_trans[c])
            l = i2 * mh + j2
    return frames, states
