"""Transformed hidden Markov model (THMM) over frame sequences.

The state lumps a class index with a transformation index, s = (c, l).  The
transition factorizes into a class chain and a relative-motion prior over the
shift difference between consecutive transformations, optionally conditioned
on the previous class.  Truncating the motion prior at a threshold makes every
pass (forward, backward with its transition statistics, and Viterbi) cost
O(C^2 L + C L B) per step for B in-range moves instead of O((C L)^2), while
staying exact.  All of them read one set of gather tables built by
`_Dynamics`.

The passes run in the log domain, one frame at a time.  The forward pass
keeps one shift per target position, shared by every class there, and sums
linearly.  With a = log alpha_t-1 - log z (C, L):

- u[j], the best class of source position j, and v = exp(a - u): one
  exponential per source state.
- top[l], the best u over the on-grid moves into l, and F[m, l] =
  exp(u[src_m(l)] - top[l]): one exponential per move and target (a source
  off a zero-padded grid reads a -inf sentinel, so its F is 0).  v and F
  are exactly 0 at or below e^`_FORWARD_CUT` = e^-300; a product v F is
  then e^-600 or more, or 0, and stays a normal float.
- The prediction is s = A^T (sum over m of w_c(m) v[c, src_m(l)] F[m, l])
  and log pred = log s + top: one gather and one multiply over (C, B, L),
  one batched (C, 1, B) @ (C, B, L) product and one (C, C) @ (C, L)
  product, with no second exponentiation.

Every dropped term is below e^-300 of e^top[l], so where s is at least
`_FORWARD_FLOOR` = e^-200 the drops move it by less than C B e^-100 of
itself, under its rounding.  The best term of each position is exactly 1,
so s >= A(c*, c') w_c*(m*) for its class c* and move m*: a learned model,
whose weights the M-step floors at 1e-12, never falls below the floor.  A
position where some class does (only a zero or tiny transition gets there)
is recomputed in the log domain.  Every state is shifted by its own
position's best, so log alpha stays exact for states thousands of nats
below their frame's best.  The frame's normaliser is a clamped
log-sum-exp.

The smoothing pass recurses on gamma from the last frame back, in the
forward-filtering, backward-smoothing form (Rauch, Tung & Striebel, 1965):

    gamma_t(c, l) = sum over moves m and classes c' of
        alpha_t(c, l) w_c(m) / z(c, l) A(c, c') gamma_t+1(c', p) / pred_t+1(c', p)

with p = l + d_m and pred the forward pass's one-step prediction.  Each term
is at most gamma_t+1(c', p) <= 1, so a frame reads only the positions where
some class's gamma_t+1 is above e^`_SUPPORT_CUT` = e^-800: a few of them on a
tracked video.  Over those it takes one class step (`_class_step`: a (C, C)
product on gamma / pred with a per-position shift, its exponentials clamped
at `CUT` = -700, a position whose sum falls below `_LINEAR_FLOOR` = e^-600
recomputed in the log domain) and exponentiates its (C, B, positions) move
terms without a shift, lifted by e^`_LIFT` so that states down to e^-800
sum in normal floats; one bincount scatters them onto their source states.
The same exponentials, summed per move and per target, give the expected
move and class counts.
`forward_backward` states how far gamma and the counts may be from the
exact sums.

Motion differences are taken modulo the shift grid when the transformation
set wraps (the grid is then a torus and every state has the same moves);
with zero-padded sets, edge states renormalize over their feasible moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import tca as _tca
from .common import (CUT, EmOptions, SequencePosterior, UnderflowError,
                     _GaussianModel, _cutexp, _fit, _frame, _frames, _latent_posterior,
                     _mstep_tail, _padded, _record, _starting_templates, logsumexp)
from .mtca import _cluster_mstep
from .transforms import TransformationSet, apply, wrap_shift_index
from .tmg import TmgModel

# a class-step position whose linear sum falls below this is recomputed in
# the log domain; above it, the terms clamped at e^CUT are below e^-100 of
# the sum, under its rounding
_LINEAR_FLOOR = math.exp(CUT + 100.0)
# the forward pass drops a term at or below e^_FORWARD_CUT of its shift and
# recomputes in the log domain a position where some class's linear sum
# falls below _FORWARD_FLOOR (see the module docstring)
_FORWARD_CUT = -300.0
_FORWARD_FLOOR = math.exp(_FORWARD_CUT + 100.0)
# the smoothing pass exponentiates its terms lifted by e^_LIFT and drops
# those at or below e^CUT, so that every state down to e^_SUPPORT_CUT sums
# in normal floats; it reads only the positions where some class's log gamma
# is above _SUPPORT_CUT (see `forward_backward` for the bound)
_LIFT = 100.0
_SUPPORT_CUT = CUT - _LIFT
_EXP_CUT = math.exp(CUT)


def motion_offsets(threshold: float) -> np.ndarray:
    """(B, 2) integer displacements (di, dj) with Euclidean norm within the
    threshold, di major, both ascending."""
    r = int(math.floor(threshold))
    d = np.arange(-r, r + 1)
    di, dj = np.repeat(d, 2 * r + 1), np.tile(d, 2 * r + 1)
    keep = np.sqrt(di * di + dj * dj) <= threshold + 1e-9
    return np.stack([di[keep], dj[keep]], axis=1)


def _check_threshold(threshold: float) -> None:
    """Refuse a motion threshold that is negative, NaN or infinite; 0 keeps
    only the stay-put displacement."""
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"motion threshold must be finite and >= 0, got {threshold}")


def _table_shape(mode: str, threshold: float) -> tuple[int, ...]:
    """Shape of one class's motion table."""
    r = int(math.floor(threshold))
    return (2 * r + 1, 2 * r + 1) if mode == "vector" else (r + 1,)


def _bins(mode: str, threshold: float, offsets: np.ndarray) -> np.ndarray:
    """Flat index into one class's motion table of each displacement's bin:
    the displacement itself ("vector") or its rounded norm ("magnitude")."""
    r = int(math.floor(threshold))
    if mode == "vector":
        return (offsets[:, 0] + r) * (2 * r + 1) + offsets[:, 1] + r
    bins = np.rint(np.sqrt((offsets * offsets).sum(axis=1))).astype(np.int64)
    if bins.max(initial=0) > r:
        raise ValueError(f"threshold {threshold} rounds a norm within it up to "
                         f"{bins.max()}, past the magnitude table's last bin {r}")
    return bins


@dataclass(eq=False)
class MotionPrior:
    """Distribution over the relative motion between consecutive frames.

    mode "vector" bins on the displacement (di, dj) itself; "magnitude" bins
    on the rounded Euclidean norm, splitting each bin's mass uniformly over
    the displacements that realize it.  Entries beyond the threshold are
    zero.  The table's rank says whether it is shared: one class's table
    (`_table_shape`) serves every class, and a table with one more, leading
    axis holds one row per previous frame's class (`per_class`).  `offsets`
    holds the displacements within the threshold (`motion_offsets`), `bins`
    the flat index of each one's bin in one class's table.
    """

    mode: str
    threshold: float
    table: np.ndarray
    offsets: np.ndarray = field(init=False, repr=False)
    bins: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode not in ("vector", "magnitude"):
            raise ValueError("mode must be 'vector' or 'magnitude'")
        _check_threshold(self.threshold)
        self.table = np.asarray(self.table, dtype=np.float64)
        want = _table_shape(self.mode, self.threshold)
        got = self.table.shape[1:] if self.per_class else self.table.shape
        if got != want:
            raise ValueError(f"table shape {got} does not match mode/threshold {want}")
        if self.per_class and not len(self.table):
            raise ValueError("n_classes must be >= 1: the per-class motion table has no rows")
        if np.any(self.table < 0):
            raise ValueError("motion table entries must be nonnegative")
        flat = self._flat()
        if not np.allclose(flat.sum(axis=-1), 1.0):
            raise ValueError("motion table must sum to 1 (per class)")
        self.offsets = motion_offsets(self.threshold)
        self.bins = _bins(self.mode, self.threshold, self.offsets)
        beyond = np.ones(flat.shape[-1], dtype=bool)
        beyond[self.bins] = False
        if np.any(flat[..., beyond] > 0):
            raise ValueError("motion table has mass beyond the threshold")

    @property
    def per_class(self) -> bool:
        """Whether the table has a leading class axis, one row per class."""
        return self.table.ndim > len(_table_shape(self.mode, self.threshold))

    def _flat(self) -> np.ndarray:
        """The table with one flat bin axis: (C?, bins)."""
        return self.table.reshape((len(self.table), -1) if self.per_class else -1)

    @property
    def radius(self) -> int:
        return int(math.floor(self.threshold))

    def weights(self) -> np.ndarray:
        """Per-displacement transition weights, (C?, B), over `offsets`.

        Vector bins hold one displacement each; magnitude bins split their
        mass over the displacements sharing the rounded norm.
        """
        return self._flat()[..., self.bins] / np.bincount(self.bins)[self.bins]


def uniform_motion(threshold: float = 3.0, mode: str = "vector",
                   n_classes: int | None = None) -> MotionPrior:
    """Uniform-over-bins motion prior within the threshold: one table shared
    by every class (n_classes None), or n_classes copies of it stacked on a
    leading class axis, conditioned on the previous frame's class."""
    _check_threshold(threshold)
    if n_classes is not None and n_classes < 1:
        raise ValueError(f"n_classes must be >= 1 (or None), got {n_classes}")
    table = np.zeros(_table_shape(mode, threshold))
    table.reshape(-1)[_bins(mode, threshold, motion_offsets(threshold))] = 1.0
    table = table / table.sum()
    if n_classes is not None:
        table = np.tile(table, (n_classes,) + (1,) * table.ndim)
    return MotionPrior(mode=mode, threshold=threshold, table=table)


def _check_classes(motion: MotionPrior, C: int) -> None:
    """Refuse a per-class motion table without one row per class."""
    if motion.per_class and motion.table.shape[0] != C:
        raise ValueError("per-class motion table does not match C")


@dataclass(eq=False)
class ThmmModel(_GaussianModel):
    """Class templates with variances, sensor noise, and factorized dynamics.

    mu (C, n), phi (C, n), psi (n,), pi_s (C, L) initial state probabilities,
    class_trans (C, C) rows p(c_t | c_{t-1}), motion prior over relative
    shifts.  The transformation set must be grid-structured.
    """

    transforms: TransformationSet
    mu: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    pi_s: np.ndarray
    class_trans: np.ndarray
    motion: MotionPrior

    _AXES = {"mu": "Cn", "phi": "Cn", "psi": "n", "pi_s": "CL", "class_trans": "CC"}
    _SUMS = {"pi_s": None, "class_trans": 1}

    def __post_init__(self):
        if self.transforms.grid is None:
            raise ValueError("THMM needs a grid-structured transformation set")
        super().__post_init__()
        _check_classes(self.motion, self.C)

    @property
    def wrap_motion(self) -> bool:
        return self.transforms.boundary == "wrap"


def init_thmm(transforms: TransformationSet, n_classes: int, frames,
              seed: int = 0, motion: MotionPrior | None = None,
              mean_noise: float = 0.05) -> ThmmModel:
    """Random-frame templates, uniform dynamics with a diagonal boost."""
    n, L = transforms.shape.n, transforms.L
    X = _frames(frames, n)
    mu, var = _starting_templates(np.random.default_rng(seed), X, n_classes,
                                  mean_noise)
    if motion is None:
        motion = uniform_motion(n_classes=n_classes)
    trans = np.full((n_classes, n_classes), 1.0 / n_classes)
    trans = trans + np.eye(n_classes)
    trans = trans / trans.sum(axis=1, keepdims=True)
    return ThmmModel(transforms=transforms, mu=mu,
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
        motion = uniform_motion(n_classes=C)
    mu, phi = model.mu.copy(), model.phi.copy()
    if align_gauge and model.transforms.grid is not None \
            and model.transforms.boundary == "wrap" and C > 1:
        shifts = wrap_shift_index(model.shape)
        ref = mu[int(np.argmax(model.pi))]
        ref_c = ref - ref.mean()
        for c in range(C):
            cand = mu[c][shifts]
            # row sums, so equal candidates score equally and the first wins
            score = ((cand - cand.mean(axis=1, keepdims=True)) * ref_c).sum(axis=1)
            best = shifts[np.argmax(score)]
            mu[c], phi[c] = mu[c][best], phi[c][best]
    trans = np.tile(model.pi, (C, 1)) + np.eye(C)
    trans = trans / trans.sum(axis=1, keepdims=True)
    pi_s = np.tile(model.pi[:, None], (1, L)) / L
    return ThmmModel(transforms=model.transforms, mu=mu, phi=phi,
                     psi=model.psi.copy(), pi_s=pi_s, class_trans=trans,
                     motion=motion)


def emission_loglik(model: ThmmModel, x) -> np.ndarray:
    """(C, L) table of log p(x | c, l); the per-frame TMG conditional."""
    x = _frame(x, model.n)
    return emission_table(model, x[None, :])[0]


def emission_table(model: ThmmModel, frames) -> np.ndarray:
    """(T, C, L) emission log-likelihood tables, C-contiguous: the component
    analyzers' emission kernel with no factors, over every class at once,
    whose table is (T, C, L) in memory, so this is a view of it."""
    table = _tca.cluster_loglik(model.transforms, model.mu, np.zeros((model.C, model.n, 0)),
                                model.phi, model.psi, _frames(frames, model.n))
    return table.transpose(0, 2, 1)


class _Dynamics:
    """Gather tables of the motion step for one model.

    The tables run over *moves*: displacements that alias on a small wrapped
    grid (+1 and -1 on a 2-wide torus, say) land on the same state and are
    merged into one move whose weight is their sum.  Move m carries state
    src[m, l] onto l and l onto dst[m, l]; log_into[c, m, l] and
    log_from[c, m, l] are its log weight under source class c, -inf where
    that source or target is off a zero-padded grid.  log_z[c, l] is the log
    weight of the moves that leave l and stay on the grid.  The forward pass
    reads move_w (C, 1, moves), each move's weight under source class c,
    and src_pos, src with L where the source is off the grid.

    `offsets`/`weights` keep one entry per raw displacement, since the motion
    M-step counts per displacement: `fold` maps displacement b to its move,
    and `share[c, b]` is b's fraction of that move's weight, the split of
    the move's expected count back onto b (exactly 1.0 for unmerged moves).
    """

    def __init__(self, model: ThmmModel):
        mv, mh = model.transforms.grid
        wrap = model.wrap_motion
        self.offsets = model.motion.offsets
        w = model.motion.weights()
        self.weights = np.broadcast_to(w, (model.C, w.shape[-1]))
        keys = self.offsets % (mv, mh) if wrap else self.offsets
        # merge aliasing displacements into moves, in order of first
        # appearance: fold[b] is the move of displacement b
        _, first, inverse = np.unique(keys, axis=0, return_index=True,
                                      return_inverse=True)
        rank = np.empty_like(first)
        rank[np.argsort(first)] = np.arange(len(first))
        self.fold = rank[inverse.reshape(-1)]
        moves = keys[np.sort(first)]
        move_w = np.zeros((model.C, len(moves)))
        np.add.at(move_w, (slice(None), self.fold), self.weights)
        per_b = move_w[:, self.fold]
        self.share = np.divide(self.weights, per_b, out=np.zeros_like(per_b),
                               where=per_b > 0)

        i, j = np.divmod(np.arange(mv * mh), mh)
        d = moves.T[:, :, None]
        with np.errstate(divide="ignore"):
            log_w = np.log(move_w)[:, :, None]

        def table(ti, tj):
            on_grid = wrap | ((ti >= 0) & (ti < mv) & (tj >= 0) & (tj < mh))
            return (ti % mv) * mh + tj % mh, on_grid, np.where(on_grid, log_w, -np.inf)

        self.src, into_grid, self.log_into = table(i - d[0], j - d[1])
        self.dst, _, self.log_from = table(i + d[0], j + d[1])
        # the forward pass's tables: each move's weight per source class,
        # (C, 1, moves), and its source position, len(i) (a -inf sentinel)
        # where the source is off the grid
        self.move_w = move_w[:, None, :]
        self.src_pos = np.where(into_grid, self.src, len(i))
        z = np.exp(self.log_from).sum(axis=1)
        if np.any(z <= 0):
            raise ValueError("motion prior leaves some state with no move")
        self.log_z = np.log(z)
        # flat index c L + src[m, l] of each move's source state
        self.state_src = self.src + len(i) * np.arange(model.C)[:, None, None]


class _Forward(NamedTuple):
    """The forward pass's tables, per frame t: log filtered state
    probabilities log_alpha (T, C, L); steps[t] = log p(x_t | x_<t); and
    log_pred (T, C, L), the log one-step prediction p(state at t | x_<t),
    log pi_s at t = 0."""

    loglik: float
    log_alpha: np.ndarray
    steps: np.ndarray
    log_pred: np.ndarray


def _shifted_exp(buf: np.ndarray, axis) -> np.ndarray:
    """Exponentiate `buf` in place relative to the largest term of each line
    along `axis`, every shifted term clamped at `CUT`; returns those largest
    terms (keepdims), -inf for a line of -inf terms only."""
    top = buf.max(axis=axis, keepdims=True)
    buf -= np.where(top > -np.inf, top, 0.0)
    np.maximum(buf, CUT, out=buf)
    np.exp(buf, out=buf)
    return top


def _class_step(M: np.ndarray, log_M: np.ndarray, logs: np.ndarray, lin: np.ndarray):
    """log(M @ exp(logs)) for (C, C) weights M and (C, L) log terms, as a
    product with a per-position shift: lin = exp(logs - top) clamped at
    `CUT`, top the best term of each position.  A position whose linear sum
    falls below `_LINEAR_FLOOR` for some row is recomputed from log_M in
    the log domain.  Returns (result, top, those positions or None)."""
    np.copyto(lin, logs)
    top = _shifted_exp(lin, 0)[0]
    s = M @ lin
    with np.errstate(divide="ignore"):
        out = np.log(s) + top
    if s.min() >= _LINEAR_FLOOR:
        return out, top, None
    low = np.flatnonzero(s.min(axis=0) < _LINEAR_FLOOR)
    out[:, low] = logsumexp(log_M[:, :, None] + logs[None, :, low], 1)
    return out, top, low


def _finite(x: np.ndarray) -> np.ndarray:
    """x with -inf entries 0, a shift that leaves -inf terms -inf."""
    return np.where(x > -np.inf, x, 0.0)


def _forward(model: ThmmModel, emis: np.ndarray, dyn: _Dynamics) -> _Forward:
    """Forward pass in the log domain, one shift per target position (see
    the module docstring).

    Every state keeps its exact log weight however far below the frame's
    best state it falls, so a later frame that can only be explained through
    it (a jump beyond the motion threshold, say) still scores exactly.
    """
    T, C, L = emis.shape
    At = model.class_trans.T
    log_alpha = np.empty((T, C, L))
    log_pred = np.empty((T, C, L))
    steps = np.empty(T)
    # each source position's best class, and the sentinel off-grid sources read
    best_src = np.full(L + 1, -np.inf)
    terms = np.empty(dyn.state_src.shape)
    joint = np.empty((C, L))
    with np.errstate(divide="ignore"):  # a zero weight or sum logs to -inf
        log_At = np.log(At)
        np.log(model.pi_s, out=log_pred[0])
        for t in range(T):
            if t > 0:
                a = log_alpha[t - 1] - dyn.log_z
                a.max(axis=0, out=best_src[:L])
                v = _cutexp(a - _finite(best_src[:L]), _FORWARD_CUT)
                near = best_src[dyn.src_pos]
                top = near.max(axis=0)
                f = _cutexp(near - _finite(top), _FORWARD_CUT)
                # the index is in range; "clip" spares take a checked copy
                np.take(v.reshape(-1), dyn.state_src, out=terms, mode="clip")
                terms *= f
                s = At @ np.matmul(dyn.move_w, terms)[:, 0]
                np.add(np.log(s), top, out=log_pred[t])
                if s.min() < _FORWARD_FLOOR:
                    low = np.flatnonzero((s.min(axis=0) < _FORWARD_FLOOR) & (top > -np.inf))
                    moved = logsumexp(np.take(a.reshape(-1), dyn.state_src[:, :, low])
                                      + dyn.log_into[:, :, low], 1)
                    log_pred[t][:, low] = logsumexp(log_At[:, :, None] + moved[None], 1)
            np.add(log_pred[t], emis[t], out=log_alpha[t])
            np.copyto(joint, log_alpha[t])
            best = _shifted_exp(joint, None)[0, 0]
            if not best > -np.inf:
                raise UnderflowError(f"zero total path probability at frame {t}")
            steps[t] = np.log(joint.sum()) + best
            log_alpha[t] -= steps[t]
    return _Forward(float(steps.sum()), log_alpha, steps, log_pred)


def _backward(model: ThmmModel, dyn: _Dynamics, fwd: _Forward, counts: bool = True):
    """Smoothing pass over the forward pass's tables: the recursion on
    gamma from the last frame back, over the positions that hold smoothed
    mass (see `forward_backward`).  Returns (gamma, xi_class, xi_moves),
    xi_moves (C, moves) per move of `dyn`; without `counts`, the two counts
    are None and are not formed (gamma has the same bits)."""
    T, C, L = fwd.log_alpha.shape
    A = model.class_trans
    gamma = np.zeros((T, C, L))
    log_gamma = fwd.log_alpha[T - 1]
    np.exp(log_gamma, out=gamma[T - 1])
    xi_class = np.zeros((C, C)) if counts else None
    xi_moves = np.zeros(dyn.log_into.shape[:2]) if counts else None
    # sums of lifted terms times `drop` are unlifted
    drop = math.exp(-_LIFT)
    over_moves = np.full(dyn.log_into.shape[1], drop)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_A = np.log(A)
        for t in range(T - 2, -1, -1):
            # the support: positions where some class's log gamma at t + 1
            # is above the cut, a slice when they are one run
            keep = np.flatnonzero(log_gamma.max(axis=0) > _SUPPORT_CUT)
            cols = slice(keep[0], keep[-1] + 1) if keep[-1] - keep[0] < len(keep) else keep
            # log gamma / pred of each target state (-inf where both are
            # -inf), and back = log sum_c' A[c, c'] gamma[c', p] / pred[c', p]
            ratio = np.fmax(log_gamma[:, cols] - fwd.log_pred[t + 1][:, cols], -np.inf)
            lin = np.empty(ratio.shape)
            back, top, low = _class_step(A, log_A, ratio, lin)
            # the posterior of each move into the support, at most 1: the
            # source's alpha, the move's weight and the target's back term,
            # lifted by e^_LIFT; less e^CUT, so that a term at or below it
            # (and every -inf) is exactly 0
            src = dyn.state_src[:, :, cols]
            terms = np.take((fwd.log_alpha[t] - dyn.log_z).reshape(-1), src, mode="clip")
            terms += dyn.log_into[:, :, cols]
            terms += (back + _LIFT)[:, None, :]
            np.maximum(terms, CUT, out=terms)
            lifted = np.exp(terms, out=terms)
            lifted -= _EXP_CUT
            mass = np.bincount(src.reshape(-1), lifted.reshape(-1),
                               minlength=C * L).reshape(C, L)
            np.multiply(mass, drop, out=gamma[t])
            log_gamma = np.log(mass) - _LIFT
            if not counts:
                continue
            xi_moves += lifted @ np.full(len(keep), drop)
            # class counts: the mass each (c, p) hands on, split over the
            # target classes c' in proportion to A[c, c'] lin[c', p] / s[c, p],
            # s = exp(back - top) the class step's sums; in the log domain at
            # the positions where it summed in the log domain
            handed = over_moves @ lifted
            gap = top - back
            if low is not None:
                split = (log_A[:, :, None] + ratio[None, :, low]
                         - np.where(back[:, low] > -np.inf, back[:, low], 0.0)[:, None])
                xi_class += np.einsum("cp,cdp->cd", handed[:, low], _cutexp(split))
                handed[:, low] = 0.0
                gap[:, low] = 0.0
            handed *= np.exp(gap)
            lin[lin <= _EXP_CUT] = 0.0     # the class step's clamped terms
            xi_class += A * (handed @ lin.T)
    return gamma, xi_class, xi_moves


def forward_backward(model: ThmmModel, frames) -> SequencePosterior:
    """Exact smoothed marginals, transition statistics and sequence
    log-likelihood under the factorized transition.

    Both passes stay in the log domain (see the module docstring): the
    forward pass shifts each target position by its best source and sums
    linearly, the smoothing pass recurses on gamma over the positions that
    hold smoothed mass.  Its exponentiated terms give gamma (scattered onto
    their source states), the expected move counts (summed per move) and the
    class counts (each target's mass split over the target classes by the
    class step's exponentials; positions the class step recomputes in the
    log domain split in the log domain too).

    Bound: the forward pass's log prediction is exact to its rounding (see
    the module docstring).  Gamma and every expected count can differ from
    the exact sums by less than T C (B + 1) L e^-800 in absolute terms, B
    the moves.  A position outside a frame's support holds less than
    C e^-800 of gamma, and every term is lowered by e^-800 (so that one at
    or below it is exactly 0); the recursion splits each target's mass over
    its sources with weights that sum to 1, so it passes such a change on
    without growing it.  For T C (B + 1) L below 10^24 the bound is below 2^-1074,
    the least subnormal.  The class counts also carry the smoothing pass's
    class step, whose exponentials are clamped at e^-700 of each position's
    best: less than C e^-100 of each position's posterior mass per frame,
    under rounding.
    """
    X = _frames(frames, model.n)
    return _smoothed(model, emission_table(model, X), _Dynamics(model))


def _smoothed(model: ThmmModel, emis: np.ndarray, dyn: _Dynamics) -> SequencePosterior:
    """`forward_backward` over a sequence's emission table and dynamics."""
    fwd = _forward(model, emis, dyn)
    gamma, xi_class, xi_moves = _backward(model, dyn, fwd)
    xi_bins = _pool_motion(model.motion, xi_moves[:, dyn.fold] * dyn.share)
    return SequencePosterior(gamma=gamma, xi_class=xi_class,
                             xi_motion=xi_bins, loglik=fwd.loglik)


def _pool_motion(motion: MotionPrior, counts: np.ndarray) -> np.ndarray:
    """Pool per-displacement expected counts (C, B) into the motion table's
    bins, each bin summing its displacements in order."""
    if not motion.per_class:
        # per displacement, its column's sum over classes (a contiguous row
        # sums in the same order as the column)
        counts = np.ascontiguousarray(counts.T).sum(axis=1)[None]
    pooled = np.zeros((len(counts), motion._flat().shape[-1]))
    np.add.at(pooled, (slice(None), motion.bins), counts)
    return pooled.reshape(motion.table.shape)


def score_sequence(model: ThmmModel, frames) -> float:
    """log p(x_1..T): the forward-pass likelihood, exact and deterministic."""
    X = _frames(frames, model.n)
    emis = emission_table(model, X)
    return _forward(model, emis, _Dynamics(model)).loglik


def viterbi(model: ThmmModel, frames) -> np.ndarray:
    """MAP state path as (T, 2) (class, op) indices; among tied candidates
    the smallest lumped index c * L + l wins."""
    X = _frames(frames, model.n)
    return _viterbi(model, emission_table(model, X), _Dynamics(model))


def _viterbi(model: ThmmModel, emis: np.ndarray, dyn: _Dynamics) -> np.ndarray:
    """`viterbi` over a sequence's emission table and dynamics."""
    T, C, L = emis.shape
    with np.errstate(divide="ignore"):
        log_trans = np.log(model.class_trans)[:, :, None]
        v = np.log(model.pi_s) + emis[0]
    back = np.empty((T, C, L), dtype=np.int64)
    for t in range(1, T):
        # best move into each position per source class (ties: smallest
        # source position), then the best source class (ties: smallest c)
        cand = np.take(v - dyn.log_z, dyn.src, axis=1) + dyn.log_into
        best = cand.max(axis=1)
        pos = np.where(cand == best[:, None], dyn.src, L).min(axis=1)
        scored = log_trans + best[:, None, :]
        cls = scored.argmax(axis=0)
        back[t] = cls * L + np.take_along_axis(pos, cls, axis=0)
        v = scored.max(axis=0) + emis[t]

    last = int(v.argmax())
    path = np.empty((T, 2), dtype=np.int64)
    for t in range(T - 1, -1, -1):
        path[t] = divmod(last, L)
        if t > 0:
            last = int(back[t].reshape(-1)[last])
    return path


def _seq_list(frames, n: int) -> list[np.ndarray]:
    if isinstance(frames, np.ndarray) and frames.ndim == 2:
        frames = [frames]
    seqs = [_frames(f, n) for f in frames]
    if not seqs:
        raise ValueError("no sequences: the list is empty")
    return seqs


def _em_step_full(model: ThmmModel, sequences, options: EmOptions):
    seqs = _seq_list(sequences, model.n)
    C, L = model.C, model.L
    total = 0.0
    gamma_first = np.zeros((C, L))
    xi_class = np.zeros((C, C))
    xi_motion = np.zeros_like(model.motion.table, dtype=np.float64)
    gammas = []
    for X in seqs:
        post = forward_backward(model, X)
        total += post.loglik
        gamma_first += post.gamma[0]
        xi_class += post.xi_class
        xi_motion += post.xi_motion
        gammas.append(post.gamma)

    all_frames = np.concatenate(seqs, axis=0)
    s_psi, mass, rescued, mu, _, phi = _cluster_mstep(
        model.transforms, model.mu, np.zeros((C, model.n, 0)), model.phi,
        model.psi, all_frames, np.concatenate(gammas, axis=0).transpose(0, 2, 1))

    # dynamics: initial states are the class marginal times a uniform position
    class_marg = gamma_first.sum(axis=1)
    class_marg = class_marg / class_marg.sum()
    pi_s = np.tile(class_marg[:, None], (1, L)) / L
    phi, psi, pi_s = _mstep_tail(all_frames, options, s_psi, rescued, mu, phi, pi_s)
    tiny = 1e-12
    trans = xi_class + tiny
    if rescued:
        trans[list(rescued), :] = 1.0
        trans[:, list(rescued)] += tiny
    class_trans = trans / trans.sum(axis=1, keepdims=True)

    motion = model.motion
    if options.clamp_motion is not None:
        motion = replace(motion, table=np.asarray(options.clamp_motion, dtype=np.float64))
        _check_classes(motion, C)
    else:
        # smoothing mass only on the bins within the threshold, then each
        # class's row (or the shared table) normalised over its bins
        pooled = xi_motion.reshape(motion._flat().shape)
        pooled = pooled + tiny * (np.bincount(motion.bins, minlength=pooled.shape[-1]) > 0)
        table = pooled / pooled.sum(axis=-1, keepdims=True)
        motion = replace(motion, table=table.reshape(motion.table.shape))

    new = _record(ThmmModel, transforms=model.transforms, mu=mu, phi=phi, psi=psi,
                  pi_s=pi_s, class_trans=class_trans, motion=motion)
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


def _map_states(model: ThmmModel, frames, use_viterbi: bool, smoothed: bool = False):
    """(X, states, gamma): each frame's (class, op) from the Viterbi path or
    the smoothed marginals, and those marginals when they were formed
    (always, with `smoothed`), else None.  The emission table and the
    dynamics are built once for both; the transition counts are not formed."""
    X = _frames(frames, model.n)
    emis, dyn = emission_table(model, X), _Dynamics(model)
    gamma = None
    if smoothed or not use_viterbi:
        gamma = _backward(model, dyn, _forward(model, emis, dyn), counts=False)[0]
    if use_viterbi:
        return X, _viterbi(model, emis, dyn), gamma
    best = gamma.reshape(X.shape[0], -1).argmax(axis=1)
    return X, np.stack(np.divmod(best, model.L), axis=1), gamma


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
    c, l = states.T
    latent = model.mu[c] if mode == "hard" else _latent_means(model, X, c, l)
    return np.take_along_axis(_padded(latent, axis=1),
                              model.transforms.source_matrix[l], axis=1)


def stabilize(model: ThmmModel, frames, use_viterbi: bool = False) -> np.ndarray:
    """Posterior-mean latent images per frame: the tracked object appears
    registered in the latent coordinate frame."""
    X, states, _ = _map_states(model, frames, use_viterbi)
    return _latent_means(model, X, *states.T)


def _latent_means(model: ThmmModel, X, c, l) -> np.ndarray:
    """(T, n) posterior-mean latent images, frame t given state (c[t], l[t])."""
    return _latent_posterior(model.transforms.dest_matrix[l], model.mu[c],
                             model.phi[c], model.psi, X)[0]


def track(model: ThmmModel, frames, use_viterbi: bool = False):
    """Per-frame (class, di, dj, log-margin) from the smoothed-MAP states
    (or the Viterbi path), decoded through the shift grid."""
    X, states, gamma = _map_states(model, frames, use_viterbi, smoothed=True)
    T = X.shape[0]
    flat = gamma.reshape(T, -1)
    order = np.sort(flat, axis=1)
    with np.errstate(divide="ignore"):
        margin = np.log(order[:, -1]) - np.log(order[:, -2]) if flat.shape[1] > 1 \
            else np.full(T, np.inf)
    offsets = model.transforms.grid_offsets()[states[:, 1]]
    return np.column_stack([states[:, 0], offsets, margin])


def sample_sequence(model: ThmmModel, length: int, seed):
    """Generate frames and their (class, op) states; deterministic per seed."""
    rng = np.random.default_rng(seed)
    dyn = _Dynamics(model)
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
            # displacement b is feasible where its move leaves l on the grid
            w = np.where(dyn.log_from[c, dyn.fold, l] > -np.inf, dyn.weights[c], 0.0)
            b = rng.choice(len(w), p=w / w.sum())
            c = rng.choice(model.C, p=model.class_trans[c])
            l = dyn.dst[dyn.fold[b], l]
    return frames, states
