"""Reference computations that share no code with `transmix`.

Each function rebuilds what it checks from the model's parameters alone:
transformation matrices from the op parameters, dense Gaussian densities,
the THMM transition matrix from `class_trans` and the motion table, and
shifted templates with `np.roll`.  Only numpy and scipy are used.
"""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

_LOG2PI = np.log(2.0 * np.pi)


class CheckFailed(AssertionError):
    """A benchmark output disagrees with its reference or quality gate."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(got: float, want: float, rel: float, what: str) -> None:
    err = abs(got - want)
    require(np.isfinite(got) and err <= rel * max(1.0, abs(want)),
            f"{what}: got {got!r}, reference {want!r} (|diff| {err:.3g})")


def shift_matrix(h: int, w: int, di: int, dj: int, wrap: bool) -> np.ndarray:
    """Dense G moving content down `di` rows and right `dj` columns."""
    G = np.zeros((h * w, h * w))
    for r in range(h):
        for c in range(w):
            sr, sc = r - di, c - dj
            if wrap:
                sr, sc = sr % h, sc % w
            elif not (0 <= sr < h and 0 <= sc < w):
                continue
            G[r * w + c, sr * w + sc] = 1.0
    return G


def shear_matrix(h: int, w: int, factor: float, t: int, wrap: bool) -> np.ndarray:
    """Dense G for a horizontal shear by round(factor * (row - center)) then
    a shift by `t` columns, nearest-neighbour."""
    G = np.zeros((h * w, h * w))
    center = (h - 1) / 2.0
    for r in range(h):
        k = int(np.rint(factor * (r - center)))
        for c in range(w):
            sc = c - k - t
            if wrap:
                sc %= w
            elif not 0 <= sc < w:
                continue
            G[r * w + c, r * w + sc] = 1.0
    return G


def dense_ops(transforms) -> list[np.ndarray]:
    """Dense matrices of a transformation set, rebuilt from its parameters."""
    h, w = transforms.shape.height, transforms.shape.width
    wrap = transforms.boundary == "wrap"
    if transforms.kind == "shear":
        return [shear_matrix(h, w, s, int(t), wrap) for s, t in transforms.params]
    if transforms.kind == "translate":
        return [shift_matrix(h, w, int(di), int(dj), wrap)
                for di, dj in transforms.params]
    raise ValueError(f"no dense rebuild for kind {transforms.kind!r}")


def gaussian_logpdf(x, mean, cov) -> float:
    chol = np.linalg.cholesky(cov)
    z = np.linalg.solve(chol, x - mean)
    return float(-0.5 * (x.size * _LOG2PI + z @ z)
                 - np.log(np.diag(chol)).sum())


def tmg_logp(model, x, ops) -> float:
    """log p(x) of a TMG with every G diag(phi) G^T + diag(psi) dense."""
    terms = []
    with np.errstate(divide="ignore"):
        for l, G in enumerate(ops):
            for c in range(model.pi.size):
                cov = G @ np.diag(model.phi[c]) @ G.T + np.diag(model.psi)
                terms.append(np.log(model.pi[c]) + np.log(model.rho[l, c])
                             + gaussian_logpdf(x, G @ model.mu[c], cov))
    return float(logsumexp(terms))


def tca_logp(model, x, ops) -> float:
    """log p(x) of a TCA (exact likelihood) with dense covariances
    G (W W^T + diag(phi)) G^T + diag(psi)."""
    latent = model.loadings @ model.loadings.T + np.diag(model.phi)
    terms = []
    with np.errstate(divide="ignore"):
        for l, G in enumerate(ops):
            cov = G @ latent @ G.T + np.diag(model.psi)
            terms.append(np.log(model.rho[l])
                         + gaussian_logpdf(x, G @ model.mu, cov))
    return float(logsumexp(terms))


def grid_shifts(grid) -> list[tuple[int, int]]:
    """Signed (di, dj) of op l = i * Mh + j on a centred shift grid."""
    mv, mh = grid
    return [(i - mv // 2, j - mh // 2) for i in range(mv) for j in range(mh)]


def rolled_loglik(mu, phi, psi, X, shape, shifts) -> np.ndarray:
    """(T, L, C) table of log N(x_t; roll(mu_c), roll(phi_c) + psi) for
    wrap shifts, built with np.roll."""
    h, w = shape
    C = mu.shape[0]
    out = np.empty((X.shape[0], len(shifts), C))
    for c in range(C):
        m2, v2 = mu[c].reshape(h, w), phi[c].reshape(h, w)
        for l, (di, dj) in enumerate(shifts):
            mean = np.roll(m2, (di, dj), axis=(0, 1)).reshape(-1)
            var = np.roll(v2, (di, dj), axis=(0, 1)).reshape(-1) + psi
            quad = ((X - mean) ** 2 / var).sum(axis=1)
            out[:, l, c] = -0.5 * (quad + np.log(var).sum() + X.shape[1] * _LOG2PI)
    return out


def soft_denoise_frame(mu, phi, psi, x, shape, shift) -> np.ndarray:
    """G E[z | x, l] for one wrap shift: the latent posterior mean
    (mu / phi + G^T(x / psi)) / (1 / phi + G^T(1 / psi)), moved back by G.
    G is np.roll by the shift, G^T np.roll by its negative."""
    h, w = shape
    di, dj = shift

    def back(v):
        return np.roll(v.reshape(h, w), (-di, -dj), axis=(0, 1)).reshape(-1)

    mean = (mu / phi + back(x / psi)) / (1.0 / phi + back(1.0 / psi))
    return np.roll(mean.reshape(h, w), (di, dj), axis=(0, 1)).reshape(-1)


def thmm_transition(model) -> np.ndarray:
    """(C*L, C*L) transition matrix of a vector-mode THMM on a shift grid,
    from `class_trans` and the per-class motion table: the class chain times
    the motion kernel of the previous class, normalised over the moves that
    stay on the grid.  Index c * L + l."""
    motion = model.motion
    if motion.mode != "vector":
        raise ValueError("the reference covers vector motion tables only")
    C, (mv, mh) = model.class_trans.shape[0], model.transforms.grid
    L = mv * mh
    tables = motion.table if motion.per_class else np.repeat(
        motion.table[None], C, axis=0)
    r = tables.shape[-1] // 2
    wrap = model.transforms.boundary == "wrap"
    A = np.zeros((C * L, C * L))
    for c in range(C):
        for i in range(mv):
            for j in range(mh):
                row = np.zeros(L)
                for a in range(2 * r + 1):
                    for b in range(2 * r + 1):
                        i2, j2 = i + a - r, j + b - r
                        if wrap:
                            i2, j2 = i2 % mv, j2 % mh
                        elif not (0 <= i2 < mv and 0 <= j2 < mh):
                            continue
                        row[i2 * mh + j2] += tables[c, a, b]
                row /= row.sum()
                l = i * mh + j
                for c2 in range(C):
                    A[c * L + l, c2 * L:(c2 + 1) * L] = model.class_trans[c, c2] * row
    return A


def thmm_forward(model, frames, A=None) -> float:
    """log p(x_1..T) by a forward pass done wholly in the log domain:
    log alpha_t(j) = logsumexp_i(log alpha_{t-1}(i) + log A_ij) + log e_t(j),
    taken over the nonzero entries of each column of the dense matrix."""
    h, w = model.shape.height, model.shape.width
    emis = rolled_loglik(model.mu, model.phi, model.psi, frames, (h, w),
                         grid_shifts(model.transforms.grid))
    T, L, C = emis.shape
    emis = emis.transpose(0, 2, 1).reshape(T, C * L)
    if A is None:
        A = thmm_transition(model)
    nonzero = [np.flatnonzero(A[:, j]) for j in range(A.shape[1])]
    width = max(len(rows) for rows in nonzero)
    src = np.zeros((A.shape[1], width), dtype=np.int64)
    log_w = np.full((A.shape[1], width), -np.inf)
    for j, rows in enumerate(nonzero):
        src[j, :len(rows)] = rows
        log_w[j, :len(rows)] = np.log(A[rows, j])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_alpha = np.log(model.pi_s.reshape(-1)) + emis[0]
        for t in range(1, T):
            log_alpha = logsumexp(log_alpha[src] + log_w, axis=1) + emis[t]
        return float(logsumexp(log_alpha))


def monotone(logliks, what: str, rel: float = 2e-9) -> None:
    """Exact EM never lowers the log-likelihood from one step to the next."""
    ll = np.asarray(logliks, dtype=np.float64)
    drops = ll[:-1] - ll[1:] - rel * np.abs(ll[:-1])
    require(ll.size >= 1 and bool(np.all(drops <= 0)),
            f"{what}: EM log-likelihood decreased: {ll.tolist()}")


def gauge_agreement(pred, true, wrap: int) -> float:
    """Share of rows whose (di, dj) equals the truth up to the one constant
    offset (mod `wrap`) that matches most rows."""
    diff = (np.asarray(pred, dtype=np.int64) - np.asarray(true, dtype=np.int64)) % wrap
    _, counts = np.unique(diff, axis=0, return_counts=True)
    return float(counts.max() / diff.shape[0])


def purity_error(assign, labels) -> float:
    """1 - share of items that carry their cluster's majority label."""
    assign, labels = np.asarray(assign), np.asarray(labels)
    hits = sum(np.bincount(labels[assign == k]).max() for k in np.unique(assign))
    return 1.0 - hits / labels.size
