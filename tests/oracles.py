"""Independent brute-force oracles the tests check the library against.

Everything here works with dense matrices, explicit enumeration or
quadrature, deliberately avoiding the library's fast paths.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import logsumexp
from scipy.stats import multivariate_normal


def dense_matrix(op) -> np.ndarray:
    """Dense n x n matrix of a generalized-permutation op, from first
    principles: row p has a single 1 in column source_index[p]."""
    n = op.shape.n
    g = np.zeros((n, n))
    for p, q in enumerate(op.source_index):
        if q >= 0:
            g[p, q] = 1.0
    return g


def shift_index(h, w, di, dj, wrap) -> list[int]:
    """Per output pixel, the source pixel of a shift moving content down
    `di` rows and right `dj` columns, -1 where a zero-padded shift reads
    outside the image."""
    out = []
    for r in range(h):
        for c in range(w):
            sr, sc = r - di, c - dj
            if wrap:
                out.append((sr % h) * w + sc % w)
            elif 0 <= sr < h and 0 <= sc < w:
                out.append(sr * w + sc)
            else:
                out.append(-1)
    return out


def shear_index(h, w, factor, t, wrap) -> list[int]:
    """Per output pixel, the source pixel of a horizontal shear of row r by
    round(factor * (r - (h - 1) / 2)), ties to even, then a shift by `t`
    columns; -1 where a zero-padded op reads outside the row."""
    out = []
    for r in range(h):
        k = round(factor * (r - (h - 1) / 2))
        for c in range(w):
            sc = c - k - t
            if wrap:
                out.append(r * w + sc % w)
            elif 0 <= sc < w:
                out.append(r * w + sc)
            else:
                out.append(-1)
    return out


def dest_table(rows, n):
    """The destination table of index rows: each row sends input pixel q to
    the output pixel that reads it, -1 when none does."""
    dest = []
    for row in rows:
        inverse = [-1] * n
        for p, q in enumerate(row):
            if q >= 0:
                inverse[q] = p
        dest.append(inverse)
    return dest


def gauss_logpdf(x, mean, cov) -> float:
    return float(multivariate_normal(mean=mean, cov=cov, allow_singular=False).logpdf(x))


def tmg_cond_dense(model, x, l, c) -> float:
    g = dense_matrix(model.transforms[l])
    cov = g @ np.diag(model.phi[c]) @ g.T + np.diag(model.psi)
    return gauss_logpdf(x, g @ model.mu[c], cov)


def tmg_loglik_dense(model, x) -> float:
    terms = [tmg_cond_dense(model, x, l, c)
             + np.log(model.rho[l, c]) + np.log(model.pi[c])
             for l in range(model.L) for c in range(model.C)]
    return float(logsumexp(terms))


def _tca_cov_dense(g, loadings, phi, psi, fast):
    b = loadings @ loadings.T + np.diag(phi)
    cov = g @ b @ g.T
    if not fast:
        cov = cov + np.diag(psi)
    return cov


def tca_cond_dense(model, x, l, fast=None) -> float:
    fast = model.fast_likelihood if fast is None else fast
    g = dense_matrix(model.transforms[l])
    cov = _tca_cov_dense(g, model.loadings, model.phi, model.psi, fast)
    return gauss_logpdf(x, g @ model.mu, cov)


def tca_loglik_dense(model, x, fast=None) -> float:
    terms = [tca_cond_dense(model, x, l, fast) + np.log(model.rho[l])
             for l in range(model.L)]
    return float(logsumexp(terms))


def mtca_cond_dense(model, x, l, c, fast=None) -> float:
    fast = model.fast_likelihood if fast is None else fast
    g = dense_matrix(model.transforms[l])
    cov = _tca_cov_dense(g, model.loadings[c], model.phi[c], model.psi, fast)
    return gauss_logpdf(x, g @ model.mu[c], cov)


def mtca_loglik_dense(model, x, fast=None) -> float:
    terms = [mtca_cond_dense(model, x, l, c, fast)
             + np.log(model.rho[l, c]) + np.log(model.pi[c])
             for l in range(model.L) for c in range(model.C)]
    return float(logsumexp(terms))


def tmg_resp_quadrature(model, x, z_lo=-4.0, z_hi=6.0, points=41):
    """Joint responsibilities by grid quadrature of the full joint over z.

    Integrates N(x; G z, Psi) N(z; mu_c, Phi_c) on a per-pixel grid; feasible
    because the integrand factorizes per latent pixel once (l, c) is fixed.
    """
    n = model.n
    grid = np.linspace(z_lo, z_hi, points)
    dz = grid[1] - grid[0]
    log_mass = np.empty((model.L, model.C))
    for l in range(model.L):
        op = model.transforms[l]
        g = dense_matrix(op)
        for c in range(model.C):
            # per-latent-pixel factor: prod_q int N(z_q; mu, phi) *
            # prod_{p: src_p = q} N(x_p; z_q, psi_p) dz_q; VOID rows add a
            # z-free Gaussian factor.
            total = 0.0
            for q in range(n):
                rows = np.nonzero(g[:, q])[0]
                log_f = (-0.5 * (grid - model.mu[c][q]) ** 2 / model.phi[c][q]
                         - 0.5 * np.log(2 * np.pi * model.phi[c][q]))
                for p in rows:
                    log_f = log_f + (-0.5 * (x[p] - grid) ** 2 / model.psi[p]
                                     - 0.5 * np.log(2 * np.pi * model.psi[p]))
                total += logsumexp(log_f) + np.log(dz)
            void_rows = np.nonzero(g.sum(axis=1) == 0)[0]
            for p in void_rows:
                total += (-0.5 * x[p] ** 2 / model.psi[p]
                          - 0.5 * np.log(2 * np.pi * model.psi[p]))
            log_mass[l, c] = total + np.log(model.rho[l, c]) + np.log(model.pi[c])
    return np.exp(log_mass - logsumexp(log_mass))


def joint_zy_conditioning(g, mu, loadings, phi, psi, x):
    """Posterior of (z, y) given x by dense block-Gaussian conditioning.
    x is one image (n,) or a stack (T, n); the mean has one row per image,
    and the covariance, which does not depend on x, is shared."""
    n, k = loadings.shape
    mean_joint = np.concatenate([mu, np.zeros(k)])
    cov_zz = loadings @ loadings.T + np.diag(phi)
    cov_zy = loadings
    cov_joint = np.block([[cov_zz, cov_zy], [cov_zy.T, np.eye(k)]])
    a = np.hstack([g, np.zeros((n, k))])  # x = A [z; y] + noise(psi)
    cov_x = a @ cov_joint @ a.T + np.diag(psi)
    cross = cov_joint @ a.T
    gain = cross @ np.linalg.inv(cov_x)
    mean_post = mean_joint + (x - a @ mean_joint) @ gain.T
    cov_post = cov_joint - gain @ cross.T
    return mean_post, cov_post


def hmm_enumerate(pi_s, trans, log_emit):
    """Exhaustive path sum for a lumped-state HMM.

    pi_s (S,), trans (S, S), log_emit (T, S).  Returns (loglik, gamma (T,S),
    xi (S,S) summed over time, best path, best path logprob).
    """
    t_len, s_len = log_emit.shape
    with np.errstate(divide="ignore"):
        log_pi = np.log(pi_s)
        log_a = np.log(trans)
    paths = list(itertools.product(range(s_len), repeat=t_len))
    scores = np.empty(len(paths))
    for idx, path in enumerate(paths):
        s = log_pi[path[0]] + log_emit[0, path[0]]
        for t in range(1, t_len):
            s += log_a[path[t - 1], path[t]] + log_emit[t, path[t]]
        scores[idx] = s
    loglik = float(logsumexp(scores))
    post = np.exp(scores - loglik)
    gamma = np.zeros((t_len, s_len))
    xi = np.zeros((s_len, s_len))
    for idx, path in enumerate(paths):
        for t, s in enumerate(path):
            gamma[t, s] += post[idx]
        for t in range(1, t_len):
            xi[path[t - 1], path[t]] += post[idx]
    best = int(np.argmax(scores))
    return loglik, gamma, xi, np.array(paths[best]), float(scores[best])


def principal_angle_deg(a, b) -> float:
    """Largest principal angle between the column spans of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    sv = np.linalg.svd(qa.T @ qb, compute_uv=False)
    sv = np.clip(sv, -1.0, 1.0)
    return float(np.degrees(np.arccos(sv.min())))


def template_stats_dense(transforms, mu, loadings, phi, psi, X, W):
    """M-step sums of `gaussian_template_stats` by dense joint conditioning
    of (z, y) on every datum given each op with `joint_zy_conditioning`.

    Returns (mass, s_z, s_zz, s_y, s_yy, s_zy, s_psi): the W-weighted sums
    of E[z], E[z]^2 + Var[z], E[y], E[y] E[y]^T + Cov[y], E[z] E[y]^T +
    Cov[z, y] and (x - G E[z])^2 + diag(G Cov[z] G^T).
    """
    X, W = np.atleast_2d(X), np.atleast_2d(W)
    n, k = loadings.shape
    mass, s_z, s_zz, s_psi = 0.0, np.zeros(n), np.zeros(n), np.zeros(n)
    s_y, s_yy, s_zy = np.zeros(k), np.zeros((k, k)), np.zeros((n, k))
    for l, op in enumerate(transforms):
        g = dense_matrix(op)
        means, cov = joint_zy_conditioning(g, mu, loadings, phi, psi, X)
        seen_var = np.diag(g @ cov[:n, :n] @ g.T)
        for t, x in enumerate(X):
            w = W[t, l]
            z, y = means[t, :n], means[t, n:]
            mass += w
            s_z += w * z
            s_zz += w * (z ** 2 + np.diag(cov)[:n])
            s_y += w * y
            s_yy += w * (np.outer(y, y) + cov[n:, n:])
            s_zy += w * (np.outer(z, y) + cov[:n, n:])
            s_psi += w * ((x - g @ z) ** 2 + seen_var)
    return mass, s_z, s_zz, s_y, s_yy, s_zy, s_psi


def hmm_forward_logdomain(pi_s, trans, log_emit) -> float:
    """log p(x_1..T) of a lumped-state HMM by a dense forward pass kept in
    the log domain throughout.  pi_s (S,), trans (S, S), log_emit (T, S)."""
    with np.errstate(divide="ignore"):
        log_a = np.log(trans)
        log_alpha = np.log(pi_s) + log_emit[0]
    for t in range(1, log_emit.shape[0]):
        log_alpha = logsumexp(log_alpha[:, None] + log_a, axis=0) + log_emit[t]
    return float(logsumexp(log_alpha))


def hmm_viterbi_dense(pi_s, trans, log_emit) -> float:
    """Best-path log probability of a lumped-state HMM by a dense
    max-product recursion.  pi_s (S,), trans (S, S), log_emit (T, S)."""
    with np.errstate(divide="ignore"):
        log_a = np.log(trans)
        v = np.log(pi_s) + log_emit[0]
    for t in range(1, log_emit.shape[0]):
        v = (v[:, None] + log_a).max(axis=0) + log_emit[t]
    return float(v.max())


def dense_transition(model) -> np.ndarray:
    """(C*L, C*L) transition matrix of a THMM materialized from its
    factorization, through the motion step's gather tables
    (`thmm._Dynamics`).  Row/column order is the lumped index c * L + l."""
    from transmix.thmm import _Dynamics

    dyn = _Dynamics(model)
    C, L = model.C, model.L
    motion = np.zeros((C, L, L))
    np.add.at(motion, (np.arange(C)[:, None, None], np.arange(L), dyn.dst),
              np.exp(dyn.log_from - dyn.log_z[:, None, :]))
    out = model.class_trans[:, None, :, None] * motion[:, :, None, :]
    return out.reshape(C * L, C * L)


def thmm_forward_reference(pi_s, class_trans, dyn, emis):
    """The THMM forward pass frame by frame in the log domain, every sum an
    uncut log-sum-exp.  dyn holds the motion step's gather tables
    (`thmm._Dynamics`), emis (T, C, L) the emission table.  Returns
    (log_alpha, moved, steps, log_pred): log filtered state probabilities,
    the log mass each class carries into each position before the class
    step (moved[0] is -inf), steps[t] = log p(x_t | x_<t) and the log
    one-step prediction p(state at t | x_<t) (log pi_s at t = 0)."""
    T, C, L = emis.shape
    log_pred = np.empty((T, C, L))
    with np.errstate(divide="ignore"):
        log_trans = np.log(class_trans)[:, :, None]
        log_pred[0] = np.log(pi_s)
    log_alpha = np.empty((T, C, L))
    moved = np.full((T, C, L), -np.inf)
    steps = np.empty(T)
    for t in range(T):
        if t > 0:
            with np.errstate(divide="ignore"):  # an all -inf sum logs to -inf
                moved[t] = logsumexp(np.take(log_alpha[t - 1] - dyn.log_z, dyn.src, axis=1)
                                     + dyn.log_into, axis=1)
                log_pred[t] = logsumexp(log_trans + moved[t][:, None, :], axis=0)
        joint = log_pred[t] + emis[t]
        steps[t] = logsumexp(joint)
        log_alpha[t] = joint - steps[t]
    return log_alpha, moved, steps, log_pred


def thmm_backward_reference(class_trans, dyn, emis, log_alpha, moved, steps):
    """The THMM backward pass frame by frame in the log domain over
    `thmm_forward_reference`'s tables.  Returns (gamma (T, C, L), xi_class
    (C, C), xi_moves (C, moves)): each expected count is a sum of exp(log
    posterior) terms, uncut."""
    T, C, L = emis.shape
    with np.errstate(divide="ignore"):
        log_trans = np.log(class_trans)[:, :, None]
    gamma = np.empty((T, C, L))
    gamma[T - 1] = np.exp(log_alpha[T - 1])
    xi_class = np.zeros((C, C))
    xi_moves = np.zeros(dyn.log_from.shape[:2])
    log_beta = np.zeros((C, L))
    for t in range(T - 2, -1, -1):
        ahead = emis[t + 1] + log_beta - steps[t + 1]
        with np.errstate(divide="ignore"):
            back = logsumexp(log_trans + ahead[None], axis=1)
        xi_class += np.exp(log_trans + moved[t + 1][:, None, :] + ahead[None]).sum(axis=2)
        out = np.take(back, dyn.dst, axis=1) + dyn.log_from
        xi_moves += np.exp(out + (log_alpha[t] - dyn.log_z)[:, None, :]).sum(axis=2)
        with np.errstate(divide="ignore"):
            log_beta = logsumexp(out, axis=1) - dyn.log_z
        gamma[t] = np.exp(log_alpha[t] + log_beta)
    return gamma, xi_class, xi_moves
