"""Hot numeric kernels with numba-jitted and pure-numpy implementations.

The sequential HMM recursions (forward, backward, transition-count
accumulation) and batched Gaussian log-densities dominate the runtime of
model fitting, so each kernel exists twice: a loop-style version compiled
with ``numba.njit`` and a vectorized numpy fallback. Selection happens at
import time: set ``COMOTION_NUMBA=0`` to force the numpy path (the default
is numba whenever it imports). Both variants stay importable under their
``*_nb`` / ``*_np`` names so the benchmark CLI and the agreement tests can
compare them directly.
"""

from __future__ import annotations

import math
import os

import numpy as np
from scipy.linalg import solve_triangular

try:
    from numba import njit

    _HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    _HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


USE_NUMBA = _HAVE_NUMBA and os.environ.get("COMOTION_NUMBA", "1").lower() not in (
    "0",
    "false",
    "off",
)

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# forward recursion (log space, per-step normalization)
# ---------------------------------------------------------------------------


def forward_log_np(log_lik: np.ndarray, log_pi: np.ndarray, log_trans: np.ndarray):
    """Normalized forward probabilities and per-step log normalizers.

    log_lik: (T, N) per-state observation log-likelihoods.
    Returns (alpha (T, N) rows summing to 1, log_norm (T,)); the sequence
    log-likelihood is ``log_norm.sum()``. A ``-inf`` normalizer marks a
    numerically collapsed step; the caller decides how to report it.
    """
    T, N = log_lik.shape
    alpha = np.empty((T, N))
    log_norm = np.empty(T)
    la = log_pi + log_lik[0]
    for t in range(T):
        if t > 0:
            la = log_lik[t] + _logsumexp_rows(la[:, None] + log_trans)
        m = la.max()
        if not np.isfinite(m):
            log_norm[t:] = -np.inf
            alpha[t:] = np.nan
            return alpha, log_norm
        ln = m + np.log(np.exp(la - m).sum())
        log_norm[t] = ln
        row = np.exp(la - ln)
        alpha[t] = row
        la = la - ln
    return alpha, log_norm


def _logsumexp_rows(a: np.ndarray) -> np.ndarray:
    m = a.max(axis=0)
    out = np.full(a.shape[1], -np.inf)
    ok = np.isfinite(m)  # unreachable states stay at -inf, not nan
    if ok.any():
        out[ok] = m[ok] + np.log(np.exp(a[:, ok] - m[ok]).sum(axis=0))
    return out


@njit(cache=True)
def forward_log_nb(log_lik, log_pi, log_trans):  # pragma: no cover - jitted
    T, N = log_lik.shape
    alpha = np.empty((T, N))
    log_norm = np.empty(T)
    la = np.empty(N)
    work = np.empty(N)
    for i in range(N):
        la[i] = log_pi[i] + log_lik[0, i]
    for t in range(T):
        if t > 0:
            for i in range(N):
                m = -np.inf
                for j in range(N):
                    v = la[j] + log_trans[j, i]
                    if v > m:
                        m = v
                if m == -np.inf:
                    work[i] = -np.inf
                else:
                    s = 0.0
                    for j in range(N):
                        s += math.exp(la[j] + log_trans[j, i] - m)
                    work[i] = m + math.log(s)
            for i in range(N):
                la[i] = work[i] + log_lik[t, i]
        m = -np.inf
        for i in range(N):
            if la[i] > m:
                m = la[i]
        if m == -np.inf or np.isnan(m):
            for tt in range(t, T):
                log_norm[tt] = -np.inf
                for i in range(N):
                    alpha[tt, i] = np.nan
            return alpha, log_norm
        s = 0.0
        for i in range(N):
            s += math.exp(la[i] - m)
        ln = m + math.log(s)
        log_norm[t] = ln
        for i in range(N):
            la[i] = la[i] - ln
            alpha[t, i] = math.exp(la[i])
    return alpha, log_norm


# ---------------------------------------------------------------------------
# backward recursion (log space)
# ---------------------------------------------------------------------------


def backward_log_np(log_lik: np.ndarray, log_trans: np.ndarray) -> np.ndarray:
    T, N = log_lik.shape
    log_beta = np.zeros((T, N))
    for t in range(T - 2, -1, -1):
        a = log_trans + (log_lik[t + 1] + log_beta[t + 1])[None, :]
        m = a.max(axis=1)
        log_beta[t] = m + np.log(np.exp(a - m[:, None]).sum(axis=1))
        # keep magnitudes bounded; constants cancel in the posteriors
        log_beta[t] -= log_beta[t].max()
    return log_beta


@njit(cache=True)
def backward_log_nb(log_lik, log_trans):  # pragma: no cover - jitted
    T, N = log_lik.shape
    log_beta = np.zeros((T, N))
    for t in range(T - 2, -1, -1):
        row_max = -np.inf
        for i in range(N):
            m = -np.inf
            for j in range(N):
                v = log_trans[i, j] + log_lik[t + 1, j] + log_beta[t + 1, j]
                if v > m:
                    m = v
            s = 0.0
            for j in range(N):
                s += math.exp(
                    log_trans[i, j] + log_lik[t + 1, j] + log_beta[t + 1, j] - m
                )
            log_beta[t, i] = m + math.log(s)
            if log_beta[t, i] > row_max:
                row_max = log_beta[t, i]
        for i in range(N):
            log_beta[t, i] -= row_max
    return log_beta


# ---------------------------------------------------------------------------
# expected transition counts (sum of normalized xi over time)
# ---------------------------------------------------------------------------


def xi_counts_np(
    log_alpha: np.ndarray,
    log_beta: np.ndarray,
    log_lik: np.ndarray,
    log_trans: np.ndarray,
) -> np.ndarray:
    T, N = log_lik.shape
    counts = np.zeros((N, N))
    for t in range(1, T):
        a = (
            log_alpha[t - 1][:, None]
            + log_trans
            + (log_lik[t] + log_beta[t])[None, :]
        )
        m = a.max()
        if not np.isfinite(m):
            continue
        w = np.exp(a - m)
        counts += w / w.sum()
    return counts


@njit(cache=True)
def xi_counts_nb(log_alpha, log_beta, log_lik, log_trans):  # pragma: no cover
    T, N = log_lik.shape
    counts = np.zeros((N, N))
    w = np.empty((N, N))
    for t in range(1, T):
        m = -np.inf
        for i in range(N):
            for j in range(N):
                v = log_alpha[t - 1, i] + log_trans[i, j] + log_lik[t, j] + log_beta[t, j]
                w[i, j] = v
                if v > m:
                    m = v
        if m == -np.inf or np.isnan(m):
            continue
        s = 0.0
        for i in range(N):
            for j in range(N):
                w[i, j] = math.exp(w[i, j] - m)
                s += w[i, j]
        for i in range(N):
            for j in range(N):
                counts[i, j] += w[i, j] / s
    return counts


# ---------------------------------------------------------------------------
# unobserved forward recursion (transition structure only)
# ---------------------------------------------------------------------------


def unobserved_forward_np(pi: np.ndarray, trans: np.ndarray, horizon: int) -> np.ndarray:
    N = pi.shape[0]
    out = np.empty((horizon, N))
    a = pi / pi.sum()
    out[0] = a
    for t in range(1, horizon):
        a = a @ trans
        a = a / a.sum()
        out[t] = a
    return out


@njit(cache=True)
def unobserved_forward_nb(pi, trans, horizon):  # pragma: no cover - jitted
    N = pi.shape[0]
    out = np.empty((horizon, N))
    s = 0.0
    for i in range(N):
        s += pi[i]
    for i in range(N):
        out[0, i] = pi[i] / s
    for t in range(1, horizon):
        s = 0.0
        for i in range(N):
            v = 0.0
            for j in range(N):
                v += out[t - 1, j] * trans[j, i]
            out[t, i] = v
            s += v
        for i in range(N):
            out[t, i] /= s
    return out


# ---------------------------------------------------------------------------
# batched Gaussian log-density from a precomputed Cholesky factor
# ---------------------------------------------------------------------------


def chol_logpdf_np(x: np.ndarray, mean: np.ndarray, chol_lower: np.ndarray) -> np.ndarray:
    """log N(x; mean, L L^T) for each row of x, L lower-triangular."""
    d = mean.shape[0]
    diff = (x - mean).T
    y = solve_triangular(chol_lower, diff, lower=True)
    # a distance too large for float64 is inf, a log-density of -inf, which
    # the forward recursion reports as a collapse at its timestep
    with np.errstate(over="ignore"):
        maha = (y * y).sum(axis=0)
    logdet = 2.0 * np.log(np.diag(chol_lower)).sum()
    return -0.5 * (maha + logdet + d * _LOG_2PI)


@njit(cache=True)
def chol_logpdf_nb(x, mean, chol_lower):  # pragma: no cover - jitted
    n, d = x.shape
    out = np.empty(n)
    logdet = 0.0
    for i in range(d):
        logdet += math.log(chol_lower[i, i])
    logdet *= 2.0
    y = np.empty(d)
    for r in range(n):
        maha = 0.0
        for i in range(d):
            acc = x[r, i] - mean[i]
            for j in range(i):
                acc -= chol_lower[i, j] * y[j]
            y[i] = acc / chol_lower[i, i]
            maha += y[i] * y[i]
        out[r] = -0.5 * (maha + logdet + d * _LOG_2PI)
    return out


if USE_NUMBA:
    forward_log = forward_log_nb
    backward_log = backward_log_nb
    xi_counts = xi_counts_nb
    unobserved_forward = unobserved_forward_nb
    chol_logpdf = chol_logpdf_nb
else:
    forward_log = forward_log_np
    backward_log = backward_log_np
    xi_counts = xi_counts_np
    unobserved_forward = unobserved_forward_np
    chol_logpdf = chol_logpdf_np
