"""Numeric kernels of the HMM: forward-backward recursions and Gaussian
log-densities, in numpy.

The recursions run in log space and normalize every step (Rabiner 1989,
"A Tutorial on Hidden Markov Models...", section V.A, with log normalizers
in place of scale factors). Unlike probability-space scaling, a state whose
mass falls below the float64 range (e^-745) keeps a finite log probability
instead of dropping to zero, so later evidence can still revive it.

Each recursion is batched over a leading sequence axis and loops over time
once for all sequences. Sequences of different lengths are padded at the
end to a common length T with zero log-likelihood rows; an (S, T) boolean
mask marks the real steps. The forward pass is causal, so padding never
reaches a real step; the backward pass and the transition counts take the
mask.

The Gaussian log-density calls LAPACK's ``trtrs`` directly: on the small
systems of a reactive step, ``scipy.linalg.solve_triangular`` spends about
ten times longer checking its arguments than solving.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import get_lapack_funcs

# Always False: every kernel is plain numpy. Kept because the benchmark
# records this flag in the metadata of each run.
USE_NUMBA = False

_LOG_2PI = math.log(2.0 * math.pi)
_TRTRS = get_lapack_funcs("trtrs", dtype=np.float64)


def predict_log(log_alpha: np.ndarray, log_trans: np.ndarray) -> np.ndarray:
    """One-step state prediction, log sum_i alpha_i A_ij, over the last axis.

    A state no state in the support of alpha reaches gets -inf.
    """
    return np.logaddexp.reduce(log_alpha[..., :, None] + log_trans, axis=-2)


def forward_log(log_lik: np.ndarray, log_pi: np.ndarray, log_trans: np.ndarray):
    """Normalized log forward variable and per-step log normalizers.

    log_lik: (S, T, N) per-state observation log-likelihoods of S sequences.
    Returns (log_alpha (S, T, N), each row normalized to log-sum 0,
    log_norm (S, T)); a sequence's log-likelihood is the sum of its
    normalizers over its real steps. A non-finite normalizer marks a
    collapsed step (no state explains the observation); every later step
    of that sequence is non-finite too, and the caller decides how to
    report it.
    """
    S, T, N = log_lik.shape
    log_alpha = np.empty((S, T, N))
    log_norm = np.empty((S, T))
    la = log_pi + log_lik[:, 0]
    # a collapsed row is all -inf; normalizing it gives nan, on purpose, and
    # the nan carries through every later step of that sequence
    with np.errstate(invalid="ignore"):
        for t in range(T):
            if t > 0:
                la = log_lik[:, t] + predict_log(la, log_trans)
            ln = np.logaddexp.reduce(la, axis=-1)
            la = la - ln[:, None]
            log_alpha[:, t] = la
            log_norm[:, t] = ln
    return log_alpha, log_norm


def backward_log(log_lik: np.ndarray, log_trans: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Log backward variable, shifted so each row's maximum is 0.

    The shift keeps magnitudes bounded; it cancels in the posteriors. A
    sequence's last real step and its padding get log beta = 0.
    """
    T = log_lik.shape[1]
    log_beta = np.zeros_like(log_lik)
    for t in range(T - 2, -1, -1):
        lb = np.logaddexp.reduce(
            log_trans + (log_lik[:, t + 1] + log_beta[:, t + 1])[:, None, :], axis=-1
        )
        lb -= lb.max(axis=-1, keepdims=True)
        log_beta[:, t] = np.where(mask[:, t + 1, None], lb, 0.0)
    return log_beta


def xi_counts(
    log_alpha: np.ndarray,
    log_beta: np.ndarray,
    log_lik: np.ndarray,
    log_trans: np.ndarray,
    mask: np.ndarray,
) -> np.ndarray:
    """Expected transition counts: the normalized xi_t(i, j) summed over
    every real step t >= 1 of every sequence, an (N, N) array.

    A step whose xi terms are all -inf (or nan) adds nothing.
    """
    a = (
        log_alpha[:, :-1, :, None]
        + log_trans
        + (log_lik[:, 1:] + log_beta[:, 1:])[:, :, None, :]
    )  # (S, T-1, N, N)
    m = a.max(axis=(2, 3), keepdims=True)
    keep = mask[:, 1:, None, None] & np.isfinite(m)
    w = np.exp(a - np.where(keep, m, 0.0), where=keep, out=np.zeros_like(a))
    return (w / np.where(keep, w.sum(axis=(2, 3), keepdims=True), 1.0)).sum(axis=(0, 1))


def chol_logpdf(x: np.ndarray, mean: np.ndarray, chol_lower: np.ndarray) -> np.ndarray:
    """log N(x; mean, L L^T) for each row of x, L lower-triangular; as with
    scipy's ``check_finite``, an inf or nan in x, mean or L is a ValueError."""
    d = mean.shape[0]
    diff = (x - mean).T
    if not (np.isfinite(diff).all() and np.isfinite(chol_lower).all()):
        raise ValueError("array must not contain infs or NaNs")
    # L y = diff as solve_triangular solves it for a C-ordered L: L^T is Fortran-ordered
    y, info = _TRTRS(chol_lower.T, diff, lower=False, trans=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (LAPACK trtrs info {info})")
    # a distance too large for float64 is inf, a log-density of -inf, which
    # the forward recursion reports as a collapse at its timestep
    with np.errstate(over="ignore"):
        maha = (y * y).sum(axis=0)
    logdet = 2.0 * np.log(np.diag(chol_lower)).sum()
    return -0.5 * (maha + logdet + d * _LOG_2PI)
