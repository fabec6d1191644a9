"""Numeric kernels of the HMM: forward-backward recursions and Gaussian
log-densities, in numpy.

The recursions run in log space (Rabiner 1989, "A Tutorial on Hidden Markov
Models...", section V.A, with log normalizers in place of scale factors).
Unlike probability-space scaling, a state whose mass falls below the float64
range (e^-745) keeps a finite log probability instead of dropping to zero,
so later evidence can still revive it.

Each recursion is batched over a leading sequence axis. Sequences of
different lengths are padded at the end to a common length T with zero
log-likelihood rows; an (S, T) boolean mask marks the real steps. The
forward pass is causal, so padding never reaches a real step; the backward
pass and the transition counts take the mask.

``forward_log`` and ``backward_log`` have two schedules:

- The time loop takes T steps, each one prediction over all states of all
  sequences, normalized at once. It serves any transition matrix.
- The state sweep takes N passes, one per state, each over all T steps of
  all sequences at once. It serves left-to-right (Bakis) models, whose
  transitions never lead to a lower state (Rabiner 1989, section IV.A):
  ``init_segments`` starts every model ``em_fit`` refits so, and a zero
  transition gets zero expected counts, so the fit stays so. A state's
  recursion then reads only lower states, already done, and itself, which
  makes it first order in time: with w_t its log-likelihood, a its log
  self-transition, D_t = w_0 + ... + w_t + t a and inp_t the log input from
  the lower states (log pi at t = 0), its unnormalized log forward variable
  is x_t = D_t + log sum_{s<=t} exp(inp_s + w_s - D_s), one cumulative sum
  and one cumulative logaddexp. The rows are normalized once at the end,
  and a step's log normalizer is the difference of the prefix
  log-likelihoods at it and the step before. The backward pass is the same
  sweep in reversed time, from the last state down, with each sequence
  reversed from its own last real step; it stays in log space too.

The sweep runs when T > N, ``log_trans`` has no finite entry below the
diagonal and every log-likelihood is finite. Everything else takes the loop:
dense models, the single step of the online forward recursion (T = 1), a
horizon no longer than the number of states, and a step no state explains
(a -inf row), which the loop reports as a collapse.

The sweep subtracts log-likelihood prefix sums, so its rounding error is of
the order eps * sum_t max_j |log_lik_t(j)| (eps = 2.2e-16), the order to
which the sequence's total log-likelihood is itself rounded, where the loop
rounds each step at the order of eps * max_j |log_lik_t(j)|. Against the
loop it stays within 64 times that: at T = 2000 with |log_lik| ~ 50 the
gap is a few 1e-10; on 66 steps at the benchmark's size, ~1e-12.

``xi_counts`` evaluates only the allowed transitions (the finite entries of
``log_trans``), N^2 pairs for a dense model and fewer for a sparse one.

The Gaussian log-density calls LAPACK's ``trtrs`` directly: on the small
systems of a reactive step, ``scipy.linalg.solve_triangular`` spends about
ten times longer checking its arguments than solving.
"""

from __future__ import annotations

import functools
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


def _sweepable(log_lik: np.ndarray, log_trans: np.ndarray) -> bool:
    """Whether the recursions take the state sweep: more steps than states,
    no allowed transition to a lower state, and every log-likelihood finite."""
    T, N = log_lik.shape[1:]
    return T > N and not np.tril(np.isfinite(log_trans), -1).any() and np.isfinite(log_lik).all()


def _sweep(w: np.ndarray, log_start: np.ndarray, log_trans: np.ndarray) -> np.ndarray:
    """Unnormalized log recursion x_t(j) = w_t(j) + log sum_i exp(x_{t-1}(i)) A_ij,
    x_0(j) = w_0(j) + log_start(j), one state at a time over all T steps.

    w: (N, S, T); ``log_trans`` has no finite entry below the diagonal, so
    state j reads only itself and the lower states, which are done. With
    D_t = w_0 + ... + w_t + t log A_jj and inp_t the log input from the lower
    states, x_t = D_t + log sum_{s<=t} exp(inp_s + w_s - D_s).
    """
    N, S, T = w.shape
    x = np.empty_like(w)
    inp = np.empty((S, T))
    allowed = np.isfinite(log_trans)
    steps = np.arange(T)
    for j in range(N):
        feeds = [x[i, :, :-1] + log_trans[i, j] for i in np.flatnonzero(allowed[:j, j])]
        inp[:, 0] = log_start[j]
        inp[:, 1:] = functools.reduce(np.logaddexp, feeds) if feeds else -np.inf
        stay = log_trans[j, j]
        if stay == -np.inf:  # no self-loop: each step holds only its input
            np.add(w[j], inp, out=x[j])
        else:
            d = np.cumsum(w[j], axis=-1) + stay * steps
            x[j] = d + np.logaddexp.accumulate(inp + w[j] - d, axis=-1)
    return x


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
    if _sweepable(log_lik, log_trans):
        return _forward_sweep(log_lik, log_pi, log_trans)
    return _forward_loop(log_lik, log_pi, log_trans)


def _forward_loop(log_lik, log_pi, log_trans):
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


def _forward_sweep(log_lik, log_pi, log_trans):
    x = _sweep(np.ascontiguousarray(np.moveaxis(log_lik, -1, 0)), log_pi, log_trans)
    total = np.logaddexp.reduce(x, axis=0)  # (S, T) log p(y_0..y_t)
    log_alpha = np.empty(log_lik.shape)
    with np.errstate(invalid="ignore"):
        np.subtract(np.moveaxis(x, 0, -1), total[..., None], out=log_alpha)
        log_norm = np.diff(total, axis=1, prepend=0.0)
    return log_alpha, log_norm


def backward_log(log_lik: np.ndarray, log_trans: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Log backward variable, shifted so each row's maximum is 0.

    The shift keeps magnitudes bounded; it cancels in the posteriors. A
    sequence's last real step and its padding get log beta = 0.
    """
    if _sweepable(log_lik, log_trans):
        return _backward_sweep(log_lik, log_trans, mask)
    return _backward_loop(log_lik, log_trans, mask)


def _backward_loop(log_lik, log_trans, mask):
    T = log_lik.shape[1]
    log_beta = np.zeros_like(log_lik)
    for t in range(T - 2, -1, -1):
        lb = np.logaddexp.reduce(
            log_trans + (log_lik[:, t + 1] + log_beta[:, t + 1])[:, None, :], axis=-1
        )
        lb -= lb.max(axis=-1, keepdims=True)
        log_beta[:, t] = np.where(mask[:, t + 1, None], lb, 0.0)
    return log_beta


def _backward_sweep(log_lik, log_trans, mask):
    # y_t(i) = log_lik_t(i) + log beta_t(i) is a forward recursion in reversed
    # time with the transposed transitions, started at 1 in every state; in
    # reversed state order those transitions are again upper triangular.
    # Step r of sequence s reads step L_s - 1 - r, so every sequence starts at
    # its own last real step; past L_s the index wraps onto steps whose
    # values never reach a real step.
    S, T, N = log_lik.shape
    rev = (mask.sum(axis=1)[:, None] - 1 - np.arange(T)) % T  # (S, T), an involution on real steps
    w = np.take_along_axis(log_lik, rev[:, :, None], axis=1)[..., ::-1]
    w = np.ascontiguousarray(np.moveaxis(w, -1, 0))
    y = _sweep(w, np.zeros(N), log_trans.T[::-1, ::-1])
    lb = np.moveaxis(y - w, 0, -1)[..., ::-1]
    log_beta = np.take_along_axis(lb, rev[:, :, None], axis=1)
    log_beta[~mask] = 0.0
    log_beta -= log_beta.max(axis=-1, keepdims=True)
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

    Only the allowed transitions (finite ``log_trans``) are evaluated; the
    rest count 0. A step whose xi terms are all -inf (or nan) adds nothing.
    """
    src, dst = np.nonzero(np.isfinite(log_trans))
    a = (
        log_alpha[:, :-1, src]
        + log_trans[src, dst]
        + (log_lik[:, 1:] + log_beta[:, 1:])[:, :, dst]
    )  # (S, T-1, pairs)
    m = a.max(axis=2, keepdims=True)
    keep = mask[:, 1:, None] & np.isfinite(m)
    w = np.exp(a - np.where(keep, m, 0.0), where=keep, out=np.zeros_like(a))
    counts = np.zeros(log_trans.shape)
    counts[src, dst] = (w / np.where(keep, w.sum(axis=2, keepdims=True), 1.0)).sum(axis=(0, 1))
    return counts


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
