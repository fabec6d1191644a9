"""The batched log-space kernels against per-sequence reference loops.

The reference loops below run one sequence at a time, step by step, in log
space, and are kept here as the oracle for the batched recursions of
``_kernels``; the Gaussian log-density is checked against scipy and a
row-by-row forward substitution, and ``state_log_liks`` bit for bit
against one Cholesky and one inverse per state and against scipy's
``multivariate_normal``.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from comotion import _kernels as K
from comotion.gauss import inverse_factors, regularize_spd
from comotion.hmm import (
    Hmm,
    em_fit,
    forward,
    forward_step,
    forward_unobserved,
    init_segments,
    state_log_liks,
)

TOL = 1e-10


# ---------------------------------------------------------------------------
# per-sequence log-space reference
# ---------------------------------------------------------------------------


def _logsumexp_rows(a):
    m = a.max(axis=0)
    out = np.full(a.shape[1], -np.inf)
    ok = np.isfinite(m)  # unreachable states stay at -inf, not nan
    if ok.any():
        out[ok] = m[ok] + np.log(np.exp(a[:, ok] - m[ok]).sum(axis=0))
    return out


def forward_log_np(log_lik, log_pi, log_trans):
    """(log alpha (T, N), log normalizers (T,)) of one sequence; a collapsed
    step and every later one get a -inf normalizer and nan rows."""
    T, N = log_lik.shape
    log_alpha = np.empty((T, N))
    log_norm = np.empty(T)
    la = log_pi + log_lik[0]
    for t in range(T):
        if t > 0:
            la = log_lik[t] + _logsumexp_rows(la[:, None] + log_trans)
        m = la.max()
        if not np.isfinite(m):
            log_norm[t:] = -np.inf
            log_alpha[t:] = np.nan
            return log_alpha, log_norm
        ln = m + np.log(np.exp(la - m).sum())
        log_norm[t] = ln
        la = la - ln
        log_alpha[t] = la
    return log_alpha, log_norm


def backward_log_np(log_lik, log_trans):
    T, N = log_lik.shape
    log_beta = np.zeros((T, N))
    for t in range(T - 2, -1, -1):
        a = log_trans + (log_lik[t + 1] + log_beta[t + 1])[None, :]
        m = a.max(axis=1)
        log_beta[t] = m + np.log(np.exp(a - m[:, None]).sum(axis=1))
        log_beta[t] -= log_beta[t].max()
    return log_beta


def xi_counts_np(log_alpha, log_beta, log_lik, log_trans):
    T, N = log_lik.shape
    counts = np.zeros((N, N))
    for t in range(1, T):
        a = log_alpha[t - 1][:, None] + log_trans + (log_lik[t] + log_beta[t])[None, :]
        m = a.max()
        if not np.isfinite(m):
            continue
        w = np.exp(a - m)
        counts += w / w.sum()
    return counts


def unobserved_forward_np(pi, trans, horizon):
    out = np.empty((horizon, pi.shape[0]))
    a = pi / pi.sum()
    out[0] = a
    for t in range(1, horizon):
        a = a @ trans
        a = a / a.sum()
        out[t] = a
    return out


def chol_logpdf_rows(x, mean, chol_lower):
    """log N(x; mean, L L^T) row by row, by forward substitution."""
    n, d = x.shape
    out = np.empty(n)
    logdet = 2.0 * sum(np.log(chol_lower[i, i]) for i in range(d))
    for r in range(n):
        y = np.empty(d)
        for i in range(d):
            y[i] = (x[r, i] - mean[i] - chol_lower[i, :i] @ y[:i]) / chol_lower[i, i]
        out[r] = -0.5 * (y @ y + logdet + d * np.log(2.0 * np.pi))
    return out


def state_log_liks_per_state(hmm, obs, block="full"):
    """(T, N) emission log-likelihoods, one factorization and one inverse
    of the factor per state."""
    means, covs = hmm.block_params(block)
    d = means.shape[1]
    out = np.empty((obs.shape[0], hmm.n_states))
    for i in range(hmm.n_states):
        chol_inv = np.linalg.inv(np.linalg.cholesky(covs[i]))
        y = (obs - means[i]) @ chol_inv.T
        maha = np.einsum("ij,ij->i", y, y)
        logdet = -2.0 * np.log(np.diag(chol_inv)).sum()
        out[:, i] = -0.5 * (maha + (logdet + d * np.log(2.0 * np.pi)))
    return out


def oracle_e_step(log_liks, log_pi, log_trans):
    """Per-sequence E-step: (gammas, xi counts, log-likelihood)."""
    gammas, xi, ll = [], np.zeros_like(log_trans), 0.0
    for log_lik in log_liks:
        log_alpha, log_norm = forward_log_np(log_lik, log_pi, log_trans)
        log_beta = backward_log_np(log_lik, log_trans)
        gamma = np.exp(log_alpha + log_beta)
        gammas.append(gamma / gamma.sum(axis=1, keepdims=True))
        xi += xi_counts_np(log_alpha, log_beta, log_lik, log_trans)
        ll += log_norm.sum()
    return gammas, xi, ll


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def _log(x):
    with np.errstate(divide="ignore"):
        return np.log(x)


def _pad(log_liks):
    """Zero-padded (S, T, N) stack and its (S, T) mask of real steps."""
    lengths = np.array([ll.shape[0] for ll in log_liks])
    mask = np.arange(lengths.max()) < lengths[:, None]
    padded = np.zeros(mask.shape + (log_liks[0].shape[1],))
    padded[mask] = np.concatenate(log_liks)
    return padded, mask


def _random_model(rng, N):
    return _log(rng.dirichlet(np.ones(N))), _log(rng.dirichlet(np.ones(N), size=N))


def _unreachable_model():
    """Left-to-right: state 0 starts, state 3 is never entered."""
    pi = np.array([1.0, 0.0, 0.0, 0.0])
    trans = np.array(
        [
            [0.6, 0.4, 0.0, 0.0],
            [0.0, 0.7, 0.3, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )
    return _log(pi), _log(trans)


def _left_to_right_model():
    """No transition to a lower state: state 0 may skip state 1, state 2 has
    no self-loop, and state 4 is never entered."""
    pi = np.array([0.7, 0.3, 0.0, 0.0, 0.0])
    trans = np.array(
        [
            [0.5, 0.3, 0.2, 0.0, 0.0],
            [0.0, 0.6, 0.4, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0],
        ]
    )
    return _log(pi), _log(trans)


def _ragged(rng, N, lengths=(40, 7, 23, 2, 40)):
    return [rng.standard_normal((T, N)) * 3.0 for T in lengths]


def _ragged_case(rng):
    return (_ragged(rng, 5), *_random_model(rng, 5))


def _unreachable_case(rng):
    return (_ragged(rng, 4, (30, 12, 5)), *_unreachable_model())


def _left_to_right_case(rng):
    return (_ragged(rng, 5), *_left_to_right_model())


def _single_state_case(rng):
    return (_ragged(rng, 1, (9, 2, 5)), np.zeros(1), np.zeros((1, 1)))


def cases():
    """(log_liks, log_pi, log_trans): a dense model on ragged lengths and one
    with an unreachable state that moves back, which take the time loop;
    then a left-to-right model with a skip, a state without self-loop and an
    unreachable state, and a single state, on ragged lengths down to 2,
    which take the state sweep."""
    return [
        make(np.random.default_rng(0))
        for make in (_ragged_case, _unreachable_case, _left_to_right_case, _single_state_case)
    ]


def _batched_e_step(padded, mask, log_pi, log_trans):
    log_alpha, log_norm = K.forward_log(padded, log_pi, log_trans)
    log_beta = K.backward_log(padded, log_trans, mask)
    xi = K.xi_counts(log_alpha, log_beta, padded, log_trans, mask)
    return log_alpha, log_norm, log_beta, xi


# ---------------------------------------------------------------------------
# batched kernels against the reference
# ---------------------------------------------------------------------------


def test_forward_paths_agree():
    for log_liks, log_pi, log_trans in cases():
        padded, mask = _pad(log_liks)
        log_alpha, log_norm = K.forward_log(padded, log_pi, log_trans)
        for s, log_lik in enumerate(log_liks):
            T = log_lik.shape[0]
            ref_alpha, ref_norm = forward_log_np(log_lik, log_pi, log_trans)
            np.testing.assert_allclose(
                np.exp(log_alpha[s, :T]), np.exp(ref_alpha), rtol=0, atol=TOL
            )
            np.testing.assert_array_equal(np.isfinite(log_alpha[s, :T]), np.isfinite(ref_alpha))
            np.testing.assert_allclose(log_norm[s, :T], ref_norm, rtol=0, atol=TOL)


def test_backward_paths_agree():
    for log_liks, _, log_trans in cases():
        padded, mask = _pad(log_liks)
        log_beta = K.backward_log(padded, log_trans, mask)
        for s, log_lik in enumerate(log_liks):
            T = log_lik.shape[0]
            np.testing.assert_allclose(
                log_beta[s, :T], backward_log_np(log_lik, log_trans), rtol=0, atol=TOL
            )
        np.testing.assert_array_equal(log_beta[~mask], 0.0)


def test_xi_counts_paths_agree():
    for log_liks, log_pi, log_trans in cases():
        _, ref_xi, _ = oracle_e_step(log_liks, log_pi, log_trans)
        xi = _batched_e_step(*_pad(log_liks), log_pi, log_trans)[3]
        np.testing.assert_allclose(xi, ref_xi, rtol=0, atol=TOL)
        # each real step after the first carries one unit of transition mass
        assert xi.sum() == pytest.approx(sum(ll.shape[0] - 1 for ll in log_liks), abs=1e-9)


def test_gamma_and_loglik_agree_and_padding_does_not_leak():
    for log_liks, log_pi, log_trans in cases():
        ref_gammas, _, ref_ll = oracle_e_step(log_liks, log_pi, log_trans)
        padded, mask = _pad(log_liks)
        log_alpha, log_norm, log_beta, _ = _batched_e_step(padded, mask, log_pi, log_trans)
        assert log_norm[mask].sum() == pytest.approx(ref_ll, rel=0, abs=TOL)
        gamma = np.exp(log_alpha + log_beta)
        gamma /= gamma.sum(axis=2, keepdims=True)
        for s, ref in enumerate(ref_gammas):
            np.testing.assert_allclose(gamma[s, : ref.shape[0]], ref, rtol=0, atol=TOL)


def test_unobserved_forward_paths_agree():
    rng = np.random.default_rng(0)
    pi, trans = rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5), size=5)
    hmm = Hmm(pi, trans, np.zeros((5, 2)), np.stack([np.eye(2)] * 5), 1)
    np.testing.assert_allclose(
        forward_unobserved(hmm, 25), unobserved_forward_np(pi, trans, 25), atol=1e-14
    )


def test_cases_take_both_schedules():
    taken = [K._sweepable(_pad(log_liks)[0], log_trans) for log_liks, _, log_trans in cases()]
    assert taken == [False, False, True, True]


def test_unreachable_state_gets_no_mass():
    for make, state in [(_unreachable_case, 3), (_left_to_right_case, 4)]:
        log_liks, log_pi, log_trans = make(np.random.default_rng(1))
        log_alpha, _, _, xi = _batched_e_step(*_pad(log_liks), log_pi, log_trans)
        assert np.all(log_alpha[..., state] == -np.inf)
        np.testing.assert_array_equal(xi[state], 0.0)
        np.testing.assert_array_equal(xi[:, state], 0.0)
        assert not np.any(np.isnan(log_alpha))


def test_padding_content_does_not_change_results():
    for log_liks, log_pi, log_trans in cases():
        padded, mask = _pad(log_liks)
        noisy = padded.copy()
        noisy[~mask] = 10.0 * np.random.default_rng(2).standard_normal(noisy[~mask].shape)
        zero = _batched_e_step(padded, mask, log_pi, log_trans)
        other = _batched_e_step(noisy, mask, log_pi, log_trans)
        for a, b in zip(zero[:3], other[:3]):
            np.testing.assert_array_equal(a[mask], b[mask])
        np.testing.assert_array_equal(zero[3], other[3])


def test_forward_marks_a_collapse_in_its_own_sequence_only():
    rng = np.random.default_rng(4)
    log_liks = _ragged(rng, 3, (8, 6))
    log_liks[1][3] = -np.inf  # no state explains step 3 of sequence 1
    padded, mask = _pad(log_liks)
    log_pi, log_trans = _random_model(rng, 3)
    log_alpha, log_norm = K.forward_log(padded, log_pi, log_trans)
    assert np.all(np.isfinite(log_norm[0]))
    np.testing.assert_array_equal(np.isfinite(log_norm[1]), np.arange(8) < 3)
    ref_alpha, ref_norm = forward_log_np(log_liks[1], log_pi, log_trans)
    np.testing.assert_allclose(log_norm[1, :3], ref_norm[:3], rtol=0, atol=TOL)


def test_underflowed_state_is_revived():
    # state 1's mass falls to ~e^-3600 after two far observations; a
    # probability-space recursion would round it to 0 and lose it for good
    hmm = Hmm(
        np.array([1.0, 0.0]),
        np.array([[0.9, 0.1], [0.0, 1.0]]),
        np.array([[0.0, 0.0], [60.0, 60.0]]),
        np.stack([np.eye(2)] * 2),
        1,
    )
    obs = np.array([[60.0, 60.0], [60.0, 60.0], [0.0, 0.0]])
    log_lik = state_log_liks(hmm, obs)
    ref_alpha, ref_norm = forward_log_np(log_lik, _log(hmm.pi), _log(hmm.trans))
    alpha = forward(hmm, obs)
    np.testing.assert_allclose(alpha, np.exp(ref_alpha), rtol=0, atol=TOL)
    np.testing.assert_allclose(alpha[2], [0.8901, 0.1099], atol=1e-4)
    _, log_norm = K.forward_log(log_lik[None], _log(hmm.pi), _log(hmm.trans))
    assert log_norm.sum() == pytest.approx(ref_norm.sum(), rel=0, abs=TOL)
    log_beta = K.backward_log(log_lik[None], _log(hmm.trans), np.ones((1, 3), bool))
    np.testing.assert_allclose(
        log_beta[0], backward_log_np(log_lik, _log(hmm.trans)), rtol=0, atol=TOL
    )


def test_em_fit_e_step_on_ragged_sequences_matches_reference():
    rng = np.random.default_rng(3)
    seqs = [rng.standard_normal((T, 2)) + np.linspace(-2, 2, T)[:, None] for T in (30, 9, 17)]
    init = Hmm(
        np.array([0.5, 0.3, 0.2]),
        np.array([[0.8, 0.15, 0.05], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]]),
        np.array([[-1.5, -1.5], [0.0, 0.0], [1.5, 1.5]]),
        np.stack([np.eye(2)] * 3),
        1,
    )
    fitted, trace = em_fit(init, seqs, max_iters=1)
    log_liks = [state_log_liks(init, s) for s in seqs]
    gammas, xi, ll = oracle_e_step(log_liks, _log(init.pi), _log(init.trans))
    assert trace[0] == pytest.approx(ll, rel=0, abs=TOL)
    # the M-step of one iteration, from the reference E-step
    np.testing.assert_allclose(fitted.trans, xi / xi.sum(axis=1, keepdims=True), atol=TOL)
    pi = sum(g[0] for g in gammas)
    np.testing.assert_allclose(fitted.pi, pi / pi.sum(), atol=TOL)
    g = np.concatenate(gammas)
    x = np.concatenate(seqs)
    mass = g.sum(axis=0)
    means = (g.T @ x) / mass[:, None]
    np.testing.assert_allclose(fitted.means, means, atol=TOL)
    # second moments one state at a time
    covs = [regularize_spd((x * g[:, [i]]).T @ x / mass[i] - np.outer(means[i], means[i]))
            for i in range(3)]
    np.testing.assert_allclose(fitted.covs, covs, atol=TOL)


# ---------------------------------------------------------------------------
# the schedule: where the sweep runs, what it keeps, how far it strays
# ---------------------------------------------------------------------------


def _chain_model(N, stay=0.9):
    """init_segments' transitions: stay or move to the next state."""
    trans = np.diag(np.full(N, stay)) + np.diag(np.full(N - 1, 1.0 - stay), 1)
    trans[-1, -1] = 1.0
    return _log(np.eye(N)[0]), _log(trans)


def test_sweep_stays_within_its_error_bound_over_2000_steps():
    # the bound of the _kernels docstring: 64 eps sum_t max_j |log_lik_t(j)|
    rng = np.random.default_rng(6)
    log_liks = [-50.0 + 10.0 * rng.standard_normal((T, 6)) for T in (2000, 1500)]
    log_pi, log_trans = _chain_model(6)
    padded, mask = _pad(log_liks)
    assert K._sweepable(padded, log_trans)
    log_alpha, log_norm = K.forward_log(padded, log_pi, log_trans)
    log_beta = K.backward_log(padded, log_trans, mask)
    for s, log_lik in enumerate(log_liks):
        T = log_lik.shape[0]
        bound = 64 * np.finfo(float).eps * np.abs(log_lik).max(axis=1).sum()
        ref_alpha, ref_norm = forward_log_np(log_lik, log_pi, log_trans)
        ref_beta = backward_log_np(log_lik, log_trans)
        reached = np.isfinite(ref_alpha)
        np.testing.assert_array_equal(np.isfinite(log_alpha[s, :T]), reached)
        assert np.abs(log_alpha[s, :T][reached] - ref_alpha[reached]).max() <= bound
        assert np.abs(log_norm[s, :T] - ref_norm).max() <= bound
        assert np.abs(log_beta[s, :T] - ref_beta).max() <= bound


def _boundary_input(kind):
    """(log_lik, mask, log_pi, log_trans) just outside the sweep's reach."""
    rng = np.random.default_rng(7)
    log_pi, log_trans = _chain_model(4)
    lengths = (4, 3) if kind == "T <= N" else (12, 6)
    padded, mask = _pad(_ragged(rng, 4, lengths))
    if kind == "dense":
        log_pi, log_trans = _random_model(rng, 4)
    elif kind == "-inf row":
        padded[0, 5] = -np.inf  # no state explains step 5: a collapse
    return padded, mask, log_pi, log_trans


@pytest.mark.parametrize("kind", ["T <= N", "dense", "-inf row"])
def test_outside_the_sweep_the_kernels_are_the_loop_bit_for_bit(kind):
    log_lik, mask, log_pi, log_trans = _boundary_input(kind)
    assert not K._sweepable(log_lik, log_trans)
    for got, loop in zip(
        K.forward_log(log_lik, log_pi, log_trans), K._forward_loop(log_lik, log_pi, log_trans)
    ):
        np.testing.assert_array_equal(got, loop)
    if kind != "-inf row":  # the E-step stops at a collapse before its backward pass
        np.testing.assert_array_equal(
            K.backward_log(log_lik, log_trans, mask), K._backward_loop(log_lik, log_trans, mask)
        )


def test_forward_step_is_the_loop_bit_for_bit():
    # the online step is a forward pass of length one, T = 1 <= N
    rng = np.random.default_rng(8)
    pi, trans = np.eye(4)[0], np.exp(_chain_model(4)[1])
    hmm = Hmm(pi, trans, np.zeros((4, 2)), np.stack([np.eye(2)] * 4), 1)
    log_alpha = None
    for log_lik_t in 3.0 * rng.standard_normal((5, 4)):
        log_prior = _log(pi) if log_alpha is None else K.predict_log(log_alpha, _log(trans))
        loop, _ = K._forward_loop(log_lik_t[None, None], log_prior, _log(trans))
        _, log_alpha = forward_step(hmm, log_lik_t, log_alpha)
        np.testing.assert_array_equal(log_alpha, loop[0, 0])


def _bench_shape_latents(seed, S=9, T=66, D=10, N=6):
    """S sequences of T latents that pass through N Gaussian segments whose
    boundaries jitter from sequence to sequence."""
    rng = np.random.default_rng(seed)
    centres = 2.0 * rng.standard_normal((N, D))
    seqs = []
    for _ in range(S):
        cuts = np.sort(rng.choice(np.arange(4, T - 4), N - 1, replace=False))
        segment = np.searchsorted(cuts, np.arange(T), side="right")
        seqs.append(centres[segment] + 0.5 * rng.standard_normal((T, D)))
    return seqs


def test_em_fit_from_init_segments_stays_left_to_right():
    seqs = _bench_shape_latents(0)
    fitted, _ = em_fit(init_segments(seqs, 6), seqs)
    np.testing.assert_array_equal(np.tril(fitted.trans, -1), 0.0)
    assert np.all(np.diag(fitted.trans, 1) > 0.0)


@pytest.mark.parametrize("seed", [0, 1])
def test_em_fit_sweep_matches_the_loop_at_bench_shape(monkeypatch, seed):
    seqs = _bench_shape_latents(seed)
    init = init_segments(seqs, 6)
    swept, swept_trace = em_fit(init, seqs)
    monkeypatch.setattr(K, "_sweepable", lambda log_lik, log_trans: False)
    looped, looped_trace = em_fit(init, seqs)
    assert len(swept_trace) == len(looped_trace) > 2
    for got, want in [(swept_trace, looped_trace)] + [
        (getattr(swept, f), getattr(looped, f)) for f in ("pi", "trans", "means", "covs")
    ]:
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_chol_logpdf_paths_agree_and_match_scipy():
    rng = np.random.default_rng(1)
    d = 4
    a = rng.standard_normal((d, d))
    cov = a @ a.T + np.eye(d)
    mean = rng.standard_normal(d)
    x = rng.standard_normal((30, d))
    chol = np.linalg.cholesky(cov)
    got = K.chol_logpdf(x, mean, *inverse_factors(cov))
    np.testing.assert_allclose(got, chol_logpdf_rows(x, mean, chol), atol=1e-11)
    np.testing.assert_allclose(got, multivariate_normal(mean, cov).logpdf(x), atol=1e-10)


@pytest.mark.parametrize("d_z", [1, 3])
@pytest.mark.parametrize("block", ["full", "h", "r"])
@pytest.mark.parametrize("rows", [1, 40])
def test_state_log_liks_bit_identical_to_per_state_solves(d_z, block, rows):
    hmm, obs = _random_block_case(d_z, block, rows)
    np.testing.assert_array_equal(
        state_log_liks(hmm, obs, block), state_log_liks_per_state(hmm, obs, block)
    )


@pytest.mark.parametrize("d_z", [1, 3])
@pytest.mark.parametrize("block", ["full", "h", "r"])
@pytest.mark.parametrize("rows", [1, 40])
def test_state_log_liks_matches_scipy_multivariate_normal(d_z, block, rows):
    hmm, obs = _random_block_case(d_z, block, rows)
    means, covs = hmm.block_params(block)
    want = np.stack(
        [multivariate_normal(m, c).logpdf(obs).reshape(-1) for m, c in zip(means, covs)], axis=1
    )
    np.testing.assert_allclose(state_log_liks(hmm, obs, block), want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("block", ["full", "h", "r"])
def test_a_rebuilt_model_has_its_own_factors(block):
    """A model rebuilt with changed parameters, after the first one's factors
    were computed and kept, matches scipy's densities under the new ones, and
    the first model's densities are unchanged."""
    hmm, obs = _random_block_case(2, block, 40)
    before = state_log_liks(hmm, obs, block)
    rng = np.random.default_rng(6)
    a = rng.standard_normal(hmm.covs.shape)
    rebuilt = replace(hmm, means=hmm.means + 1.0, covs=a @ a.transpose(0, 2, 1) / 4 + np.eye(4))
    means, covs = rebuilt.block_params(block)
    want = np.stack(
        [multivariate_normal(m, c).logpdf(obs).reshape(-1) for m, c in zip(means, covs)], axis=1
    )
    np.testing.assert_allclose(state_log_liks(rebuilt, obs, block), want, rtol=0, atol=1e-10)
    np.testing.assert_array_equal(state_log_liks(hmm, obs, block), before)


def _random_block_case(d_z, block, rows):
    """A random 4-state HMM over 2 d_z dimensions and ``rows`` points of ``block``'s width."""
    rng = np.random.default_rng(5)
    dim = 2 * d_z
    a = rng.standard_normal((4, dim, dim))
    hmm = Hmm(
        rng.dirichlet(np.ones(4)),
        rng.dirichlet(np.ones(4), size=4),
        rng.standard_normal((4, dim)),
        a @ a.transpose(0, 2, 1) / dim + 0.3 * np.eye(dim),
        d_z,
    )
    width = dim if block == "full" else d_z
    return hmm, 2.0 * rng.standard_normal((rows, width))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_chol_logpdf_rejects_non_finite_points_and_factors(bad):
    chol_inv, log_norm = inverse_factors(np.array([[2.0, 0.3], [0.3, 1.0]]))
    x = np.zeros((3, 2))
    x[1, 0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        K.chol_logpdf(x, np.zeros(2), chol_inv, log_norm)
    chol_inv = chol_inv.copy()
    chol_inv[1, 0] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        K.chol_logpdf(np.zeros((3, 2)), np.zeros(2), chol_inv, log_norm)


def test_chol_logpdf_rejects_an_inf_factor_entry_that_meets_a_zero_difference():
    """Only the zero difference in column 0 meets the inf in L^-1, so no
    product is inf: inf * 0 is nan, the row is non-finite and the inputs are
    checked."""
    chol_inv, log_norm = inverse_factors(np.array([[2.0, 0.3], [0.3, 1.0]]))
    chol_inv = chol_inv.copy()
    chol_inv[1, 0] = np.inf
    x = np.array([[0.0, 1.0], [0.0, -2.0]])
    with pytest.raises(ValueError, match="infs or NaNs"):
        K.chol_logpdf(x, np.zeros(2), chol_inv, log_norm)


@pytest.mark.parametrize("far", [[1e200, 0.0], [-1e308, 1.7e308]])
def test_chol_logpdf_of_an_overflowing_finite_distance_is_minus_inf(far):
    """A finite point whose squared distance (first case) or whitened
    difference (second case) overflows has a log-density of -inf, with no
    warning, and the other rows are unchanged."""
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    x = np.array([far, [0.5, -0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = K.chol_logpdf(x, np.zeros(2), *inverse_factors(cov))
    assert got[0] == -np.inf
    np.testing.assert_allclose(got[1], multivariate_normal(np.zeros(2), cov).logpdf(x[1]),
                               rtol=0, atol=1e-12)
