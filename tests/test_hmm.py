import itertools
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

from comotion import _kernels
from comotion.errors import NumericalError
from comotion.gauss import Gaussian, log_pdf
from comotion.hmm import (
    Hmm,
    TransitionStateModel,
    conditional_means,
    conditional_moments,
    contact_gate,
    em_fit,
    forward,
    forward_step,
    forward_unobserved,
    gmr_condition,
    init_segments,
    state_log_liks,
)


def random_hmm(rng, n_states, d_z, spread=1.0):
    dim = 2 * d_z
    means = spread * rng.standard_normal((n_states, dim))
    covs = []
    for _ in range(n_states):
        a = rng.standard_normal((dim, dim))
        covs.append(a @ a.T / dim + 0.5 * np.eye(dim))
    pi = rng.dirichlet(np.ones(n_states))
    trans = rng.dirichlet(np.ones(n_states), size=n_states)
    return Hmm(pi, trans, means, np.stack(covs), d_z)


# ---------------------------------------------------------------------------
# forward recursions
# ---------------------------------------------------------------------------


def test_forward_symmetric_components_start_uniform():
    covs = np.stack([np.eye(2), np.eye(2)])
    h = Hmm(np.array([0.5, 0.5]), np.array([[0.7, 0.3], [0.3, 0.7]]), np.zeros((2, 2)), covs, 1)
    alpha = forward(h, np.array([[0.3, -0.2]]))
    np.testing.assert_allclose(alpha[0], [0.5, 0.5], atol=1e-12)


def enumeration_alpha(hmm, obs):
    """Filtered state marginals by brute-force path enumeration."""
    liks = np.exp(
        np.stack(
            [
                [log_pdf(Gaussian(hmm.means[i], hmm.covs[i]), o) for i in range(hmm.n_states)]
                for o in obs
            ]
        )
    )
    T, N = liks.shape
    rows = []
    for t in range(1, T + 1):
        marg = np.zeros(N)
        for path in itertools.product(range(N), repeat=t):
            p = hmm.pi[path[0]] * liks[0, path[0]]
            for a, b in zip(path, path[1:]):
                p *= hmm.trans[a, b]
            for step, state in enumerate(path[1:], start=1):
                p *= liks[step, state]
            marg[path[-1]] += p
        rows.append(marg / marg.sum())
    return np.asarray(rows)


def test_forward_matches_path_enumeration():
    rng = np.random.default_rng(0)
    for trial in range(5):
        h = random_hmm(rng, 2, 1)
        obs = rng.standard_normal((3, 2))
        expected = enumeration_alpha(h, obs)
        got = forward(h, obs)
        np.testing.assert_allclose(got, expected, atol=1e-10)


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(1)
    h = random_hmm(rng, 4, 2)
    alpha = forward(h, rng.standard_normal((30, 4)))
    np.testing.assert_allclose(alpha.sum(axis=1), np.ones(30), atol=1e-9)
    assert np.all(alpha >= 0)


def test_forward_blocks():
    rng = np.random.default_rng(2)
    h = random_hmm(rng, 3, 2)
    assert forward(h, rng.standard_normal((5, 2)), "h").shape == (5, 3)
    assert forward(h, rng.standard_normal((5, 2)), "r").shape == (5, 3)
    with pytest.raises(ValueError, match="width"):
        forward(h, rng.standard_normal((5, 3)), "h")


def test_forward_step_matches_batch():
    rng = np.random.default_rng(3)
    h = random_hmm(rng, 3, 2)
    obs = rng.standard_normal((6, 2))
    batch = forward(h, obs, "h")
    la = None
    for t in range(6):
        alpha_t, la = forward_step(h, state_log_liks(h, obs[t : t + 1], "h")[0], la)
        np.testing.assert_allclose(alpha_t, batch[t], atol=1e-12)


def test_forward_collapse_names_timestep():
    h = Hmm(
        np.array([1.0, 0.0]),
        np.array([[1.0, 0.0], [0.0, 1.0]]),
        np.zeros((2, 2)),
        np.stack([1e-18 * np.eye(2)] * 2),
        1,
    )
    # the squared Mahalanobis distance overflows, zeroing every state
    with pytest.raises(NumericalError, match="timestep"):
        forward(h, 1e200 * np.ones((3, 2)))


def test_forward_collapse_names_the_timestep_within_its_sequence():
    rng = np.random.default_rng(12)
    h = random_hmm(rng, 3, 1)
    obs = rng.standard_normal((9, 2))
    obs[6] = 1e200  # step 2 of the second sequence, of lengths 4 and 5
    with pytest.raises(NumericalError, match="timestep 2$"):
        forward(h, obs, "full", [4, 5])


def left_to_right_hmm(rng, n_states, d_z):
    """A random model whose transitions never lead to a lower state."""
    h = random_hmm(rng, n_states, d_z)
    trans = np.triu(rng.uniform(0.1, 1.0, (n_states, n_states)))
    return replace(h, trans=trans / trans.sum(axis=1, keepdims=True))


def split_rows(obs, lengths):
    return np.split(obs, np.cumsum(lengths)[:-1])


@pytest.mark.parametrize("block", ["full", "h", "r"])
@pytest.mark.parametrize("model", [random_hmm, left_to_right_hmm])
def test_padded_forward_is_bit_equal_to_per_sequence_forward(block, model):
    """Ragged sequences, all longer than the number of states, give each
    sequence's own forward variable bit for bit, whether the pass loops over
    time (dense model) or sweeps the states (left-to-right model)."""
    rng = np.random.default_rng(13)
    h = model(rng, 6, 2)
    lengths = [66, 40, 13]
    obs = rng.standard_normal((sum(lengths), 4 if block == "full" else 2))
    expected = [forward(h, seq, block) for seq in split_rows(obs, lengths)]
    np.testing.assert_array_equal(forward(h, obs, block, lengths), np.concatenate(expected))
    np.testing.assert_array_equal(forward(h, obs, block, np.array(lengths)), np.concatenate(expected))


def test_a_short_sequence_padded_in_with_longer_ones_is_swept(monkeypatch):
    """A sequence of no more steps than states, on its own, takes the time
    loop; padded in with a longer one, it is swept with it and agrees with
    its own pass to the sweep's rounding bound (``_kernels`` docstring)."""
    rng = np.random.default_rng(14)
    h = left_to_right_hmm(rng, 6, 2)
    lengths = [66, 6, 3]
    obs = rng.standard_normal((sum(lengths), 4))
    swept = []
    sweep = _kernels._forward_sweep
    monkeypatch.setattr(_kernels, "_forward_sweep",
                        lambda log_lik, *rest: swept.append(log_lik.shape) or sweep(log_lik, *rest))
    got = split_rows(forward(h, obs, "full", lengths), lengths)
    assert swept == [(3, 66, 6)]
    for seq, alpha in zip(split_rows(obs, lengths)[1:], got[1:]):
        np.testing.assert_allclose(alpha, forward(h, seq), rtol=0, atol=1e-10)
    assert swept == [(3, 66, 6)]  # the short sequences alone loop over time
    np.testing.assert_array_equal(got[0], forward(h, obs[:66]))


@pytest.mark.parametrize("lengths", [[10, 9], [10, 0, 10], [-1, 21], [], [[20]], [10.0, 10.0]])
def test_forward_rejects_lengths_that_do_not_split_the_rows(lengths):
    rng = np.random.default_rng(15)
    h = random_hmm(rng, 3, 1)
    with pytest.raises(ValueError, match="lengths"):
        forward(h, rng.standard_normal((20, 2)), "full", lengths)


def test_forward_unobserved_initialization():
    rng = np.random.default_rng(4)
    h = random_hmm(rng, 3, 1)
    bar = forward_unobserved(h, 1)
    np.testing.assert_allclose(bar[0], h.pi, atol=1e-12)


def test_forward_unobserved_matches_matrix_power():
    rng = np.random.default_rng(5)
    h = random_hmm(rng, 4, 1)
    bar = forward_unobserved(h, 6)
    expected = h.pi.copy()
    np.testing.assert_allclose(bar[0], expected, atol=1e-12)
    for t in range(1, 6):
        expected = expected @ h.trans
        np.testing.assert_allclose(bar[t], expected, atol=1e-12)


def test_forward_unobserved_identity_transitions():
    rng = np.random.default_rng(6)
    h = replace(random_hmm(rng, 3, 1), trans=np.eye(3))
    bar = forward_unobserved(h, 10)
    for t in range(10):
        np.testing.assert_allclose(bar[t], h.pi, atol=1e-12)


# ---------------------------------------------------------------------------
# initialization and EM
# ---------------------------------------------------------------------------


def test_init_segments_equal_slices():
    rng = np.random.default_rng(8)
    seqs = [rng.standard_normal((60, 2)) for _ in range(3)]
    h = init_segments(seqs, 6, 1)
    pooled = np.concatenate([s[0:10] for s in seqs])
    np.testing.assert_allclose(h.means[0], pooled.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(h.pi, [1, 0, 0, 0, 0, 0], atol=0)
    assert h.trans[0, 0] == 0.9 and h.trans[0, 1] == pytest.approx(0.1)
    assert h.trans[5, 5] == 1.0


def test_init_segments_single_state_pools_everything():
    rng = np.random.default_rng(9)
    seqs = [rng.standard_normal((20, 2)) for _ in range(2)]
    h = init_segments(seqs, 1, 1)
    np.testing.assert_allclose(h.means[0], np.concatenate(seqs).mean(axis=0), atol=1e-12)


def test_init_segments_ramp_means_increase():
    ramp = np.linspace(0.0, 1.0, 90)[:, None] * np.ones((1, 2))
    h = init_segments([ramp], 5, 1)
    firsts = h.means[:, 0]
    assert np.all(np.diff(firsts) > 0)


def test_init_segments_too_short():
    with pytest.raises(ValueError, match="shorter"):
        init_segments([np.zeros((3, 2))], 6, 1)


def sample_hmm_sequences(hmm, rng, n_seqs, length):
    seqs = []
    states_all = []
    chols = [np.linalg.cholesky(c) for c in hmm.covs]
    for _ in range(n_seqs):
        states = [rng.choice(hmm.n_states, p=hmm.pi)]
        for _ in range(length - 1):
            states.append(rng.choice(hmm.n_states, p=hmm.trans[states[-1]]))
        obs = np.array(
            [hmm.means[s] + chols[s] @ rng.standard_normal(hmm.dim) for s in states]
        )
        seqs.append(obs)
        states_all.append(states)
    return seqs, states_all


def generic_init(seqs, n_states, d_z):
    """Mean +/- std spread init with dense transitions, for switching data."""
    pooled = np.concatenate(seqs)
    mu, sd = pooled.mean(axis=0), pooled.std(axis=0)
    offsets = np.linspace(-1.0, 1.0, n_states)
    means = mu + offsets[:, None] * sd
    covs = np.stack([np.diag(sd**2) + 1e-3 * np.eye(pooled.shape[1])] * n_states)
    n = n_states
    return Hmm(np.full(n, 1 / n), np.full((n, n), 1 / n), means, covs, d_z)


def test_em_recovers_planted_two_state_model():
    rng = np.random.default_rng(10)
    truth = Hmm(
        np.array([0.6, 0.4]),
        np.array([[0.9, 0.1], [0.15, 0.85]]),
        np.array([[0.0, 0.0], [5.0, 5.0]]),
        np.stack([np.eye(2)] * 2),
        1,
    )
    seqs, _ = sample_hmm_sequences(truth, rng, 50, 100)
    fitted, trace = em_fit(generic_init(seqs, 2, 1), seqs, max_iters=50, tol=1e-8)
    assert np.all(np.diff(trace) >= -1e-6)
    # match components to truth by nearest mean
    perm = min(
        ([0, 1], [1, 0]),
        key=lambda p: np.abs(fitted.means[list(p)] - truth.means).max(),
    )
    assert np.abs(fitted.means[list(perm)] - truth.means).max() < 0.1
    for row_truth, row_fit in zip(truth.trans, fitted.trans[list(perm)][:, list(perm)]):
        np.testing.assert_allclose(row_fit, row_truth, atol=0.1)


def test_em_loglik_non_decreasing_on_arbitrary_data():
    rng = np.random.default_rng(11)
    seqs = [np.cumsum(rng.standard_normal((40, 4)), axis=0) for _ in range(4)]
    _, trace = em_fit(init_segments(seqs, 3, 2), seqs, max_iters=15, tol=1e-12)
    assert np.all(np.diff(trace) >= -1e-6)


def test_em_single_state_is_pooled_mle():
    rng = np.random.default_rng(12)
    seqs = [rng.standard_normal((30, 2)) for _ in range(3)]
    fitted, _ = em_fit(init_segments(seqs, 1, 1), seqs, max_iters=5, tol=1e-12)
    np.testing.assert_allclose(fitted.means[0], np.concatenate(seqs).mean(axis=0), atol=1e-9)


def test_em_does_not_mutate_init():
    rng = np.random.default_rng(13)
    seqs = [rng.standard_normal((30, 2)) for _ in range(2)]
    init = init_segments(seqs, 2, 1)
    snap = (init.pi.copy(), init.trans.copy(), init.means.copy(), init.covs.copy())
    em_fit(init, seqs, max_iters=3, tol=1e-12)
    np.testing.assert_array_equal(init.pi, snap[0])
    np.testing.assert_array_equal(init.means, snap[2])


def test_em_converging_iteration_runs_no_backward_pass(monkeypatch):
    """The iteration whose log-likelihood meets the tolerance ends right after
    its forward pass: every earlier iteration runs one backward pass."""
    backward = _kernels.backward_log
    calls = []

    def counted(*args):
        calls.append(1)
        return backward(*args)

    monkeypatch.setattr(_kernels, "backward_log", counted)
    rng = np.random.default_rng(14)
    seqs = [np.cumsum(rng.standard_normal((40, 4)), axis=0) for _ in range(4)]
    _, trace = em_fit(init_segments(seqs, 3, 2), seqs, max_iters=50, tol=1e-4)
    assert 1 < len(trace) < 50
    assert len(calls) == len(trace) - 1


def test_em_fit_forward_passes_end_on_the_returned_model(monkeypatch):
    """A converged fit runs one forward pass per trace entry; one that runs
    out of iterations runs one more, over its last M-step's model."""
    forward_log = _kernels.forward_log
    calls = []

    def counted(*args):
        calls.append(1)
        return forward_log(*args)

    monkeypatch.setattr(_kernels, "forward_log", counted)
    rng = np.random.default_rng(14)
    seqs = [np.cumsum(rng.standard_normal((40, 4)), axis=0) for _ in range(4)]
    _, trace = em_fit(init_segments(seqs, 3, 2), seqs, max_iters=50, tol=1e-4)
    assert 1 < len(trace) < 50
    assert len(calls) == len(trace)
    calls.clear()
    _, trace = em_fit(init_segments(seqs, 3, 2), seqs, max_iters=3, tol=1e-12)
    assert len(trace) == 3
    assert len(calls) == 4


def _two_state_runs(rng, runs):
    """A separated two-state model over (2,) points, and one sequence per
    (steps in state 0, steps in state 1) entry of ``runs``, in that order."""
    hmm = Hmm(np.full(2, 0.5), np.full((2, 2), 0.5), np.array([[0.0, 0.0], [8.0, 8.0]]),
              np.stack([np.eye(2)] * 2), 1)
    seqs = [
        np.vstack([np.zeros((n0, 2)), np.full((n1, 2), 8.0)]) + 0.1 * rng.standard_normal((n0 + n1, 2))
        for n0, n1 in runs
    ]
    return hmm, seqs


def test_em_fit_occupancy_averages_each_sequence_over_its_own_steps(caplog):
    """The collapse rule reads each sequence's forward variable averaged over
    its real steps, then averaged over the sequences, as the per-sequence
    ``forward`` oracle gives it. On these ragged sets, pooling the steps of
    all sequences would decide the other way."""
    rng = np.random.default_rng(15)
    threshold = 1.0 / (10.0 * 2)
    # state 1 fills one short sequence of two: kept, though it holds 6 of 206 steps
    # state 1 fills half of one long sequence of twenty: replaced, though it holds
    # 200 of 495 steps
    for runs, collapses in (([(200, 0), (0, 6)], False), ([(200, 200)] + [(5, 0)] * 19, True)):
        hmm, seqs = _two_state_runs(rng, runs)
        alphas = [forward(hmm, s) for s in seqs]
        expected = np.mean([a.mean(axis=0) for a in alphas], axis=0)
        pooled = np.concatenate(alphas).mean(axis=0)
        assert (expected.min() < threshold) == collapses != (pooled.min() < threshold)
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="comotion.hmm"):
            fitted, trace = em_fit(hmm, seqs, max_iters=0)
        assert trace.shape == (0,)
        kept = init_segments(seqs, 2, 1) if collapses else hmm
        for field in ("pi", "trans", "means", "covs"):
            np.testing.assert_array_equal(getattr(fitted, field), getattr(kept, field))
        warned = [r.getMessage() for r in caplog.records if "occupancy collapsed" in r.getMessage()]
        assert warned == ([f"sequence-model component occupancy collapsed (min {expected.min():.4f}); "
                           "falling back to segment initialization"] if collapses else [])


def test_a_fitted_model_cannot_be_edited():
    """A model and what it caches are read-only, and it keeps its own copy of
    the arrays it was built from, so its factors can never go stale."""
    rng = np.random.default_rng(17)
    seqs = [np.linspace(0.0, 3.0, n)[:, None] + 0.05 * rng.standard_normal((n, 2)) for n in (30, 24)]
    fitted, _ = em_fit(init_segments(seqs, 3, 1), seqs, max_iters=3)
    state_log_liks(fitted, seqs[0])
    cached = [*fitted.log_params, *fitted.factors("full")]
    for array in [fitted.pi, fitted.trans, fitted.means, fitted.covs, *cached]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    with pytest.raises(AttributeError):
        fitted.covs = np.stack([np.eye(2)] * 3)
    means = fitted.means.copy()
    rebuilt = Hmm(fitted.pi, fitted.trans, means, fitted.covs, 1)
    means[0] = 50.0
    np.testing.assert_array_equal(rebuilt.means, fitted.means)


def test_em_fit_keeps_a_healthy_fit_and_replaces_a_collapsed_one(caplog):
    """A model whose last state is never visited falls back to the segment
    initialization of the same sequences; one that visits every state stays."""
    rng = np.random.default_rng(16)
    seqs = [
        np.linspace(0.0, 3.0, n)[:, None] + 0.05 * rng.standard_normal((n, 2))
        for n in (30, 24, 37)
    ]
    healthy = init_segments(seqs, 3, 1)
    means = healthy.means.copy()
    means[2] = 50.0
    collapsed = replace(healthy, means=means)
    with caplog.at_level(logging.WARNING):
        kept, _ = em_fit(healthy, seqs, max_iters=0)
        assert not caplog.records
        out, _ = em_fit(collapsed, seqs, max_iters=0)
    assert any("occupancy collapsed" in r.getMessage() for r in caplog.records)
    for field in ("pi", "trans", "means", "covs"):
        np.testing.assert_array_equal(getattr(kept, field), getattr(healthy, field))
        np.testing.assert_array_equal(getattr(out, field), getattr(healthy, field))


@pytest.mark.parametrize("max_iters", [0, 20])
def test_em_fit_collapse_names_timestep(max_iters):
    """A collapse after the end of a shorter sequence is found in the longer
    one; the shorter one's padding is not a collapse. With no iterations the
    pass that finds it is the one that decides the occupancy fallback."""
    covs = np.stack([1e-18 * np.eye(2)] * 2)
    h = Hmm(np.array([1.0, 0.0]), np.eye(2), np.zeros((2, 2)), covs, 1)
    seqs = [np.zeros((2, 2)), np.vstack([np.zeros((3, 2)), np.full((2, 2), 1e200)])]
    with pytest.raises(NumericalError, match="timestep 3"):
        em_fit(h, seqs, max_iters=max_iters)


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------


def blocks(hmm, i):
    """Component i's block moments: mu_h, mu_r, s_hh, s_hr, s_rh, s_rr."""
    d_z, m, c = hmm.d_z, hmm.means[i], hmm.covs[i]
    return m[:d_z], m[d_z:], c[:d_z, :d_z], c[:d_z, d_z:], c[d_z:, :d_z], c[d_z:, d_z:]


def condition_exact(hmm, i, z_h):
    """Component i's distribution of the r block given an observed h block."""
    mu_h, mu_r, s_hh, s_hr, s_rh, s_rr = blocks(hmm, i)
    sol = np.linalg.solve(s_hh, np.hstack([(z_h - mu_h)[:, None], s_hr]))
    cov = s_rr - s_rh @ sol[:, 1:]
    return Gaussian(mu_r + s_rh @ sol[:, 0], 0.5 * (cov + cov.T))


def test_condition_exact_matches_dense_solve_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        h = random_hmm(rng, 1, 2)
        mu_h, mu_r, s_hh, s_hr, s_rh, s_rr = blocks(h, 0)
        z = rng.standard_normal(2)
        inv = np.linalg.inv(s_hh)
        g = condition_exact(h, 0, z)
        np.testing.assert_allclose(g.mean, mu_r + s_rh @ inv @ (z - mu_h), atol=1e-10)
        np.testing.assert_allclose(g.cov, s_rr - s_rh @ inv @ s_hr, atol=1e-10)


def moments_of_one(hmm, z, post_var, alpha):
    """``conditional_moments`` at a batch of one: (mean (d_r,), cov (d_r, d_r))."""
    post_var = None if post_var is None else post_var[None]
    means, covs = conditional_moments(hmm, z[None], post_var, alpha[None])
    return means[0], covs[0]


def test_gmr_single_component_point_mode_equals_exact():
    rng = np.random.default_rng(14)
    for _ in range(10):
        h = random_hmm(rng, 1, 3)
        z = rng.standard_normal(3)
        mean, cov = moments_of_one(h, z, None, np.ones(1))
        want = condition_exact(h, 0, z)
        np.testing.assert_allclose(mean, want.mean, atol=1e-9)
        np.testing.assert_allclose(cov, want.cov, atol=1e-9)


def test_gmr_concentrated_weight_selects_component():
    rng = np.random.default_rng(15)
    h = random_hmm(rng, 4, 2)
    z = rng.standard_normal(2)
    alpha = np.array([0.0, 0.0, 1.0, 0.0])
    mean, cov = moments_of_one(h, z, None, alpha)
    want = condition_exact(h, 2, z)
    np.testing.assert_allclose(mean, want.mean, atol=1e-9)
    np.testing.assert_allclose(cov, want.cov, atol=1e-9)


def test_gmr_with_cov_converges_to_point_mode():
    rng = np.random.default_rng(16)
    h = random_hmm(rng, 3, 2)
    z = rng.standard_normal(2)
    alpha = np.array([0.2, 0.5, 0.3])
    point_mean, point_cov = moments_of_one(h, z, None, alpha)
    near_mean, near_cov = moments_of_one(h, z, np.full(2, 1e-8), alpha)
    np.testing.assert_allclose(near_mean, point_mean, atol=1e-6)
    np.testing.assert_allclose(near_cov, point_cov, atol=1e-6)


def test_gmr_mixture_mean_identity():
    rng = np.random.default_rng(17)
    h = random_hmm(rng, 5, 2)
    z = rng.standard_normal(2)
    alpha = rng.dirichlet(np.ones(5))
    mean, _ = moments_of_one(h, z, None, alpha)
    expected = np.zeros(2)
    for i in range(5):
        expected += alpha[i] * condition_exact(h, i, z).mean
    np.testing.assert_allclose(mean, expected, atol=1e-12)


def test_gmr_output_cov_spd():
    """The raw mixture covariance is positive definite without repair."""
    rng = np.random.default_rng(18)
    for _ in range(20):
        h = random_hmm(rng, 3, 2, spread=3.0)
        z = rng.standard_normal(2)
        alpha = rng.dirichlet(np.ones(3))
        _, cov = moments_of_one(h, z, rng.uniform(0.01, 2.0, 2), alpha)
        np.linalg.cholesky(cov)


def gmr_reference_loop(hmm, point, post_var, alpha):
    """Raw mixture moments (mean, cov) of the r block given one h-block
    point, one component at a time; post_var None conditions on the exact
    point."""
    d_z, d_r = hmm.d_z, hmm.dim - hmm.d_z
    mean = np.zeros(d_r)
    second = np.zeros((d_r, d_r))
    for i in range(hmm.n_states):
        if alpha[i] == 0.0:
            continue
        mu_h, mu_r, s_hh, s_hr, s_rh, s_rr = blocks(hmm, i)
        gain_base = s_hh if post_var is None else s_hh + np.diag(post_var)
        rhs = np.hstack([(point - mu_h)[:, None], s_hr])
        sol = np.linalg.solve(gain_base, rhs)
        mu_i = mu_r + s_rh @ sol[:, 0]
        mean += alpha[i] * mu_i
        second += alpha[i] * (s_rr - s_rh @ sol[:, 1:] + np.outer(mu_i, mu_i))
    return mean, second - np.outer(mean, mean)


def _conditioning_case(seed):
    rng = np.random.default_rng(seed)
    h = random_hmm(rng, 4, 3, spread=2.0)
    B = 7
    points = 2.0 * rng.standard_normal((B, 3))
    var = rng.uniform(0.1, 1.5, (B, 3))
    alphas = rng.dirichlet(np.ones(4), size=B)
    alphas[1, 2] = 0.0  # zero weights, as the forward variable leaves them
    alphas[1] /= alphas[1].sum()
    alphas[2] = [0.0, 1.0, 0.0, 0.0]
    return h, points, var, alphas


def test_conditional_moments_matches_reference_loop():
    h, points, var, alphas = _conditioning_case(19)
    for post_var in (var, None):
        means, covs = conditional_moments(h, points, post_var, alphas)
        for b in range(points.shape[0]):
            ref_mean, ref_cov = gmr_reference_loop(
                h, points[b], None if post_var is None else post_var[b], alphas[b]
            )
            np.testing.assert_allclose(means[b], ref_mean, rtol=0, atol=1e-10)
            np.testing.assert_allclose(covs[b], ref_cov, rtol=0, atol=1e-10)


@pytest.mark.parametrize("mode", ["point", "with_cov"])
def test_gmr_condition_matches_reference_loop(mode):
    h, points, var, alphas = _conditioning_case(24)
    for b in range(points.shape[0]):
        post_var = var[b] if mode == "with_cov" else None
        mean = gmr_condition(h, points[b], post_var, alphas[b])
        ref_mean, _ = gmr_reference_loop(h, points[b], post_var, alphas[b])
        assert mean.shape == ref_mean.shape
        np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-10)


@pytest.mark.parametrize("mode", ["point", "with_cov"])
def test_conditional_means_matches_reference_loop(mode):
    """The batch of 7, zero weights included, and each row as a batch of one."""
    h, points, var, alphas = _conditioning_case(19)
    post_var = var if mode == "with_cov" else None
    means = conditional_means(h, points, post_var, alphas)
    assert means.shape == (points.shape[0], h.dim - h.d_z)
    for b in range(points.shape[0]):
        row_var = None if post_var is None else post_var[b]
        ref_mean, _ = gmr_reference_loop(h, points[b], row_var, alphas[b])
        np.testing.assert_allclose(means[b], ref_mean, rtol=0, atol=1e-10)
        one = conditional_means(
            h, points[b][None], None if row_var is None else row_var[None], alphas[b][None]
        )
        np.testing.assert_allclose(one[0], ref_mean, rtol=0, atol=1e-10)


@pytest.mark.parametrize("mode", ["point", "with_cov"])
def test_conditional_means_equal_conditional_moments_means(mode):
    rng = np.random.default_rng(25)
    h = random_hmm(rng, 6, 5, spread=2.0)
    B = 40
    points = 2.0 * rng.standard_normal((B, 5))
    post_var = rng.uniform(0.01, 2.0, (B, 5)) if mode == "with_cov" else None
    alphas = rng.dirichlet(np.ones(6), size=B)
    want, _ = conditional_moments(h, points, post_var, alphas)
    got = conditional_means(h, points, post_var, alphas)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "condition, post_var",
    [
        pytest.param(conditional_means, None, id="None"),
        pytest.param(conditional_means, np.zeros((1, 2)), id="post_var1"),
        pytest.param(conditional_moments, None, id="moments-None"),
        pytest.param(conditional_moments, np.zeros((1, 2)), id="moments-post_var1"),
    ],
)
def test_conditional_means_singular_gain_is_numerical_error(condition, post_var):
    h = random_hmm(np.random.default_rng(27), 2, 2)
    covs = h.covs.copy()
    covs[1, :2, :2] = 0.0
    h = replace(h, covs=covs)
    with pytest.raises(NumericalError, match="singular"):
        condition(h, np.zeros((1, 2)), post_var, np.array([[0.5, 0.5]]))


# ---------------------------------------------------------------------------
# non-finite observations
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("entry", ["state_log_liks", "forward", "forward_step", "em_fit"])
def test_non_finite_observation_is_a_value_error(entry, bad):
    rng = np.random.default_rng(26)
    h = random_hmm(rng, 3, 2)
    obs = rng.standard_normal((12, 4))
    obs[8, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        if entry == "state_log_liks":
            state_log_liks(h, obs)
        elif entry == "forward":
            forward(h, obs)
        elif entry == "forward_step":  # the online step, as reactive_step runs it
            _, la = forward_step(h, state_log_liks(h, obs[:1])[0], None)
            forward_step(h, state_log_liks(h, obs[8:9])[0], la)
        else:
            em_fit(h, [obs[:6], obs[6:]], max_iters=3)


# ---------------------------------------------------------------------------
# contact gate
# ---------------------------------------------------------------------------


@pytest.fixture
def gate_setup():
    rng = np.random.default_rng(20)
    h = random_hmm(rng, 4, 2)
    gate = Gaussian(np.array([3.0, 3.0]), 0.1 * np.eye(2))
    tsm = TransitionStateModel.for_hmm(h, contact_states={2, 3}, reach_states={0, 1}, gate=gate)
    return h, tsm


def gate_at(h, tsm, alpha, z_h, prev=False):
    """``contact_gate`` given the h-block emission row at ``z_h``, as
    ``reactive_step`` calls it."""
    return contact_gate(alpha, state_log_liks(h, z_h[None], "h")[0], tsm, z_h, prev=prev)


def test_gate_stays_off_in_reach(gate_setup):
    alpha = np.array([0.9, 0.1, 0.0, 0.0])
    assert gate_at(*gate_setup, alpha, np.array([-5.0, -5.0])) is False


def test_gate_fires_on_contact_alpha(gate_setup):
    alpha = np.array([0.0, 0.0, 1.0, 0.0])
    assert gate_at(*gate_setup, alpha, np.zeros(2)) is True


def test_gate_fires_on_transition_density(gate_setup):
    alpha = np.array([0.9, 0.1, 0.0, 0.0])
    assert gate_at(*gate_setup, alpha, np.array([3.0, 3.0])) is True


def test_gate_latches(gate_setup):
    reach_alpha = np.array([1.0, 0.0, 0.0, 0.0])
    assert gate_at(*gate_setup, reach_alpha, np.array([-5.0, -5.0]), prev=True) is True


def test_tsm_rejects_empty_contact_states():
    rng = np.random.default_rng(21)
    h = random_hmm(rng, 3, 2)
    with pytest.raises(ValueError, match="contact state set must not be empty"):
        TransitionStateModel.for_hmm(h, set(), {0, 1, 2})


def test_tsm_rejects_states_outside_the_model():
    rng = np.random.default_rng(21)
    h = random_hmm(rng, 3, 2)
    with pytest.raises(ValueError, match="outside"):
        TransitionStateModel.for_hmm(h, {3}, {0})


def test_gate_monotone_over_trajectory(gate_setup):
    rng = np.random.default_rng(22)
    prev = False
    seen_true = False
    for _ in range(50):
        alpha = rng.dirichlet(np.ones(4))
        fired = gate_at(*gate_setup, alpha, rng.standard_normal(2), prev=prev)
        if seen_true:
            assert fired
        seen_true = seen_true or fired
        prev = fired


def test_tsm_disjoint_sets_enforced():
    rng = np.random.default_rng(23)
    h = random_hmm(rng, 3, 2)
    with pytest.raises(ValueError, match="disjoint"):
        TransitionStateModel.for_hmm(h, {0, 1}, {1, 2})


def test_hmm_json_round_trip():
    rng = np.random.default_rng(24)
    h = random_hmm(rng, 3, 2)
    h2 = Hmm.from_dict(h.to_dict())
    np.testing.assert_array_equal(h.pi, h2.pi)
    np.testing.assert_array_equal(h.trans, h2.trans)
    np.testing.assert_array_equal(h.means, h2.means)
    np.testing.assert_array_equal(h.covs, h2.covs)
    assert h2.d_z == 2
