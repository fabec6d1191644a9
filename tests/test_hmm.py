import itertools
import math

import numpy as np
import pytest

from comotion.errors import NumericalError
from comotion.gauss import EIGEN, Gaussian, condition_exact, log_pdf, regularize_spd
from comotion.hmm import (
    AlphaSequence,
    Hmm,
    TransitionStateModel,
    conditional_moments,
    contact_gate,
    em_fit,
    forward,
    forward_step,
    forward_unobserved,
    gmr_condition,
    init_segments,
    most_likely,
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
        got = forward(h, obs).values
        np.testing.assert_allclose(got, expected, atol=1e-10)


def test_forward_rows_sum_to_one():
    rng = np.random.default_rng(1)
    h = random_hmm(rng, 4, 2)
    alpha = forward(h, rng.standard_normal((30, 4)))
    np.testing.assert_allclose(alpha.values.sum(axis=1), np.ones(30), atol=1e-9)
    assert np.all(alpha.values >= 0)


def test_forward_blocks():
    rng = np.random.default_rng(2)
    h = random_hmm(rng, 3, 2)
    assert forward(h, rng.standard_normal((5, 2)), "h").values.shape == (5, 3)
    assert forward(h, rng.standard_normal((5, 2)), "r").values.shape == (5, 3)
    with pytest.raises(ValueError, match="width"):
        forward(h, rng.standard_normal((5, 3)), "h")


def test_forward_step_matches_batch():
    rng = np.random.default_rng(3)
    h = random_hmm(rng, 3, 2)
    obs = rng.standard_normal((6, 2))
    batch = forward(h, obs, "h").values
    la = None
    for t in range(6):
        alpha_t, la = forward_step(h, obs[t], la, "h")
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


def test_forward_unobserved_initialization():
    rng = np.random.default_rng(4)
    h = random_hmm(rng, 3, 1)
    bar = forward_unobserved(h, 1)
    np.testing.assert_allclose(bar[0], h.pi, atol=1e-12)


def test_forward_unobserved_matches_matrix_power():
    rng = np.random.default_rng(5)
    h = random_hmm(rng, 4, 1)
    bar = forward_unobserved(h, 6).values
    expected = h.pi.copy()
    np.testing.assert_allclose(bar[0], expected, atol=1e-12)
    for t in range(1, 6):
        expected = expected @ h.trans
        np.testing.assert_allclose(bar[t], expected, atol=1e-12)


def test_forward_unobserved_identity_transitions():
    rng = np.random.default_rng(6)
    h = random_hmm(rng, 3, 1)
    h.trans = np.eye(3)
    bar = forward_unobserved(h, 10).values
    for t in range(10):
        np.testing.assert_allclose(bar[t], h.pi, atol=1e-12)


def test_alpha_sequence_loglik_requires_observations():
    seq = AlphaSequence(np.ones((2, 2)) * 0.5, None)
    with pytest.raises(ValueError):
        _ = seq.loglik


# ---------------------------------------------------------------------------
# most_likely
# ---------------------------------------------------------------------------


def test_most_likely_basic():
    assert most_likely(np.array([0.1, 0.7, 0.2])) == 1


def test_most_likely_tie_breaks_low():
    assert most_likely(np.array([0.5, 0.5])) == 0


def test_most_likely_scale_invariant():
    rng = np.random.default_rng(7)
    v = rng.uniform(0.1, 1.0, 6)
    assert most_likely(v) == most_likely(10.0 * v)


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


# ---------------------------------------------------------------------------
# conditioning
# ---------------------------------------------------------------------------


def test_gmr_single_component_point_mode_equals_exact():
    rng = np.random.default_rng(14)
    for _ in range(10):
        h = random_hmm(rng, 1, 3)
        z = rng.standard_normal(3)
        post = Gaussian(z, np.diag(rng.uniform(0.1, 1.0, 3)))
        got = gmr_condition(h, post, np.ones(1), "point")
        want = condition_exact(h.component(0), z)
        np.testing.assert_allclose(got.mean, want.mean, atol=1e-9)
        np.testing.assert_allclose(got.cov, want.cov, atol=1e-9)


def test_gmr_concentrated_weight_selects_component():
    rng = np.random.default_rng(15)
    h = random_hmm(rng, 4, 2)
    z = rng.standard_normal(2)
    post = Gaussian(z, 0.2 * np.eye(2))
    alpha = np.array([0.0, 0.0, 1.0, 0.0])
    got = gmr_condition(h, post, alpha, "point")
    want = condition_exact(h.component(2), z)
    np.testing.assert_allclose(got.mean, want.mean, atol=1e-9)
    np.testing.assert_allclose(got.cov, want.cov, atol=1e-9)


def test_gmr_with_cov_converges_to_point_mode():
    rng = np.random.default_rng(16)
    h = random_hmm(rng, 3, 2)
    z = rng.standard_normal(2)
    alpha = np.array([0.2, 0.5, 0.3])
    point = gmr_condition(h, Gaussian(z, np.eye(2)), alpha, "point")
    near = gmr_condition(h, Gaussian(z, 1e-8 * np.eye(2)), alpha, "with_cov")
    np.testing.assert_allclose(near.mean, point.mean, atol=1e-6)
    np.testing.assert_allclose(near.cov, point.cov, atol=1e-6)


def test_gmr_mixture_mean_identity():
    rng = np.random.default_rng(17)
    h = random_hmm(rng, 5, 2)
    z = rng.standard_normal(2)
    alpha = rng.dirichlet(np.ones(5))
    got = gmr_condition(h, Gaussian(z, np.eye(2)), alpha, "point")
    expected = np.zeros(2)
    for i in range(5):
        expected += alpha[i] * condition_exact(h.component(i), z).mean
    np.testing.assert_allclose(got.mean, expected, atol=1e-12)


def test_gmr_output_cov_spd():
    rng = np.random.default_rng(18)
    for _ in range(20):
        h = random_hmm(rng, 3, 2, spread=3.0)
        z = rng.standard_normal(2)
        alpha = rng.dirichlet(np.ones(3))
        post = Gaussian(z, np.diag(rng.uniform(0.01, 2.0, 2)))
        out = gmr_condition(h, post, alpha, "with_cov")
        np.linalg.cholesky(out.cov)


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
        comp = hmm.component(i)
        gain_base = comp.s_hh if post_var is None else comp.s_hh + np.diag(post_var)
        rhs = np.hstack([(point - comp.mu_h)[:, None], comp.s_hr])
        sol = np.linalg.solve(gain_base, rhs)
        mu_i = comp.mu_r + comp.s_rh @ sol[:, 0]
        mean += alpha[i] * mu_i
        second += alpha[i] * (comp.s_rr - comp.s_rh @ sol[:, 1:] + np.outer(mu_i, mu_i))
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
        got = gmr_condition(h, Gaussian.diagonal(points[b], var[b]), alphas[b], mode)
        ref_mean, ref_cov = gmr_reference_loop(
            h, points[b], var[b] if mode == "with_cov" else None, alphas[b]
        )
        np.testing.assert_allclose(got.mean, ref_mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got.cov, regularize_spd(ref_cov, EIGEN), rtol=0, atol=1e-10)


def test_gmr_with_cov_rejects_a_full_posterior_covariance():
    rng = np.random.default_rng(25)
    h = random_hmm(rng, 3, 2)
    post = Gaussian(np.zeros(2), np.array([[1.0, 0.2], [0.2, 1.0]]))
    alpha = np.full(3, 1.0 / 3.0)
    with pytest.raises(ValueError, match="diagonal"):
        gmr_condition(h, post, alpha, "with_cov")
    gmr_condition(h, post, alpha, "point")  # point mode reads only the mean


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
        elif entry == "forward_step":
            _, la = forward_step(h, obs[0], None)
            forward_step(h, obs[8], la)
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


def test_gate_stays_off_in_reach(gate_setup):
    _, tsm = gate_setup
    alpha = np.array([0.9, 0.1, 0.0, 0.0])
    assert contact_gate(alpha, tsm, np.array([-5.0, -5.0]), prev=False) is False


def test_gate_fires_on_contact_alpha(gate_setup):
    _, tsm = gate_setup
    alpha = np.array([0.0, 0.0, 1.0, 0.0])
    assert contact_gate(alpha, tsm, np.zeros(2), prev=False) is True


def test_gate_fires_on_transition_density(gate_setup):
    _, tsm = gate_setup
    alpha = np.array([0.9, 0.1, 0.0, 0.0])
    assert contact_gate(alpha, tsm, np.array([3.0, 3.0]), prev=False) is True


def test_gate_latches(gate_setup):
    _, tsm = gate_setup
    reach_alpha = np.array([1.0, 0.0, 0.0, 0.0])
    assert contact_gate(reach_alpha, tsm, np.array([-5.0, -5.0]), prev=True) is True


def test_gate_empty_contact_states_never_fires():
    rng = np.random.default_rng(21)
    h = random_hmm(rng, 3, 2)
    tsm = TransitionStateModel.for_hmm(h, set(), {0, 1, 2})
    assert contact_gate(np.array([0, 0, 1.0]), tsm, np.zeros(2), prev=False) is False


def test_gate_monotone_over_trajectory(gate_setup):
    rng = np.random.default_rng(22)
    _, tsm = gate_setup
    prev = False
    seen_true = False
    for _ in range(50):
        alpha = rng.dirichlet(np.ones(4))
        fired = contact_gate(alpha, tsm, rng.standard_normal(2), prev=prev)
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
