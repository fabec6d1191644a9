import numpy as np
import pytest

from comotion.data import (
    SynthInteraction,
    SynthSpec,
    pair_features,
    split,
    synth_generate,
    window_features,
)
from comotion import infer
from comotion.errors import ConfigError
from comotion.gauss import Gaussian, log_pdf
from comotion.hmm import Hmm, TransitionStateModel
from comotion.infer import (
    ReactiveState,
    conditional_predictions,
    reactive_step,
    rollout,
)
from comotion.kin import default_arm_chain, fk, ik_with_prior
from comotion.train import ModelBundle, TrainConfig, _initial_hmm, train_hhi, train_hri
from comotion.vae import Vae, Variant, decode, encode_batch


@pytest.fixture(scope="module")
def dataset():
    spec = SynthSpec((SynthInteraction("greet", 12, 70, 0.04),))
    return split(synth_generate(spec, np.random.default_rng(200)), 0.8, seed=0)


@pytest.fixture(scope="module")
def trained(dataset):
    cfg = TrainConfig(epochs=30, n_states=4, variant=Variant("v3.2"))
    hhi = train_hhi(dataset, cfg, seed=0)
    return train_hri(dataset, hhi, cfg, seed=0)


@pytest.fixture(scope="module")
def untrained(dataset, trained):
    rng = np.random.default_rng(999)
    cfg = trained.config
    return ModelBundle(
        Vae.create(90, cfg.d_z, cfg.hidden, rng),
        Vae.create(20, cfg.d_z, cfg.hidden, rng),
        {"greet": (_initial_hmm(cfg.n_states, cfg.d_z), None)},
        cfg,
        999,
    )


def test_reactive_step_gate_off_returns_decoded_prediction(trained):
    pair_window = np.zeros(90)
    out, state = reactive_step(trained, "greet", pair_window, None, None, ReactiveState())
    expected_window = decode(trained.robot_vae, out.latent_mean)
    np.testing.assert_array_equal(out.q_cmd, expected_window[-4:])
    assert not out.stiffness_low and not out.ik_used
    assert state.t == 1


def test_reactive_step_unknown_interaction(trained):
    with pytest.raises(ConfigError, match="unknown interaction"):
        reactive_step(trained, "nope", np.zeros(90), None, None, ReactiveState())


def test_reactive_step_width_mismatch(trained):
    with pytest.raises(ValueError, match="width"):
        reactive_step(trained, "greet", np.zeros(89), None, None, ReactiveState())


def test_reactive_step_ik_fixed_point(trained):
    """With the gate forced on and the hand exactly at fk(prediction), IK
    must return the prediction unchanged."""
    hmm, _ = trained.hmms["greet"]
    tsm = TransitionStateModel.for_hmm(hmm, {0, 1, 2, 3}, set())  # always fires
    forced = ModelBundle(
        trained.human_vae,
        trained.robot_vae,
        {"greet": (hmm, tsm)},
        trained.config,
        trained.seed,
    )
    chain = default_arm_chain()
    x = np.zeros(90)
    probe, _ = reactive_step(forced, "greet", x, None, None, ReactiveState())
    mu_q = chain.clamp(probe.q_cmd)
    hand = fk(chain, mu_q)
    out, _ = reactive_step(forced, "greet", x, hand, chain, ReactiveState())
    assert out.ik_used and out.stiffness_low
    np.testing.assert_allclose(out.q_cmd, mu_q, atol=1e-9)


@pytest.fixture(scope="module")
def forced(trained):
    """The trained bundle with every state a contact state: the gate fires
    on the first step, so a chain and a hand target run IK on every step."""
    hmm, _ = trained.hmms["greet"]
    tsm = TransitionStateModel.for_hmm(hmm, range(hmm.n_states), ())
    return ModelBundle(
        trained.human_vae, trained.robot_vae, {"greet": (hmm, tsm)}, trained.config, trained.seed
    )


def _hand_targets(chain, pair):
    """A reachable hand target per frame: the hand of the recorded robot joints."""
    return np.array([fk(chain, chain.clamp(q)) for q in pair.r_frames])


def test_reactive_ik_is_one_local_solve_from_the_prediction(dataset, forced):
    """Each IK command is the single warm-started solve from that step's
    decoded prediction, bit for bit, and the global search with restarts
    would not have moved it out of that basin; each step carries the
    solve's outcome, and a step without IK carries NaN, 0 and False."""
    chain = default_arm_chain()
    pair = dataset.subset("test")[0]
    hands = _hand_targets(chain, pair)
    gate_off = rollout(forced, "greet", pair.h_frames)  # no chain: the decoded predictions
    result = rollout(forced, "greet", pair.h_frames, chain, hands)
    assert result.ik_used.all() and result.stiffness_low.all()
    assert not gate_off.ik_used.any() and np.isnan(gate_off.ik_residual).all()
    assert not gate_off.ik_iterations.any() and not gate_off.ik_converged.any()
    for t, (q_raw, hand) in enumerate(zip(gate_off.q, hands[forced.config.window - 1 :])):
        local = ik_with_prior(chain, hand, q_raw, 1.0, 0.01, restarts=0)
        np.testing.assert_array_equal(result.q[t], local.q)
        assert result.ik_residual[t] == local.residual
        assert result.ik_iterations[t] == local.iterations > 0
        assert result.ik_converged[t] == local.converged
        full = ik_with_prior(chain, hand, q_raw, 1.0, 0.01, restarts=8)
        assert np.abs(result.q[t] - full.q).max() < 1e-3


def test_rollout_skips_ik_at_a_non_finite_hand_target(dataset, forced):
    """A NaN hand frame does not end the episode: its step commands the
    decoded prediction without IK, the gate stays latched, and the next
    finite frame runs IK again, as if the bad frame had never been."""
    chain = default_arm_chain()
    pair = dataset.subset("test")[0]
    hands = _hand_targets(chain, pair)
    clean = rollout(forced, "greet", pair.h_frames, chain, hands)
    hands[30] = np.nan  # the target of step 26
    result = rollout(forced, "greet", pair.h_frames, chain, hands)
    gate_off = rollout(forced, "greet", pair.h_frames)
    assert np.flatnonzero(~result.ik_used).tolist() == [26]
    assert result.stiffness_low.all()
    np.testing.assert_array_equal(result.q[26], gate_off.q[26])
    assert np.isnan(result.ik_residual[26]) and result.ik_iterations[26] == 0
    assert not result.ik_converged[26]
    rest = np.arange(len(result.q)) != 26
    np.testing.assert_array_equal(result.q[rest], clean.q[rest])
    np.testing.assert_array_equal(result.alpha, clean.alpha)


@pytest.mark.parametrize("with_ik", [True, False], ids=["ik", "no-ik"])
def test_rollout_factors_each_density_once(dataset, trained, monkeypatch, with_ik):
    """Each fitted density is factored on first use and kept: after the first
    step of a rollout, with IK and without, np.linalg.cholesky and
    np.linalg.inv are never called again, though the gate's density branch
    runs before contact and IK after it."""
    hmm, _ = trained.hmms["greet"]
    fresh = Hmm.from_dict(hmm.to_dict())  # nothing computed from it yet
    far = Gaussian(np.full(trained.config.d_z, 50.0), np.eye(trained.config.d_z))
    tsm = TransitionStateModel.for_hmm(fresh, {fresh.n_states - 1}, {0}, far)
    bundle = ModelBundle(trained.human_vae, trained.robot_vae, {"greet": (fresh, tsm)},
                         trained.config, trained.seed)
    calls = {"cholesky": 0, "inv": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(np.linalg, name, counted)
    after_step = []
    step = infer.reactive_step

    def recorded(*args):
        out = step(*args)
        after_step.append(dict(calls))
        return out

    monkeypatch.setattr(infer, "reactive_step", recorded)
    chain = default_arm_chain()
    pair = dataset.subset("test")[0]
    hands = _hand_targets(chain, pair) if with_ik else None
    result = rollout(bundle, "greet", pair.h_frames, chain if with_ik else None, hands)
    assert not result.stiffness_low[0] and result.stiffness_low[-1]
    assert result.ik_used.any() == with_ik
    assert after_step[0] == {"cholesky": 2, "inv": 2}  # the h block's and the gate's
    assert after_step[-1] == after_step[0]


def test_trained_beats_untrained_by_10x(dataset, trained, untrained):
    pair = dataset.subset("train")[0]
    _, x_r = pair_features(pair, 5)
    gt_last = x_r[:, -4:]

    def replay_mse(bundle):
        result = rollout(bundle, "greet", pair.h_frames)
        return float(np.mean((result.q - gt_last) ** 2))

    assert replay_mse(trained) * 10 < replay_mse(untrained)


def test_rollout_length_arithmetic(trained, dataset):
    pair = dataset.pairs[0]
    result = rollout(trained, "greet", pair.h_frames)
    assert result.q.shape[0] == pair.length - 5 + 1


def test_rollout_alpha_converges_to_stationary_distribution(trained):
    frames = np.tile(np.linspace(0.1, 0.9, 9), (210, 1))
    result = rollout(trained, "greet", frames)
    hmm = trained.hmms["greet"][0]
    from comotion.data import window_features

    x = window_features(frames, 5, "positions")[-1]
    mu, _, _, _ = encode_batch(trained.human_vae, x[None, :])
    d = hmm.d_z
    liks = np.exp(
        [log_pdf(Gaussian(hmm.means[i, :d], hmm.covs[i, :d, :d]), mu[0])
         for i in range(hmm.n_states)]
    )
    alpha = np.full(hmm.n_states, 1.0 / hmm.n_states)
    for _ in range(2000):  # power iteration on the effective operator
        alpha = liks * (hmm.trans.T @ alpha)
        alpha /= alpha.sum()
    np.testing.assert_allclose(result.alpha[-1], alpha, atol=1e-6)


def test_rollout_gate_trace_is_monotone(dataset, trained):
    hmm, _ = trained.hmms["greet"]
    tsm = TransitionStateModel.for_hmm(hmm, {trained.config.n_states - 1}, {0})
    gated = ModelBundle(
        trained.human_vae, trained.robot_vae, {"greet": (hmm, tsm)},
        trained.config, trained.seed,
    )
    for pair in dataset.subset("test"):
        trace = rollout(gated, "greet", pair.h_frames).stiffness_low.astype(int)
        assert np.all(np.diff(trace) >= 0)


def test_rollout_is_stateless_across_episodes(dataset, trained):
    pair = dataset.pairs[1]
    a = rollout(trained, "greet", pair.h_frames)
    b = rollout(trained, "greet", pair.h_frames)
    np.testing.assert_array_equal(a.q, b.q)
    np.testing.assert_array_equal(a.alpha, b.alpha)


def test_rollout_is_causal(dataset, trained):
    pair = dataset.pairs[2]
    frames = pair.h_frames.copy()
    tampered = frames.copy()
    tampered[21:] += 5.0
    a = rollout(trained, "greet", frames)
    b = rollout(trained, "greet", tampered)
    np.testing.assert_array_equal(a.q[:17], b.q[:17])  # windows ending before t=21


def test_rollout_holds_the_command_through_a_bad_frame(dataset, trained):
    """One NaN cell at frame 30 spoils the six windows that read it (five
    through its position, one more through frame 31's delta): each is
    flagged and holds the last good command, and the episode finishes."""
    pair = dataset.subset("test")[0]
    frames = pair.h_frames.copy()
    frames[30, 4] = np.nan
    bad = ~np.isfinite(window_features(frames, 5, "positions")).all(axis=1)
    assert np.flatnonzero(bad).tolist() == list(range(26, 32))
    result = rollout(trained, "greet", frames)
    clean = rollout(trained, "greet", pair.h_frames)
    assert result.q.shape == clean.q.shape
    np.testing.assert_array_equal(result.bad_frame, bad)
    assert not clean.bad_frame.any()
    assert np.isfinite(result.q).all() and np.isfinite(result.alpha).all()
    np.testing.assert_array_equal(result.q[:26], clean.q[:26])
    np.testing.assert_array_equal(result.q[26:32], np.repeat(clean.q[25:26], 6, axis=0))


def test_bad_window_advances_alpha_by_prediction_alone(trained):
    """Before any command a bad window commands the decoded r-block mixture
    mean of the predicted state distribution (pi at the first step); the
    next bad window holds that command and predicts alpha @ trans."""
    hmm = trained.hmms["greet"][0]
    window = np.zeros(90)
    window[7] = np.inf
    out, state = reactive_step(trained, "greet", window, None, None, ReactiveState())
    assert out.bad_frame and not out.stiffness_low and not out.ik_used
    np.testing.assert_allclose(out.alpha_t, hmm.pi, rtol=1e-12)
    np.testing.assert_allclose(out.latent_mean, hmm.pi @ hmm.means[:, hmm.d_z :], rtol=1e-12)
    np.testing.assert_array_equal(out.q_cmd, decode(trained.robot_vae, out.latent_mean)[-4:])
    nxt, state = reactive_step(trained, "greet", window, None, None, state)
    np.testing.assert_allclose(nxt.alpha_t, out.alpha_t @ hmm.trans, rtol=1e-12)
    np.testing.assert_array_equal(nxt.q_cmd, out.q_cmd)
    assert nxt.bad_frame and state.t == 2


def test_mode_consistency_v32_inference_uses_posterior_covariance(trained):
    """The inference conditional must equal the training-path conditional
    computed from the same posterior and the same state weights."""
    from comotion.hmm import conditional_moments

    assert trained.config.variant.tag == "v3.2"
    x = np.zeros(90)
    out, _ = reactive_step(trained, "greet", x, None, None, ReactiveState())
    mu, var, _, _ = encode_batch(trained.human_vae, x[None, :])
    mean, _ = conditional_moments(
        trained.hmms["greet"][0], mu, var, out.alpha_t[None, :]
    )
    np.testing.assert_allclose(out.latent_mean, mean[0], atol=1e-12)


def test_rollout_commands_equal_batched_conditional_predictions(dataset, trained):
    """The batch-1 reactive step and the batched whole-trajectory path
    condition and decode the same way: with the gate off, each command is
    the last frame of the batched prediction for its window."""
    n_r = trained.robot_vae.input_dim // trained.config.window
    for pair in dataset.subset("test"):
        x_h, _ = pair_features(pair, trained.config.window)
        pred, alpha = conditional_predictions(
            trained.human_vae, trained.robot_vae, trained.hmms["greet"][0], x_h,
            trained.config.variant,
        )
        result = rollout(trained, "greet", pair.h_frames)
        np.testing.assert_allclose(result.alpha, alpha, rtol=0, atol=1e-9)
        np.testing.assert_allclose(result.q, pred[:, -n_r:], rtol=0, atol=1e-9)


def test_conditional_predictions_shapes(dataset, trained):
    pair = dataset.pairs[0]
    x_h, x_r = pair_features(pair, 5)
    pred, alpha = conditional_predictions(
        trained.human_vae, trained.robot_vae, trained.hmms["greet"][0], x_h,
        trained.config.variant,
    )
    assert pred.shape == x_r.shape
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, atol=1e-9)


# ---------------------------------------------------------------------------
# smoothing
# ---------------------------------------------------------------------------


def smooth(trajectory: np.ndarray, weights) -> np.ndarray:
    """Causal weighted moving average; newest sample takes the last weight.

    The startup transient renormalizes over the available prefix.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0:
        raise ValueError("need at least one filter weight")
    weights = weights / weights.sum()
    traj = np.asarray(trajectory, dtype=np.float64)
    flat = traj[:, None] if traj.ndim == 1 else traj
    m = weights.shape[0]
    out = np.empty_like(flat)
    for t in range(flat.shape[0]):
        lo = max(0, t - m + 1)
        w = weights[-(t - lo + 1) :]
        out[t] = (w[:, None] * flat[lo : t + 1]).sum(axis=0) / w.sum()
    return out[:, 0] if traj.ndim == 1 else out


@pytest.mark.parametrize("weights", [[0.1, 0.2, 0.3, 0.4], [1.0, 3.0], [2.0], [0.0, 1.0]])
def test_rollout_online_smoothing_matches_offline_filter(dataset, trained, weights):
    """``reactive_step``'s smoothing buffer filters the commands as the
    offline causal filter does, startup transient included (gate off)."""
    w = np.asarray(weights)
    for pair in dataset.subset("test")[:2]:
        raw = rollout(trained, "greet", pair.h_frames)
        smoothed = rollout(trained, "greet", pair.h_frames, smooth_weights=w)
        assert not raw.stiffness_low.any()
        np.testing.assert_allclose(smoothed.q, smooth(raw.q, w), rtol=0, atol=1e-12)


def test_smooth_single_weight_is_identity():
    rng = np.random.default_rng(0)
    traj = rng.standard_normal((10, 3))
    np.testing.assert_array_equal(smooth(traj, [1.0]), traj)


def test_smooth_constant_unchanged():
    traj = np.ones((12, 2)) * 3.3
    np.testing.assert_allclose(smooth(traj, [0.25, 0.25, 0.25, 0.25]), traj, atol=1e-12)


def test_smooth_step_input_matches_hand_convolution():
    step = np.concatenate([np.zeros(4), np.ones(6)])
    out = smooth(step, [0.25, 0.25, 0.25, 0.25])
    expected = np.array([0, 0, 0, 0, 0.25, 0.5, 0.75, 1.0, 1.0, 1.0])
    np.testing.assert_allclose(out, expected, atol=1e-12)


def test_smooth_startup_renormalizes_prefix():
    traj = np.array([2.0, 2.0, 2.0])
    out = smooth(traj, [0.1, 0.2, 0.3, 0.4])
    np.testing.assert_allclose(out, [2.0, 2.0, 2.0], atol=1e-12)


def test_smooth_rejects_empty_weights():
    with pytest.raises(ValueError):
        smooth(np.zeros((3, 2)), [])


@pytest.mark.parametrize(
    "weights",
    [[0.0, 0.0], [1.0, -1.0], [np.nan, 1.0], [np.inf, 1.0], [1.0, 0.0], [], [[1.0, 2.0]]],
    ids=["zero-sum", "negative", "nan", "inf", "last-zero", "empty", "2-d"],
)
def test_rollout_rejects_smooth_weights_before_any_step(dataset, trained, monkeypatch, weights):
    """Weights that could make a command non-finite (a zero or negative
    trailing sum, a non-finite weight) or that do not form a filter are a
    ValueError naming them, raised before the first window is encoded."""
    encoded = []
    monkeypatch.setattr(infer, "encode_batch", lambda *a: encoded.append(a) or encode_batch(*a))
    pair = dataset.subset("test")[0]
    with pytest.raises(ValueError, match="smooth_weights"):
        rollout(trained, "greet", pair.h_frames, smooth_weights=np.array(weights))
    assert not encoded


@pytest.mark.parametrize("shape", [(10, 3), (69, 3), (71, 3), (70, 2), (70,)])
def test_rollout_rejects_hand_positions_of_the_wrong_shape_before_any_step(
    dataset, forced, monkeypatch, shape
):
    steps = []
    monkeypatch.setattr(infer, "reactive_step", lambda *a: steps.append(a))
    pair = dataset.subset("test")[0]
    assert pair.h_frames.shape[0] == 70
    with pytest.raises(ValueError, match="hand_positions"):
        rollout(forced, "greet", pair.h_frames, default_arm_chain(), np.zeros(shape))
    assert not steps
