import numpy as np
import pytest

from comotion.data import SynthInteraction, SynthSpec, pair_features, split, synth_generate
from comotion.errors import ConfigError
from comotion.gauss import Gaussian, log_pdf
from comotion.hmm import TransitionStateModel
from comotion.infer import (
    ReactiveState,
    conditional_predictions,
    reactive_step,
    rollout,
    smooth,
)
from comotion.kin import default_arm_chain, fk
from comotion.train import ModelBundle, TrainConfig, _initial_hmm, train_hhi, train_hri
from comotion.vae import Vae, Variant, decode, encode_batch


@pytest.fixture(scope="module")
def dataset():
    spec = SynthSpec((SynthInteraction("greet", 12, 70, 0.04),))
    return split(synth_generate(spec, np.random.default_rng(200)), 0.8, seed=0)


@pytest.fixture(scope="module")
def trained(dataset):
    cfg = TrainConfig(epochs=30, seeds=(0,), n_states=4, variant=Variant("v3.2"))
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
    expected_window = decode(trained.robot_vae, out.latent_r.mean)
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
    liks = np.exp(
        [log_pdf(hmm.marginal(i, "h"), mu[0]) for i in range(hmm.n_states)]
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
        trace = rollout(gated, "greet", pair.h_frames).gate.astype(int)
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


def test_mode_consistency_v32_inference_uses_posterior_covariance(trained):
    """The inference conditional must equal the training-path conditional
    computed from the same posterior and the same state weights."""
    from comotion.hmm import conditional_moments

    assert trained.config.variant.tag == "v3.2"
    x = np.zeros(90)
    out, _ = reactive_step(trained, "greet", x, None, None, ReactiveState())
    mu, var, _, _ = encode_batch(trained.human_vae, x[None, :])
    mean, cov = conditional_moments(
        trained.hmms["greet"][0], mu, var, out.alpha_t[None, :]
    )
    np.testing.assert_allclose(out.latent_r.mean, mean[0], atol=1e-12)
    np.testing.assert_allclose(out.latent_r.cov, cov[0], atol=1e-12)


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
