import logging
from dataclasses import replace

import numpy as np
import pytest

from comotion.data import Dataset, SynthInteraction, SynthSpec, pair_features, split, synth_generate
from comotion.errors import ConfigError
from comotion.evaluate import evaluate_bundle, mse
from comotion.gauss import Gaussian
from comotion.hmm import Hmm, TransitionStateModel, fit_gaussian, forward, forward_unobserved
from comotion.infer import conditional_predictions
from comotion.train import (
    ModelBundle,
    TrainConfig,
    _featurize,
    _fit_val_split,
    _initial_hmm,
    _refit_hmms,
    _validation_mse,
    fit_transition_states,
    load_bundle,
    save_bundle,
    train_hhi,
    train_hri,
    write_trace,
)
from comotion.vae import Variant, encode_batch


@pytest.fixture(scope="module")
def small_dataset():
    spec = SynthSpec((SynthInteraction("greet", 12, 70, 0.05),))
    ds = synth_generate(spec, np.random.default_rng(100))
    return split(ds, 0.8, seed=0)


@pytest.fixture(scope="module")
def small_config():
    return TrainConfig(epochs=25, n_states=4, variant=Variant("v3.2"))


@pytest.fixture(scope="module")
def hhi_bundle(small_dataset, small_config):
    return train_hhi(small_dataset, small_config, seed=0)


def test_config_rejects_nonpositive():
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)


def test_config_round_trip():
    cfg = TrainConfig(epochs=7, variant=Variant("v2.2"))
    cfg2 = TrainConfig.from_dict(cfg.to_dict())
    assert cfg2 == cfg


def test_initial_hmm_is_zero_mean_identity():
    h = _initial_hmm(6, 5)
    np.testing.assert_array_equal(h.means, np.zeros((6, 10)))
    for c in h.covs:
        np.testing.assert_array_equal(c, np.eye(10))
    # with identical components the first-epoch prior is standard normal
    bar = forward_unobserved(h, 10)
    assert np.allclose(bar, 1.0 / 6.0)


def test_refit_runs_no_forward_pass_outside_em_fit(monkeypatch, small_dataset, small_config,
                                                  hhi_bundle):
    """A refit is ``init_segments`` then ``em_fit`` per interaction: with one
    EM iteration each fit makes two forward passes, the E-step's and the
    last one over the model it returns, and the refit makes no other."""
    from comotion import _kernels, train
    from comotion.train import _featurize, _fit_val_split

    forward_log, em_fit = _kernels.forward_log, train.em_fit
    calls = {"in em_fit": 0, "elsewhere": 0}
    inside = []

    def counted_forward(*args):
        calls["in em_fit" if inside else "elsewhere"] += 1
        return forward_log(*args)

    def spied_em_fit(*args):
        inside.append(1)
        try:
            return em_fit(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(_kernels, "forward_log", counted_forward)
    monkeypatch.setattr(train, "em_fit", spied_em_fit)
    fit, _ = _fit_val_split(_featurize(small_dataset.subset("train"), small_config.window),
                            small_config.val_fraction, 0)
    config = replace(small_config, em_max_iters=1)
    hmms = _refit_hmms(hhi_bundle.human_vae, hhi_bundle.robot_vae, fit, config,
                       np.random.default_rng(0))
    assert calls == {"in em_fit": 2 * len(hmms), "elsewhere": 0}


def test_hhi_loss_decreases(small_dataset, small_config, hhi_bundle):
    # Reconstruction is scored in standardized units, where predicting the
    # fit-split mean scores 1.0 per agent. The robot joints are learnable;
    # 60 of the 90 human features (shoulder positions and all frame deltas)
    # are pure noise in this fixture, so the human term stays well above 0.
    first, last = hhi_bundle.trace[0], hhi_bundle.trace[-1]
    assert last["total"] < 0.5 * first["total"]
    assert last["recon_r"] < 0.25
    assert last["recon_h"] < 0.9


def test_hhi_feature_stats_come_from_the_fit_split(small_dataset, small_config, hhi_bundle):
    from comotion.train import _featurize, _fit_val_split

    feats = _featurize(small_dataset.subset("train"), small_config.window)
    fit, val = _fit_val_split(feats, small_config.val_fraction, 0)
    assert val
    for vae, key in ((hhi_bundle.human_vae, "x_h"), (hhi_bundle.robot_vae, "x_r")):
        x = np.vstack([getattr(f, key) for f in fit])
        np.testing.assert_array_equal(vae.x_mean, x.mean(axis=0))
        np.testing.assert_array_equal(vae.x_std, x.std(axis=0))


def test_zero_val_fraction_holds_out_nothing():
    from comotion.train import _featurize, _fit_val_split

    ds = synth_generate(SynthSpec((SynthInteraction("greet", 8, 30, 0.05),)), np.random.default_rng(0))
    fit, val = _fit_val_split(_featurize(ds.pairs, 5), 0.0, 0)
    assert (len(fit), len(val)) == (8, 0)


def test_hhi_deterministic(small_dataset, small_config, hhi_bundle):
    again = train_hhi(small_dataset, small_config, seed=0)
    assert again.trace[-1]["total"] == hhi_bundle.trace[-1]["total"]
    for a, b in zip(hhi_bundle.human_vae.params, again.human_vae.params):
        np.testing.assert_array_equal(a, b)


def test_hhi_uses_separate_vaes_for_different_widths(hhi_bundle):
    assert hhi_bundle.human_vae is not hhi_bundle.robot_vae
    assert hhi_bundle.human_vae.input_dim == 90
    assert hhi_bundle.robot_vae.input_dim == 20


def test_hhi_shares_vae_for_equal_widths():
    # two structurally similar agents: both stream 18 columns, so the joint
    # window widths match (5 x 18 = 90) and the networks are one object
    spec = SynthSpec((SynthInteraction("mirror", 8, 60, 0.02),))
    ds = synth_generate(spec, np.random.default_rng(4))
    for pair in ds.pairs:
        doubled = np.hstack([pair.h_frames, -pair.h_frames])
        pair.r_frames = doubled
    ds = split(ds, 0.8, seed=0)
    cfg = TrainConfig(epochs=2, n_states=3, d_z=3, hidden=(12,))
    bundle = train_hhi(ds, cfg, seed=0)
    assert bundle.human_vae is bundle.robot_vae
    # one set of statistics, fitted on both agents' windows
    from comotion.train import _featurize, _fit_val_split

    fit, _ = _fit_val_split(_featurize(ds.subset("train"), 5), cfg.val_fraction, 0)
    both = np.vstack([f.x_h for f in fit] + [f.x_r for f in fit])
    np.testing.assert_array_equal(bundle.human_vae.x_mean, both.mean(axis=0))


def test_hri_freezes_human_vae_and_hmms(small_dataset, small_config, hhi_bundle):
    before = [p.copy() for p in hhi_bundle.human_vae.params]
    hmm_before = {k: v[0].means.copy() for k, v in hhi_bundle.hmms.items()}
    bundle = train_hri(small_dataset, hhi_bundle, small_config, seed=0)
    for a, b in zip(hhi_bundle.human_vae.params, before):
        np.testing.assert_array_equal(a, b)
    for k in hmm_before:
        np.testing.assert_array_equal(bundle.hmms[k][0].means, hmm_before[k])
    assert bundle.human_vae is hhi_bundle.human_vae
    # the fresh robot VAE works in the stage-one robot units
    assert bundle.robot_vae is not hhi_bundle.robot_vae
    np.testing.assert_array_equal(bundle.robot_vae.x_mean, hhi_bundle.robot_vae.x_mean)
    np.testing.assert_array_equal(bundle.robot_vae.x_std, hhi_bundle.robot_vae.x_std)


def test_hri_v1_matches_robot_half_objective(small_dataset, hhi_bundle):
    cfg = TrainConfig(epochs=2, n_states=4, variant=Variant("v1"))
    b1 = train_hri(small_dataset, hhi_bundle, cfg, seed=0)
    b2 = train_hri(small_dataset, hhi_bundle, cfg, seed=0)
    assert b1.trace[-1]["total"] == b2.trace[-1]["total"]
    assert all(row["cond"] == 0.0 for row in b1.trace)
    # total is exactly recon_r + beta*kl (the robot half of the joint objective)
    for row in b1.trace:
        assert row["total"] == pytest.approx(
            row["recon_r"] + cfg.beta * row["kl"], abs=1e-10
        )


def test_hri_val_mse_improves(small_dataset, small_config, hhi_bundle):
    bundle = train_hri(small_dataset, hhi_bundle, small_config, seed=0)
    assert bundle.trace[-1]["val_mse"] < bundle.trace[0]["val_mse"]


def test_hri_missing_interaction_rejected(small_dataset, small_config, hhi_bundle):
    crippled = ModelBundle(
        hhi_bundle.human_vae,
        hhi_bundle.robot_vae,
        {},
        hhi_bundle.config,
        hhi_bundle.seed,
    )
    with pytest.raises(ConfigError, match="lacks"):
        train_hri(small_dataset, crippled, small_config, seed=0)


# ---------------------------------------------------------------------------
# transition-state fitting
# ---------------------------------------------------------------------------


def test_fit_transition_states_smoke(small_dataset, small_config, hhi_bundle):
    bundle = train_hri(small_dataset, hhi_bundle, small_config, seed=0)
    n = small_config.n_states
    state_sets = {"greet": ([n - 1], list(range(n - 1)))}
    out = fit_transition_states(bundle, small_dataset, state_sets)
    hmm, tsm = out.hmms["greet"]
    assert tsm is not None
    assert tsm.contact_states == {n - 1}
    if tsm.gate is not None:
        np.linalg.cholesky(tsm.gate.cov)  # SPD contract


def test_fit_transition_states_without_state_sets_returns_the_bundle(small_dataset, hhi_bundle):
    assert all(tsm is None for _, tsm in hhi_bundle.hmms.values())
    assert fit_transition_states(hhi_bundle, small_dataset, {}) is hhi_bundle


def test_fit_transition_states_no_points_disables_gate(caplog):
    # a bundle whose h-only and joint segmentations agree exactly:
    # diagonal-block joint covariances make both forwards identical
    rng = np.random.default_rng(5)
    d_z = 2
    means = np.array([[0.0, 0, 0, 0], [5.0, 5, 5, 5]])
    covs = np.stack([np.eye(4)] * 2)
    hmm = Hmm(np.array([0.5, 0.5]), np.full((2, 2), 0.5), means, covs, d_z)

    from comotion.vae import Vae

    v = Vae.create(90, d_z, (8,), rng)
    vr = Vae.create(20, d_z, (8,), rng)
    spec = SynthSpec((SynthInteraction("greet", 4, 40, 0.01),))
    ds = split(synth_generate(spec, rng), 0.8, seed=0)
    bundle = ModelBundle(v, vr, {"greet": (hmm, None)}, TrainConfig(epochs=1), 0)
    state_sets = {"greet": ([1], [0])}
    with caplog.at_level(logging.WARNING):
        out = fit_transition_states(bundle, ds, state_sets)
    assert out.hmms["greet"][1].gate is None
    assert any("gate disabled" in r.message for r in caplog.records)


def linear_probe_vae(input_dim):
    """d_z=1 encoder whose posterior mean is the window's first feature."""
    from comotion.vae import Vae

    rng = np.random.default_rng(0)
    v = Vae.create(input_dim, 1, (), rng)
    v.encoder.weights[0][:] = 0.0
    v.encoder.biases[0][:] = 0.0
    v.encoder.weights[0][0, 0] = 1.0
    return v


def test_single_flipped_boundary_step_becomes_gate_mean():
    """One timestep where the h view says reach but the joint view says
    contact; its latent must become the fitted gate mean exactly."""
    from comotion.data import Dataset, TrajectoryPair

    # uniform dynamics make the forward argmax a per-step likelihood argmax
    hmm = Hmm(
        np.array([0.5, 0.5]),
        np.full((2, 2), 0.5),
        np.array([[0.0, 0.0], [4.0, 4.0]]),
        np.stack([np.eye(2)] * 2),
        d_z=1,
    )
    w = 5
    z_h = np.array([0.0, 0.0, 0.0, 1.5, 4.0, 4.0])  # window-time latents
    z_r = np.array([0.0, 0.0, 0.0, 4.0, 4.0, 4.0])  # flips step 3 jointly
    T = len(z_h) + w - 1
    h_frames = np.zeros((T, 9))
    h_frames[: len(z_h), 0] = z_h
    r_frames = np.zeros((T, 4))
    r_frames[: len(z_r), 0] = z_r
    pair = TrajectoryPair("greet", h_frames, r_frames)
    ds = Dataset([pair], assignment=["train"])
    bundle = ModelBundle(
        linear_probe_vae(90),
        linear_probe_vae(20),
        {"greet": (hmm, None)},
        TrainConfig(epochs=1, n_states=2, d_z=1),
        0,
    )
    out = fit_transition_states(bundle, ds, {"greet": ([1], [0])})
    gate = out.hmms["greet"][1].gate
    assert gate is not None
    np.testing.assert_allclose(gate.mean, [1.5], atol=1e-12)
    np.linalg.cholesky(gate.cov)


# ---------------------------------------------------------------------------
# whole-split passes against per-trajectory references
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_labels():
    """A stage-two bundle over two interactions whose trajectories alternate
    in the dataset and differ in length within each interaction."""
    spec = SynthSpec((SynthInteraction("greet", 8, 48, 0.05), SynthInteraction("wave", 8, 48, 0.05)))
    ds = synth_generate(spec, np.random.default_rng(21))
    pairs = [p for both in zip(ds.pairs[:8], ds.pairs[8:]) for p in both]
    pairs = [replace(p, h_frames=p.h_frames[: 30 + j], r_frames=p.r_frames[: 30 + j])
             for j, p in enumerate(pairs)]
    ds = split(Dataset(pairs), 0.75, seed=0)
    cfg = TrainConfig(epochs=2, n_states=4, hidden=(8,), val_fraction=0.4, variant="v3.2")
    hhi = train_hhi(ds, cfg, seed=0)
    return ds, train_hri(ds, hhi, cfg, seed=0)


# The callers below stack each interaction's trajectories into one encode,
# forward pass and decode. The padded forward pass is bit-equal to one pass
# per trajectory (tests/test_hmm.py), but a BLAS may round a matmul's rows
# differently with the number of rows: OpenBLAS's small-matrix kernels, on
# an AVX-512 host, move encoder outputs by up to ~3e-15 between one
# trajectory's rows and the same rows stacked with others. So the references
# here agree to 1e-12, not bit for bit; at the benchmark's shape the two
# paths happen to be bit-identical.
TOL = 1e-12


def reference_predictions(bundle, label, x_h):
    """The path of one trajectory at a time."""
    return conditional_predictions(bundle.human_vae, bundle.robot_vae, bundle.hmms[label][0], x_h,
                                   bundle.config.variant)


def test_evaluate_bundle_equals_a_per_trajectory_reference(two_labels, tmp_path):
    ds, bundle = two_labels
    w = bundle.config.window
    expected = []
    for i, (pair, assign) in enumerate(zip(ds.pairs, ds.assignment)):
        if assign == "test":
            x_h, x_r = pair_features(pair, w)
            pred, alpha = reference_predictions(bundle, pair.label, x_h)
            n_r = x_r.shape[1] // w
            expected.append((pair.label, i, mse(pred, x_r), mse(pred[:, -n_r:], x_r[:, -n_r:]),
                             pred, alpha))
    assert {row[0] for row in expected} == {"greet", "wave"}
    assert len({len(row[4]) for row in expected}) == len(expected)
    got = evaluate_bundle(bundle, ds, tmp_path)
    assert [row[:2] for row in got] == [row[:2] for row in expected]
    np.testing.assert_allclose([row[2:] for row in got], [row[2:4] for row in expected],
                               rtol=TOL, atol=0)
    for label, i, _, _, pred, alpha in expected:
        np.testing.assert_allclose(np.load(tmp_path / f"traj{i:03d}_pred.npy"), pred,
                                   rtol=0, atol=TOL)
        dumped = np.loadtxt(tmp_path / f"traj{i:03d}_alpha.csv", delimiter=",", skiprows=1)
        np.testing.assert_allclose(dumped[:, 1:], alpha, rtol=0, atol=TOL)


def test_validation_mse_equals_a_per_trajectory_reference(two_labels):
    ds, bundle = two_labels
    cfg = bundle.config
    _, val = _fit_val_split(_featurize(ds.subset("train"), cfg.window), cfg.val_fraction, 0)
    assert [f.label for f in val].count("greet") == [f.label for f in val].count("wave") == 2
    expected = float(np.mean([
        float(np.mean((reference_predictions(bundle, f.label, f.x_h)[0] - f.x_r) ** 2))
        for f in val
    ]))
    got = _validation_mse(bundle.human_vae, bundle.robot_vae, bundle.hmms, val, cfg.variant)
    assert got == bundle.trace[-1]["val_mse"]
    assert got == pytest.approx(expected, rel=TOL, abs=0)


def test_fit_transition_states_equals_a_per_trajectory_reference(two_labels):
    ds, bundle = two_labels
    state_sets = {"greet": ([2, 3], [0, 1]), "wave": ([1, 2], [0])}
    out = fit_transition_states(bundle, ds, state_sets)
    fitted = 0
    for label, (contact, reach) in state_sets.items():
        hmm = bundle.hmms[label][0]
        points = [np.empty((0, hmm.d_z))]
        for f in _featurize(ds.subset("train"), bundle.config.window):
            if f.label == label:
                mu_h = encode_batch(bundle.human_vae, f.x_h)[0]
                mu_r = encode_batch(bundle.robot_vae, f.x_r)[0]
                i_h = forward(hmm, mu_h, "h").argmax(axis=1)
                i_j = forward(hmm, np.hstack([mu_h, mu_r])).argmax(axis=1)
                points.append(mu_h[np.isin(i_h, reach) & np.isin(i_j, contact)])
        points = np.concatenate(points)
        gate = out.hmms[label][1].gate
        if len(points):
            fitted += 1
            mean, cov = fit_gaussian(points)
            np.testing.assert_allclose(gate.mean, mean, rtol=0, atol=TOL)
            np.testing.assert_allclose(gate.cov, cov, rtol=0, atol=TOL)
        else:
            assert gate is None
    assert fitted


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_identical(tmp_path, small_dataset, small_config, hhi_bundle):
    bundle = train_hri(small_dataset, hhi_bundle, small_config, seed=0)
    bundle = fit_transition_states(
        bundle, small_dataset, {"greet": ([3], [0, 1, 2])}
    )
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    loaded = load_bundle(path)
    for a, b in zip(bundle.robot_vae.params, loaded.robot_vae.params):
        np.testing.assert_array_equal(a, b)
    for a, b in zip(bundle.human_vae.params, loaded.human_vae.params):
        np.testing.assert_array_equal(a, b)
    for v1, v2 in ((bundle.human_vae, loaded.human_vae), (bundle.robot_vae, loaded.robot_vae)):
        assert v1.x_mean is not None
        np.testing.assert_array_equal(v1.x_mean, v2.x_mean)
        np.testing.assert_array_equal(v1.x_std, v2.x_std)
    h1, t1 = bundle.hmms["greet"]
    h2, t2 = loaded.hmms["greet"]
    np.testing.assert_array_equal(h1.means, h2.means)
    np.testing.assert_array_equal(h1.covs, h2.covs)
    assert t1.contact_states == t2.contact_states
    # reproducing the validation MSE exactly from the reloaded model
    from comotion.train import _featurize, _fit_val_split, _validation_mse

    feats = _featurize(small_dataset.subset("train"), 5)
    _, val = _fit_val_split(feats, small_config.val_fraction, 0)
    m1 = _validation_mse(
        bundle.human_vae, bundle.robot_vae, bundle.hmms, val, small_config.variant
    )
    m2 = _validation_mse(
        loaded.human_vae, loaded.robot_vae, loaded.hmms, val, small_config.variant
    )
    assert m1 == m2


def test_checkpoint_without_feature_stats_loads_unstandardized(tmp_path, hhi_bundle):
    import json

    path = tmp_path / "model.json"
    save_bundle(hhi_bundle, path)
    doc = json.loads(path.read_text())
    for key in ("human_vae", "robot_vae"):
        del doc[key]["x_mean"], doc[key]["x_std"]
    path.write_text(json.dumps(doc))
    loaded = load_bundle(path)
    for vae in (loaded.human_vae, loaded.robot_vae):
        assert vae.x_mean is None and vae.x_std is None
    for a, b in zip(hhi_bundle.robot_vae.params, loaded.robot_vae.params):
        np.testing.assert_array_equal(a, b)


def test_checkpoint_keeps_state_sets_only_in_transition_model(tmp_path, hhi_bundle):
    import dataclasses
    import json

    hmm_c, _ = hhi_bundle.hmms["greet"]
    tsm = TransitionStateModel.for_hmm(hmm_c, [2], [0, 1])
    bundle = dataclasses.replace(hhi_bundle, hmms={"greet": (hmm_c, tsm)})
    path = tmp_path / "model.json"
    save_bundle(bundle, path)
    doc = json.loads(path.read_text())
    entry = doc["interactions"]["greet"]
    assert "contact_states" not in entry and "reach_states" not in entry
    assert entry["transition_model"]["contact_states"] == [2]
    assert "reach_marginals" not in entry["transition_model"]
    # a checkpoint that still carries the old top-level copies, or the old
    # copy of the reach states' h-block marginals, loads alike
    entry["contact_states"], entry["reach_states"] = [2], [0, 1]
    entry["transition_model"]["reach_marginals"] = [
        {"mean": hmm_c.means[i, : hmm_c.d_z].tolist(),
         "cov": hmm_c.covs[i, : hmm_c.d_z, : hmm_c.d_z].tolist()}
        for i in (0, 1)
    ]
    path.write_text(json.dumps(doc))
    _, loaded = load_bundle(path).hmms["greet"]
    assert loaded.contact_states == {2} and loaded.reach_states == {0, 1}


def test_checkpoint_with_config_seeds_loads(tmp_path, hhi_bundle):
    """Checkpoints written while the config still had ``seeds`` load alike."""
    import json

    path = tmp_path / "model.json"
    save_bundle(hhi_bundle, path)
    doc = json.loads(path.read_text())
    doc["config"]["seeds"] = [0]
    path.write_text(json.dumps(doc))
    loaded = load_bundle(path)
    assert loaded.config == hhi_bundle.config
    assert "seeds" not in loaded.config.to_dict()


def test_checkpoint_with_config_hmm_refit_every_loads(tmp_path, hhi_bundle):
    """Checkpoints written while the config still had ``hmm_refit_every``
    (every epoch refits, as it always did) load alike."""
    import json

    path = tmp_path / "model.json"
    save_bundle(hhi_bundle, path)
    doc = json.loads(path.read_text())
    assert "hmm_refit_every" not in doc["config"]
    doc["config"]["hmm_refit_every"] = 1
    path.write_text(json.dumps(doc))
    loaded = load_bundle(path)
    assert loaded.config == hhi_bundle.config
    assert "hmm_refit_every" not in loaded.config.to_dict()


def test_write_trace_format(tmp_path, hhi_bundle):
    p = tmp_path / "trace.csv"
    write_trace(p, hhi_bundle.trace)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "epoch,recon_h,recon_r,kl,cond,total,val_mse"
    assert len(lines) == len(hhi_bundle.trace) + 1


def test_missing_bundle_path_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="missing"):
        load_bundle(tmp_path / "none.json")


def _corrupt(doc):
    doc["interactions"]["greet"]["components"][2]["cov"][1][1] = float("nan")


def _drop_human_vae(doc):
    del doc["human_vae"]


def _misshape_decoder(doc):
    doc["robot_vae"]["decoder"]["weights"][-1].pop()


def _negative_transition(doc):
    row = doc["interactions"]["greet"]["trans"][0]
    row[:] = [-0.5, 1.5] + [0.0] * (len(row) - 2)  # sums to 1


def _trans_row_off_one(doc):
    doc["interactions"]["greet"]["trans"][1][1] += 1e-6


def _negative_initial(doc):
    pi = doc["interactions"]["greet"]["pi"]
    pi[:] = [2.0, -1.0] + [0.0] * (len(pi) - 2)  # sums to 1


def _pi_off_one(doc):
    doc["interactions"]["greet"]["pi"][0] += 0.5


def _write_transition_model(doc, contact, gate_width=None):
    """Give greet a model with ``contact`` states, reach state 0 and, given a
    width, an identity gate that wide."""
    gate = None
    if gate_width is not None:
        gate = {"mean": [0.0] * gate_width, "cov": np.eye(gate_width).tolist()}
    doc["interactions"]["greet"]["transition_model"] = {
        "contact_states": contact, "reach_states": [0], "gate": gate,
    }


def _state_out_of_range(doc):
    _write_transition_model(doc, [7])


def _negative_state(doc):
    _write_transition_model(doc, [-1])


def _narrow_gate(doc):
    _write_transition_model(doc, [1, 2], gate_width=2)


@pytest.mark.parametrize(
    "damage, field",
    [
        (None, "Expecting"),  # truncated mid-document
        (_state_out_of_range, "field interactions.greet: ValueError('state indices [0, 7] outside"),
        (_negative_state, "field interactions.greet: ValueError('state indices [-1, 0] outside"),
        (_narrow_gate, "field interactions.greet: ValueError('gate is 2 wide, not d_z = 5')"),
        (_drop_human_vae, "field human_vae: KeyError"),
        (_corrupt, "interactions.greet.components.2.cov.1.1 is not finite"),
        (_misshape_decoder, "field robot_vae"),
        (_negative_transition, "field interactions.greet: ValueError('trans row 0 [-0.5, 1.5,"),
        (_trans_row_off_one, "field interactions.greet: ValueError('trans row 1 "),
        (_negative_initial, "field interactions.greet: ValueError('pi [2.0, -1.0,"),
        (_pi_off_one, "field interactions.greet: ValueError('pi "),
    ],
)
def test_malformed_checkpoint_is_config_error_naming_file_and_field(tmp_path, hhi_bundle, damage, field):
    import json

    path = tmp_path / "model.json"
    save_bundle(hhi_bundle, path)
    text = path.read_text()
    if damage is None:
        path.write_text(text[: len(text) // 2])
    else:
        doc = json.loads(text)
        damage(doc)
        path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match="model.json") as err:
        load_bundle(path)
    assert field in str(err.value)
