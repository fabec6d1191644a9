import json
import re

import numpy as np
import pytest

from comotion.data import (
    Dataset,
    SynthInteraction,
    SynthSpec,
    TrajectoryPair,
    load_dataset,
    pair_features,
    save_dataset,
    split,
    synth_generate,
    window_features,
)
from comotion.errors import DataError


def test_window_width_positions_90():
    rng = np.random.default_rng(0)
    x = window_features(rng.standard_normal((30, 9)), 5, "positions")
    assert x.shape == (26, 90)


def test_window_width_joints_20():
    rng = np.random.default_rng(1)
    x = window_features(rng.standard_normal((30, 4)), 5, "joints")
    assert x.shape == (26, 20)


def test_window_constant_positions_zero_deltas():
    frames = np.tile(np.arange(9.0), (12, 1))
    x = window_features(frames, 5, "positions")
    per_frame = x.reshape(x.shape[0], 5, 3, 6)
    np.testing.assert_array_equal(per_frame[..., 3:], 0.0)
    np.testing.assert_array_equal(per_frame[..., :3].reshape(x.shape[0], 5, 9)[0, 0], np.arange(9.0))


def test_window_deltas_telescope():
    rng = np.random.default_rng(2)
    frames = rng.standard_normal((40, 9))
    x = window_features(frames, 5, "positions")
    per_frame = x.reshape(x.shape[0], 5, 3, 6)
    for t in range(1, x.shape[0]):  # windows starting past the zero-delta frame
        delta_sum = per_frame[t, 1:, :, 3:].sum(axis=0).reshape(9)
        diff = frames[t + 4] - frames[t]
        np.testing.assert_allclose(delta_sum, diff, atol=1e-12)


def test_window_too_short():
    with pytest.raises(DataError, match="frames"):
        window_features(np.zeros((5, 9)), 5, "positions")
    with pytest.raises(DataError, match="frames"):
        window_features(np.zeros((4, 4)), 5, "joints")
    window_features(np.zeros((5, 4)), 5, "joints")  # joints allow T == w


# ---------------------------------------------------------------------------
# synthetic generator
# ---------------------------------------------------------------------------


def test_synth_deterministic():
    spec = SynthSpec((SynthInteraction("a", 5, 60, 0.05),))
    d1 = synth_generate(spec, np.random.default_rng(9))
    d2 = synth_generate(spec, np.random.default_rng(9))
    for p1, p2 in zip(d1.pairs, d2.pairs):
        np.testing.assert_array_equal(p1.h_frames, p2.h_frames)
        np.testing.assert_array_equal(p1.r_frames, p2.r_frames)


def test_synth_zero_noise_exact_function_of_phase():
    spec = SynthSpec((SynthInteraction("a", 4, 80, 0.0),))
    ds = synth_generate(spec, np.random.default_rng(10))
    for pair in ds.pairs:
        feats = np.stack([np.ones(pair.length), pair.meta["aphase"], pair.meta["osc"]], axis=1)
        coef, *_ = np.linalg.lstsq(feats, pair.r_frames, rcond=None)
        resid = pair.r_frames - feats @ coef
        assert float((resid**2).mean()) < 1e-20


def test_synth_bayes_floor_near_noise_variance():
    sigma = 0.05
    spec = SynthSpec((SynthInteraction("a", 30, 100, sigma),))
    ds = synth_generate(spec, np.random.default_rng(11))
    resids = []
    for pair in ds.pairs:
        feats = np.stack([np.ones(pair.length), pair.meta["aphase"], pair.meta["osc"]], axis=1)
        coef, *_ = np.linalg.lstsq(feats, pair.r_frames, rcond=None)
        resids.append(((pair.r_frames - feats @ coef) ** 2).mean())
    bayes_floor = float(np.mean(resids))
    assert bayes_floor == pytest.approx(sigma**2, rel=0.1)


def test_synth_empty_spec_rejected():
    with pytest.raises(ValueError, match="empty"):
        synth_generate(SynthSpec(()), np.random.default_rng(0))


def test_synth_plants_contact_boundary():
    spec = SynthSpec((SynthInteraction("a", 3, 100, 0.02),))
    ds = synth_generate(spec, np.random.default_rng(12))
    for pair in ds.pairs:
        t1, t2 = pair.meta["contact_start"], pair.meta["contact_end"]
        assert 0 < t1 < t2 < pair.length
        np.testing.assert_allclose(pair.meta["aphase"][t1:t2], pair.meta["amp"], atol=1e-12)


# ---------------------------------------------------------------------------
# persistence and splits
# ---------------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    spec = SynthSpec((SynthInteraction("a", 3, 50, 0.05), SynthInteraction("b", 2, 50, 0.05)))
    ds = synth_generate(spec, np.random.default_rng(13))
    save_dataset(ds, tmp_path / "ds")
    loaded = load_dataset(tmp_path / "ds")
    assert len(loaded.pairs) == 5
    for a, b in zip(ds.pairs, loaded.pairs):
        assert a.label == b.label
        np.testing.assert_array_equal(a.h_frames, b.h_frames)
        np.testing.assert_array_equal(a.r_frames, b.r_frames)
        assert b.meta["contact_start"] == a.meta["contact_start"]


def test_manifest_with_w_loads(tmp_path):
    """Manifests written while datasets carried a window width still load;
    the width is the training config's, so the manifest no longer holds one."""
    ds = synth_generate(SynthSpec((SynthInteraction("a", 2, 20, 0.05),)), np.random.default_rng(18))
    save_dataset(ds, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert "w" not in manifest
    manifest_path.write_text(json.dumps({**manifest, "w": 5}))
    loaded = load_dataset(tmp_path / "ds")
    assert len(loaded.pairs) == 2
    for a, b in zip(ds.pairs, loaded.pairs):
        np.testing.assert_array_equal(a.h_frames, b.h_frames)
        np.testing.assert_array_equal(a.r_frames, b.r_frames)


def test_manifest_with_rate_loads(tmp_path):
    """Manifests written while datasets carried a frame rate still load;
    nothing reads the rate, so the manifest no longer holds one."""
    ds = synth_generate(SynthSpec((SynthInteraction("a", 2, 20, 0.05),)), np.random.default_rng(18))
    save_dataset(ds, tmp_path / "ds")
    manifest_path = tmp_path / "ds" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert "rate" not in manifest
    manifest_path.write_text(json.dumps({**manifest, "rate": -1}))
    loaded = load_dataset(tmp_path / "ds")
    for a, b in zip(ds.pairs, loaded.pairs, strict=True):
        np.testing.assert_array_equal(a.h_frames, b.h_frames)
        np.testing.assert_array_equal(a.r_frames, b.r_frames)


def test_load_missing_manifest(tmp_path):
    with pytest.raises(DataError, match="manifest"):
        load_dataset(tmp_path / "nope")


def test_load_malformed_csv(tmp_path):
    d = tmp_path / "ds"
    d.mkdir()
    (d / "manifest.json").write_text(
        '{"rate": 20.0, "trajectories": [{"label": "a", "h": "h.csv", "r": "r.csv"}]}'
    )
    (d / "h.csv").write_text("a,b\n1,2\n3,oops\n")
    (d / "r.csv").write_text("q1\n0.0\n0.0\n")
    with pytest.raises(DataError, match="malformed"):
        load_dataset(d)


_ENTRY = {"label": "a", "h": "h.csv", "r": "r.csv"}


@pytest.mark.parametrize(
    "manifest, field",
    [
        ({"w": 5}, "trajectories"),
        ({"trajectories": {"0": _ENTRY}}, "trajectories"),
        ({"trajectories": []}, "trajectories"),
        ([_ENTRY], "trajectories"),
        ({"trajectories": [_ENTRY, "traj0001_h.csv"]}, "trajectories.1"),
        ({"trajectories": [{"h": "h.csv", "r": "r.csv"}]}, "trajectories.0.label"),
        ({"trajectories": [_ENTRY, _ENTRY, {"label": "a", "r": "r.csv"}]}, "trajectories.2.h"),
        ({"trajectories": [{"label": "a", "h": "h.csv"}]}, "trajectories.0.r"),
        ({"trajectories": [{**_ENTRY, "r": 3}]}, "trajectories.0.r"),
        ({"trajectories": [{**_ENTRY, "meta": [1]}]}, "trajectories.0.meta"),
    ],
    ids=["no-trajectories", "trajectories-object", "trajectories-empty", "manifest-list", "entry-string",
         "no-label", "no-h", "no-r", "r-int", "meta-list"],
)
def test_malformed_manifest_names_the_field(tmp_path, manifest, field):
    d = tmp_path / "ds"
    d.mkdir()
    (d / "manifest.json").write_text(json.dumps(manifest))
    (d / "h.csv").write_text("a\n1\n")
    (d / "r.csv").write_text("q1\n0.0\n")
    with pytest.raises(DataError, match=rf"field {re.escape(field)} must be"):
        load_dataset(d)


def test_split_disjoint_exhaustive_stratified():
    spec = SynthSpec(
        (SynthInteraction("a", 11, 30, 0.01), SynthInteraction("b", 7, 30, 0.01))
    )
    ds = synth_generate(spec, np.random.default_rng(14))
    out = split(ds, 0.8, seed=5)
    # round(0.8*11) + round(0.8*7) = 9 + 6 train, remainder test
    assert out.assignment.count("train") == 15
    assert out.assignment.count("test") == 3
    for label, n in (("a", 11), ("b", 7)):
        train_n = sum(
            1
            for p, a in zip(out.pairs, out.assignment)
            if p.label == label and a == "train"
        )
        assert abs(train_n - 0.8 * n) <= 1.0


def test_split_deterministic():
    spec = SynthSpec((SynthInteraction("a", 10, 30, 0.01),))
    ds = synth_generate(spec, np.random.default_rng(15))
    a = split(ds, 0.75, seed=3).assignment
    b = split(ds, 0.75, seed=3).assignment
    assert a == b


def test_split_rejects_unit_fraction():
    ds = synth_generate(SynthSpec((SynthInteraction("a", 4, 30, 0.01),)), np.random.default_rng(16))
    with pytest.raises(ValueError, match="fraction"):
        split(ds, 1.0, seed=0)


def test_pair_features_aligned():
    spec = SynthSpec((SynthInteraction("a", 1, 40, 0.0),))
    ds = synth_generate(spec, np.random.default_rng(17))
    x_h, x_r = pair_features(ds.pairs[0], 5)
    assert x_h.shape == (36, 90) and x_r.shape == (36, 20)


def test_trajectory_pair_validations():
    with pytest.raises(DataError, match="lengths"):
        TrajectoryPair("x", np.zeros((5, 9)), np.zeros((4, 4)))
    with pytest.raises(DataError, match="finite"):
        TrajectoryPair("x", np.full((3, 9), np.nan), np.zeros((3, 4)))
