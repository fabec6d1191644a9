import json
from pathlib import Path

import numpy as np
import pytest

from comotion.cli import main


@pytest.fixture(scope="module")
def tiny_config(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    config = {
        "dataset": {
            "synth": {"interactions": [{"name": "greet", "n_traj": 8, "length": 50, "noise": 0.05}]},
            "seed": 3,
        },
        "split_fraction": 0.8,
        "split_seed": 0,
        "train": {"epochs": 4, "n_states": 3, "d_z": 3, "hidden": [10], "mc_samples": 3},
        "variants": ["v1", "v3.2"],
        "seeds": [0],
    }
    path = root / "config.json"
    path.write_text(json.dumps(config))
    return root, path


def test_synth_writes_dataset(tmp_path):
    out = tmp_path / "ds"
    assert main(["--out", str(out), "--seed", "7", "synth"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["trajectories"]) == 40


def test_train_and_rollout_pipeline(tiny_config, tmp_path):
    root, config = tiny_config
    ds_dir = tmp_path / "ds"
    assert main(["--out", str(ds_dir), "--config", str(config), "--seed", "3", "synth"]) == 0
    hhi_dir = tmp_path / "hhi"
    assert (
        main(
            ["--config", str(config), "--out", str(hhi_dir), "--seed", "0",
             "train-hhi", "--data", str(ds_dir)]
        )
        == 0
    )
    assert (hhi_dir / "model.json").exists()
    assert (hhi_dir / "loss_trace.csv").exists()
    hri_dir = tmp_path / "hri"
    assert (
        main(
            ["--config", str(config), "--out", str(hri_dir), "--seed", "0",
             "train-hri", "--data", str(ds_dir), "--hhi", str(hhi_dir / "model.json"),
             "--variant", "v3.2"]
        )
        == 0
    )
    roll_csv = tmp_path / "roll.csv"
    assert (
        main(
            ["--out", str(roll_csv), "rollout", "--model", str(hri_dir / "model.json"),
             "--data", str(ds_dir), "--index", "0", "--smooth"]
        )
        == 0
    )
    lines = roll_csv.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "t"
    assert "stiffness_low" in header and "gate" in header
    assert sum(1 for h in header if h.startswith("q_")) == 4
    assert sum(1 for h in header if h.startswith("alpha_")) == 3
    assert len(lines) == 1 + (50 - 5 + 1)
    assert main(["inspect-hmm", "--model", str(hri_dir / "model.json")]) == 0


def test_eval_deterministic_report(tiny_config, tmp_path):
    _, config = tiny_config
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert main(["--config", str(config), "--out", str(out1), "eval"]) == 0
    assert main(["--config", str(config), "--out", str(out2), "eval"]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "report.md").exists()
    # per-trajectory dumps for plotting exist
    assert list(out1.glob("dumps/v3.2/seed0/*_alpha.csv"))


def test_missing_config_is_exit_2(tmp_path):
    assert main(["--config", str(tmp_path / "none.json"), "eval"]) == 2


def test_missing_dataset_is_exit_3(tmp_path, tiny_config):
    _, config = tiny_config
    assert (
        main(["--config", str(config), "train-hhi", "--data", str(tmp_path / "missing")])
        == 3
    )


def test_config_error_without_dataset(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    assert main(["--config", str(cfg), "train-hhi"]) == 2


def test_truncated_checkpoint_is_exit_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text('{"seed": 0, "config": {"epochs": ')
    assert main(["inspect-hmm", "--model", str(model)]) == 2
    err = capsys.readouterr().err
    assert "model.json" in err and "Traceback" not in err


def test_ik_demo_runs(capsys):
    assert main(["ik-demo", "--target", "0.2", "0.05", "-0.1"]) == 0
    out = capsys.readouterr().out
    assert "baseline IK" in out and "prior IK" in out


def test_unrecognized_dataset_entry_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"dataset": {"bogus": 1}}))
    for command in ("train-hhi", "eval"):
        assert main(["--config", str(cfg), "--out", str(tmp_path / command), command]) == 2
        err = capsys.readouterr().err
        assert "unrecognized dataset entry" in err and "Traceback" not in err
