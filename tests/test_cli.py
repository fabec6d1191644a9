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
    assert "stiffness_low" in header and "gate" not in header
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


def test_malformed_manifest_is_exit_3_naming_the_key(tmp_path, tiny_config, capsys):
    _, config = tiny_config
    ds = tmp_path / "ds"
    ds.mkdir()
    (ds / "manifest.json").write_text('{"w": 5}')
    assert main(["--config", str(config), "train-hhi", "--data", str(ds)]) == 3
    err = capsys.readouterr().err
    assert "field trajectories must be a non-empty list" in err
    assert "Traceback" not in err


def test_config_error_without_dataset(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    assert main(["--config", str(cfg), "train-hhi"]) == 2
    assert main(["--config", str(cfg), "--out", str(tmp_path / "ds"), "synth"]) == 2


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


def _small_config(**changes):
    config = {
        "dataset": {
            "synth": {"interactions": [{"name": "greet", "n_traj": 4, "length": 30, "noise": 0.05}]},
            "seed": 0,
        },
        "train": {"epochs": 1, "n_states": 3, "d_z": 2, "hidden": [4], "mc_samples": 2},
    }
    for key, value in changes.items():
        if key == "interaction":
            config["dataset"]["synth"]["interactions"][0].update(value)
        elif key == "synth":
            config["dataset"]["synth"].update(value)
        elif key == "dataset_seed":
            config["dataset"]["seed"] = value
        elif key == "train":
            config["train"].update(value)
        else:
            config[key] = value
    return config


HHI = ["train-hhi"]


@pytest.mark.parametrize(
    "changes, command, field",
    [
        ({}, [*HHI, "--variant", "bogus"], "variant"),
        ({"train": {"variant": "bogus"}}, HHI, "variant"),
        ({"split_fraction": 1.5}, HHI, "split_fraction"),
        ({"interaction": {"n_trajs": 4}}, HHI, "n_trajs"),
        ({"train": {"epochs": "1"}}, HHI, "epochs"),
        ({"train": {"epochs": 1.5}}, HHI, "epochs"),
        ({"train": {"n_states": 60}}, HHI, "n_states"),  # 26 windows per sequence
        ({"train": {"epoch": 1}}, HHI, "'epoch'"),
        ({"train": {"hidden": 5}}, HHI, "hidden"),
        ({"train": {"hidden": [0, -1]}}, HHI, "hidden"),
        ({"train": {"seeds": 5}}, HHI, "seeds"),
        ({"train": {"em_max_iters": "3"}}, HHI, "em_max_iters"),
        ({"train": {"em_tol": "x"}}, HHI, "em_tol"),
        ({"train": {"weight_decay": "a"}}, HHI, "weight_decay"),
        ({"train": {"cond_weight": None}}, HHI, "cond_weight"),
        ({"train": {"val_fraction": 2.0}}, HHI, "val_fraction"),
        ({"split_seed": "x"}, HHI, "split_seed"),
        ({"dataset_seed": "x"}, HHI, "dataset.seed"),
        ({"seeds": 5}, ["eval"], "seeds"),
        ({"seeds": ["x"]}, ["eval"], "seeds"),
        ({"seeds": []}, ["eval"], "seeds"),
        ({"threads": "x"}, ["eval"], "threads"),
        ({"contact_states": {"greet": []}}, ["eval"], "contact_states.greet"),
        ({"contact_states": {"greet": [1]}, "reach_states": {"greet": [0, 1]}}, ["eval"],
         "contact_states.greet"),
        ({"contact_states": {"greet": [9]}}, ["eval"], "contact_states.greet"),
        ({"dataset": "somedir"}, ["synth"], "dataset"),
        ({"dataset": {"synth": 5}}, ["synth"], "field synth must"),
        ({"synth": {"interactions": 5}}, ["synth"], "synth.interactions must"),
        ({"synth": {"interactions": [5]}}, ["synth"], "synth.interactions.0 must"),
        ({"synth": {"rate": "x"}}, ["synth"], "synth.rate"),
        ({"interaction": {"n_traj": "x"}}, ["synth"], "synth.interactions.0.n_traj"),
        ({"interaction": {"noise": "x"}}, ["synth"], "synth.interactions.0.noise"),
    ],
    ids=["cli-variant", "train-variant", "split-fraction", "synth-key", "epochs-string",
         "epochs-float", "n-states-over-windows", "train-key", "hidden-int", "hidden-non-positive",
         "seeds-int", "em-max-iters-string", "em-tol-string", "weight-decay-string",
         "cond-weight-null", "val-fraction-over-one", "split-seed-string", "dataset-seed-string",
         "eval-seeds-int", "eval-seeds-string", "eval-seeds-empty", "eval-threads-string",
         "eval-empty-contact-states", "eval-overlapping-states", "eval-state-out-of-range",
         "synth-dataset-directory", "synth-int", "synth-interactions-int",
         "synth-interaction-int", "synth-rate-string", "synth-n-traj-string",
         "synth-noise-string"],
)
def test_malformed_config_is_exit_2_naming_the_field(tmp_path, capsys, changes, command, field):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_small_config(**changes)))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "out"), *command]) == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [
        (["ik-demo", "--target", "0.2", "0.05", "-0.1", "--chain", "{missing}"], "missing.json"),
        (["ik-demo", "--target", "0.2", "0.05", "-0.1", "--chain", "{no_limits}"], "no_limits.json"),
        (["ik-demo", "--target", "0.2", "0.05", "-0.1", "--prior", "0", "0"], "--prior"),
        (["inspect-hmm", "--model", "{missing}", "--horizon", "0"], "--horizon"),
        (["rollout", "--model", "{directory}", "--data", "{missing}"], "a_directory"),
        (["--config", "{config}", "train-hri", "--hhi", "{directory}"], "a_directory"),
        (["--config", "{directory}", "eval"], "a_directory"),
    ],
    ids=["chain-missing", "chain-without-limits", "prior-width", "horizon-zero",
         "rollout-model-directory", "hhi-model-directory", "config-directory"],
)
def test_bad_cli_argument_is_exit_2(tmp_path, capsys, argv, named):
    no_limits = tmp_path / "no_limits.json"
    no_limits.write_text(json.dumps({"joints": [{"axis": [0.0, 0.0, 1.0]}]}))
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_small_config()))
    directory = tmp_path / "a_directory"
    directory.mkdir()
    paths = {"missing": tmp_path / "missing.json", "no_limits": no_limits, "config": config,
             "directory": directory}
    assert main([a.format(**paths) for a in argv]) == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err



@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    """A 4-trajectory dataset and a stage-one model trained on it."""
    root = tmp_path_factory.mktemp("small")
    cfg = root / "c.json"
    cfg.write_text(json.dumps(_small_config()))
    assert main(["--config", str(cfg), "--out", str(root / "ds"), "synth"]) == 0
    hhi = ["--config", str(cfg), "--out", str(root / "hhi"), "train-hhi", "--data", str(root / "ds")]
    assert main(hhi) == 0
    return root / "ds", root / "hhi" / "model.json"


@pytest.mark.parametrize("index, code", [("-1", 3), ("-1000", 3), ("4", 3), ("3", 0)])
def test_rollout_index_outside_the_dataset_is_exit_3(small_model, tmp_path, capsys, index, code):
    ds, model = small_model
    argv = ["rollout", "--model", str(model), "--data", str(ds), f"--index={index}"]
    assert main(["--out", str(tmp_path / "roll.csv"), *argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 3:
        assert f"index {index} outside 0..3" in err


def test_rollout_of_a_checkpoint_with_a_negative_transition_is_exit_2(small_model, tmp_path, capsys):
    # the row still sums to 1; without the check the forward step collapsed, exit 4
    ds, model = small_model
    doc = json.loads(model.read_text())
    label = sorted(doc["interactions"])[0]
    row = doc["interactions"][label]["trans"][0]
    row[:] = [-0.5, 1.5] + [0.0] * (len(row) - 2)
    bad = tmp_path / "model.json"
    bad.write_text(json.dumps(doc))
    argv = ["rollout", "--model", str(bad), "--data", str(ds)]
    assert main(["--out", str(tmp_path / "roll.csv"), *argv]) == 2
    err = capsys.readouterr().err
    assert f"interactions.{label}" in err and "trans row 0" in err and "Traceback" not in err
