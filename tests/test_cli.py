import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import comotion
from comotion import cli
from comotion.cli import main
from comotion.data import load_dataset


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


def test_synth_writes_the_dataset_train_hhi_trains_on(tmp_path, monkeypatch):
    """With --config, synth generates from dataset.seed, never from --seed."""
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_small_config(dataset_seed=3)))
    ds_dir = tmp_path / "ds"
    assert main(["--config", str(cfg), "--out", str(ds_dir), "--seed", "0", "synth"]) == 0
    seen = []
    train_hhi = cli.train_hhi
    monkeypatch.setattr(cli, "train_hhi", lambda ds, *rest: seen.append(ds) or train_hhi(ds, *rest))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "hhi"), "train-hhi"]) == 0
    written, trained = load_dataset(ds_dir), seen[0]
    assert [p.label for p in written.pairs] == [p.label for p in trained.pairs]
    for a, b in zip(written.pairs, trained.pairs, strict=True):
        np.testing.assert_array_equal(a.h_frames, b.h_frames)
        np.testing.assert_array_equal(a.r_frames, b.r_frames)


def test_inspect_hmm_loads_the_dataset_once(tmp_path, monkeypatch, capsys):
    config = _small_config()
    config["dataset"]["synth"]["interactions"].append(
        {"name": "wave", "n_traj": 4, "length": 30, "noise": 0.05})
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    ds, hhi = tmp_path / "ds", tmp_path / "hhi"
    assert main(["--config", str(cfg), "--out", str(ds), "synth"]) == 0
    assert main(["--config", str(cfg), "--out", str(hhi), "train-hhi"]) == 0
    calls = []
    monkeypatch.setattr(cli, "load_dataset", lambda path: calls.append(path) or load_dataset(path))
    assert main(["inspect-hmm", "--model", str(hhi / "model.json"), "--data", str(ds)]) == 0
    out = capsys.readouterr().out
    assert "interaction 'greet'" in out and "interaction 'wave'" in out
    assert len(calls) == 1


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


@pytest.mark.parametrize(
    "name, damage",
    [("manifest.json", "not-utf8"), ("manifest.json", "directory"), ("traj0001_r.csv", "directory")],
    ids=["manifest-not-utf8", "manifest-directory", "csv-directory"],
)
def test_unreadable_dataset_file_is_exit_3_naming_it(small_model, tmp_path, capsys, name, damage):
    ds = shutil.copytree(small_model[0], tmp_path / "ds")
    if damage == "not-utf8":
        (ds / name).write_bytes(b'{"trajectories": "\xff"}')
    else:
        (ds / name).unlink()
        (ds / name).mkdir()
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(_small_config()))
    argv = ["--config", str(cfg), "--out", str(tmp_path / "hhi"), "train-hhi", "--data", str(ds)]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


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


@pytest.mark.parametrize(
    "argv, named",
    [
        (["--target", "1e300", "0", "0"], "--target"),
        (["--target", "0.2", "0.05", "-0.1", "--prior", "1e200", "0", "0", "0"], "--prior"),
        (["--target", "0.2", "0.05", "-0.1", "--lambda-q", "1e308"], "--lambda-q"),
        (["--target", "0.2", "0.05", "-0.1", "--lambda-x", "1e308"], "--lambda-x"),
    ],
    ids=["target", "prior", "lambda-q", "lambda-x"],
)
def test_ik_demo_value_that_overflows_the_objective_is_exit_2(capsys, argv, named):
    """A finite flag too large for the objective or the system of the first
    step is named, not solved into an infinite residual or a start that never
    moves; so is a task weight that leaves the damped system singular."""
    assert main(["ik-demo", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"config error: {named} out of range")
    assert "Traceback" not in captured.err and "converged" not in captured.out


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
        elif key == "dataset_entry":
            config["dataset"].update(value)
        elif key == "train" and isinstance(value, dict):
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
        ({"contact_states": {"greet": [1.5]}}, ["eval"], "contact_states.greet: state indices"),
        ({"dataset": "somedir"}, ["synth"], "dataset"),
        ({"dataset": {"synth": 5}}, ["synth"], "field synth must"),
        ({"synth": {"interactions": 5}}, ["synth"], "synth.interactions must"),
        ({"synth": {"interactions": [5]}}, ["synth"], "synth.interactions.0 must"),
        ({"interaction": {"n_traj": "x"}}, ["synth"], "synth.interactions.0.n_traj"),
        ({"interaction": {"noise": "x"}}, ["synth"], "synth.interactions.0.noise"),
        ({"contact_states": [1, 2]}, ["eval"], "field contact_states"),
        ({"contact_states": {"greet": [2]}, "reach_states": [0]}, ["eval"], "field reach_states"),
        ({"out": 5}, ["eval"], "field out"),
        ({"train": 5}, HHI, "field train"),
        ({"split_fractoin": 0.5}, HHI, "'split_fractoin'"),
        ({"dataset_entry": {"sed": 3}}, HHI, "field dataset: unknown keys ['sed']"),
        ({"synth": {"rat": 20.0}}, ["synth"], "field synth: unknown keys ['rat']"),
        ({"synth": {"rate": 20.0}}, ["synth"], "field synth: unknown keys ['rate']"),
        ({"variants": "v1"}, ["eval"], "field variants"),
        ({"contact_states": {"gret": [2]}}, ["eval"], "contact_states: unknown keys ['gret']"),
        ({"contact_states": {"greet": [2]}, "reach_states": {"gret": [0]}}, ["eval"],
         "reach_states: unknown keys ['gret']"),
        ({"train": {"epochs": True}}, HHI, "train.epochs"),
        ({"train": {"beta": True}}, HHI, "train.beta"),
        ({"train": {"hidden": [True]}}, HHI, "train.hidden"),
        ({"seeds": [True]}, ["eval"], "field seeds"),
        ({"split_seed": False}, HHI, "field split_seed"),
        ({"interaction": {"n_traj": True}}, ["synth"], "synth.interactions.0.n_traj"),
    ],
    ids=["cli-variant", "train-variant", "split-fraction", "synth-key", "epochs-string",
         "epochs-float", "n-states-over-windows", "train-key", "hidden-int", "hidden-non-positive",
         "seeds-int", "em-max-iters-string", "em-tol-string", "weight-decay-string",
         "cond-weight-null", "val-fraction-over-one", "split-seed-string", "dataset-seed-string",
         "eval-seeds-int", "eval-seeds-string", "eval-seeds-empty", "eval-threads-string",
         "eval-empty-contact-states", "eval-overlapping-states", "eval-state-out-of-range",
         "eval-state-float",
         "synth-dataset-directory", "synth-int", "synth-interactions-int",
         "synth-interaction-int", "synth-n-traj-string",
         "synth-noise-string", "eval-contact-states-list", "eval-reach-states-list",
         "eval-out-int", "train-int", "top-level-key", "dataset-key", "synth-spec-key", "synth-rate",
         "eval-variants-string", "eval-contact-states-label", "eval-reach-states-label",
         "epochs-bool", "beta-bool", "hidden-bool", "eval-seeds-bool", "split-seed-bool",
         "synth-n-traj-bool"],
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
        (["ik-demo", "--target", "0.2", "0.05", "-0.1", "--chain", "{directory}"], "a_directory"),
        (["ik-demo", "--target", "0.2", "0.05", "-0.1", "--prior", "0", "0"], "--prior"),
        (["ik-demo", "--target", "nan", "0", "0"], "--target"),
        (["ik-demo", "--target", "inf", "0", "0"], "--target"),
        (["ik-demo", "--target", "0.2", "0.05", "-0.1", "--prior", "nan", "0", "0", "0"], "--prior"),
        (["ik-demo", "--target", "0.2", "0.05", "-0.1", "--lambda-q", "-1"], "--lambda-q"),
        (["ik-demo", "--target", "0.2", "0.05", "-0.1", "--lambda-x", "nan"], "--lambda-x"),
        (["ik-demo", "--target", "0.2", "0.05", "-0.1", "--lambda-x", "inf"], "--lambda-x"),
        (["inspect-hmm", "--model", "{missing}", "--horizon", "0"], "--horizon"),
        (["rollout", "--model", "{directory}", "--data", "{missing}"], "a_directory"),
        (["--config", "{config}", "train-hri", "--hhi", "{directory}"], "a_directory"),
        (["--config", "{directory}", "eval"], "a_directory"),
    ],
    ids=["chain-missing", "chain-without-limits", "chain-directory", "prior-width",
         "target-nan", "target-inf", "prior-nan", "lambda-q-negative", "lambda-x-nan",
         "lambda-x-inf", "horizon-zero",
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



@pytest.mark.parametrize(
    "argv, named, code",
    [
        (["--out", "{tmp}/roll.csv", "rollout", "--latents", "{tmp}/new/lat.json"], "new/lat.json", 0),
        (["--out", "{tmp}/roll.csv", "rollout", "--latents", "{tmp}/a_directory"], "a_directory", 2),
        (["--out", "{tmp}/a_directory", "rollout"], "a_directory", 2),
        (["--config", "{config}", "--out", "{tmp}/hhi", "train-hhi"], "hhi/model.json", 2),
        (["--config", "{config}", "--out", "{tmp}/a_file", "synth"], "a_file", 2),
        (["--config", "{config}", "--out", "{tmp}/a_file", "eval"], "a_file", 2),
    ],
    ids=["rollout-latents-new-directory", "rollout-latents-directory", "rollout-out-directory",
         "train-hhi-model-directory", "synth-out-file", "eval-out-file"],
)
def test_output_path_is_created_or_exit_2_naming_it(small_model, tmp_path, capsys, argv, named,
                                                   code):
    ds, model = small_model
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_small_config()))
    (tmp_path / "a_directory").mkdir()
    (tmp_path / "a_file").write_text("")
    (tmp_path / "hhi" / "model.json").mkdir(parents=True)
    argv = [a.format(tmp=tmp_path, config=config) for a in argv]
    if "rollout" in argv:
        argv += ["--model", str(model), "--data", str(ds)]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert named in err
    else:
        assert "latent_mean" in json.loads((tmp_path / named).read_text())


def test_eval_out_that_is_a_file_fails_before_any_training(tmp_path, capsys, monkeypatch):
    from comotion import evaluate

    trained = []
    monkeypatch.setattr(evaluate, "train_hhi", lambda *args: trained.append(args))
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_small_config()))
    (tmp_path / "a_file").write_text("")
    assert main(["--config", str(config), "--out", str(tmp_path / "a_file"), "eval"]) == 2
    err = capsys.readouterr().err
    assert trained == []
    assert str(tmp_path / "a_file") in err and "Traceback" not in err


def test_eval_prediction_dump_that_cannot_be_written_is_exit_2_naming_it(tmp_path, capsys):
    from comotion.evaluate import parse_experiment

    config = _small_config(variants=["v1"])
    (tmp_path / "c.json").write_text(json.dumps(config))
    dataset = parse_experiment(config).dataset
    first = dataset.assignment.index("test")
    blocked = tmp_path / "out" / "dumps" / "v1" / "seed0" / f"traj{first:03d}_pred.npy"
    blocked.mkdir(parents=True)
    assert main(["--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out"), "eval"]) == 2
    err = capsys.readouterr().err
    assert str(blocked) in err and "Traceback" not in err


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


def _narrowed_dataset(ds: Path, out: Path, agent: str, columns: int) -> Path:
    """A copy of ``ds`` whose ``agent`` ("h" or "r") CSVs keep their first ``columns`` columns."""
    shutil.copytree(ds, out)
    for path in out.glob(f"*_{agent}.csv"):
        rows = path.read_text().splitlines()
        path.write_text("".join(",".join(row.split(",")[:columns]) + "\n" for row in rows))
    return out


@pytest.mark.parametrize(
    "argv, agent, columns",
    [
        (["rollout", "--model", "{model}"], "h", 3),
        (["inspect-hmm", "--model", "{model}"], "h", 3),
        (["--config", "{config}", "train-hri", "--hhi", "{model}"], "h", 3),
        (["--config", "{config}", "train-hri", "--hhi", "{model}"], "r", 3),
    ],
    ids=["rollout-one-joint", "inspect-hmm-one-joint", "train-hri-one-joint",
         "train-hri-other-robot-joint-count"],
)
def test_dataset_of_another_width_than_the_model_is_exit_3(small_model, tmp_path, capsys, argv,
                                                           agent, columns):
    ds, model = small_model
    narrow = _narrowed_dataset(ds, tmp_path / "narrow", agent, columns)
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_small_config()))
    argv = [a.format(model=model, config=config) for a in argv] + ["--data", str(narrow)]
    assert main(["--out", str(tmp_path / "out"), *argv]) == 3
    err = capsys.readouterr().err
    assert "width" in err and "Traceback" not in err


def test_eval_state_index_outside_n_states_fails_before_any_training(tmp_path, capsys):
    config = tmp_path / "c.json"
    config.write_text(json.dumps(_small_config(contact_states={"greet": [9]})))
    assert main(["--config", str(config), "--out", str(tmp_path / "out"), "eval"]) == 2
    err = capsys.readouterr().err
    assert "contact_states.greet: state indices [9] outside 0..2" in err
    assert not list(tmp_path.rglob("hhi_model.json"))


@pytest.mark.parametrize("level", ["DEBG", "basic_format", "warning"])
def test_log_level_must_name_a_logging_level(capsys, level):
    argv = ["--log-level", level, "ik-demo", "--target", "0.2", "0.05", "-0.1"]
    if level == "warning":  # matched whatever its case
        assert main(argv) == 0
        return
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "--log-level" in err and "Traceback" not in err


def test_cli_loads_no_scipy_until_the_rank_test_runs():
    # a fresh interpreter: this one has scipy loaded by other test modules
    package = Path(comotion.__file__).resolve().parent
    code = (
        "import sys, comotion.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('comotion.')))\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "print('multiprocessing' in sys.modules)\n"
        "from comotion.evaluate import mann_whitney_u\n"
        "mann_whitney_u([1.0, 2.0, 3.0], [4.0, 5.0, 6.5])\n"
        "print('scipy.stats' in sys.modules)\n"
    )
    path = os.pathsep.join(filter(None, [str(package.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    modules, scipy_modules, pool_loaded, stats_loaded = run.stdout.splitlines()
    every = sorted(f"comotion.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
    assert modules == repr(every)
    assert scipy_modules == "[]"
    assert pool_loaded == "False"  # the process pool loads only for threads > 1
    assert stats_loaded == "True"
