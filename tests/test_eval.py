import csv
import itertools
import json

import numpy as np
import pytest
from scipy.stats import PermutationMethod, mannwhitneyu, rankdata

from comotion import evaluate, infer
from comotion.cli import main
from comotion.errors import ConfigError, NumericalError
from comotion.evaluate import (
    config_fingerprint,
    mann_whitney_u,
    mse,
    parse_experiment,
    run_experiment,
)
from comotion.infer import conditional_predictions


def test_mse_identical_is_zero():
    x = np.random.default_rng(0).standard_normal((7, 20))
    assert mse(x, x) == 0.0


def test_mse_constant_offset():
    rng = np.random.default_rng(1)
    gt = rng.standard_normal((5, 12))
    assert mse(gt + 0.3, gt) == pytest.approx(0.09, abs=1e-12)


def test_mse_matches_triple_loop_oracle():
    rng = np.random.default_rng(2)
    pred = rng.standard_normal((4, 5, 3))
    gt = rng.standard_normal((4, 5, 3))
    total = 0.0
    count = 0
    for t in range(4):
        for f in range(5):
            for j in range(3):
                total += (pred[t, f, j] - gt[t, f, j]) ** 2
                count += 1
    assert mse(pred, gt) == pytest.approx(total / count, abs=1e-12)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        mse(np.zeros((2, 3)), np.zeros((3, 2)))


def test_mse_permutation_equivariant_over_trajectories():
    rng = np.random.default_rng(3)
    preds = [rng.standard_normal((6, 4)) for _ in range(5)]
    gts = [rng.standard_normal((6, 4)) for _ in range(5)]
    vals = [mse(p, g) for p, g in zip(preds, gts)]
    perm = [3, 1, 4, 0, 2]
    vals_perm = [mse(preds[i], gts[i]) for i in perm]
    assert vals_perm == [vals[i] for i in perm]


# ---------------------------------------------------------------------------
# Mann-Whitney U
# ---------------------------------------------------------------------------


def test_mw_identical_lists_give_one():
    a = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    assert mann_whitney_u(a, list(a)) == pytest.approx(1.0, abs=0.05)


def test_mw_exact_separated_triplets():
    p = mann_whitney_u([1.0, 2.0, 3.0], [10.0, 11.0, 12.0])
    assert p == pytest.approx(0.1, abs=1e-12)


def test_mw_exact_matches_enumeration_oracle():
    rng = np.random.default_rng(4)
    a = rng.standard_normal(4)
    b = rng.standard_normal(5) + 0.5
    pooled = np.concatenate([a, b])
    ranks = np.argsort(np.argsort(pooled)) + 1.0

    def u_min(idx):
        r = sum(ranks[i] for i in idx)
        u1 = r - len(a) * (len(a) + 1) / 2
        return min(u1, len(a) * len(b) - u1)

    obs = u_min(range(len(a)))
    hits = sum(
        1
        for comb in itertools.combinations(range(9), 4)
        if u_min(comb) <= obs + 1e-12
    )
    expected = hits / 126
    assert mann_whitney_u(a, b) == pytest.approx(expected, abs=1e-12)


def test_mw_shift_invariance():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(10)
    b = rng.standard_normal(12) + 0.8
    assert mann_whitney_u(a, b) == pytest.approx(
        mann_whitney_u(a + 100.0, b + 100.0), abs=1e-12
    )


def test_mw_normal_branch_matches_scipy():
    rng = np.random.default_rng(6)
    for _ in range(5):
        a = rng.standard_normal(15)
        b = rng.standard_normal(20) + rng.uniform(0, 1)
        ours = mann_whitney_u(a, b)
        ref = mannwhitneyu(a, b, alternative="two-sided", method="asymptotic").pvalue
        assert ours == pytest.approx(ref, rel=1e-9)


def test_mw_exact_branch_matches_scipy_without_ties():
    rng = np.random.default_rng(7)
    a = rng.standard_normal(5)
    b = rng.standard_normal(6) + 0.3
    ours = mann_whitney_u(a, b)
    ref = mannwhitneyu(a, b, alternative="two-sided", method="exact").pvalue
    assert ours == pytest.approx(ref, abs=1e-12)


def test_mw_degenerate_all_equal():
    assert mann_whitney_u([2.0] * 5, [2.0] * 5) == 1.0


def test_mw_requires_three_per_sample():
    with pytest.raises(ValueError, match="at least 3"):
        mann_whitney_u([1.0, 2.0], [1.0, 2.0, 3.0])


def test_mw_detects_strong_separation_large_n():
    rng = np.random.default_rng(8)
    a = rng.standard_normal(30)
    b = rng.standard_normal(30) + 3.0
    assert mann_whitney_u(a, b) < 1e-6


def _u1_over_all_splits(a, b):
    """U1 of ``a``'s midranks for every split of the pooled values into
    groups of ``a``'s and ``b``'s sizes; the first split is the observed one."""
    pooled = np.concatenate([a, b])
    ranks = rankdata(pooled)  # midranks, 1-based
    n = len(a)
    return np.array([
        ranks[list(comb)].sum() - n * (n + 1) / 2.0
        for comb in itertools.combinations(range(len(pooled)), n)
    ])


def _midrank_enumeration_p(a, b):
    """The share of splits whose min(U1, U2) is at most the observed one:
    the p-value of the package's hand-written exact test before it called
    scipy."""
    u1 = _u1_over_all_splits(a, b)
    u_min = np.minimum(u1, len(a) * len(b) - u1)
    return float(np.mean(u_min <= u_min[0] + 1e-12))


def _doubled_tail_p(a, b):
    """Twice the smaller tail of U1's permutation distribution, capped at 1."""
    u1 = _u1_over_all_splits(a, b)
    tails = np.mean(u1 <= u1[0] + 1e-12), np.mean(u1 >= u1[0] - 1e-12)
    return min(1.0, 2.0 * float(min(tails)))


def test_mw_ties_equal_sizes_match_midrank_enumeration():
    rng = np.random.default_rng(9)
    for n in (3, 4, 5, 6, 7):
        a = rng.integers(0, 4, n).astype(float)
        b = rng.integers(1, 5, n).astype(float)
        assert len(np.unique(np.concatenate([a, b]))) < 2 * n  # tied
        assert mann_whitney_u(a, b) == pytest.approx(_midrank_enumeration_p(a, b), abs=1e-12)


def test_mw_three_against_forty_is_the_full_permutation_p():
    """C(43, 3) = 12,341 splits, more than one batch of the exact branch."""
    rng = np.random.default_rng(10)
    a = rng.standard_normal(3) + 1.0
    b = rng.standard_normal(40)
    full = PermutationMethod(n_resamples=np.inf)
    ref = mannwhitneyu(a, b, alternative="two-sided", method=full).pvalue
    assert mann_whitney_u(a, b) == pytest.approx(ref, abs=1e-12)
    assert mann_whitney_u(a, b) == pytest.approx(_midrank_enumeration_p(a, b), abs=1e-12)


def test_mw_unequal_sizes_with_ties_double_the_smaller_tail():
    """With ties and unequal sizes the null distribution of U is not
    symmetric, and scipy's two-sided p is not the min(U1, U2) share."""
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([0.0, 1.0, 1.0, 2.0, 2.0])
    p = mann_whitney_u(a, b)
    assert p == pytest.approx(_doubled_tail_p(a, b), abs=1e-12)
    assert p == pytest.approx(20 / 56, abs=1e-12)
    assert _midrank_enumeration_p(a, b) == pytest.approx(13 / 56, abs=1e-12)


def test_mw_eight_per_side_takes_the_normal_branch():
    """scipy's own "auto" choice would enumerate here."""
    rng = np.random.default_rng(11)
    a = rng.standard_normal(8)
    b = rng.standard_normal(8) + 1.0
    asymptotic = mannwhitneyu(a, b, alternative="two-sided", method="asymptotic").pvalue
    auto = mannwhitneyu(a, b, alternative="two-sided").pvalue
    assert mann_whitney_u(a, b) == asymptotic
    assert abs(auto - asymptotic) > 1e-4


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------


def test_fingerprint_depends_on_config_and_seed():
    cfg = {"dataset": "x", "train": {"epochs": 3}}
    f1 = config_fingerprint(cfg, 0)
    f2 = config_fingerprint(cfg, 1)
    f3 = config_fingerprint({**cfg, "train": {"epochs": 4}}, 0)
    assert f1 != f2 and f1 != f3
    assert f1 == config_fingerprint({"train": {"epochs": 3}, "dataset": "x"}, 0)


@pytest.mark.parametrize("text", ['{"dataset": ', "[1, 2]", "\xff"], ids=["truncated", "list", "not-text"])
def test_run_experiment_on_malformed_config_file_is_config_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(ConfigError, match="bad.json"):
        run_experiment(path, tmp_path / "out")


def test_run_experiment_predicts_each_interaction_once(tmp_path, monkeypatch):
    """Scoring makes one prediction per interaction, variant and seed, on
    that interaction's stacked test trajectories, and the dumps and rows
    still come one per test trajectory (with no validation slice, training
    predicts nothing)."""
    interactions = [{"name": "greet", "n_traj": 8, "length": 30, "noise": 0.05},
                    {"name": "wave", "n_traj": 5, "length": 34, "noise": 0.05}]
    config = {
        "dataset": {"synth": {"interactions": interactions}, "seed": 0},
        "train": {"epochs": 1, "n_states": 3, "d_z": 2, "hidden": [4], "mc_samples": 2,
                  "val_fraction": 0},
        "variants": ["v1", "v3.2"],
        "seeds": [0, 1],
    }
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return conditional_predictions(*args, **kwargs)

    monkeypatch.setattr(infer, "conditional_predictions", counting)
    report = run_experiment(config, tmp_path)
    dataset = parse_experiment(config).dataset
    tests = [p for p, a in zip(dataset.pairs, dataset.assignment) if a == "test"]
    assert [p.label for p in tests] == ["greet", "greet", "wave"]
    assert len(calls) == 2 * 2 * 2
    assert sorted(len(args[3]) for args in calls) == [30] * 4 + [2 * 26] * 4
    assert len(report.rows) == len(tests) * 2 * 2
    assert len(list((tmp_path / "dumps").rglob("*_pred.npy"))) == len(report.rows)


def test_numerical_error_in_train_hhi_carries_the_stage_prefix(tmp_path, monkeypatch):
    config = {
        "dataset": {
            "synth": {"interactions": [{"name": "greet", "n_traj": 5, "length": 30, "noise": 0.05}]},
            "seed": 0,
        },
        "train": {"epochs": 1, "n_states": 3, "d_z": 2, "hidden": [4], "mc_samples": 2},
        "seeds": [4],
    }

    def diverging(*args, **kwargs):
        raise NumericalError("training loss diverged at epoch 0")

    monkeypatch.setattr(evaluate, "train_hhi", diverging)
    with pytest.raises(NumericalError) as err:
        run_experiment(config, tmp_path)
    fingerprint = config_fingerprint(config, 4)
    assert str(err.value) == (
        f"[stage train-hhi, config {fingerprint}] training loss diverged at epoch 0"
    )


def test_two_workers_write_the_serial_mse_columns(tmp_path):
    """Each worker gets the parsed experiment; the MSE columns match the
    serial ones, and so does the fingerprint column, which leaves
    ``threads`` out of the hashed config."""
    config = {
        "dataset": {
            "synth": {"interactions": [{"name": "greet", "n_traj": 5, "length": 30, "noise": 0.05}]},
            "seed": 0,
        },
        "train": {"epochs": 1, "n_states": 3, "d_z": 2, "hidden": [4], "mc_samples": 2},
        "variants": ["v1", "v3.2"],
        "seeds": [0, 1],
    }
    reports = []
    for threads in (1, 2):
        run_experiment({**config, "threads": threads}, tmp_path / f"threads{threads}")
        reports.append((tmp_path / f"threads{threads}" / "report.csv").read_text())
    assert reports[0] == reports[1] and reports[0].count("\n") > 1


def _one_label_config(name):
    return {
        "dataset": {
            "synth": {"interactions": [{"name": name, "n_traj": 4, "length": 30, "noise": 0.05}]},
            "seed": 0,
        },
        "train": {"epochs": 1, "n_states": 3, "d_z": 2, "hidden": [4], "mc_samples": 2},
    }


def test_eval_command_and_run_experiment_write_one_fingerprint(tmp_path):
    """``comotion eval`` adds ``seeds`` to a config without them; the
    fingerprint leaves ``seeds`` out, so both report the same rows."""
    config = _one_label_config("greet")
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert main(["--config", str(path), "--out", str(tmp_path / "cli"), "eval"]) == 0
    run_experiment(config, tmp_path / "api")
    cli_rows = (tmp_path / "cli" / "report.csv").read_text().splitlines()
    assert cli_rows == (tmp_path / "api" / "report.csv").read_text().splitlines()
    assert len(cli_rows) > 1
    assert all(row.endswith("," + config_fingerprint(config, 0)) for row in cli_rows[1:])


def test_report_csv_quotes_a_label_with_a_comma(tmp_path):
    label = "greet, then wave"
    run_experiment(_one_label_config(label), tmp_path)
    with open(tmp_path / "report.csv", newline="") as f:
        header, *rows = csv.reader(f)
    assert len(header) == 7 and rows
    assert all(len(row) == 7 and row[2] == label for row in rows)
