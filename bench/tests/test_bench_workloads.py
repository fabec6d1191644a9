import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
TINY = workloads.Scale(n_traj=4, length=30, epochs=1, setups=2, fit_datasets=2)


def declared(kind: str) -> dict[str, str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_passes_checks_and_emits_every_end_to_end_metric(name):
    result, tracer = workloads.run_workload(name, 3, 0.3, False, TINY)
    assert tracer is None
    assert result.checks.ok, result.checks.failures
    assert result.ops.failed == 0 and result.ops.attempted > 0
    metrics = workloads.metrics(result, None)
    assert {k: m["unit"] for k, m in metrics.items()} == declared("end_to_end")
    for k, m in metrics.items():
        assert np.isfinite(m["value"]) and m["value"] > 0, k


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run_emits_every_per_layer_metric(name):
    result, tracer = workloads.run_workload(name, 3, 0.3, True, TINY)
    assert result.checks.ok, result.checks.failures
    metrics = workloads.metrics(result, tracer)
    assert {k: m["unit"] for k, m in metrics.items()} == declared("per_layer")
    values = {k: m["value"] for k, m in metrics.items()}
    assert all(np.isfinite(v) for v in values.values())
    assert values["trace.ops"] > 0
    assert values["hmm.em_fit.calls"] > 0
    assert values["infer.reactive_step.s"] > 0
    if name == "react_ik":
        assert values["kin.ik_with_prior.calls"] == values["trace.ops"]
    else:
        assert values["kin.ik_with_prior.calls"] == 0


def test_failed_check_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "BENCH", TINY)
    monkeypatch.setattr(workloads, "AGREE_TOL", -1.0)
    code = run.main(["--workload", "react", "--seed", "0", "--seconds", "0.1"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0 and last["correct"] is False


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fit", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
