"""Benchmark for comotion: offline training and the 20 Hz reactive step.

Run from the repository root:

    python3 bench/run.py --workload react --seed 0 --seconds 20 --trace 0

--workload  fit, react or react_ik (see bench/workloads.py and bench/METRICS.md)
--seed      workload seed; the same seed gives the same inputs
--seconds   how long the timed loop runs
--trace     0: print the end-to-end metrics. 1: a separate traced run that
            prints the per-layer metrics and the tracing overhead, and writes
            its spans to .bench_out/trace-<workload>-seed<seed>.json

Report lines come first. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0 only
when every correctness check passed and no operation raised.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("fit", "react", "react_ik"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_comotion() -> None:
    """Import comotion from this checkout's src/, never from anywhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import comotion
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import comotion from {src}: {exc}") from None
    if not Path(comotion.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"bench: comotion was imported from {comotion.__file__}, not {src}")


def blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS that numpy and scipy bundle."""
    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[lib.name] = int(fn())
                    break
    return out


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp() -> dict:
    import numpy
    import scipy
    from comotion import _kernels

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "processes": 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "use_numba": bool(_kernels.USE_NUMBA),
        "commit": git_commit(ROOT),
    }


def _number(value: float):
    return value if math.isfinite(value) else None


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads: all load comes from this one
    # process, and the matrices (at most 40 wide) are too small to gain from more.
    for var in BLAS_ENV:
        os.environ[var] = "1"
    import_comotion()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    info = stamp()
    print(f"# comotion bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# stamp {json.dumps(info, sort_keys=True)}")
    OUT_DIR.mkdir(exist_ok=True)
    run, tracer = workloads.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), workloads.BENCH, OUT_DIR
    )
    run.checks.expect(
        all(n <= info["nproc"] for n in info["blas_threads"].values()),
        "BLAS thread count exceeds nproc",
    )

    metrics = workloads.metrics(run, tracer)
    notes = {
        "setup_s": f"median of {len(run.setup_s)} set-ups",
        "hhi_epoch_s": f"median of {len(run.hhi_epoch_s)} trainings",
        "hri_epoch_s": f"median of {len(run.hri_epoch_s)} trainings",
        "cond_mse": f"median of {len(run.cond_mse)} bundles",
        "step_p50_ms": f"{len(run.ops.step_ms)} steps",
        "step_p95_ms": f"{len(run.ops.step_ms)} steps",
        "hand_err_mm": f"{len(run.ops.hand_err_mm)} steps",
    }
    for name, m in metrics.items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']:<6} {notes.get(name, '')}")
    if tracer is None:
        for name, value in workloads.step_outcomes(run).items():
            print(f"{name:<36} {value:>14.6g} {'count' if name == 'steps' else 'ratio'}")
    else:
        totals = tracer.layer_totals()
        for part, whole in (("hmm.em_fit", "train.train_hhi"),
                            ("kin.ik_with_prior", "infer.reactive_step")):
            w = totals.get(whole, {}).get("s", 0.0)
            share = totals.get(part, {}).get("s", 0.0) / w if w else 0.0
            print(f"# share of {whole} time in {part}: {share:.3f}")
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_path)
        print(f"# {len(tracer.name)} spans written to {trace_path.relative_to(ROOT)}")

    for what, count in run.checks.failures.items():
        print(f"# CHECK FAILED ({count}x): {what}")
    correct = run.checks.ok
    result = {
        "correct": correct,
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": {
            name: {"value": _number(m["value"]), "unit": m["unit"]} for name, m in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0 if correct and run.ops.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
