"""Evaluation metrics, experiment orchestration and report emission.

``run_experiment`` is the reproducibility entry point: one config file in,
a deterministic ``report.csv`` (per-trajectory conditional MSE per variant,
seed and interaction), a human-readable ``report.md`` with aggregate tables
and pairwise rank-test p-values, and per-trajectory latent/state-activation
dumps out. Every row carries a fingerprint of the canonicalized config plus
seed so results stay traceable.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import logging
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from comotion.data import (
    Dataset,
    SynthSpec,
    config_field,
    load_dataset,
    pair_features,
    split,
    synth_generate,
)
from comotion.errors import ConfigError, DataError, NumericalError
from comotion.hmm import TransitionStateModel
from comotion.infer import conditional_predictions
from comotion.train import (
    ModelBundle,
    TrainConfig,
    fit_transition_states,
    save_bundle,
    train_hhi,
    train_hri,
    write_trace,
)
from comotion.vae import Variant

log = logging.getLogger(__name__)


def mse(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean squared error over every timestep, window frame and joint."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    diff = pred - gt
    return float((diff * diff).mean())


def _u_min(pooled: np.ndarray, ranks: np.ndarray, a_idx) -> float:
    n = len(a_idx)
    m = len(pooled) - n
    r_a = float(ranks[list(a_idx)].sum())
    u1 = r_a - n * (n + 1) / 2.0
    return min(u1, n * m - u1)


def mann_whitney_u(a, b) -> float:
    """Two-sided Mann-Whitney U p-value.

    Exact enumeration of group assignments when either sample has fewer
    than 8 values, otherwise the normal approximation with midrank tie
    correction and a continuity correction.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n, m = len(a), len(b)
    if n < 3 or m < 3:
        raise ValueError("need at least 3 values per sample")
    pooled = np.concatenate([a, b])
    if np.all(pooled == pooled[0]):
        return 1.0
    # imported here: scipy.stats adds ~40 MB of resident memory to every
    # process that imports this module, and only the report needs it
    from scipy.stats import rankdata

    ranks = rankdata(pooled)  # midranks, 1-based
    u_obs = _u_min(pooled, ranks, range(n))
    if min(n, m) < 8:
        total = 0
        hits = 0
        for comb in itertools.combinations(range(n + m), n):
            total += 1
            if _u_min(pooled, ranks, comb) <= u_obs + 1e-12:
                hits += 1
        return hits / total
    mu = n * m / 2.0
    _, counts = np.unique(pooled, return_counts=True)
    tie_term = float((counts**3 - counts).sum())
    var = n * m / 12.0 * ((n + m + 1) - tie_term / ((n + m) * (n + m - 1)))
    if var <= 0:
        return 1.0
    z = (u_obs - mu + 0.5) / math.sqrt(var)
    p = 2.0 * 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    return min(1.0, p)


def config_fingerprint(config: dict, seed: int) -> str:
    blob = json.dumps({"config": config, "seed": seed}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# experiment orchestration
# ---------------------------------------------------------------------------


@dataclass
class EvalRow:
    variant: str
    seed: int
    interaction: str
    trajectory: int
    mse_window: float
    mse_last: float
    fingerprint: str


@dataclass
class EvalReport:
    rows: list[EvalRow]
    aggregates: dict  # (variant, interaction) -> {"mean":, "std":, "n":, "mean_last":}
    p_values: dict  # (interaction, variant_a, variant_b) -> p
    config: dict


@contextlib.contextmanager
def _stage(name: str, fingerprint: str):
    """Prefix a ConfigError, DataError or NumericalError raised inside with
    ``[stage <name>, config <fingerprint>]``."""
    try:
        yield
    except (ConfigError, DataError, NumericalError) as exc:
        exc.args = (f"[stage {name}, config {fingerprint}] {exc}",)
        raise


def load_config(path: str | Path) -> dict:
    """Read a JSON config file; one that is missing, is not JSON or is not
    an object is a ConfigError naming the file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"missing config file: {path}")
    try:
        with open(path) as f:
            config = json.load(f)
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"malformed config {path}: {exc}") from None
    except OSError as exc:  # a directory, or not readable
        raise ConfigError(f"unreadable config {path}: {exc.strerror}") from None
    if not isinstance(config, dict):
        raise ConfigError(f"malformed config {path}: not a JSON object")
    return config


def load_experiment_dataset(config: dict) -> Dataset:
    """The config's dataset, a directory or a ``synth`` spec, with its
    train/test split."""
    src = config.get("dataset")
    if src is None:
        raise ConfigError("config lacks a 'dataset' entry")
    if isinstance(src, str):
        ds = load_dataset(src)
    elif isinstance(src, dict) and "synth" in src:
        spec = SynthSpec.from_dict(src["synth"])
        seed = config_field(src, "seed", 0, "dataset.seed", "an integer", _is_int)
        ds = synth_generate(spec, np.random.default_rng(seed))
    else:
        raise ConfigError(f"unrecognized dataset entry: {src!r}")
    fraction = config_field(config, "split_fraction", 0.8, "split_fraction", "in (0, 1)",
                            lambda v: isinstance(v, (int, float)) and 0.0 < v < 1.0)
    split_seed = config_field(config, "split_seed", 0, "split_seed", "an integer", _is_int)
    return split(ds, float(fraction), int(split_seed))


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral)


def evaluate_bundle(
    bundle: ModelBundle, dataset: Dataset, dump_dir: Path | None = None
) -> list[tuple[str, int, float, float]]:
    """Conditional test MSE per test trajectory: (label, index, window, last).

    With ``dump_dir``, each test trajectory's state activations (CSV) and
    predicted windows (.npy) are written there too, for plotting.
    """
    out = []
    variant = bundle.config.variant
    w = bundle.config.window
    for i, (pair, assign) in enumerate(zip(dataset.pairs, dataset.assignment)):
        if assign != "test":
            continue
        x_h, x_r = pair_features(pair, w)
        pred, alpha = conditional_predictions(
            bundle.human_vae, bundle.robot_vae, bundle.hmms[pair.label][0], x_h, variant
        )
        n_r = x_r.shape[1] // w
        out.append(
            (
                pair.label,
                i,
                mse(pred, x_r),
                mse(pred[:, -n_r:], x_r[:, -n_r:]),
            )
        )
        if dump_dir is not None:
            dump_dir.mkdir(parents=True, exist_ok=True)
            lines = ["t," + ",".join(f"alpha_{j + 1}" for j in range(alpha.shape[1]))]
            lines += [f"{t}," + ",".join(repr(float(v)) for v in a) for t, a in enumerate(alpha)]
            (dump_dir / f"traj{i:03d}_alpha.csv").write_text("\n".join(lines) + "\n")
            np.save(dump_dir / f"traj{i:03d}_pred.npy", pred)
    return out


def _seed_job(args: dict) -> dict:
    """Train one seed across all variants; run in a worker process."""
    config = args["config"]
    seed = args["seed"]
    out_dir = Path(args["out_dir"])
    dataset = load_experiment_dataset(config)
    base_cfg = TrainConfig.from_dict(config.get("train", {}))
    fingerprint = config_fingerprint(config, seed)
    with _stage("train-hhi", fingerprint):
        hhi = train_hhi(dataset, base_cfg, seed)
    seed_dir = out_dir / f"seed{seed}"
    save_bundle(hhi, seed_dir / "hhi_model.json")
    write_trace(seed_dir / "hhi_loss_trace.csv", hhi.trace)
    results: dict = {"seed": seed, "variants": {}}
    state_sets = state_sets_from_config(config)
    for tag in config.get("variants", ["v1"]):
        cfg_v = replace(base_cfg, variant=Variant(tag))
        with _stage(f"train-hri[{tag}]", fingerprint):
            hri = train_hri(dataset, hhi, cfg_v, seed)
        if state_sets:
            hri = fit_transition_states(hri, dataset, state_sets)
        save_bundle(hri, seed_dir / f"hri_{tag}.json")
        write_trace(seed_dir / f"hri_{tag}_trace.csv", hri.trace)
        with _stage(f"evaluate[{tag}]", fingerprint):
            per_traj = evaluate_bundle(hri, dataset, out_dir / "dumps" / tag / f"seed{seed}")
        val = hri.trace[-1]["val_mse"] if hri.trace else float("nan")
        results["variants"][tag] = {"per_traj": per_traj, "val_mse": val}
    return results


def state_sets_from_config(config: dict) -> dict | None:
    """Per label (contact_states, reach_states) from the config, or None
    when it names no contact states; sets a ``TransitionStateModel`` rejects
    (no contact state, or contact and reach states overlap) are a
    ConfigError naming the label."""
    contact = config.get("contact_states")
    reach = config.get("reach_states")
    if not contact:
        return None
    sets = {label: (contact[label], (reach or {}).get(label, [])) for label in contact}
    for label, (c, r) in sets.items():
        try:
            TransitionStateModel(c, r)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config field contact_states.{label}: {exc}") from None
    return sets


def run_experiment(config: dict | str | Path, out_dir: str | Path | None = None) -> EvalReport:
    """Train, evaluate and report over the (variant x seed) grid."""
    if not isinstance(config, dict):
        config = load_config(config)
    # a malformed entry fails here, before any training
    for tag in config.get("variants", ["v1"]):
        Variant(tag)
    state_sets_from_config(config)
    seeds = config_field(config, "seeds", [0], "seeds", "a non-empty list of integers",
                         lambda v: isinstance(v, list) and len(v) > 0 and all(map(_is_int, v)))
    threads = config_field(config, "threads", 1, "threads", "a positive integer",
                           lambda v: _is_int(v) and v > 0)
    out_dir = Path(out_dir or config.get("out", "experiment_out"))
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = [{"config": config, "seed": s, "out_dir": str(out_dir)} for s in seeds]
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_seed_job, jobs))
    else:
        results = [_seed_job(j) for j in jobs]
    results.sort(key=lambda r: r["seed"])

    rows: list[EvalRow] = []
    for res in results:
        fingerprint = config_fingerprint(config, res["seed"])
        for tag in sorted(res["variants"]):
            for label, idx, m_win, m_last in res["variants"][tag]["per_traj"]:
                rows.append(
                    EvalRow(tag, res["seed"], label, idx, m_win, m_last, fingerprint)
                )
    report = _assemble_report(rows, config)
    _write_report_csv(out_dir / "report.csv", report)
    _write_report_md(out_dir / "report.md", report, results)
    return report


def _assemble_report(rows: list[EvalRow], config: dict) -> EvalReport:
    variants = sorted({r.variant for r in rows})
    interactions = sorted({r.interaction for r in rows})
    aggregates = {}
    for tag in variants:
        for label in interactions + [None]:
            vals = [r.mse_window for r in rows if r.variant == tag and label in (None, r.interaction)]
            lasts = [r.mse_last for r in rows if r.variant == tag and label in (None, r.interaction)]
            if vals:
                aggregates[(tag, label or "all")] = {
                    "mean": float(np.mean(vals)),
                    "std": float(np.std(vals)),
                    "mean_last": float(np.mean(lasts)),
                    "n": len(vals),
                }
    p_values = {}
    for label in interactions:
        for a, b in itertools.combinations(variants, 2):
            va = [r.mse_window for r in rows if r.variant == a and r.interaction == label]
            vb = [r.mse_window for r in rows if r.variant == b and r.interaction == label]
            if len(va) >= 3 and len(vb) >= 3:
                p_values[(label, a, b)] = mann_whitney_u(va, vb)
    return EvalReport(rows, aggregates, p_values, config)


def _write_report_csv(path: Path, report: EvalReport) -> None:
    lines = ["variant,seed,interaction,trajectory,mse_window,mse_last,fingerprint"]
    for r in sorted(
        report.rows, key=lambda r: (r.variant, r.seed, r.interaction, r.trajectory)
    ):
        lines.append(
            f"{r.variant},{r.seed},{r.interaction},{r.trajectory},"
            f"{repr(r.mse_window)},{repr(r.mse_last)},{r.fingerprint}"
        )
    path.write_text("\n".join(lines) + "\n")


def _write_report_md(path: Path, report: EvalReport, results: list[dict]) -> None:
    lines = ["# Conditional prediction report", ""]
    lines.append("| variant | interaction | mean MSE | std | last-frame MSE | n |")
    lines.append("|---|---|---|---|---|---|")
    for (tag, label), agg in sorted(report.aggregates.items()):
        lines.append(
            f"| {tag} | {label} | {agg['mean']:.6f} | {agg['std']:.6f} "
            f"| {agg['mean_last']:.6f} | {agg['n']} |"
        )
    lines.append("")
    if report.p_values:
        lines.append("## Pairwise Mann-Whitney U (two-sided)")
        lines.append("")
        lines.append("| interaction | A | B | p |")
        lines.append("|---|---|---|---|")
        for (label, a, b), p in sorted(report.p_values.items()):
            lines.append(f"| {label} | {a} | {b} | {p:.5f} |")
        lines.append("")
    lines.append("## Validation MSE by seed (selection metric)")
    lines.append("")
    lines.append("| seed | " + " | ".join(sorted(results[0]["variants"])) + " |")
    lines.append("|---" * (1 + len(results[0]["variants"])) + "|")
    for res in results:
        cells = [
            f"{res['variants'][tag]['val_mse']:.6f}" for tag in sorted(res["variants"])
        ]
        lines.append(f"| {res['seed']} | " + " | ".join(cells) + " |")
    path.write_text("\n".join(lines) + "\n")
