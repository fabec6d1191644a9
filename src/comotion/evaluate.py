"""Evaluation metrics, experiment orchestration and report emission.

An experiment config is read in one place: ``parse_experiment`` checks
every field once into the ``Experiment`` record every command runs from.

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
from dataclasses import astuple, dataclass, fields, replace
from pathlib import Path

import numpy as np

from comotion.data import (
    Dataset,
    SynthSpec,
    config_field,
    config_keys,
    is_int,
    load_dataset,
    open_output,
    output_errors,
    pair_features,
    read_json,
    split,
    synth_generate,
    write_csv,
)
from comotion.errors import ConfigError, DataError, NumericalError
from comotion.hmm import TransitionStateModel
from comotion.infer import predict_trajectories
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


def mse(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean squared error over every timestep, window frame and joint."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {gt.shape}")
    diff = pred - gt
    return float((diff * diff).mean())


def mann_whitney_u(a, b) -> float:
    """Two-sided Mann-Whitney U p-value by ``scipy.stats.mannwhitneyu``.

    Exact when either sample has fewer than 8 values: a permutation test
    over every split of the pooled values, in batches so that memory stays
    small (3 values against 120). Otherwise the normal approximation with tie
    and continuity corrections. Two-sided is twice the smaller tail; with
    ties and unequal sizes that is not the share of splits whose
    min(U1, U2) is as small, but every report compares equal sizes.
    """
    if len(a) < 3 or len(b) < 3:
        raise ValueError("need at least 3 values per sample")
    pooled = np.concatenate([a, b])
    if np.all(pooled == pooled[0]):
        return 1.0
    # imported here: scipy.stats adds ~40 MB of resident memory to every
    # process that imports this module, and only the report needs it
    from scipy.stats import PermutationMethod, mannwhitneyu

    small = min(len(a), len(b)) < 8
    method = PermutationMethod(n_resamples=np.inf, batch=10_000) if small else "asymptotic"
    return float(mannwhitneyu(a, b, alternative="two-sided", method=method).pvalue)


def config_fingerprint(config: dict, seed: int) -> str:
    """Hash of the config and the row's seed; ``threads``, ``out`` and
    ``seeds`` change no number in the report and are left out."""
    config = {k: v for k, v in config.items() if k not in ("threads", "out", "seeds")}
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
    out: Path  # where report.csv, report.md and the per-seed files went


@dataclass(frozen=True)
class Experiment:
    """An experiment config, read and checked by ``parse_experiment``."""

    config: dict  # the dict it was read from; fingerprints hash it
    train: TrainConfig
    variants: tuple[str, ...]  # checked tags
    seeds: tuple[int, ...]
    threads: int
    out: Path
    state_sets: dict[str, tuple[list[int], list[int]]]  # label -> (contact, reach)
    dataset: Dataset  # with its train/test split


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
    config = read_json(path, "config file", ConfigError)
    if not isinstance(config, dict):
        raise ConfigError(f"malformed config file {path}: not a JSON object")
    return config


_STATE_MAP = ("an object mapping labels to state lists", lambda v: isinstance(v, dict))
_CONFIG_RULES = {  # field other than dataset: (default, what it must be, its test)
    "split_fraction": (0.8, "in (0, 1)", lambda v: isinstance(v, (int, float)) and 0.0 < v < 1.0),
    "split_seed": (0, "an integer", is_int),
    "train": ({}, "an object", lambda v: isinstance(v, dict)),
    "variants": (["v1"], "a non-empty list of tags", lambda v: isinstance(v, list) and len(v) > 0),
    "seeds": ([0], "a non-empty list of integers",
              lambda v: isinstance(v, list) and len(v) > 0 and all(map(is_int, v))),
    "threads": (1, "a positive integer", lambda v: is_int(v) and v > 0),
    "out": ("experiment_out", "a path string", lambda v: isinstance(v, str)),
    "contact_states": ({}, *_STATE_MAP),
    "reach_states": ({}, *_STATE_MAP),
}


def parse_experiment(config: dict) -> Experiment:
    """Read and check every field of an experiment config, the dataset
    last; an unknown key or a malformed value is a ConfigError naming the
    field, and so are state sets a ``TransitionStateModel`` rejects (no
    contact state, or contact and reach states overlap) and state sets for
    a label the dataset lacks."""
    config_keys(config, {"dataset", *_CONFIG_RULES}, "(top level)")
    f = {key: config_field(config, key, default, key, what, ok)
         for key, (default, what, ok) in _CONFIG_RULES.items()}
    config_keys(f["reach_states"], f["contact_states"], "reach_states")
    state_sets = {label: (c, f["reach_states"].get(label, []))
                  for label, c in f["contact_states"].items()}
    for label, (c, r) in state_sets.items():
        try:
            if not all(map(is_int, [*c, *r])):
                raise ValueError(f"state indices must be integers, got {c!r} and {r!r}")
            TransitionStateModel(c, r)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config field contact_states.{label}: {exc}") from None
    train = TrainConfig.from_dict(f["train"])
    # a tag given twice trains and reports once
    variants = tuple(dict.fromkeys(Variant(tag).tag for tag in f["variants"]))
    dataset = _parse_dataset(config.get("dataset"))
    config_keys(state_sets, dataset.labels, "contact_states")
    return Experiment(config, train, variants, tuple(f["seeds"]), f["threads"], Path(f["out"]),
                      state_sets, split(dataset, float(f["split_fraction"]), int(f["split_seed"])))


def _parse_dataset(src) -> Dataset:
    """The config's dataset: a directory, or a ``synth`` spec and its seed."""
    if src is None:
        raise ConfigError("config lacks a 'dataset' entry")
    if isinstance(src, str):
        return load_dataset(src)
    if not (isinstance(src, dict) and "synth" in src):
        raise ConfigError(f"unrecognized dataset entry: {src!r}")
    config_keys(src, ("synth", "seed"), "dataset")
    spec = SynthSpec.from_dict(src["synth"])
    seed = config_field(src, "seed", 0, "dataset.seed", "an integer", is_int)
    return synth_generate(spec, np.random.default_rng(seed))


def evaluate_bundle(
    bundle: ModelBundle, dataset: Dataset, dump_dir: Path | None = None
) -> list[tuple[str, int, float, float]]:
    """Conditional test MSE per test trajectory: (label, index, window, last).

    With ``dump_dir``, each test trajectory's state activations (CSV) and
    predicted windows (.npy) are written there too, for plotting.
    """
    out = []
    w = bundle.config.window
    tests = [(i, pair, *pair_features(pair, w))
             for i, (pair, assign) in enumerate(zip(dataset.pairs, dataset.assignment))
             if assign == "test"]
    preds = predict_trajectories(bundle.human_vae, bundle.robot_vae, bundle.hmms,
                                 [(pair.label, x_h) for _, pair, x_h, _ in tests],
                                 bundle.config.variant)
    for (i, pair, _, x_r), (pred, alpha) in zip(tests, preds):
        n_r = x_r.shape[1] // w
        out.append((pair.label, i, mse(pred, x_r), mse(pred[:, -n_r:], x_r[:, -n_r:])))
        if dump_dir is not None:
            write_csv(dump_dir / f"traj{i:03d}_alpha.csv",
                      ["t", *(f"alpha_{j + 1}" for j in range(alpha.shape[1]))],
                      ([t, *a] for t, a in enumerate(alpha)))
            with open_output(dump_dir / f"traj{i:03d}_pred.npy", binary=True) as f:
                np.save(f, pred)
    return out


def _seed_job(exp: Experiment, seed: int) -> dict:
    """Train one seed across all variants; run in a worker process. Returns
    the seed's report rows and each variant's final validation MSE."""
    fingerprint = config_fingerprint(exp.config, seed)
    with _stage("train-hhi", fingerprint):
        hhi = train_hhi(exp.dataset, exp.train, seed)
    seed_dir = exp.out / f"seed{seed}"
    save_bundle(hhi, seed_dir / "hhi_model.json")
    write_trace(seed_dir / "hhi_loss_trace.csv", hhi.trace)
    rows, val_mse = [], {}
    for tag in exp.variants:
        with _stage(f"train-hri[{tag}]", fingerprint):
            hri = train_hri(exp.dataset, hhi, replace(exp.train, variant=tag), seed)
        hri = fit_transition_states(hri, exp.dataset, exp.state_sets)
        save_bundle(hri, seed_dir / f"hri_{tag}.json")
        write_trace(seed_dir / f"hri_{tag}_trace.csv", hri.trace)
        with _stage(f"evaluate[{tag}]", fingerprint):
            per_traj = evaluate_bundle(hri, exp.dataset, exp.out / "dumps" / tag / f"seed{seed}")
        rows += [EvalRow(tag, seed, *traj, fingerprint) for traj in per_traj]
        val_mse[tag] = hri.trace[-1]["val_mse"] if hri.trace else float("nan")
    return {"seed": seed, "rows": rows, "val_mse": val_mse}


def run_experiment(config: dict | str | Path, out_dir: str | Path | None = None) -> EvalReport:
    """Train, evaluate and report over the (variant x seed) grid; ``out_dir``
    overrides the config's ``out``."""
    exp = parse_experiment(config if isinstance(config, dict) else load_config(config))
    if out_dir:
        exp = replace(exp, out=Path(out_dir))
    with output_errors(exp.out):  # an unusable out fails before any training
        exp.out.mkdir(parents=True, exist_ok=True)
    if exp.threads > 1 and len(exp.seeds) > 1:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing
        with ProcessPoolExecutor(max_workers=exp.threads) as pool:
            results = list(pool.map(_seed_job, itertools.repeat(exp), exp.seeds))
    else:
        results = [_seed_job(exp, s) for s in exp.seeds]
    results.sort(key=lambda r: r["seed"])
    # aggregates sum in (seed, variant, trajectory) order
    rows = sorted((r for res in results for r in res["rows"]), key=lambda r: (r.seed, r.variant))
    report = _assemble_report(rows, exp.out)
    _write_report_csv(exp.out / "report.csv", report)
    _write_report_md(exp.out / "report.md", report, results)
    return report


def _assemble_report(rows: list[EvalRow], out: Path) -> EvalReport:
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
    return EvalReport(rows, aggregates, p_values, out)


def _write_report_csv(path: Path, report: EvalReport) -> None:
    rows = sorted(report.rows, key=lambda r: (r.variant, r.seed, r.interaction, r.trajectory))
    write_csv(path, [f.name for f in fields(EvalRow)], map(astuple, rows))


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
    lines.append("| seed | " + " | ".join(sorted(results[0]["val_mse"])) + " |")
    lines.append("|---" * (1 + len(results[0]["val_mse"])) + "|")
    for res in results:
        cells = [f"{res['val_mse'][tag]:.6f}" for tag in sorted(res["val_mse"])]
        lines.append(f"| {res['seed']} | " + " | ".join(cells) + " |")
    with open_output(path) as f:
        f.write("\n".join(lines) + "\n")
