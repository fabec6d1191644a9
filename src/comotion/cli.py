"""Command-line interface.

Subcommands: synth, train-hhi, train-hri, eval, rollout, ik-demo,
inspect-hmm. Exit codes: 0 success, 2 config error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from comotion.data import Dataset, SynthSpec, load_dataset, save_dataset, synth_generate
from comotion.errors import ConfigError, DataError, NumericalError
from comotion.evaluate import (
    _load_experiment_dataset,
    _state_sets_from_config,
    run_experiment,
)
from comotion.hmm import forward_unobserved
from comotion.infer import rollout
from comotion.kin import default_arm_chain, fk, ik_baseline, ik_with_prior, load_chain
from comotion.train import (
    TrainConfig,
    fit_transition_states,
    load_bundle,
    save_bundle,
    train_hhi,
    train_hri,
    write_trace,
)
from comotion.vae import encode_batch

log = logging.getLogger("comotion")


def _load_config(args) -> dict:
    if not args.config:
        return {}
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"missing config file: {path}")
    try:
        with open(path) as f:
            return json.load(f)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from None


def _dataset_from_config(config: dict, path_arg: str | None) -> Dataset:
    if path_arg:
        config = {**config, "dataset": path_arg}
    return _load_experiment_dataset(config)


def _train_config(config: dict, args) -> TrainConfig:
    cfg = TrainConfig.from_dict(config.get("train", {}))
    if getattr(args, "variant", None):
        cfg = TrainConfig.from_dict({**cfg.to_dict(), "variant": args.variant})
    return cfg


def cmd_synth(args) -> int:
    config = _load_config(args)
    spec_dict = config.get("synth", config.get("dataset", {}).get("synth", {})) if config else {}
    spec = SynthSpec.from_dict(spec_dict)
    ds = synth_generate(spec, np.random.default_rng(args.seed))
    out = Path(args.out or "synth_dataset")
    save_dataset(ds, out)
    print(f"wrote {len(ds.pairs)} trajectories to {out}")
    return 0


def cmd_train_hhi(args) -> int:
    config = _load_config(args)
    ds = _dataset_from_config(config, args.data)
    cfg = _train_config(config, args)
    bundle = train_hhi(ds, cfg, args.seed)
    out = Path(args.out or "hhi_out")
    save_bundle(bundle, out / "model.json")
    write_trace(out / "loss_trace.csv", bundle.trace)
    print(f"trained stage-one model (seed {bundle.seed}) -> {out/'model.json'}")
    if bundle.trace:
        print(f"final total loss {bundle.trace[-1]['total']:.6f} "
              f"val MSE {bundle.trace[-1]['val_mse']:.6f}")
    return 0


def cmd_train_hri(args) -> int:
    config = _load_config(args)
    ds = _dataset_from_config(config, args.data)
    cfg = _train_config(config, args)
    hhi = load_bundle(args.hhi)
    bundle = train_hri(ds, hhi, cfg, args.seed)
    state_sets = _state_sets_from_config(config)
    if state_sets:
        bundle = fit_transition_states(bundle, ds, state_sets)
    out = Path(args.out or "hri_out")
    save_bundle(bundle, out / "model.json")
    write_trace(out / "loss_trace.csv", bundle.trace)
    print(f"trained stage-two model ({cfg.variant.tag}, seed {bundle.seed}) -> {out/'model.json'}")
    if bundle.trace:
        print(f"final total loss {bundle.trace[-1]['total']:.6f} "
              f"val MSE {bundle.trace[-1]['val_mse']:.6f}")
    return 0


def cmd_eval(args) -> int:
    config = _load_config(args)
    if not config:
        raise ConfigError("eval requires --config")
    if args.threads:
        config["threads"] = args.threads
    if args.seed is not None:
        config.setdefault("seeds", [args.seed])
    report = run_experiment(config, args.out)
    out = Path(args.out or config.get("out", "experiment_out"))
    print(f"report written to {out/'report.csv'} and {out/'report.md'}")
    for (tag, label), agg in sorted(report.aggregates.items()):
        if label == "all":
            print(f"  {tag}: mean MSE {agg['mean']:.6f} +/- {agg['std']:.6f}")
    return 0


def cmd_rollout(args) -> int:
    bundle = load_bundle(args.model)
    ds = load_dataset(args.data)
    if args.index >= len(ds.pairs):
        raise DataError(f"trajectory index {args.index} out of range ({len(ds.pairs)})")
    pair = ds.pairs[args.index]
    chain = load_chain(args.chain) if args.chain else default_arm_chain()
    weights = np.array([0.1, 0.2, 0.3, 0.4]) if args.smooth else None
    result = rollout(bundle, pair.label, pair.h_frames, chain, None, weights)
    out = Path(args.out or "rollout.csv")
    n_r = result.q.shape[1]
    n_states = result.alpha.shape[1]
    header = (
        "t,"
        + ",".join(f"q_{i + 1}" for i in range(n_r))
        + ",stiffness_low,"
        + ",".join(f"alpha_{i + 1}" for i in range(n_states))
        + ",gate"
    )
    lines = [header]
    for t in range(result.q.shape[0]):
        lines.append(
            f"{t},"
            + ",".join(repr(float(v)) for v in result.q[t])
            + f",{int(result.stiffness_low[t])},"
            + ",".join(repr(float(v)) for v in result.alpha[t])
            + f",{int(result.gate[t])}"
        )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    if args.latents:
        Path(args.latents).write_text(
            json.dumps({"latent_mean": result.latent_mean.tolist()})
        )
    print(f"rollout of trajectory {args.index} ({pair.label}) -> {out}")
    return 0


def cmd_ik_demo(args) -> int:
    chain = load_chain(args.chain) if args.chain else default_arm_chain()
    target = np.asarray(args.target, dtype=np.float64)
    base = ik_baseline(chain, target)
    print(f"baseline IK: q={np.round(base.q, 4).tolist()} residual={base.residual:.2e} "
          f"iters={base.iterations} converged={base.converged}")
    mu_q = np.asarray(args.prior, dtype=np.float64) if args.prior else np.zeros(chain.n_joints)
    sol = ik_with_prior(chain, target, mu_q, args.lambda_x, args.lambda_q)
    print(f"prior IK:    q={np.round(sol.q, 4).tolist()} residual={sol.residual:.2e} "
          f"iters={sol.iterations} converged={sol.converged}")
    print(f"prior fk: {np.round(fk(chain, sol.q), 4).tolist()} target: {target.tolist()}")
    return 0


def cmd_inspect_hmm(args) -> int:
    bundle = load_bundle(args.model)
    for label, (hmm, tsm) in sorted(bundle.hmms.items()):
        print(f"interaction {label!r}: {hmm.n_states} states, dim {hmm.dim}")
        abar = forward_unobserved(hmm, args.horizon).values
        occupancy = abar.mean(axis=0)
        peak = abar.argmax(axis=0)
        for i in range(hmm.n_states):
            h_mean = hmm.marginal(i, "h").mean
            r_mean = hmm.marginal(i, "r").mean
            print(
                f"  state {i}: pi={hmm.pi[i]:.3f} self={hmm.trans[i, i]:.3f} "
                f"occupancy={occupancy[i]:.3f} peak_t={int(peak[i])} "
                f"|mu_h|={np.linalg.norm(h_mean):.3f} |mu_r|={np.linalg.norm(r_mean):.3f}"
            )
        if tsm is not None:
            print(
                f"  contact={sorted(tsm.contact_states)} reach={sorted(tsm.reach_states)} "
                f"gate={'fitted' if tsm.gate else 'none'}"
            )
        if args.data:
            ds = load_dataset(args.data)
            _print_state_timing(bundle, ds, label)
    return 0


def _print_state_timing(bundle, ds: Dataset, label: str) -> None:
    from comotion.data import pair_features
    from comotion.hmm import forward

    hmm = bundle.hmms[label][0]
    w = bundle.config.window
    firsts: dict[int, list[int]] = {i: [] for i in range(hmm.n_states)}
    for pair in ds.pairs:
        if pair.label != label:
            continue
        x_h, _ = pair_features(pair, w)
        mu, _, _, _ = encode_batch(bundle.human_vae, x_h)
        states = forward(hmm, mu, "h").values.argmax(axis=1)
        for i in range(hmm.n_states):
            hits = np.flatnonzero(states == i)
            if hits.size:
                firsts[i].append(int(hits[0]))
    for i in range(hmm.n_states):
        if firsts[i]:
            print(
                f"  state {i}: active on {len(firsts[i])} trajectories, "
                f"median first step {int(np.median(firsts[i]))}"
            )
        else:
            print(f"  state {i}: never the most likely state")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="comotion", description=__doc__)
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory or file")
    p.add_argument("--threads", type=int, default=0, help="worker processes for eval")
    p.add_argument("--log-level", default="WARNING")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="generate a synthetic coupled dataset")

    for name in ("train-hhi", "train-hri"):
        sp = sub.add_parser(name, help=f"run the {name.split('-')[1]} training stage")
        sp.add_argument("--data", help="dataset directory")
        sp.add_argument("--variant", help="conditional-training variant tag")
        if name == "train-hri":
            sp.add_argument("--hhi", required=True, help="stage-one model.json")

    sub.add_parser("eval", help="run the full experiment grid from a config")

    sp = sub.add_parser("rollout", help="reactive rollout of one trajectory")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data", required=True)
    sp.add_argument("--index", type=int, default=0)
    sp.add_argument("--chain")
    sp.add_argument("--smooth", action="store_true")
    sp.add_argument("--latents", help="optional JSON latent dump path")

    sp = sub.add_parser("ik-demo", help="solve IK for a target position")
    sp.add_argument("--target", type=float, nargs=3, required=True)
    sp.add_argument("--prior", type=float, nargs="*")
    sp.add_argument("--chain")
    sp.add_argument("--lambda-x", type=float, default=1.0, dest="lambda_x")
    sp.add_argument("--lambda-q", type=float, default=0.01, dest="lambda_q")

    sp = sub.add_parser("inspect-hmm", help="per-state summaries for labeling")
    sp.add_argument("--model", required=True)
    sp.add_argument("--data")
    sp.add_argument("--horizon", type=int, default=100)

    return p


COMMANDS = {
    "synth": cmd_synth,
    "train-hhi": cmd_train_hhi,
    "train-hri": cmd_train_hri,
    "eval": cmd_eval,
    "rollout": cmd_rollout,
    "ik-demo": cmd_ik_demo,
    "inspect-hmm": cmd_inspect_hmm,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=getattr(logging, args.log_level.upper(), logging.WARNING))
    try:
        return COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
