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
from dataclasses import replace
from pathlib import Path

import numpy as np

from comotion.data import Dataset, load_dataset, open_output, pair_features, save_dataset, write_csv
from comotion.errors import ConfigError, DataError, NumericalError
from comotion.evaluate import Experiment, load_config, parse_experiment, run_experiment
from comotion.hmm import forward_unobserved
from comotion.infer import predict_trajectories, rollout
from comotion.kin import default_arm_chain, fk, ik_with_prior, load_chain
from comotion.train import (
    ModelBundle,
    fit_transition_states,
    load_bundle,
    save_bundle,
    train_hhi,
    train_hri,
    write_trace,
)


def _experiment(args) -> Experiment:
    """The parsed ``--config`` file, or {}, with the training commands'
    ``--data`` as its dataset and ``--variant`` as its stage variant."""
    config = load_config(args.config) if args.config else {}
    if args.data:
        config["dataset"] = args.data
    exp = parse_experiment(config)
    if args.variant:
        exp = replace(exp, train=replace(exp.train, variant=args.variant))
    return exp


def cmd_synth(args) -> int:
    """Write the config's ``dataset.synth`` dataset, or the default spec
    seeded with ``--seed`` without ``--config``."""
    config = load_config(args.config) if args.config else {"dataset": {"synth": {}, "seed": args.seed}}
    src = config.get("dataset")
    if not (isinstance(src, dict) and "synth" in src):
        raise ConfigError(f"config field dataset must hold a synth spec, got {src!r}")
    ds = parse_experiment(config).dataset
    out = Path(args.out or "synth_dataset")
    save_dataset(ds, out)
    print(f"wrote {len(ds.pairs)} trajectories to {out}")
    return 0


def cmd_train_hhi(args) -> int:
    exp = _experiment(args)
    bundle = train_hhi(exp.dataset, exp.train, args.seed)
    return _save_trained(bundle, Path(args.out or "hhi_out"),
                         f"stage-one model (seed {bundle.seed})")


def cmd_train_hri(args) -> int:
    exp = _experiment(args)
    bundle = train_hri(exp.dataset, load_bundle(args.hhi), exp.train, args.seed)
    bundle = fit_transition_states(bundle, exp.dataset, exp.state_sets)
    return _save_trained(bundle, Path(args.out or "hri_out"),
                         f"stage-two model ({exp.train.variant.tag}, seed {bundle.seed})")


def _save_trained(bundle: ModelBundle, out: Path, what: str) -> int:
    save_bundle(bundle, out / "model.json")
    write_trace(out / "loss_trace.csv", bundle.trace)
    print(f"trained {what} -> {out/'model.json'}")
    if bundle.trace:
        print(f"final total loss {bundle.trace[-1]['total']:.6f} "
              f"val MSE {bundle.trace[-1]['val_mse']:.6f}")
    return 0


def cmd_eval(args) -> int:
    if not args.config:
        raise ConfigError("eval requires --config")
    config = load_config(args.config)
    if args.threads:
        config["threads"] = args.threads
    config.setdefault("seeds", [args.seed])
    report = run_experiment(config, args.out)
    print(f"report written to {report.out/'report.csv'} and {report.out/'report.md'}")
    for (tag, label), agg in sorted(report.aggregates.items()):
        if label == "all":
            print(f"  {tag}: mean MSE {agg['mean']:.6f} +/- {agg['std']:.6f}")
    return 0


def cmd_rollout(args) -> int:
    bundle = load_bundle(args.model)
    ds = load_dataset(args.data)
    if not 0 <= args.index < len(ds.pairs):
        raise DataError(
            f"trajectory index {args.index} outside 0..{len(ds.pairs) - 1} of {args.data}"
        )
    pair = ds.pairs[args.index]
    chain = load_chain(args.chain) if args.chain else default_arm_chain()
    weights = np.array([0.1, 0.2, 0.3, 0.4]) if args.smooth else None
    result = rollout(bundle, pair.label, pair.h_frames, chain, None, weights)
    out = Path(args.out or "rollout.csv")
    header = ["t", *(f"q_{i + 1}" for i in range(result.q.shape[1])), "stiffness_low",
              *(f"alpha_{i + 1}" for i in range(result.alpha.shape[1]))]
    rows = zip(result.q, result.stiffness_low, result.alpha)
    write_csv(out, header, ([t, *q, int(low), *a] for t, (q, low, a) in enumerate(rows)))
    if args.latents:
        with open_output(args.latents) as f:
            f.write(json.dumps({"latent_mean": result.latent_mean.tolist()}))
    print(f"rollout of trajectory {args.index} ({pair.label}) -> {out}")
    return 0


def cmd_ik_demo(args) -> int:
    chain = load_chain(args.chain) if args.chain else default_arm_chain()
    mu_q = args.prior if args.prior else np.zeros(chain.n_joints)
    try:
        base = ik_with_prior(chain, args.target, np.zeros(chain.n_joints), 1.0, 0.0)
        sol = ik_with_prior(chain, args.target, mu_q, args.lambda_x, args.lambda_q)
    except ValueError as exc:  # a value out of range for IK, named by its argument
        name = str(exc).partition(" ")[0].rstrip(":")
        flag = {"x_target": "--target", "mu_q": "--prior", "lambda_x": "--lambda-x",
                "lambda_q": "--lambda-q"}.get(name, name)
        raise ConfigError(str(exc).replace(name, flag, 1)) from None
    print(f"baseline IK: q={np.round(base.q, 4).tolist()} residual={base.residual:.2e} "
          f"iters={base.iterations} converged={base.converged}")
    print(f"prior IK:    q={np.round(sol.q, 4).tolist()} residual={sol.residual:.2e} "
          f"iters={sol.iterations} converged={sol.converged}")
    print(f"prior fk: {np.round(fk(chain, sol.q), 4).tolist()} target: {args.target}")
    return 0


def cmd_inspect_hmm(args) -> int:
    if args.horizon < 1:
        raise ConfigError(f"--horizon must be at least 1, got {args.horizon}")
    bundle = load_bundle(args.model)
    ds = load_dataset(args.data) if args.data else None
    for label, (hmm, tsm) in sorted(bundle.hmms.items()):
        print(f"interaction {label!r}: {hmm.n_states} states, dim {hmm.dim}")
        abar = forward_unobserved(hmm, args.horizon)
        occupancy = abar.mean(axis=0)
        peak = abar.argmax(axis=0)
        for i in range(hmm.n_states):
            h_mean, r_mean = hmm.means[i, : hmm.d_z], hmm.means[i, hmm.d_z :]
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
        if ds is not None:
            _print_state_timing(bundle, ds, label)
    return 0


def _print_state_timing(bundle, ds: Dataset, label: str) -> None:
    hmm = bundle.hmms[label][0]
    w = bundle.config.window
    firsts: dict[int, list[int]] = {i: [] for i in range(hmm.n_states)}
    trajectories = [(label, pair_features(p, w)[0]) for p in ds.pairs if p.label == label]
    for _, alpha in predict_trajectories(bundle.human_vae, bundle.robot_vae, bundle.hmms,
                                         trajectories, bundle.config.variant):
        states = alpha.argmax(axis=1)
        for i in np.unique(states):
            firsts[i].append(int(np.argmax(states == i)))
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
    p.add_argument("--seed", type=int, default=0,
                   help="training seed; for synth, the dataset seed, used only without --config")
    p.add_argument("--out", help="output directory or file")
    p.add_argument("--threads", type=int, default=0, help="worker processes for eval")
    p.add_argument("--log-level", default="WARNING", type=str.upper,
                   choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"])
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

    sp = sub.add_parser(
        "ik-demo",
        help="solve IK for a target position; the baseline is prior IK with lambda_q = 0",
    )
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
    logging.basicConfig(level=args.log_level)
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
