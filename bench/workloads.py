"""The benchmark's workloads, their correctness checks and their metrics.

Every workload drives comotion only through its public functions and checks
the outputs of the calls it times. The workload seed sets fit's datasets and
training seeds, and the order in which react and react_ik serve the episodes.

fit       offline training: stage one and stage two (variant v3.2, library
          defaults except ``epochs``) on two synthetic interactions, then
          ``evaluate_bundle``, a checkpoint round trip, and a replay of the
          test episodes through ``reactive_step`` on the reloaded bundle.
react     one closed-loop client: the test episodes of a fixed synthetic set,
          in an order drawn from the seed, each step called as soon as the
          previous one returns, served by a bundle trained in set-up on the
          same set's training split. No chain and no hand target, so IK never
          runs.
react_ik  the same bundle and episodes plus the packaged arm chain and a
          reachable hand target per frame; every state is labelled a contact
          state, so the gate fires on the first step and IK runs on every step.

Comotion functions are looked up on their modules at call time
(``train.train_hhi``), so a traced run sees the benchmark's calls too.
"""

from __future__ import annotations

import contextlib
import resource
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from comotion import evaluate, infer, train
from comotion.data import SynthInteraction, SynthSpec, split, synth_generate, window_features
from comotion.hmm import TransitionStateModel
from comotion.kin import default_arm_chain, fk
from comotion.train import ModelBundle, TrainConfig

from tracing import LogCounter, Tracer

WORKLOADS = ("fit", "react", "react_ik")
INTERACTIONS = ("greet", "handover")
NOISE = 0.04
VARIANT = "v3.2"
DEADLINE_MS = 50.0  # one frame of 20 Hz data
AGREE_TOL = 1e-9  # online vs batched path; the measured gap is ~2e-16
REACT_DATA_SEED = 2311  # the fixed set the react bundle is trained on
RETRAIN_SHARE = 0.3  # least share of a react run's timed loop spent retraining

END_TO_END = {
    "setup_s": "s",
    "hhi_epoch_s": "s",
    "hri_epoch_s": "s",
    "cond_mse": "1",
    "step_p50_ms": "ms",
    "step_p95_ms": "ms",
    "hand_err_mm": "mm",
    "peak_rss_mb": "MB",
}

PER_LAYER = (
    "hmm.em_fit.calls",
    "hmm.em_fit.iters",
    "hmm.em_fit.self_s",
    "hmm.em_fit.s",
    "hmm.state_log_liks.rows",
    "hmm.state_log_liks.self_s",
    "hmm.forward.calls",
    "hmm.forward.self_s",
    "hmm.forward_step.self_s",
    "kernels.forward_log.self_s",
    "kernels.backward_log.self_s",
    "kernels.xi_counts.self_s",
    "kernels.chol_logpdf.rows",
    "kernels.chol_logpdf.self_s",
    "hmm.conditional_moments.rows",
    "hmm.conditional_moments.self_s",
    "hmm.gmr_condition.self_s",
    "hmm.contact_gate.calls",
    "gauss.regularize_spd.calls",
    "gauss.regularize_spd.repairs",
    "vae.encode_batch.rows",
    "vae.encode_batch.self_s",
    "vae.decode.self_s",
    "vae.hhi_loss.self_s",
    "vae.hri_loss.self_s",
    "vae.conditional_latents.self_s",
    "net.mlp_forward.calls",
    "net.mlp_forward.self_s",
    "net.mlp_backward.self_s",
    "net.adam_step.self_s",
    "kin.ik_with_prior.calls",
    "kin.ik_with_prior.self_s",
    "kin.ik_with_prior.s",
    "kin.ik_with_prior.iters",
    "kin.ik_with_prior.converged_frac",
    "kin.jacobian.calls",
    "kin.jacobian.self_s",
    "infer.reactive_step.self_s",
    "infer.reactive_step.s",
    "train.train_hhi.s",
    "train.train_hri.s",
    "train.save_bundle.s",
    "train.save_bundle.bytes",
    "train.load_bundle.s",
    "evaluate.evaluate_bundle.s",
    "log.reseed.count",
    "log.occupancy_fallback.count",
    "log.gate_disabled.count",
    "trace.ops",
    "trace.overhead_frac",
)

_UNITS = {
    "calls": "count", "rows": "count", "iters": "count", "repairs": "count",
    "count": "count", "ops": "count", "s": "s", "self_s": "s", "bytes": "B",
    "converged_frac": "ratio", "overhead_frac": "ratio",
}


def layer_unit(name: str) -> str:
    return _UNITS[name.rpartition(".")[2]]


@dataclass(frozen=True)
class Scale:
    n_traj: int = 12  # trajectories per interaction
    length: int = 70  # frames per trajectory
    epochs: int = 2  # per training stage
    setups: int = 5  # react set-ups per run; setup_s is their median
    fit_datasets: int = 16  # fit set-ups per run, one dataset each; fits cycle over them


BENCH = Scale()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def make_dataset(seed, scale: Scale):
    spec = SynthSpec(tuple(
        SynthInteraction(name, scale.n_traj, scale.length, NOISE) for name in INTERACTIONS
    ))
    return split(synth_generate(spec, np.random.default_rng(seed)), 0.8, 0)


@dataclass
class Episode:
    label: str
    windows: np.ndarray  # (n, 90) observed-agent feature windows
    targets: np.ndarray  # (n, 3) hand target per step: fk of the recorded robot joints


def make_episode(pair, chain, w: int) -> Episode:
    """Windows and targets aligned as in ``rollout``: step t ends at frame t + w - 1."""
    windows = window_features(pair.h_frames, w, "positions")
    q = chain.clamp(pair.r_frames[w - 1 :])
    return Episode(pair.label, windows, np.array([fk(chain, qi) for qi in q]))


def reference(bundle, ep: Episode) -> tuple[np.ndarray, np.ndarray]:
    """Batched-path last-frame commands and alphas for one episode."""
    pred, alpha = infer.conditional_predictions(
        bundle.human_vae, bundle.robot_vae, bundle.hmms[ep.label][0], ep.windows,
        bundle.config.variant,
    )
    n_r = bundle.robot_vae.input_dim // bundle.config.window
    return pred[:, -n_r:], alpha


def with_contact_gate(bundle) -> ModelBundle:
    """Label every state a contact state, so the gate fires on the first step."""
    hmms = {
        label: (hmm, TransitionStateModel.for_hmm(hmm, range(hmm.n_states), ()))
        for label, (hmm, _) in bundle.hmms.items()
    }
    return ModelBundle(bundle.human_vae, bundle.robot_vae, hmms, bundle.config, bundle.seed)


# ---------------------------------------------------------------------------
# outcome records
# ---------------------------------------------------------------------------


@dataclass
class Checks:
    failures: dict[str, int] = field(default_factory=dict)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures[what] = self.failures.get(what, 0) + 1

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class Ops:
    """Timed operations of a run: attempts, errors and step outcomes."""

    attempted: int = 0
    failed: int = 0
    step_ms: list[float] = field(default_factory=list)
    hand_err_mm: list[float] = field(default_factory=list)
    steps_attempted: int = 0
    steps_failed: int = 0

    def fail(self) -> None:
        self.failed += 1
        if self.failed <= 3:
            traceback.print_exc()


def serve(bundle, ep: Episode, ref, chain, use_ik: bool, ops: Ops, checks: Checks) -> None:
    """Run one episode through ``reactive_step``, timing each call."""
    q_ref, alpha_ref = ref
    lo, hi = chain.limits
    state = infer.ReactiveState()
    for t in range(len(ep.windows)):
        hand, arm = (ep.targets[t], chain) if use_ik else (None, None)
        ops.attempted += 1
        ops.steps_attempted += 1
        t0 = time.perf_counter()
        try:
            out, state = infer.reactive_step(bundle, ep.label, ep.windows[t], hand, arm, state)
        except Exception:
            ops.fail()
            ops.steps_failed += 1
            return
        ops.step_ms.append((time.perf_counter() - t0) * 1e3)
        q = out.q_cmd
        checks.expect(
            np.max(np.abs(out.alpha_t - alpha_ref[t])) <= AGREE_TOL,
            "online alphas differ from forward(..., 'h')",
        )
        if use_ik:
            checks.expect(out.ik_used, "react_ik step did not use IK")
            checks.expect(
                bool(np.all(np.isfinite(q)) and np.all(q >= lo) and np.all(q <= hi)),
                "IK joints not finite or outside chain.limits",
            )
        else:
            checks.expect(
                np.max(np.abs(q - q_ref[t])) <= AGREE_TOL,
                "reactive_step command differs from the batched prediction",
            )
        err = fk(chain, chain.clamp(q)) - ep.targets[t]
        ops.hand_err_mm.append(float(np.linalg.norm(err)) * 1e3)


def round_trip(bundle, path: Path, episodes, checks: Checks):
    train.save_bundle(bundle, path)
    loaded = train.load_bundle(path)
    for ep in episodes:
        before, after = reference(bundle, ep), reference(loaded, ep)
        checks.expect(
            all(np.array_equal(a, b) for a, b in zip(before, after)),
            "checkpoint round trip changed predictions",
        )
    return loaded


def check_trace(bundle, epochs: int, checks: Checks) -> None:
    rows = bundle.trace
    checks.expect(
        len(rows) == epochs and all(np.isfinite(v) for row in rows for v in row.values()),
        "training trace is not finite with one row per epoch",
    )


def train_bundle(ds, seed: int, scale: Scale, checks: Checks):
    """Both training stages; returns (bundle, hhi s/epoch, hri s/epoch)."""
    cfg = TrainConfig(epochs=scale.epochs, variant=VARIANT)
    t0 = time.perf_counter()
    hhi = train.train_hhi(ds, cfg, seed)
    t1 = time.perf_counter()
    hri = train.train_hri(ds, hhi, cfg, seed)
    t2 = time.perf_counter()
    check_trace(hhi, cfg.epochs, checks)
    check_trace(hri, cfg.epochs, checks)
    return hri, (t1 - t0) / cfg.epochs, (t2 - t1) / cfg.epochs


def held_out_mse(bundle, ds) -> float:
    return float(np.mean([row[2] for row in evaluate.evaluate_bundle(bundle, ds)]))


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Run:
    """What one run measured, before it is reduced to metrics."""

    setup_s: list[float] = field(default_factory=list)
    hhi_epoch_s: list[float] = field(default_factory=list)
    hri_epoch_s: list[float] = field(default_factory=list)
    cond_mse: list[float] = field(default_factory=list)
    ops: Ops = field(default_factory=Ops)
    checks: Checks = field(default_factory=Checks)
    untraced_s: list[float] = field(default_factory=list)
    traced_s: list[float] = field(default_factory=list)
    traced_ops: int = 0


def _paired(tracer: Tracer | None, run: Run, name: str, op) -> None:
    """Run ``op`` untraced, then (in a traced run) again under the tracer.

    Both passes do identical work, so their time difference is the tracing
    overhead.
    """
    t0 = time.perf_counter()
    op()
    run.untraced_s.append(time.perf_counter() - t0)
    if tracer is None:
        return
    tracer.install()
    try:
        with tracer.span(name):
            t0 = time.perf_counter()
            op()
            run.traced_s.append(time.perf_counter() - t0)
    finally:
        tracer.uninstall()
    run.traced_ops += 1


def run_fit(seed: int, seconds: float, scale: Scale, tracer: Tracer | None, tmp: Path) -> Run:
    run = Run()
    chain = default_arm_chain()
    datasets = []
    for k in range(scale.fit_datasets):
        t0 = time.perf_counter()
        datasets.append(make_dataset([seed, k], scale))
        run.setup_s.append(time.perf_counter() - t0)

    deadline = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < deadline:
        ds = datasets[k % len(datasets)]
        train_seed = 1000 * seed + k
        results = []

        def fit_once():
            run.ops.attempted += 1
            try:
                bundle, hhi_s, hri_s = train_bundle(ds, train_seed, scale, run.checks)
                mse = held_out_mse(bundle, ds)
                w = bundle.config.window
                episodes = [make_episode(p, chain, w) for p in ds.subset("test")]
                loaded = round_trip(bundle, tmp / "fit.json", episodes, run.checks)
            except Exception:
                run.ops.fail()
                return
            for ep in episodes:
                serve(loaded, ep, reference(loaded, ep), chain, False, run.ops, run.checks)
            results.append((hhi_s, hri_s, mse))

        _paired(tracer, run, "bench.fit", fit_once)
        if results:
            hhi_s, hri_s, mse = results[0]
            run.hhi_epoch_s.append(hhi_s)
            run.hri_epoch_s.append(hri_s)
            run.cond_mse.append(mse)
            run.checks.expect(
                all(r[2] == mse for r in results), "repeated fit is not deterministic"
            )
        k += 1
    return run


def run_react(seed: int, seconds: float, scale: Scale, tracer: Tracer | None, tmp: Path,
              use_ik: bool) -> Run:
    run = Run()
    chain = default_arm_chain()
    if tracer is not None:
        tracer.install()
    try:
        bundles = []
        for _ in range(scale.setups):
            with _maybe_span(tracer, "bench.setup"):
                t0 = time.perf_counter()
                ds = make_dataset(REACT_DATA_SEED, scale)
                bundle, _, _ = train_bundle(ds, 0, scale, run.checks)
                w = bundle.config.window
                episodes = [make_episode(p, chain, w) for p in ds.subset("test")]
                loaded = round_trip(bundle, tmp / "react.json", episodes, run.checks)
                bundles.append(with_contact_gate(loaded))
                run.setup_s.append(time.perf_counter() - t0)
        run.cond_mse.append(held_out_mse(bundles[0], ds))
    finally:
        if tracer is not None:
            tracer.uninstall()
    served = bundles[0]
    refs = [reference(served, ep) for ep in episodes]
    for other in bundles[1:]:
        run.checks.expect(
            all(np.array_equal(r[0], reference(other, ep)[0]) for r, ep in zip(refs, episodes)),
            "training the same set twice gave different bundles",
        )

    # Whole passes over the test episodes, each pass in an order drawn from the
    # seed, so every run times the same steps, each episode's slow end included.
    # A pass starts only if it is expected to end within ``seconds``.
    # An untraced run retrains the fixed set between episodes until retraining
    # has taken RETRAIN_SHARE of the loop so far, and again after the last pass
    # until ``seconds`` are up, so the training times sample the whole loop, as
    # the steps do.
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    retrain_s = 0.0
    pass_s = 0.0

    def retrain_while(due) -> None:
        nonlocal retrain_s
        while tracer is None and due():
            t0 = time.perf_counter()
            retrain(ds, scale, episodes, refs, run)
            retrain_s += time.perf_counter() - t0

    while not run.ops.steps_attempted or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        for j in rng.permutation(len(episodes)):
            ep, ref = episodes[j], refs[j]
            if tracer is None:
                serve(served, ep, ref, chain, use_ik, run.ops, run.checks)
                retrain_while(lambda: retrain_s <= RETRAIN_SHARE * (time.perf_counter() - start))
                continue
            untraced, traced = Ops(), Ops()
            serve(served, ep, ref, chain, use_ik, untraced, run.checks)
            tracer.install()
            try:
                with tracer.span("bench.episode"):
                    serve(served, ep, ref, chain, use_ik, traced, run.checks)
            finally:
                tracer.uninstall()
            run.untraced_s.extend(ms / 1e3 for ms in untraced.step_ms)
            run.traced_s.extend(ms / 1e3 for ms in traced.step_ms)
            run.traced_ops += len(traced.step_ms)
            for o in (untraced, traced):
                run.ops.attempted += o.attempted
                run.ops.failed += o.failed
                run.ops.steps_attempted += o.steps_attempted
        pass_s = time.perf_counter() - t0
    retrain_while(lambda: time.perf_counter() - start < seconds)
    return run


def retrain(ds, scale: Scale, episodes, refs, run: Run) -> None:
    """Both training stages of the fixed set, timed; the bundle must give the
    served predictions again."""
    run.ops.attempted += 1
    try:
        bundle, hhi_s, hri_s = train_bundle(ds, 0, scale, run.checks)
    except Exception:
        run.ops.fail()
        return
    run.hhi_epoch_s.append(hhi_s)
    run.hri_epoch_s.append(hri_s)
    run.checks.expect(
        all(np.array_equal(r[0], reference(bundle, ep)[0]) for r, ep in zip(refs, episodes)),
        "retraining the fixed set gave different predictions",
    )


def _maybe_span(tracer: Tracer | None, name: str):
    return contextlib.nullcontext() if tracer is None else tracer.span(name)


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: Scale = BENCH,
                 out_dir: Path | None = None) -> tuple[Run, Tracer | None]:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    tracer = Tracer() if trace else None
    logs = tracer.logs if tracer is not None else LogCounter()
    logs.attach()
    try:
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
            if name == "fit":
                run = run_fit(seed, seconds, scale, tracer, Path(tmp))
            else:
                run = run_react(seed, seconds, scale, tracer, Path(tmp), name == "react_ik")
    finally:
        logs.detach()
    return run, tracer


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def end_to_end(run: Run) -> dict[str, float]:
    p50, p95 = np.percentile(run.ops.step_ms, [50, 95]) if run.ops.step_ms else (np.nan, np.nan)
    values = {
        "setup_s": np.median(run.setup_s),
        "hhi_epoch_s": np.median(run.hhi_epoch_s),
        "hri_epoch_s": np.median(run.hri_epoch_s),
        "cond_mse": np.median(run.cond_mse),
        "step_p50_ms": p50,
        "step_p95_ms": p95,
        "hand_err_mm": np.median(run.ops.hand_err_mm) if run.ops.hand_err_mm else np.nan,
        "peak_rss_mb": peak_rss_mb(),
    }
    return {k: float(v) for k, v in values.items()}


def step_outcomes(run: Run) -> dict[str, float]:
    """Step and error ratios, which may be 0 and so carry no bound."""
    ops = run.ops
    late = sum(ms > DEADLINE_MS for ms in ops.step_ms) + ops.steps_failed
    return {
        "deadline_miss_frac": late / ops.steps_attempted if ops.steps_attempted else 0.0,
        "error_frac": ops.failed / ops.attempted if ops.attempted else 0.0,
        "steps": ops.steps_attempted,
    }


def metrics(run: Run, tracer: Tracer | None) -> dict[str, dict]:
    """The end-to-end metrics of an untraced run, or the per-layer metrics of a
    traced one, each with its unit."""
    if tracer is None:
        return {k: {"value": v, "unit": END_TO_END[k]} for k, v in end_to_end(run).items()}
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in per_layer(run, tracer).items()}


def per_layer(run: Run, tracer: Tracer) -> dict[str, float]:
    totals = tracer.layer_totals()
    out = {}
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if layer.startswith("log."):
            value = tracer.logs.counts[layer[4:]]
        elif name == "trace.ops":
            value = run.traced_ops
        elif name == "trace.overhead_frac":
            value = np.median(run.traced_s) / np.median(run.untraced_s) - 1.0
        elif stat in ("calls", "s", "self_s"):
            value = totals.get(layer, {}).get(stat, 0)
        elif stat == "converged_frac":
            calls = totals.get(layer, {}).get("calls", 0)
            value = tracer.counts[f"{layer}.converged"] / calls if calls else 0.0
        else:
            value = tracer.counts[name]
        out[name] = float(value)
    return out
