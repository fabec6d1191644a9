"""Training pipelines and checkpointing.

Stage one (``train_hhi``) alternates epochs of VAE updates against the
per-timestep marginal priors of each interaction's sequence model with
refits of those models on the current latent encodings; the models start
from zero-mean identity-covariance components. Stage two (``train_hri``)
freezes the observing agent's VAE and the sequence models and trains a
fresh generated-agent VAE whose objective includes the variant-specific
conditional reconstruction term. Both stages record a per-epoch loss trace
and a validation conditional MSE.

Stage one fits each agent's feature standardization (per-feature mean and
std, one set over both agents when they share a VAE) on the fit split, the
training trajectories left after the validation slice is carved out;
stage two's fresh VAE takes over the stage-one robot statistics. The
trace's reconstruction terms are therefore in standardized units, where
predicting the fit-split mean scores 1.0 per agent, while ``decode`` and
the validation MSE are in raw units.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from comotion.data import Dataset, pair_features
from comotion.errors import ConfigError, NumericalError
from comotion.gauss import FLAT, Gaussian, regularize_spd
from comotion.hmm import (
    Hmm,
    TransitionStateModel,
    em_fit,
    forward,
    forward_unobserved,
    init_segments,
)
from comotion.infer import conditional_predictions
from comotion.net import AdamState, adam_step
from comotion.vae import (
    PriorPack,
    Vae,
    Variant,
    conditional_latents,
    conditional_precompute,
    encode_batch,
    hhi_loss,
    hri_loss,
)

log = logging.getLogger(__name__)

TRACE_COLUMNS = ("epoch", "recon_h", "recon_r", "kl", "cond", "total", "val_mse")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 400
    beta: float = 5e-3
    lr: float = 5e-4
    weight_decay: float = 1e-2
    mc_samples: int = 10
    n_states: int = 6
    d_z: int = 5
    hidden: tuple[int, ...] = (40, 20)
    variant: Variant = Variant("v1")
    seeds: tuple[int, ...] = (0,)
    hmm_refit_every: int = 1
    em_max_iters: int = 20
    em_tol: float = 1e-4
    window: int = 5
    val_fraction: float = 0.1
    cond_weight: float = 1.0

    def __post_init__(self):
        for name in ("epochs", "beta", "lr", "mc_samples", "n_states", "d_z",
                     "hmm_refit_every", "window"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"config field {name} must be positive")
        if isinstance(self.variant, str):
            object.__setattr__(self, "variant", Variant(self.variant))
        object.__setattr__(self, "hidden", tuple(self.hidden))
        object.__setattr__(self, "seeds", tuple(self.seeds))

    def to_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["variant"] = self.variant.tag
        d["hidden"] = list(self.hidden)
        d["seeds"] = list(self.seeds)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        known = {k: v for k, v in d.items() if k in cls.__dataclass_fields__}
        if "variant" in known:
            known["variant"] = Variant(known["variant"])
        return cls(**known)


@dataclass
class ModelBundle:
    """Everything needed at test time, plus the training trace."""

    human_vae: Vae
    robot_vae: Vae
    hmms: dict[str, tuple[Hmm, TransitionStateModel | None]]
    config: TrainConfig
    seed: int
    trace: list[dict] = field(default_factory=list)

    @property
    def shared_vae(self) -> bool:
        return self.human_vae is self.robot_vae


@dataclass
class _TrajFeatures:
    label: str
    x_h: np.ndarray
    x_r: np.ndarray


def _featurize(pairs, w: int) -> list[_TrajFeatures]:
    out = []
    for p in pairs:
        x_h, x_r = pair_features(p, w)
        out.append(_TrajFeatures(p.label, x_h, x_r))
    return out


def _fit_val_split(
    feats: list[_TrajFeatures], val_fraction: float, seed: int
) -> tuple[list[_TrajFeatures], list[_TrajFeatures]]:
    """Carve a per-label validation slice out of the training trajectories."""
    rng = np.random.default_rng([seed, 7919])
    labels = sorted({f.label for f in feats})
    val_idx: set[int] = set()
    for label in labels:
        idx = [i for i, f in enumerate(feats) if f.label == label]
        if len(idx) < 2:
            continue
        n_val = max(1, int(round(val_fraction * len(idx))))
        n_val = min(n_val, len(idx) - 1)
        chosen = rng.permutation(len(idx))[:n_val]
        val_idx.update(idx[j] for j in chosen)
    fit = [f for i, f in enumerate(feats) if i not in val_idx]
    val = [f for i, f in enumerate(feats) if i in val_idx]
    return fit, val


def _initial_hmm(n_states: int, d_z: int) -> Hmm:
    """Zero-mean identity components with uninformative dynamics."""
    dim = 2 * d_z
    return Hmm(
        np.full(n_states, 1.0 / n_states),
        np.full((n_states, n_states), 1.0 / n_states),
        np.zeros((n_states, dim)),
        np.tile(np.eye(dim), (n_states, 1, 1)),
        d_z,
    )


def _validation_mse(v_h, v_r, hmms, val: list[_TrajFeatures], variant: Variant) -> float:
    if not val:
        return float("nan")
    errs = []
    for f in val:
        pred, _ = conditional_predictions(v_h, v_r, hmms[f.label][0], f.x_h, variant)
        errs.append(float(np.mean((pred - f.x_r) ** 2)))
    return float(np.mean(errs))


def _occupancy_guard(hmm: Hmm, seqs: list[np.ndarray], n_states: int) -> Hmm:
    """Replace a collapsed refit with the plain segment initialization."""
    occ = np.zeros(n_states)
    for s in seqs:
        occ += forward(hmm, s).values.mean(axis=0)
    occ /= len(seqs)
    if occ.min() < 1.0 / (10.0 * n_states):
        log.warning(
            "sequence-model component occupancy collapsed (min %.4f); "
            "falling back to segment initialization",
            occ.min(),
        )
        return init_segments(seqs, n_states, hmm.d_z)
    return hmm


def _refit_hmms(v_h, v_r, fit, config, rng) -> dict[str, tuple[Hmm, None]]:
    """Estimate each interaction's model from fresh posterior samples."""
    by_label: dict[str, list[np.ndarray]] = {}
    for f in fit:
        mu_h, var_h, _, _ = encode_batch(v_h, f.x_h)
        mu_r, var_r, _, _ = encode_batch(v_r, f.x_r)
        z_h = mu_h + np.sqrt(var_h) * rng.standard_normal(mu_h.shape)
        z_r = mu_r + np.sqrt(var_r) * rng.standard_normal(mu_r.shape)
        by_label.setdefault(f.label, []).append(np.hstack([z_h, z_r]))
    out = {}
    for label in sorted(by_label):
        seqs = by_label[label]
        init = init_segments(seqs, config.n_states, config.d_z)
        fitted, _ = em_fit(init, seqs, config.em_max_iters, config.em_tol)
        out[label] = (_occupancy_guard(fitted, seqs, config.n_states), None)
    return out


def _prior_packs(hmms) -> dict[str, tuple[PriorPack, PriorPack]]:
    return {
        label: (PriorPack.from_hmm(hmm, "h"), PriorPack.from_hmm(hmm, "r"))
        for label, (hmm, _) in hmms.items()
    }


def _unobserved_index(hmm: Hmm, length: int, cache: dict) -> tuple[np.ndarray, np.ndarray]:
    key = (id(hmm), length)
    if key not in cache:
        abar = forward_unobserved(hmm, length).values
        cache[key] = (abar, np.argmax(abar, axis=1))
    return cache[key]


def _fit_feature_stats(v_h: Vae, v_r: Vae, fit: list[_TrajFeatures]) -> None:
    """Standardize each agent with its fit-split windows; a shared VAE gets
    one set of statistics over both agents' windows."""
    x_h = np.vstack([f.x_h for f in fit])
    x_r = np.vstack([f.x_r for f in fit])
    if v_h is v_r:
        v_h.fit_feature_stats(np.vstack([x_h, x_r]))
    else:
        v_h.fit_feature_stats(x_h)
        v_r.fit_feature_stats(x_r)


def train_hhi(dataset: Dataset, config: TrainConfig, seed: int | None = None) -> ModelBundle:
    """Stage one: joint two-agent training with alternating model refits."""
    seed = config.seeds[0] if seed is None else seed
    rng = np.random.default_rng(seed)
    feats = _featurize(dataset.subset("train"), config.window)
    if not feats:
        raise ConfigError("no training trajectories")
    fit, val = _fit_val_split(feats, config.val_fraction, seed)
    in_h = fit[0].x_h.shape[1]
    in_r = fit[0].x_r.shape[1]
    v_h = Vae.create(in_h, config.d_z, config.hidden, rng)
    if in_h == in_r:
        v_r = v_h  # structurally similar agents share weights
    else:
        v_r = Vae.create(in_r, config.d_z, config.hidden, rng)
    _fit_feature_stats(v_h, v_r, fit)
    labels = sorted({f.label for f in fit})
    hmms: dict[str, tuple[Hmm, None]] = {
        label: (_initial_hmm(config.n_states, config.d_z), None) for label in labels
    }
    shared = v_r is v_h
    opt_h = AdamState.for_params(v_h.params, lr=config.lr, weight_decay=config.weight_decay)
    opt_r = None if shared else AdamState.for_params(
        v_r.params, lr=config.lr, weight_decay=config.weight_decay
    )
    k = config.mc_samples
    trace = []
    for epoch in range(config.epochs):
        packs = _prior_packs(hmms)
        cache: dict = {}
        sums = {"recon_h": 0.0, "recon_r": 0.0, "kl": 0.0, "cond": 0.0, "total": 0.0}
        for f in fit:
            hmm_c = hmms[f.label][0]
            pack_h, pack_r = packs[f.label]
            B = f.x_h.shape[0]
            _, idx = _unobserved_index(hmm_c, B, cache)
            eps_h = rng.standard_normal((B, k, config.d_z))
            eps_r = rng.standard_normal((B, k, config.d_z))
            loss, g_h, g_r, parts = hhi_loss(
                v_h, v_r, f.x_h, f.x_r, pack_h, pack_r, idx, config.beta, eps_h, eps_r
            )
            if not np.isfinite(loss):
                raise NumericalError(f"training loss diverged at epoch {epoch}")
            if shared:
                adam_step(v_h.params, [a + b for a, b in zip(g_h, g_r)], opt_h)
            else:
                adam_step(v_h.params, g_h, opt_h)
                adam_step(v_r.params, g_r, opt_r)
            for key in ("recon_h", "recon_r", "kl", "cond"):
                sums[key] += parts[key]
            sums["total"] += loss
        if (epoch + 1) % config.hmm_refit_every == 0 or epoch == config.epochs - 1:
            hmms = _refit_hmms(v_h, v_r, fit, config, rng)
        val_mse = _validation_mse(v_h, v_r, hmms, val, config.variant)
        trace.append(_trace_row(epoch, sums, len(fit), val_mse))
    return ModelBundle(v_h, v_r, hmms, config, seed, trace)


def _trace_row(epoch: int, sums: dict, n: int, val_mse: float) -> dict:
    row = {k: v / n for k, v in sums.items()}
    row["epoch"] = epoch
    row["val_mse"] = val_mse
    return row


def train_hri(
    dataset: Dataset,
    bundle_hhi: ModelBundle,
    config: TrainConfig,
    seed: int | None = None,
) -> ModelBundle:
    """Stage two: train the generated agent against the frozen stage-one
    models with the configured conditional-training variant."""
    seed = bundle_hhi.seed if seed is None else seed
    rng = np.random.default_rng([seed, 101])
    v_h = bundle_hhi.human_vae  # frozen; never copied, never updated
    hmms = bundle_hhi.hmms
    feats = _featurize(dataset.subset("train"), config.window)
    if not feats:
        raise ConfigError("no training trajectories")
    fit, val = _fit_val_split(feats, config.val_fraction, seed)
    missing = {f.label for f in fit} - set(hmms)
    if missing:
        raise ConfigError(f"stage-one bundle lacks interactions: {sorted(missing)}")
    in_r = fit[0].x_r.shape[1]
    v_r = Vae.create(in_r, config.d_z, config.hidden, rng)
    v_r.x_mean, v_r.x_std = bundle_hhi.robot_vae.x_mean, bundle_hhi.robot_vae.x_std
    opt = AdamState.for_params(v_r.params, lr=config.lr, weight_decay=config.weight_decay)
    k = config.mc_samples
    variant = config.variant
    packs = _prior_packs(hmms)
    cache: dict = {}
    frozen = []
    for f in fit:
        hmm_c = hmms[f.label][0]
        mu_h, var_h, _, _ = encode_batch(v_h, f.x_h)
        alphas, idx = _unobserved_index(hmm_c, f.x_h.shape[0], cache)
        pre = conditional_precompute(hmm_c, mu_h, var_h, alphas, variant)
        frozen.append((f, hmm_c, mu_h, var_h, alphas, idx, pre))
    trace = []
    for epoch in range(config.epochs):
        sums = {"recon_h": 0.0, "recon_r": 0.0, "kl": 0.0, "cond": 0.0, "total": 0.0}
        for f, hmm_c, mu_h, var_h, alphas, idx, pre in frozen:
            B = f.x_r.shape[0]
            eps_r = rng.standard_normal((B, k, config.d_z))
            cond_z = None
            if variant.conditional:
                eps_post = eps_cond = None
                if variant.from_samples:
                    eps_post = rng.standard_normal((B, k, config.d_z))
                else:
                    eps_cond = rng.standard_normal((B, k, config.d_z))
                cond_z = conditional_latents(
                    hmm_c, mu_h, var_h, alphas, variant, eps_post, eps_cond, pre
                )
            loss, grads, parts = hri_loss(
                v_r, f.x_r, packs[f.label][1], idx, config.beta, eps_r, cond_z,
                config.cond_weight,
            )
            if not np.isfinite(loss):
                raise NumericalError(f"training loss diverged at epoch {epoch}")
            adam_step(v_r.params, grads, opt)
            for key in ("recon_h", "recon_r", "kl", "cond"):
                sums[key] += parts[key]
            sums["total"] += loss
        val_mse = _validation_mse(v_h, v_r, hmms, val, variant)
        trace.append(_trace_row(epoch, sums, len(fit), val_mse))
    return ModelBundle(v_h, v_r, dict(hmms), config, seed, trace)


def fit_transition_states(
    bundle: ModelBundle,
    dataset: Dataset,
    state_sets: dict[str, tuple[list[int], list[int]]] | None = None,
) -> ModelBundle:
    """Fit the boundary-misclassification gate for each interaction.

    ``state_sets`` maps labels to (contact_states, reach_states); labels
    already carrying a configured TransitionStateModel keep their sets.
    Gate points are h-latents where the h-only segmentation says "reach"
    while the joint segmentation says "contact".
    """
    feats = _featurize(dataset.subset("train"), bundle.config.window)
    new_hmms = dict(bundle.hmms)
    for label in sorted(new_hmms):
        hmm_c, tsm = new_hmms[label]
        if state_sets and label in state_sets:
            contact, reach = state_sets[label]
            tsm = TransitionStateModel.for_hmm(hmm_c, contact, reach)
        if tsm is None:
            continue
        points = []
        for f in feats:
            if f.label != label:
                continue
            mu_h, _, _, _ = encode_batch(bundle.human_vae, f.x_h)
            mu_r, _, _, _ = encode_batch(bundle.robot_vae, f.x_r)
            a_h = forward(hmm_c, mu_h, "h").values
            a_joint = forward(hmm_c, np.hstack([mu_h, mu_r]), "full").values
            i_h = np.argmax(a_h, axis=1)
            i_j = np.argmax(a_joint, axis=1)
            for t in range(mu_h.shape[0]):
                if int(i_h[t]) in tsm.reach_states and int(i_j[t]) in tsm.contact_states:
                    points.append(mu_h[t])
        if points:
            pts = np.asarray(points)
            mean = pts.mean(axis=0)
            diff = pts - mean
            cov = regularize_spd(diff.T @ diff / pts.shape[0], FLAT)
            gate = Gaussian(mean, cov)
        else:
            log.warning(
                "no misclassified boundary points for %r; gate disabled", label
            )
            gate = None
        new_hmms[label] = (
            hmm_c,
            TransitionStateModel.for_hmm(hmm_c, tsm.contact_states, tsm.reach_states, gate),
        )
    return replace(bundle, hmms=new_hmms)


# ---------------------------------------------------------------------------
# checkpointing
# ---------------------------------------------------------------------------


def save_bundle(bundle: ModelBundle, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    interactions = {}
    for label, (hmm_c, tsm) in sorted(bundle.hmms.items()):
        entry = hmm_c.to_dict()
        entry["transition_model"] = tsm.to_dict() if tsm else None
        interactions[label] = entry
    doc = {
        "seed": bundle.seed,
        "config": bundle.config.to_dict(),
        "shared_vae": bundle.shared_vae,
        "human_vae": bundle.human_vae.to_dict(),
        "robot_vae": None if bundle.shared_vae else bundle.robot_vae.to_dict(),
        "interactions": interactions,
    }
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True)


def _non_finite_path(node) -> list | None:
    """Keys that lead to the first inf or nan in a parsed JSON document."""
    if isinstance(node, float):
        return None if math.isfinite(node) else []
    if isinstance(node, (dict, list)):
        for key, value in node.items() if isinstance(node, dict) else enumerate(node):
            path = _non_finite_path(value)
            if path is not None:
                return [key, *path]
    return None


def load_bundle(path: str | Path) -> ModelBundle:
    """Read a ``save_bundle`` checkpoint. A file that is not JSON, lacks a key,
    holds an inf or nan or has disagreeing shapes is a ConfigError naming the field."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"missing model file: {path}")
    try:
        with open(path) as f:
            doc = json.load(f)
    except ValueError as exc:  # not JSON, or not text
        raise ConfigError(f"malformed model file {path}: {exc}") from None
    bad = _non_finite_path(doc)
    if bad is not None:
        bad = ".".join(map(str, bad))
        raise ConfigError(f"malformed model file {path}: field {bad} is not finite")
    field = "config"
    try:
        config = TrainConfig.from_dict(doc["config"])
        field = "human_vae"
        human = Vae.from_dict(doc["human_vae"])
        field = "robot_vae"
        robot = human if doc.get("shared_vae") else Vae.from_dict(doc["robot_vae"])
        field = "interactions"
        hmms = {}
        for label, entry in doc["interactions"].items():
            field = f"interactions.{label}"
            hmm_c = Hmm.from_dict(entry)
            if (hmm_c.d_z, hmm_c.dim - hmm_c.d_z) != (human.d_z, robot.d_z):
                raise ValueError(f"latent split {hmm_c.d_z}/{hmm_c.dim} differs from the VAEs'")
            tsm = entry.get("transition_model")
            hmms[label] = (hmm_c, TransitionStateModel.from_dict(tsm) if tsm else None)
        field = "seed"
        return ModelBundle(human, robot, hmms, config, int(doc["seed"]))
    except (AttributeError, ConfigError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed model file {path}: field {field}: {exc!r}") from None


def write_trace(path: str | Path, trace: list[dict]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        f.write(",".join(TRACE_COLUMNS) + "\n")
        for row in trace:
            f.write(",".join(repr(row[c]) if c != "epoch" else str(row[c]) for c in TRACE_COLUMNS) + "\n")
