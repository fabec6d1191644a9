"""Test-time reactive generation: encode, track, condition, decode, adapt.

Each step encodes the observed agent's feature window, advances the
likelihood-weighted forward variable on the h marginal of the interaction's
sequence model, conditions the r block, decodes the conditional mean, and,
when the contact gate has fired and a hand target is available, pulls the
commanded joints toward the target with prior-regularized IK. The gate
latches: once a trajectory enters its contact phase it never drops back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from comotion.errors import ConfigError
from comotion.gauss import Gaussian
from comotion.hmm import (
    Hmm,
    conditional_moments,
    contact_gate,
    forward,
    forward_step,
    gmr_condition,
    most_likely,
)
from comotion.kin import KinematicChain, ik_with_prior
from comotion.data import window_features
from comotion.vae import Vae, Variant, decode, encode_batch


@dataclass
class ReactiveState:
    """Carried between steps of one episode."""

    log_alpha: np.ndarray | None = None
    gate: bool = False
    buffer: list = field(default_factory=list)
    t: int = 0


@dataclass
class StepOutput:
    q_cmd: np.ndarray
    stiffness_low: bool
    alpha_t: np.ndarray
    latent_r: Gaussian
    ik_used: bool = False


def reactive_step(
    bundle,
    interaction: str,
    x_h: np.ndarray,
    hand_pos,
    chain: KinematicChain | None,
    state: ReactiveState,
    smooth_weights: np.ndarray | None = None,
) -> tuple[StepOutput, ReactiveState]:
    """One reactive step; returns the command and the advanced state."""
    if interaction not in bundle.hmms:
        raise ConfigError(f"unknown interaction {interaction!r}")
    hmm, tsm = bundle.hmms[interaction]
    v_h: Vae = bundle.human_vae
    v_r: Vae = bundle.robot_vae
    x_h = np.asarray(x_h, dtype=np.float64)
    if x_h.shape[0] != v_h.input_dim:
        raise ValueError(f"window width {x_h.shape[0]} != expected {v_h.input_dim}")
    mu, var, _, _ = encode_batch(v_h, x_h[None, :])
    alpha_t, log_alpha = forward_step(hmm, mu[0], state.log_alpha, "h")
    mode = bundle.config.variant.conditioning_mode
    posterior = Gaussian.diagonal(mu[0], var[0])
    latent_r = gmr_condition(hmm, posterior, alpha_t, mode)
    window = decode(v_r, latent_r.mean)
    n_r = v_r.input_dim // bundle.config.window
    q_raw = window[-n_r:]
    fired = False
    if tsm is not None:
        fired = contact_gate(alpha_t, tsm, mu[0], prev=state.gate)
    ik_used = False
    if fired and hand_pos is not None and chain is not None:
        sol = ik_with_prior(chain, hand_pos, q_raw, 1.0, 0.01)
        q_cmd = sol.q
        ik_used = True
    else:
        q_cmd = q_raw
    buffer = state.buffer
    if smooth_weights is not None:
        buffer = (buffer + [q_cmd])[-len(smooth_weights) :]
        w = np.asarray(smooth_weights, dtype=np.float64)[-len(buffer) :]
        q_cmd = (w[:, None] * np.asarray(buffer)).sum(axis=0) / w.sum()
    out = StepOutput(q_cmd, fired, alpha_t, latent_r, ik_used)
    return out, ReactiveState(log_alpha, fired, buffer, state.t + 1)


@dataclass
class Rollout:
    q: np.ndarray  # (n, n_r) commands
    alpha: np.ndarray  # (n, N)
    gate: np.ndarray  # (n,) bool
    stiffness_low: np.ndarray  # (n,) bool
    ik_used: np.ndarray  # (n,) bool
    latent_mean: np.ndarray  # (n, d_z) conditional latent means
    states: np.ndarray  # (n,) most likely state indices


def rollout(
    bundle,
    interaction: str,
    h_frames: np.ndarray,
    chain: KinematicChain | None = None,
    hand_positions: np.ndarray | None = None,
    smooth_weights: np.ndarray | None = None,
) -> Rollout:
    """Fold ``reactive_step`` over a full observed trajectory.

    h_frames: (T, 9) raw positions; output length is T - w + 1. Optional
    hand_positions (T, 3) supply the IK target at each source frame.
    """
    w = bundle.config.window
    windows = window_features(np.asarray(h_frames, dtype=np.float64), w, "positions")
    state = ReactiveState()
    outs = []
    for t in range(windows.shape[0]):
        hand = None
        if hand_positions is not None:
            hand = np.asarray(hand_positions, dtype=np.float64)[t + w - 1]
        out, state = reactive_step(
            bundle, interaction, windows[t], hand, chain, state, smooth_weights
        )
        outs.append(out)
    return Rollout(
        q=np.asarray([o.q_cmd for o in outs]),
        alpha=np.asarray([o.alpha_t for o in outs]),
        gate=np.asarray([o.stiffness_low for o in outs], dtype=bool),
        stiffness_low=np.asarray([o.stiffness_low for o in outs], dtype=bool),
        ik_used=np.asarray([o.ik_used for o in outs], dtype=bool),
        latent_mean=np.asarray([o.latent_r.mean for o in outs]),
        states=np.asarray([most_likely(o.alpha_t) for o in outs]),
    )


def smooth(trajectory: np.ndarray, weights) -> np.ndarray:
    """Causal weighted moving average; newest sample takes the last weight.

    The startup transient renormalizes over the available prefix.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.size == 0:
        raise ValueError("need at least one filter weight")
    if np.any(weights < 0):
        raise ValueError("filter weights must be non-negative")
    weights = weights / weights.sum()
    traj = np.asarray(trajectory, dtype=np.float64)
    flat = traj[:, None] if traj.ndim == 1 else traj
    m = weights.shape[0]
    out = np.empty_like(flat)
    for t in range(flat.shape[0]):
        lo = max(0, t - m + 1)
        w = weights[-(t - lo + 1) :]
        out[t] = (w[:, None] * flat[lo : t + 1]).sum(axis=0) / w.sum()
    return out[:, 0] if traj.ndim == 1 else out


def conditional_predictions(
    v_h: Vae,
    v_r: Vae,
    hmm: Hmm,
    x_h_windows: np.ndarray,
    variant: Variant,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched test-time conditional path for whole-trajectory evaluation.

    Encodes every h window, runs the observed forward recursion on the h
    marginal of the posterior means, conditions per timestep (respecting
    the variant's use of the posterior covariance) and decodes the
    conditional means. Returns (predictions (B, D_r), alpha (B, N)).
    """
    mu, var, _, _ = encode_batch(v_h, x_h_windows)
    alpha = forward(hmm, mu, "h").values
    post_var = var if variant.uses_cov else None
    means, _ = conditional_moments(hmm, mu, post_var, alpha)
    return decode(v_r, means), alpha
