"""Test-time reactive generation: encode, track, condition, decode, adapt.

Each step encodes the observed agent's feature window, advances the
likelihood-weighted forward variable on the h marginal of the interaction's
sequence model, conditions the r block, decodes the conditional mean, and,
when the contact gate has fired and a hand target is available, pulls the
commanded joints toward the target with prior-regularized IK. The gate
latches: once a trajectory enters its contact phase it never drops back.

The IK is one local solve, started at the decoded prediction and pulled
toward it by the joint prior (``ik_with_prior`` with ``restarts=0``). The
random restarts of ``comotion ik-demo``'s global search are left out online:
on the reactive loops measured they never moved the command out of the
prediction's basin, and the only way they could is by switching elbow
branch between two frames, a jump in the command that a controller in
contact with a person must not send. Each step carries the solve's
residual, iterations and convergence flag (NaN, 0 and False without IK).

A window with a non-finite entry (a bad sensor frame) does not end the
episode: the step is flagged, the forward variable advances by prediction
alone, the gate stays as it was, and the last command is held; before any
command exists, the decoded r-block mixture mean of the predicted state
distribution is commanded. A non-finite hand target does not end it either:
that step skips IK and commands the decoded prediction, the gate carries on
as usual, and the next finite target runs IK again.

The step passes plain arrays and computes each quantity once: the encoder's
(mu, var), one row of h-block emission log-densities that both the forward
step and the gate's reach-state test read, and the conditional mean of
``gmr_condition``; the mixture covariance, which nothing here reads, is
never formed. What is fixed per fitted model, the emission factors, log pi,
log trans and the gate's factor, is computed at the first step and kept on
the model. ``conditional_predictions`` runs the same encode, forward and
conditioning over whole trajectories at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from comotion.errors import ConfigError
from comotion.hmm import (
    Hmm,
    conditional_means,
    contact_gate,
    forward,
    forward_step,
    gmr_condition,
    state_log_liks,
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
    q_cmd: np.ndarray | None = None  # the last command issued


@dataclass
class StepOutput:
    q_cmd: np.ndarray
    stiffness_low: bool
    alpha_t: np.ndarray
    latent_mean: np.ndarray  # (d_z,) conditional mean of the r block
    ik_used: bool = False
    bad_frame: bool = False  # the window was not finite; the command is held
    ik_residual: float = np.nan  # task-space error of the IK solution, in meters
    ik_iterations: int = 0
    ik_converged: bool = False


def reactive_step(
    bundle,
    interaction: str,
    x_h: np.ndarray,
    hand_pos,
    chain: KinematicChain | None,
    state: ReactiveState,
    smooth_weights: np.ndarray | None = None,
) -> tuple[StepOutput, ReactiveState]:
    """One reactive step; returns the command and the advanced state.

    Once the gate has fired, a finite ``hand_pos`` and a ``chain`` make the
    command the one local IK solve from the decoded prediction, pulled toward
    it; see the module docstring for why it takes no restarts.
    ``smooth_weights``, oldest first, average the latest commands; they must
    be finite and non-negative, the last > 0, else ValueError. A window that
    is not the human VAE's input width is a DataError, as in ``encode_batch``.
    """
    if interaction not in bundle.hmms:
        raise ConfigError(f"unknown interaction {interaction!r}")
    if smooth_weights is not None:
        w = smooth_weights = np.asarray(smooth_weights, dtype=np.float64)
        if not (w.ndim == 1 and w.size and np.isfinite(w).all() and (w >= 0).all() and w[-1] > 0):
            raise ValueError(f"smooth_weights {w.tolist()} must be a non-empty 1-D array of "
                             "finite, non-negative weights, the last > 0")
    hmm, tsm = bundle.hmms[interaction]
    v_h: Vae = bundle.human_vae
    v_r: Vae = bundle.robot_vae
    x_h = np.asarray(x_h, dtype=np.float64)
    n_r = v_r.input_dim // bundle.config.window
    if not np.isfinite(x_h).all() and len(x_h) == v_h.input_dim:  # else encode_batch rejects it
        return _held_step(hmm, v_r, n_r, state)
    mu, var, _, _ = encode_batch(v_h, x_h[None, :])
    log_lik = state_log_liks(hmm, mu, "h")[0]
    alpha_t, log_alpha = forward_step(hmm, log_lik, state.log_alpha)
    post_var = var[0] if bundle.config.variant.uses_cov else None
    latent_mean = gmr_condition(hmm, mu[0], post_var, alpha_t)
    q_cmd = decode(v_r, latent_mean)[-n_r:]
    fired = False
    if tsm is not None:
        fired = contact_gate(alpha_t, log_lik, tsm, mu[0], prev=state.gate)
    ik = {}
    if fired and chain is not None and hand_pos is not None and np.isfinite(hand_pos).all():
        sol = ik_with_prior(chain, hand_pos, q_cmd, 1.0, 0.01, restarts=0)
        q_cmd = sol.q
        ik = dict(ik_used=True, ik_residual=sol.residual, ik_iterations=sol.iterations,
                  ik_converged=sol.converged)
    buffer = state.buffer
    if smooth_weights is not None:
        buffer = (buffer + [q_cmd])[-len(smooth_weights) :]
        w = smooth_weights[-len(buffer) :]
        q_cmd = (w[:, None] * np.asarray(buffer)).sum(axis=0) / w.sum()
    out = StepOutput(q_cmd, fired, alpha_t, latent_mean, **ik)
    return out, ReactiveState(log_alpha, fired, buffer, state.t + 1, q_cmd)


def _held_step(hmm: Hmm, v_r: Vae, n_r: int, state: ReactiveState):
    """The step of a non-finite window: a zero log-likelihood row makes the
    forward step a pure prediction, and the last command is held."""
    alpha_t, log_alpha = forward_step(hmm, np.zeros(hmm.n_states), state.log_alpha)
    latent_mean = alpha_t @ hmm.means[:, hmm.d_z :]
    q_cmd = state.q_cmd if state.q_cmd is not None else decode(v_r, latent_mean)[-n_r:]
    out = StepOutput(q_cmd, state.gate, alpha_t, latent_mean, bad_frame=True)
    return out, ReactiveState(log_alpha, state.gate, state.buffer, state.t + 1, q_cmd)


@dataclass
class Rollout:
    q: np.ndarray  # (n, n_r) commands
    alpha: np.ndarray  # (n, N)
    stiffness_low: np.ndarray  # (n,) bool; the latched contact gate
    ik_used: np.ndarray  # (n,) bool
    latent_mean: np.ndarray  # (n, d_z) conditional latent means
    bad_frame: np.ndarray  # (n,) bool; held steps of non-finite windows
    ik_residual: np.ndarray  # (n,) meters; NaN where IK did not run
    ik_iterations: np.ndarray  # (n,) int; 0 where IK did not run
    ik_converged: np.ndarray  # (n,) bool


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
    hand_positions (T, 3) supply the IK target at each source frame; another
    shape is a ValueError, raised before the first step.
    """
    w = bundle.config.window
    h_frames = np.asarray(h_frames, dtype=np.float64)
    if hand_positions is not None:
        hand_positions = np.asarray(hand_positions, dtype=np.float64)
        if hand_positions.shape != (len(h_frames), 3):
            raise ValueError(f"hand_positions of shape {hand_positions.shape}, "
                             f"expected ({len(h_frames)}, 3), one row per frame")
    windows = window_features(h_frames, w, "positions")
    state = ReactiveState()
    outs = []
    for t in range(windows.shape[0]):
        hand = None if hand_positions is None else hand_positions[t + w - 1]
        out, state = reactive_step(
            bundle, interaction, windows[t], hand, chain, state, smooth_weights
        )
        outs.append(out)
    def column(name, dtype=None):
        return np.asarray([getattr(o, name) for o in outs], dtype=dtype)

    return Rollout(
        q=column("q_cmd"),
        alpha=column("alpha_t"),
        stiffness_low=column("stiffness_low", bool),
        ik_used=column("ik_used", bool),
        latent_mean=column("latent_mean"),
        bad_frame=column("bad_frame", bool),
        ik_residual=column("ik_residual", np.float64),
        ik_iterations=column("ik_iterations", np.int64),
        ik_converged=column("ik_converged", bool),
    )


def conditional_predictions(
    v_h: Vae,
    v_r: Vae,
    hmm: Hmm,
    x_h_windows: np.ndarray,
    variant: Variant,
    lengths=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched test-time conditional path for whole trajectories.

    Encodes every h window, runs the observed forward recursion of each of
    the trajectories of ``lengths`` (None: one) on the h marginal of the
    posterior means, conditions per timestep (respecting the variant's use of
    the posterior covariance) and decodes the conditional means.
    Returns (predictions (B, D_r), alpha (B, N)).
    """
    mu, var, _, _ = encode_batch(v_h, x_h_windows)
    alpha = forward(hmm, mu, "h", lengths)
    post_var = var if variant.uses_cov else None
    return decode(v_r, conditional_means(hmm, mu, post_var, alpha)), alpha


def predict_trajectories(v_h: Vae, v_r: Vae, hmms: dict, trajectories: list, variant: Variant):
    """Each (label, h windows) trajectory's (predictions, alpha), in the
    order given, from one ``conditional_predictions`` call per interaction."""
    out = {}
    for label in dict.fromkeys(label for label, _ in trajectories):
        idx = [i for i, (other, _) in enumerate(trajectories) if other == label]
        lengths = [len(trajectories[i][1]) for i in idx]
        windows = np.concatenate([trajectories[i][1] for i in idx])
        pred, alpha = conditional_predictions(v_h, v_r, hmms[label][0], windows, variant, lengths)
        cuts = np.cumsum(lengths)[:-1]
        out.update(zip(idx, zip(np.split(pred, cuts), np.split(alpha, cuts))))
    return [out[i] for i in range(len(trajectories))]
