"""Full-covariance HMM over the concatenated latent space of two agents.

States emit Gaussians over the stacked latent (first block: observed agent
h, second block: generated agent r). Provides Baum-Welch fitting, the
observed forward recursion (a whole sequence or one online step), the
observation-free one, mixture conditioning of the r block on the h block
(optionally accounting for the encoder's posterior covariance), and the
contact-segment gate used for stiffness switching.

Everything passes plain arrays. ``state_log_liks`` gives the (T, N) log
emission densities of a block; ``forward`` and ``forward_unobserved``
return the (T, N) forward variable; the online ``forward_step`` takes one
(N,) row of emission densities, so a caller that also needs the densities,
as the contact gate does, computes them once. ``gmr_condition`` returns the
conditional mean of the r block, the only moment the reactive step decodes.

Every recursion calls the log-space kernels of ``comotion._kernels``: the
online step is the kernel's one-step prediction followed by a forward pass
of length one, the observation-free recursion is a forward pass over zero
log-likelihoods, and ``em_fit`` runs the E-step of all sequences at once,
padded to the longest, as ``occupancy`` runs its forward pass. The kernels
pick their schedule from what they are given: a left-to-right model, which
``init_segments`` builds and ``em_fit`` keeps, over more steps than states
is swept one state at a time over all steps; the online step, dense models
and a step no state explains loop over time. Emission
densities factor all state covariances with one stacked Cholesky per call;
the factors are not cached on the model, which ``em_fit`` updates in place.
Mixture conditioning is batched, with a single step as a batch of one.
``conditional_means`` serves every caller that reads only the mean: the
reactive step through ``gmr_condition``, whole-trajectory prediction and
the v2 training latents. ``conditional_moments`` adds the mixture
covariance, which only the v3 training latents sample from.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from comotion import _kernels
from comotion.errors import NumericalError
from comotion.gauss import Gaussian, cholesky_or_raise, log_pdf, regularize_spd

log = logging.getLogger(__name__)

BLOCKS = ("full", "h", "r")


@dataclass
class Hmm:
    """pi, transition matrix and N joint Gaussian components split at d_z."""

    pi: np.ndarray
    trans: np.ndarray
    means: np.ndarray  # (N, D)
    covs: np.ndarray  # (N, D, D)
    d_z: int

    def __post_init__(self):
        self.pi = np.asarray(self.pi, dtype=np.float64)
        self.trans = np.asarray(self.trans, dtype=np.float64)
        self.means = np.asarray(self.means, dtype=np.float64)
        self.covs = np.asarray(self.covs, dtype=np.float64)

    @property
    def n_states(self) -> int:
        return self.pi.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def _block_range(self, block: str) -> tuple[int, int]:
        if block == "full":
            return 0, self.dim
        if block == "h":
            return 0, self.d_z
        if block == "r":
            return self.d_z, self.dim
        raise ValueError(f"unknown block {block!r}, expected one of {BLOCKS}")

    def block_params(self, block: str) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._block_range(block)
        return self.means[:, lo:hi], self.covs[:, lo:hi, lo:hi]

    def to_dict(self) -> dict:
        return {
            "pi": self.pi.tolist(),
            "trans": self.trans.tolist(),
            "components": [
                {"mean": self.means[i].tolist(), "cov": self.covs[i].tolist()}
                for i in range(self.n_states)
            ],
            "d_z": self.d_z,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Hmm":
        """Inverse of ``to_dict``; ValueError when the shapes disagree or
        ``pi`` or a row of ``trans`` is not a probability vector (a negative
        entry, or a sum off 1 by more than 1e-9)."""
        means = np.asarray([c["mean"] for c in d["components"]])
        covs = np.asarray([c["cov"] for c in d["components"]])
        hmm = cls(np.asarray(d["pi"]), np.asarray(d["trans"]), means, covs, int(d["d_z"]))
        shapes = (hmm.pi.shape, hmm.trans.shape, means.shape, covs.shape)
        N, D = means.shape
        if shapes != ((N,), (N, N), (N, D), (N, D, D)) or not 0 < hmm.d_z < D:
            raise ValueError(f"shapes {shapes} of pi, trans, means, covs, d_z {hmm.d_z} disagree")
        for where, row in [("pi", hmm.pi)] + [(f"trans row {i}", r) for i, r in enumerate(hmm.trans)]:
            if (row < 0).any() or abs(row.sum() - 1.0) > 1e-9:
                raise ValueError(f"{where} {row.tolist()} is not a probability vector")
        return hmm


def state_log_liks(hmm: Hmm, obs: np.ndarray, block: str = "full") -> np.ndarray:
    """(T, N) log emission likelihoods of obs rows under each state."""
    obs = np.ascontiguousarray(obs, dtype=np.float64)
    means, covs = hmm.block_params(block)
    if obs.ndim != 2 or obs.shape[1] != means.shape[1]:
        raise ValueError(
            f"observations of width {obs.shape[-1]} do not match block "
            f"{block!r} of width {means.shape[1]}"
        )
    chols = cholesky_or_raise(covs)  # one stacked factorization, (N, d, d)
    out = np.empty((obs.shape[0], hmm.n_states))
    for i in range(hmm.n_states):
        out[:, i] = _kernels.chol_logpdf(obs, means[i], chols[i])
    return out


def _safe_log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)


def forward(hmm: Hmm, obs: np.ndarray, block: str = "full") -> np.ndarray:
    """(T, N) normalized forward variable of an observed latent sequence;
    each row sums to 1."""
    log_lik = state_log_liks(hmm, obs, block)
    log_alpha, log_norm = _kernels.forward_log(
        log_lik[None], _safe_log(hmm.pi), _safe_log(hmm.trans)
    )
    _raise_on_collapse(log_norm)
    return np.exp(log_alpha[0])


def _raise_on_collapse(log_norm: np.ndarray, mask: np.ndarray | None = None) -> None:
    """NumericalError naming the first collapsed step of the first sequence
    that has one; ``mask`` leaves padding steps out."""
    collapsed = ~np.isfinite(log_norm)
    if mask is not None:
        collapsed &= mask
    if collapsed.any():
        s = int(np.argmax(collapsed.any(axis=1)))
        t = int(np.argmax(collapsed[s]))
        raise NumericalError(f"forward recursion collapsed at timestep {t}")


def forward_step(
    hmm: Hmm,
    log_lik_t: np.ndarray,
    log_alpha_prev: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the observed forward recursion.

    ``log_lik_t`` is the step's (N,) row of ``state_log_liks``. Carries the
    normalized log state distribution; pass None to start.
    Returns (alpha_t, log_alpha_t).
    """
    log_trans = _safe_log(hmm.trans)
    if log_alpha_prev is None:
        log_prior = _safe_log(hmm.pi)
    else:
        log_prior = _kernels.predict_log(log_alpha_prev, log_trans)
    log_alpha, log_norm = _kernels.forward_log(log_lik_t[None, None], log_prior, log_trans)
    if not np.isfinite(log_norm[0, 0]):
        raise NumericalError("forward step collapsed (all-zero likelihood row)")
    la = log_alpha[0, 0]
    return np.exp(la), la


def forward_unobserved(hmm: Hmm, horizon: int) -> np.ndarray:
    """(horizon, N) forward recursion with the likelihood term set to one."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    log_alpha, _ = _kernels.forward_log(
        np.zeros((1, int(horizon), hmm.n_states)), _safe_log(hmm.pi), _safe_log(hmm.trans)
    )
    return np.exp(log_alpha[0])


# ---------------------------------------------------------------------------
# initialization and EM
# ---------------------------------------------------------------------------


def _segment_slices(sequences: list[np.ndarray], n_states: int) -> list[np.ndarray]:
    """Pool the i-th equal time slice of every sequence."""
    pools: list[list[np.ndarray]] = [[] for _ in range(n_states)]
    for seq in sequences:
        if seq.shape[0] < n_states:
            raise ValueError(
                f"sequence of length {seq.shape[0]} shorter than {n_states} states"
            )
        for i, chunk in enumerate(np.array_split(seq, n_states)):
            pools[i].append(chunk)
    return [np.concatenate(p, axis=0) for p in pools]


def _fit_gaussian(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mean = points.mean(axis=0)
    diff = points - mean
    cov = diff.T @ diff / points.shape[0]
    return mean, regularize_spd(cov)


def init_segments(sequences: list[np.ndarray], n_states: int, d_z: int | None = None) -> Hmm:
    """Equal-time-slice initialization with a left-to-right transition prior."""
    sequences = [np.asarray(s, dtype=np.float64) for s in sequences]
    dim = sequences[0].shape[1]
    d_z = d_z if d_z is not None else dim // 2
    pools = _segment_slices(sequences, n_states)
    means = np.empty((n_states, dim))
    covs = np.empty((n_states, dim, dim))
    for i, pool in enumerate(pools):
        means[i], covs[i] = _fit_gaussian(pool)
    pi = np.zeros(n_states)
    pi[0] = 1.0
    trans = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        trans[i, i] = 0.9
        trans[i, i + 1] = 0.1
    trans[n_states - 1, n_states - 1] = 1.0
    return Hmm(pi, trans, means, covs, d_z)


def _pad(sequences: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The rows of all sequences stacked, (sum of lengths, D), and the (S, T)
    mask of real steps of the sequences padded to the longest, T."""
    stacked = np.concatenate(sequences, axis=0)
    lengths = np.array([s.shape[0] for s in sequences])
    return stacked, np.arange(lengths.max()) < lengths[:, None]


def _padded_log_liks(hmm: Hmm, stacked: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """(S, T, N) log emission likelihoods of the padded sequences that
    ``_pad`` returned; padding steps have zero log-likelihood."""
    log_lik = np.zeros(mask.shape + (hmm.n_states,))
    log_lik[mask] = state_log_liks(hmm, stacked)
    return log_lik


def occupancy(hmm: Hmm, sequences: list[np.ndarray]) -> np.ndarray:
    """(N,) state occupancy: each sequence's forward variable averaged over
    its steps, then averaged over the sequences.

    All sequences run through one padded forward pass; a collapsed step
    raises NumericalError, as in ``forward``.
    """
    stacked, mask = _pad([np.ascontiguousarray(s, dtype=np.float64) for s in sequences])
    log_alpha, log_norm = _kernels.forward_log(
        _padded_log_liks(hmm, stacked, mask), _safe_log(hmm.pi), _safe_log(hmm.trans)
    )
    _raise_on_collapse(log_norm, mask)
    per_seq = (np.exp(log_alpha) * mask[..., None]).sum(axis=1) / mask.sum(axis=1)[:, None]
    return per_seq.mean(axis=0)


def em_fit(
    init: Hmm,
    sequences: list[np.ndarray],
    max_iters: int = 20,
    tol: float = 1e-4,
) -> tuple[Hmm, np.ndarray]:
    """Baum-Welch on a private copy of ``init``.

    Returns the fitted model and the per-iteration log-likelihood trace
    (evaluated under the parameters entering each iteration). Convergence is
    tested right after each forward pass, so the iteration that converges
    runs no backward pass and no M-step.
    """
    sequences = [np.ascontiguousarray(s, dtype=np.float64) for s in sequences]
    if not sequences or any(s.shape[0] < 2 for s in sequences):
        raise ValueError("need at least one sequence of length >= 2")
    hmm = Hmm(init.pi.copy(), init.trans.copy(), init.means.copy(), init.covs.copy(), init.d_z)
    N, D = hmm.n_states, hmm.dim
    stacked, mask = _pad(sequences)
    trace = []
    prev_ll = -np.inf
    for it in range(max_iters):
        log_trans = _safe_log(hmm.trans)
        log_lik = _padded_log_liks(hmm, stacked, mask)
        log_alpha, log_norm = _kernels.forward_log(log_lik, _safe_log(hmm.pi), log_trans)
        _raise_on_collapse(log_norm, mask)
        total_ll = float(log_norm[mask].sum())
        trace.append(total_ll)
        if total_ll - prev_ll < tol * max(1.0, abs(prev_ll)) and it > 0:
            break
        prev_ll = total_ll

        log_beta = _kernels.backward_log(log_lik, log_trans, mask)
        log_gamma = log_alpha + log_beta
        gamma = np.exp(log_gamma - log_gamma.max(axis=2, keepdims=True))
        gamma /= gamma.sum(axis=2, keepdims=True)
        pi_acc = gamma[:, 0].sum(axis=0)
        xi_acc = _kernels.xi_counts(log_alpha, log_beta, log_lik, log_trans, mask)
        gammas = gamma[mask]
        mass = gammas.sum(axis=0)
        mean_acc = gammas.T @ stacked
        second_acc = np.empty((N, D, D))
        for i in range(N):
            second_acc[i] = (stacked * gammas[:, i : i + 1]).T @ stacked

        hmm.pi = pi_acc / pi_acc.sum()
        row_sums = xi_acc.sum(axis=1, keepdims=True)
        new_trans = hmm.trans.copy()
        ok = row_sums[:, 0] > 1e-12
        new_trans[ok] = xi_acc[ok] / row_sums[ok]
        hmm.trans = new_trans
        starving = mass < 1e-8
        safe_mass = np.where(starving, 1.0, mass)
        means = mean_acc / safe_mass[:, None]
        for i in range(N):
            if starving[i]:
                continue
            cov = second_acc[i] / mass[i] - np.outer(means[i], means[i])
            hmm.means[i] = means[i]
            hmm.covs[i] = regularize_spd(cov)
        if np.any(starving):
            _reseed_starving(hmm, sequences, np.flatnonzero(starving))
    return hmm, np.asarray(trace)


def _reseed_starving(hmm: Hmm, sequences: list[np.ndarray], which: np.ndarray) -> None:
    """Reinitialize starved components from the highest-variance segment."""
    pools = _segment_slices(sequences, hmm.n_states)
    variances = [np.trace(np.cov(p.T)) if p.shape[0] > 1 else 0.0 for p in pools]
    src = int(np.argmax(variances))
    mean, cov = _fit_gaussian(pools[src])
    for i in which:
        log.warning("component %d starved; reseeding from segment %d", i, src)
        hmm.means[i] = mean
        hmm.covs[i] = cov


# ---------------------------------------------------------------------------
# mixture conditioning
# ---------------------------------------------------------------------------


def gmr_condition(
    hmm: Hmm,
    mu: np.ndarray,
    post_var: np.ndarray | None,
    alpha_t: np.ndarray,
) -> np.ndarray:
    """Conditional mean (d_r,) of the r block given one h-block point ``mu``
    (d_z,), mixed by ``alpha_t``; ``conditional_means`` with a batch of one.

    ``post_var`` (d_z,), the encoder's diagonal posterior variance, is added
    to the h-block covariance in the gain, i.e. conditions on a noisy
    observation; None treats ``mu`` as exact.
    """
    post_var = None if post_var is None else post_var[None]
    return conditional_means(hmm, mu[None], post_var, alpha_t[None])[0]


def conditional_means(
    hmm: Hmm,
    points: np.ndarray,
    post_var: np.ndarray | None,
    alphas: np.ndarray,
) -> np.ndarray:
    """(B, d_r) mixture means of ``conditional_moments`` without the
    covariance: each state's gain is solved against ``points - mu_h`` alone.

    Same arguments as ``conditional_moments``; NumericalError on a singular
    gain.
    """
    points = np.asarray(points, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    d_z = hmm.d_z
    s_hr = hmm.covs[:, :d_z, d_z:]
    diff = points[:, None, :] - hmm.means[None, :, :d_z]  # (B, N, d_z)
    gain_base = hmm.covs[:, :d_z, :d_z]
    if post_var is not None:
        post_var = np.asarray(post_var, dtype=np.float64)
        gain_base = gain_base + post_var[:, None, :, None] * np.eye(d_z)
    try:
        sol = np.linalg.solve(gain_base, diff[..., None])[..., 0]  # (B, N, d_z)
    except np.linalg.LinAlgError:
        raise NumericalError("singular conditioning matrix") from None
    # sum_i alpha_i (mu_r_i + s_rh_i sol_i), with s_rh_i sol_i = s_hr_i^T sol_i
    weighted = (alphas[:, :, None] * sol).reshape(points.shape[0], -1)
    return alphas @ hmm.means[:, d_z:] + weighted @ s_hr.reshape(-1, s_hr.shape[-1])


def conditional_moments(
    hmm: Hmm,
    points: np.ndarray,
    post_var: np.ndarray | None,
    alphas: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Batched mixture conditioning of the r block on h-block points.

    points: (B, d_z) conditioning values; post_var: (B, d_z) diagonal
    posterior variances or None for exact-point conditioning; alphas:
    (B, N) mixing weights. Returns (means (B, d_r), covs (B, d_r, d_r));
    covariances are the raw mixture moments, not yet regularized.
    """
    points = np.asarray(points, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    B = points.shape[0]
    d_z, d_r = hmm.d_z, hmm.dim - hmm.d_z
    mu_h = hmm.means[:, :d_z]
    mu_r = hmm.means[:, d_z:]
    s_hh = hmm.covs[:, :d_z, :d_z]
    s_hr = hmm.covs[:, :d_z, d_z:]
    diff = points[:, None, :] - mu_h[None, :, :]  # (B, N, d_z)
    rhs = np.concatenate(
        [diff[..., None], np.broadcast_to(s_hr, (B,) + s_hr.shape)], axis=-1
    )  # (B, N, d_z, 1 + d_r)
    if post_var is None:
        gain_base = np.broadcast_to(s_hh, (B,) + s_hh.shape)
    else:
        post_var = np.asarray(post_var, dtype=np.float64)
        eye = np.eye(d_z)
        gain_base = s_hh[None, :, :, :] + post_var[:, None, :, None] * eye
    try:
        sol = np.linalg.solve(gain_base, rhs)  # (B, N, d_z, 1 + d_r)
    except np.linalg.LinAlgError:
        raise NumericalError("singular conditioning matrix") from None
    s_rr = hmm.covs[:, d_z:, d_z:]
    # s_rh_i v = (v^T s_hr_i)^T, so contract over the d_z axis of s_hr
    mu_bi = mu_r[None] + np.einsum("nzr,bnz->bnr", s_hr, sol[..., 0])
    gain_term = np.einsum("nzr,bnzs->bnrs", s_hr, sol[..., 1:])
    second_bi = s_rr[None] - gain_term + mu_bi[..., :, None] * mu_bi[..., None, :]
    mean_b = np.einsum("bn,bnr->br", alphas, mu_bi)
    second_b = np.einsum("bn,bnrs->brs", alphas, second_bi)
    cov_b = second_b - mean_b[:, :, None] * mean_b[:, None, :]
    return mean_b, cov_b


# ---------------------------------------------------------------------------
# contact gating
# ---------------------------------------------------------------------------


@dataclass
class TransitionStateModel:
    """Contact/reach state labels plus the boundary-misclassification gate."""

    contact_states: frozenset[int]
    reach_states: frozenset[int]
    gate: Gaussian | None = None

    def __post_init__(self):
        self.contact_states = frozenset(int(i) for i in self.contact_states)
        self.reach_states = frozenset(int(i) for i in self.reach_states)
        if not self.contact_states:
            raise ValueError("contact state set must not be empty")
        if self.contact_states & self.reach_states:
            raise ValueError("contact and reach state sets must be disjoint")

    @classmethod
    def for_hmm(
        cls,
        hmm: Hmm,
        contact_states,
        reach_states,
        gate: Gaussian | None = None,
    ) -> "TransitionStateModel":
        """ValueError when a state index is outside ``hmm``'s states."""
        states = {int(i) for i in contact_states} | {int(i) for i in reach_states}
        if any(not 0 <= i < hmm.n_states for i in states):
            raise ValueError(f"state indices {sorted(states)} outside 0..{hmm.n_states - 1}")
        return cls(frozenset(contact_states), frozenset(reach_states), gate)

    def to_dict(self) -> dict:
        return {
            "contact_states": sorted(self.contact_states),
            "reach_states": sorted(self.reach_states),
            "gate": self.gate.to_dict() if self.gate is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TransitionStateModel":
        return cls(
            frozenset(d["contact_states"]),
            frozenset(d["reach_states"]),
            Gaussian.from_dict(d["gate"]) if d.get("gate") else None,
        )


def contact_gate(
    alpha_t: np.ndarray,
    log_lik_t: np.ndarray,
    tsm: TransitionStateModel,
    z_h: np.ndarray,
    prev: bool = False,
) -> bool:
    """Whether the trajectory is in contact (and the stiffness low); latches
    once fired.

    Fires when the contact states out-probabilize the reach states, or when
    the transition-state gate density at ``z_h`` beats every reach state's
    h-block emission density, read from ``log_lik_t``, the step's (N,) row
    of ``state_log_liks``.
    """
    if prev:
        return True
    contact_p = max(alpha_t[i] for i in tsm.contact_states)
    reach_p = max((alpha_t[i] for i in tsm.reach_states), default=0.0)
    fired = contact_p > reach_p
    if not fired and tsm.gate is not None and tsm.reach_states:
        fired = log_pdf(tsm.gate, z_h) > max(log_lik_t[i] for i in tsm.reach_states)
    return bool(fired)
