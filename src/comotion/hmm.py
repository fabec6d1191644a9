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
log-likelihoods, and ``forward`` and ``em_fit`` run all their sequences as
one pass, padded by one helper to the longest with log-likelihood 0;
``em_fit``'s last pass, of the model it returns, also gives the occupancy
that decides whether the fit collapsed. The kernels sweep a left-to-right
model (``init_segments`` builds one, ``em_fit`` keeps it) one state at a
time when the longest sequence has more steps than states; the online
step, dense models and a step no state explains loop over time. A model
is never edited (its arrays are read-only; ``em_fit`` builds a new one at
each M-step), so it computes log pi, log trans and each block's inverse
Cholesky factors and log-normalizers once, on first use, and keeps them.
The factors have two readers: ``state_log_liks``, behind every emission
density here, and the VAE objectives' KL term against a block's marginal.
Mixture conditioning is batched, with a single step as a batch of one.
One helper, ``_gain_solve``, builds each state's h-block covariance (plus
the posterior variance when given), solves it and turns a singular solve
into a NumericalError. ``conditional_means`` serves every caller that
reads only the mean: the reactive step through ``gmr_condition``,
whole-trajectory prediction and the v2 training latents; it solves against
``points - mu_h`` alone. ``conditional_moments`` adds the mixture
covariance, which only the v3 training latents sample from; it solves for
the gains themselves, one per state in point mode, shared by every row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from comotion import _kernels
from comotion.data import is_int
from comotion.errors import NumericalError
from comotion.gauss import Gaussian, inverse_factors, log_pdf, read_only, regularize_spd

log = logging.getLogger(__name__)

BLOCKS = ("full", "h", "r")


@dataclass(frozen=True)
class Hmm:
    """pi, transition matrix and N joint Gaussian components split at d_z; read-only."""

    pi: np.ndarray
    trans: np.ndarray
    means: np.ndarray  # (N, D)
    covs: np.ndarray  # (N, D, D)
    d_z: int

    def __post_init__(self):
        for name in ("pi", "trans", "means", "covs"):
            object.__setattr__(self, name, read_only(getattr(self, name)))

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

    @cached_property
    def log_params(self) -> tuple[np.ndarray, np.ndarray]:
        """log pi and log trans, -inf at 0, computed on first use."""
        with np.errstate(divide="ignore"):
            return read_only(np.log(self.pi)), read_only(np.log(self.trans))

    def factors(self, block: str) -> tuple[np.ndarray, np.ndarray]:
        """``inverse_factors`` of the states' ``block`` covariances, kept from first use."""
        kept = self.__dict__.setdefault("_factors", {})
        if block not in kept:
            kept[block] = inverse_factors(self.block_params(block)[1])
        return kept[block]

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
    means = hmm.block_params(block)[0]
    if obs.ndim != 2 or obs.shape[1] != means.shape[1]:
        raise ValueError(
            f"observations of width {obs.shape[-1]} do not match block "
            f"{block!r} of width {means.shape[1]}"
        )
    chol_invs, log_norms = hmm.factors(block)
    out = np.empty((obs.shape[0], hmm.n_states))
    for i in range(hmm.n_states):
        out[:, i] = _kernels.chol_logpdf(obs, means[i], chol_invs[i], log_norms[i])
    return out


def _padding(lengths, rows: int, n_states: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, T) mask of the real steps of sequences of ``lengths`` padded at the
    end to the longest, and (S, T, N) zero log-likelihoods to fill at it;
    ValueError unless the lengths are positive integers summing to ``rows``."""
    lengths = np.asarray(lengths)
    if not (lengths.ndim == 1 and np.issubdtype(lengths.dtype, np.integer)
            and (lengths > 0).all() and lengths.sum() == rows):
        raise ValueError(f"lengths {lengths.tolist()} do not split {rows} rows into sequences")
    mask = np.arange(lengths.max()) < lengths[:, None]
    return mask, np.zeros(mask.shape + (n_states,))


def forward(hmm: Hmm, obs: np.ndarray, block: str = "full", lengths=None) -> np.ndarray:
    """(T, N) normalized forward variable of the rows of consecutive observed
    latent sequences of ``lengths`` (None: one sequence), restarted at each,
    as one padded pass; each row sums to 1."""
    mask, log_lik = _padding([len(obs)] if lengths is None else lengths, len(obs), hmm.n_states)
    log_lik[mask] = state_log_liks(hmm, obs, block)
    log_alpha, log_norm = _kernels.forward_log(log_lik, *hmm.log_params)
    _raise_on_collapse(log_norm, mask)
    return np.exp(log_alpha[mask])


def _raise_on_collapse(log_norm: np.ndarray, mask: np.ndarray) -> None:
    """NumericalError naming the first collapsed step of the first sequence
    that has one; ``mask`` leaves padding steps out."""
    collapsed = ~np.isfinite(log_norm) & mask
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
    log_prior, log_trans = hmm.log_params
    if log_alpha_prev is not None:
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
        np.zeros((1, int(horizon), hmm.n_states)), *hmm.log_params
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


def fit_gaussian(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and SPD-repaired maximum-likelihood covariance of (n, d) points."""
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
        means[i], covs[i] = fit_gaussian(pool)
    pi = np.zeros(n_states)
    pi[0] = 1.0
    trans = np.zeros((n_states, n_states))
    for i in range(n_states - 1):
        trans[i, i] = 0.9
        trans[i, i + 1] = 0.1
    trans[n_states - 1, n_states - 1] = 1.0
    return Hmm(pi, trans, means, covs, d_z)


def em_fit(
    init: Hmm,
    sequences: list[np.ndarray],
    max_iters: int = 20,
    tol: float = 1e-4,
) -> tuple[Hmm, np.ndarray]:
    """Baum-Welch from ``init``, a new model at each M-step.

    Returns the fitted model and the per-iteration log-likelihood trace
    (evaluated under the parameters entering each iteration). Convergence is
    tested right after each forward pass, so the iteration that converges
    runs no backward pass and no M-step; when ``max_iters`` runs out, one
    more pass, with no trace entry, scores the last M-step's model. From
    that last pass, of the model returned, a state's occupancy is its forward
    probability averaged over each sequence's real steps, then over the
    sequences; when one falls below 1 / (10 N) the fit has collapsed: a
    warning is logged and ``init_segments`` of the sequences is returned.
    """
    sequences = [np.ascontiguousarray(s, dtype=np.float64) for s in sequences]
    if not sequences or any(s.shape[0] < 2 for s in sequences):
        raise ValueError("need at least one sequence of length >= 2")
    hmm = init
    N = hmm.n_states
    stacked = np.concatenate(sequences, axis=0)
    lengths = np.array([s.shape[0] for s in sequences])
    mask, log_lik = _padding(lengths, len(stacked), N)
    trace = []
    prev_ll = -np.inf
    for it in range(max_iters + 1):
        log_pi, log_trans = hmm.log_params
        log_lik[mask] = state_log_liks(hmm, stacked)
        log_alpha, log_norm = _kernels.forward_log(log_lik, log_pi, log_trans)
        _raise_on_collapse(log_norm, mask)
        if it == max_iters:
            break
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
        second_acc = (gammas.T[:, :, None] * stacked).swapaxes(1, 2) @ stacked  # (N, D, D)

        row_sums = xi_acc.sum(axis=1, keepdims=True)
        new_trans = hmm.trans.copy()
        ok = row_sums[:, 0] > 1e-12
        new_trans[ok] = xi_acc[ok] / row_sums[ok]
        starving = mass < 1e-8
        fitted = mean_acc / np.where(starving, 1.0, mass)[:, None]
        means, covs = np.where(starving[:, None], hmm.means, fitted), hmm.covs.copy()
        for i in np.flatnonzero(~starving):
            covs[i] = regularize_spd(second_acc[i] / mass[i] - np.outer(means[i], means[i]))
        if np.any(starving):
            _reseed_starving(means, covs, sequences, np.flatnonzero(starving))
        hmm = Hmm(pi_acc / pi_acc.sum(), new_trans, means, covs, hmm.d_z)
    occ = ((np.exp(log_alpha) * mask[..., None]).sum(axis=1) / lengths[:, None]).mean(axis=0)
    if occ.min() < 1.0 / (10.0 * N):
        log.warning(
            "sequence-model component occupancy collapsed (min %.4f); "
            "falling back to segment initialization",
            occ.min(),
        )
        hmm = init_segments(sequences, N, hmm.d_z)
    return hmm, np.asarray(trace)


def _reseed_starving(means, covs, sequences: list[np.ndarray], which: np.ndarray) -> None:
    """Reinitialize the starved components of the next model's ``means`` and
    ``covs`` from the highest-variance segment."""
    pools = _segment_slices(sequences, len(means))
    variances = [np.trace(np.cov(p.T)) if p.shape[0] > 1 else 0.0 for p in pools]
    src = int(np.argmax(variances))
    mean, cov = fit_gaussian(pools[src])
    for i in which:
        log.warning("component %d starved; reseeding from segment %d", i, src)
        means[i] = mean
        covs[i] = cov


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


def _gain_solve(hmm: Hmm, post_var: np.ndarray | None, rhs: np.ndarray) -> np.ndarray:
    """Solve every state's h-block covariance, plus ``post_var`` (B, d_z) on
    the diagonal when given, against ``rhs``; NumericalError when singular.

    Without ``post_var`` the system is (N, d_z, d_z); with it, (B, N, d_z,
    d_z). ``rhs`` stacks over the same leading axes or broadcasts to them.
    """
    d_z = hmm.d_z
    gain_base = hmm.covs[:, :d_z, :d_z]
    if post_var is not None:
        post_var = np.asarray(post_var, dtype=np.float64)
        gain_base = gain_base + post_var[:, None, :, None] * np.eye(d_z)
    try:
        return np.linalg.solve(gain_base, rhs)
    except np.linalg.LinAlgError:
        raise NumericalError("singular conditioning matrix") from None


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
    sol = _gain_solve(hmm, post_var, diff[..., None])[..., 0]  # (B, N, d_z)
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

    State i's gain G_i = (s_hh_i + diag(post_var))^-1 s_hr_i gives its mean
    mu_r_i + G_i^T (x - mu_h_i) and covariance s_rr_i - s_hr_i^T G_i; without
    ``post_var`` there is one gain per state, shared by every row.
    """
    points = np.asarray(points, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    d_z = hmm.d_z
    s_hr = hmm.covs[:, :d_z, d_z:]
    # spelled out for numpy < 2, which reads a b one axis short of a as vectors
    rhs = s_hr if post_var is None else np.broadcast_to(s_hr, (len(points),) + s_hr.shape)
    gains = _gain_solve(hmm, post_var, rhs)  # ([B,] N, d_z, d_r)
    diff = points[:, None, :, None] - hmm.means[:, :d_z, None]  # (B, N, d_z, 1)
    mu_bi = hmm.means[:, d_z:] + (gains.swapaxes(-1, -2) @ diff)[..., 0]  # (B, N, d_r)
    covs_i = hmm.covs[:, d_z:, d_z:] - s_hr.swapaxes(-1, -2) @ gains  # ([B,] N, d_r, d_r)
    mean_b = np.einsum("bn,bnr->br", alphas, mu_bi)
    spread = mu_bi - mean_b[:, None, :]
    cov_b = (alphas[:, :, None, None] * covs_i).sum(axis=1)
    cov_b += (alphas[:, :, None] * spread).swapaxes(1, 2) @ spread
    return mean_b, cov_b


# ---------------------------------------------------------------------------
# contact gating
# ---------------------------------------------------------------------------


@dataclass
class TransitionStateModel:
    """Contact/reach state labels plus the boundary-misclassification gate;
    ValueError for a non-integer state index, no contact state or overlapping sets."""

    contact_states: frozenset[int]
    reach_states: frozenset[int]
    gate: Gaussian | None = None

    def __post_init__(self):
        for name in ("contact_states", "reach_states"):
            if not all(map(is_int, getattr(self, name))):
                raise ValueError(f"state indices must be integers, got {getattr(self, name)!r}")
            setattr(self, name, frozenset(map(int, getattr(self, name))))
        if not self.contact_states:
            raise ValueError("contact state set must not be empty")
        if self.contact_states & self.reach_states:
            raise ValueError("contact and reach state sets must be disjoint")

    def check_range(self, n_states: int) -> None:
        states = sorted(self.contact_states | self.reach_states)
        if states[0] < 0 or states[-1] >= n_states:
            raise ValueError(f"state indices {states} outside 0..{n_states - 1}")

    @classmethod
    def for_hmm(
        cls,
        hmm: Hmm,
        contact_states,
        reach_states,
        gate: Gaussian | None = None,
    ) -> "TransitionStateModel":
        """ValueError when the sets are rejected, a state index is outside
        ``hmm``'s states or the gate is not d_z wide."""
        tsm = cls(contact_states, reach_states, gate)
        tsm.check_range(hmm.n_states)
        if gate is not None and gate.mean.shape != (hmm.d_z,):
            raise ValueError(f"gate is {gate.mean.shape[0]} wide, not d_z = {hmm.d_z}")
        return tsm

    def to_dict(self) -> dict:
        return {
            "contact_states": sorted(self.contact_states),
            "reach_states": sorted(self.reach_states),
            "gate": self.gate.to_dict() if self.gate is not None else None,
        }

    @classmethod
    def from_dict(cls, d: dict, hmm: Hmm) -> "TransitionStateModel":
        """Inverse of ``to_dict``, checked against ``hmm`` as ``for_hmm`` does."""
        gate = Gaussian.from_dict(d["gate"]) if d.get("gate") else None
        return cls.for_hmm(hmm, d["contact_states"], d["reach_states"], gate)


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
