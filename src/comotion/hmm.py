"""Full-covariance HMM over the concatenated latent space of two agents.

States emit Gaussians over the stacked latent (first block: observed agent
h, second block: generated agent r). Provides Baum-Welch fitting, the
observed forward recursion (a whole sequence or one online step), the
observation-free one, mixture conditioning of the r block on the h block
(optionally accounting for the encoder's posterior covariance), and the
contact-segment gate used for stiffness switching.

Every recursion calls the log-space kernels of ``comotion._kernels``: the
online step is the kernel's one-step prediction followed by a forward pass
of length one, the observation-free recursion is a forward pass over zero
log-likelihoods, and ``em_fit`` runs the E-step of all sequences at once,
padded to the longest. Emission densities factor all state covariances with
one stacked Cholesky per call; the factors are not cached on the model,
which ``em_fit`` updates in place. Mixture conditioning has one path, the
batched ``conditional_moments``; ``gmr_condition`` runs it with a batch of one.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from comotion import _kernels
from comotion.errors import NumericalError
from comotion.gauss import (
    EIGEN,
    FLAT,
    BlockedGaussian,
    Gaussian,
    RegSchedule,
    cholesky_or_raise,
    log_pdf,
    regularize_spd,
)

log = logging.getLogger(__name__)

BLOCKS = ("full", "h", "r")


@dataclass
class AlphaSequence:
    """Per-timestep state probabilities; each row sums to 1."""

    values: np.ndarray
    log_norm: np.ndarray | None = None

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, t) -> np.ndarray:
        return self.values[t]

    @property
    def loglik(self) -> float:
        if self.log_norm is None:
            raise ValueError("no likelihood recorded (observation-free recursion)")
        return float(self.log_norm.sum())


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

    def component(self, i: int) -> BlockedGaussian:
        return BlockedGaussian(Gaussian(self.means[i], self.covs[i]), self.d_z)

    def marginal(self, i: int, block: str) -> Gaussian:
        lo, hi = self._block_range(block)
        return Gaussian(self.means[i, lo:hi], self.covs[i, lo:hi, lo:hi])

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
        """Inverse of ``to_dict``; ValueError when the shapes disagree."""
        means = np.asarray([c["mean"] for c in d["components"]])
        covs = np.asarray([c["cov"] for c in d["components"]])
        hmm = cls(np.asarray(d["pi"]), np.asarray(d["trans"]), means, covs, int(d["d_z"]))
        shapes = (hmm.pi.shape, hmm.trans.shape, means.shape, covs.shape)
        N, D = means.shape
        if shapes != ((N,), (N, N), (N, D), (N, D, D)) or not 0 < hmm.d_z < D:
            raise ValueError(f"shapes {shapes} of pi, trans, means, covs, d_z {hmm.d_z} disagree")
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


def forward(hmm: Hmm, obs: np.ndarray, block: str = "full") -> AlphaSequence:
    """Normalized forward variable of an observed latent sequence."""
    log_lik = state_log_liks(hmm, obs, block)
    log_alpha, log_norm = _kernels.forward_log(
        log_lik[None], _safe_log(hmm.pi), _safe_log(hmm.trans)
    )
    _raise_on_collapse(log_norm)
    return AlphaSequence(np.exp(log_alpha[0]), log_norm[0])


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
    z: np.ndarray,
    log_alpha_prev: np.ndarray | None,
    block: str = "full",
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the observed forward recursion.

    Carries the normalized log state distribution; pass None to start.
    Returns (alpha_t, log_alpha_t).
    """
    log_lik = state_log_liks(hmm, np.asarray(z)[None, :], block)
    log_trans = _safe_log(hmm.trans)
    if log_alpha_prev is None:
        log_prior = _safe_log(hmm.pi)
    else:
        log_prior = _kernels.predict_log(log_alpha_prev, log_trans)
    log_alpha, log_norm = _kernels.forward_log(log_lik[None], log_prior, log_trans)
    if not np.isfinite(log_norm[0, 0]):
        raise NumericalError("forward step collapsed (all-zero likelihood row)")
    la = log_alpha[0, 0]
    return np.exp(la), la


def forward_unobserved(hmm: Hmm, horizon: int) -> AlphaSequence:
    """Forward recursion with the likelihood term set to one."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    log_alpha, _ = _kernels.forward_log(
        np.zeros((1, int(horizon), hmm.n_states)), _safe_log(hmm.pi), _safe_log(hmm.trans)
    )
    return AlphaSequence(np.exp(log_alpha[0]), None)


def most_likely(alpha_t: np.ndarray) -> int:
    """Argmax state; ties resolve to the lowest index."""
    return int(np.argmax(alpha_t))


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


def _fit_gaussian(points: np.ndarray, reg: RegSchedule = FLAT) -> tuple[np.ndarray, np.ndarray]:
    mean = points.mean(axis=0)
    diff = points - mean
    cov = diff.T @ diff / points.shape[0]
    return mean, regularize_spd(cov, reg)


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


def em_fit(
    init: Hmm,
    sequences: list[np.ndarray],
    max_iters: int = 20,
    tol: float = 1e-4,
    cov_reg: RegSchedule = FLAT,
) -> tuple[Hmm, np.ndarray]:
    """Baum-Welch on a private copy of ``init``.

    Returns the fitted model and the per-iteration log-likelihood trace
    (evaluated under the parameters entering each iteration).
    """
    sequences = [np.ascontiguousarray(s, dtype=np.float64) for s in sequences]
    if not sequences or any(s.shape[0] < 2 for s in sequences):
        raise ValueError("need at least one sequence of length >= 2")
    hmm = Hmm(init.pi.copy(), init.trans.copy(), init.means.copy(), init.covs.copy(), init.d_z)
    N, D = hmm.n_states, hmm.dim
    stacked = np.concatenate(sequences, axis=0)
    lengths = np.array([s.shape[0] for s in sequences])
    mask = np.arange(lengths.max()) < lengths[:, None]  # (S, T) real steps
    # sequences padded to the longest; padding steps have zero log-likelihood
    log_lik = np.zeros(mask.shape + (N,))
    trace = []
    prev_ll = -np.inf
    for it in range(max_iters):
        log_trans = _safe_log(hmm.trans)
        log_lik[mask] = state_log_liks(hmm, stacked)
        log_alpha, log_norm = _kernels.forward_log(log_lik, _safe_log(hmm.pi), log_trans)
        _raise_on_collapse(log_norm, mask)
        total_ll = float(log_norm[mask].sum())
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
        trace.append(total_ll)
        if total_ll - prev_ll < tol * max(1.0, abs(prev_ll)) and it > 0:
            break
        prev_ll = total_ll

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
            hmm.covs[i] = regularize_spd(cov, cov_reg)
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
    posterior: Gaussian,
    alpha_t: np.ndarray,
    mode: str = "point",
) -> Gaussian:
    """Condition the r block on the h block, mixed by ``alpha_t``.

    point:    treat ``posterior.mean`` as an exact observation.
    with_cov: add the posterior covariance to the h-block covariance in the
              gain, i.e. condition on a noisy observation; the posterior
              must be diagonal, as the encoder's are.
    Returns ``conditional_moments`` for a batch of one, its covariance
    repaired to positive definite.
    """
    if mode not in ("point", "with_cov"):
        raise ValueError(f"unknown conditioning mode {mode!r}")
    if posterior.dim != hmm.d_z:
        raise ValueError(f"posterior dim {posterior.dim} != h block {hmm.d_z}")
    post_var = None
    if mode == "with_cov":
        var = np.diag(posterior.cov)
        if np.any(posterior.cov != np.diag(var)):
            raise ValueError("with_cov conditioning needs a diagonal posterior covariance")
        post_var = var[None]
    means, covs = conditional_moments(hmm, posterior.mean[None], post_var, [alpha_t])
    return Gaussian(means[0], regularize_spd(covs[0], EIGEN))


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
    """Contact/reach state labels plus the boundary-misclassification gate.

    ``reach_marginals`` caches the h-block marginals of the reach states so
    the gate density test needs no model handle at call time.
    """

    contact_states: frozenset[int]
    reach_states: frozenset[int]
    gate: Gaussian | None = None
    reach_marginals: list[Gaussian] = field(default_factory=list)

    def __post_init__(self):
        self.contact_states = frozenset(int(i) for i in self.contact_states)
        self.reach_states = frozenset(int(i) for i in self.reach_states)
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
        marg = [hmm.marginal(i, "h") for i in sorted(int(j) for j in reach_states)]
        return cls(frozenset(contact_states), frozenset(reach_states), gate, marg)

    def to_dict(self) -> dict:
        return {
            "contact_states": sorted(self.contact_states),
            "reach_states": sorted(self.reach_states),
            "gate": self.gate.to_dict() if self.gate is not None else None,
            "reach_marginals": [g.to_dict() for g in self.reach_marginals],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TransitionStateModel":
        return cls(
            frozenset(d["contact_states"]),
            frozenset(d["reach_states"]),
            Gaussian.from_dict(d["gate"]) if d.get("gate") else None,
            [Gaussian.from_dict(g) for g in d.get("reach_marginals", [])],
        )


def contact_gate(
    alpha_t: np.ndarray,
    tsm: TransitionStateModel,
    z_h: np.ndarray,
    prev: bool = False,
) -> bool:
    """Whether the trajectory is in contact (and the stiffness low); latches
    once fired.

    Fires when the contact states out-probabilize the reach states, or when
    the transition-state gate density at ``z_h`` beats every reach state's
    emission density.
    """
    if prev:
        return True
    if not tsm.contact_states:
        log.warning("contact gate disabled: no contact states configured")
        return False
    alpha_t = np.asarray(alpha_t, dtype=np.float64)
    contact_p = max(alpha_t[i] for i in tsm.contact_states)
    reach_p = max((alpha_t[i] for i in tsm.reach_states), default=0.0)
    fired = contact_p > reach_p
    if not fired and tsm.gate is not None and tsm.reach_marginals:
        gate_ll = log_pdf(tsm.gate, z_h)
        reach_ll = max(log_pdf(g, z_h) for g in tsm.reach_marginals)
        fired = gate_ll > reach_ll
    return bool(fired)
