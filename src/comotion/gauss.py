"""Dense Gaussian algebra: log-density, KL, exact conditioning, SPD repair.

Every distribution in the package is carried as a mean plus a full
symmetric positive-definite covariance; this module is the shared currency
for the sequence model emissions, the encoder posteriors, and the
conditional outputs. All density arithmetic goes through Cholesky factors
and stays in log space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from comotion._kernels import chol_logpdf
from comotion.errors import NumericalError

_LOG_2PI = math.log(2.0 * math.pi)


def _as_matrix(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def cholesky_or_raise(cov: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NumericalError("covariance not positive definite") from None


@dataclass(frozen=True)
class Gaussian:
    """Immutable Gaussian with mean and full covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64).reshape(-1)
        cov = _as_matrix(self.cov)
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean dim {mean.shape[0]} does not match cov dim {cov.shape[0]}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def diagonal(cls, mean, var) -> "Gaussian":
        var = np.asarray(var, dtype=np.float64).reshape(-1)
        return cls(mean, np.diag(var))

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "cov": self.cov.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Gaussian":
        return cls(np.asarray(d["mean"]), np.asarray(d["cov"]))


@dataclass(frozen=True)
class BlockedGaussian:
    """Joint Gaussian over two equally sized blocks (first block size d_z)."""

    base: Gaussian
    d_z: int = field(default=0)

    def __post_init__(self):
        d_z = self.d_z or self.base.dim // 2
        if not 0 < d_z < self.base.dim:
            raise ValueError(f"block split {d_z} invalid for dim {self.base.dim}")
        object.__setattr__(self, "d_z", d_z)

    @property
    def mu_h(self) -> np.ndarray:
        return self.base.mean[: self.d_z]

    @property
    def mu_r(self) -> np.ndarray:
        return self.base.mean[self.d_z :]

    @property
    def s_hh(self) -> np.ndarray:
        return self.base.cov[: self.d_z, : self.d_z]

    @property
    def s_hr(self) -> np.ndarray:
        return self.base.cov[: self.d_z, self.d_z :]

    @property
    def s_rh(self) -> np.ndarray:
        return self.base.cov[self.d_z :, : self.d_z]

    @property
    def s_rr(self) -> np.ndarray:
        return self.base.cov[self.d_z :, self.d_z :]


@dataclass(frozen=True)
class RegSchedule:
    """How to push a symmetric matrix to positive definiteness.

    flat:   add ``eps`` to every diagonal entry.
    linear: add increments linearly spaced from ``lo`` to ``eps`` along the
            diagonal.
    eigen:  while Cholesky fails, add ``c * |lambda_min|`` to the diagonal.
    """

    mode: str = "flat"
    eps: float = 1e-4
    lo: float = 9.1e-5
    c: float = 1e-2
    max_iter: int = 50

    def __post_init__(self):
        if self.mode not in ("flat", "linear", "eigen"):
            raise ValueError(f"unknown regularization mode {self.mode!r}")


FLAT = RegSchedule("flat")
LINEAR = RegSchedule("linear")
EIGEN = RegSchedule("eigen")


def regularize_spd(m: np.ndarray, schedule: RegSchedule = FLAT) -> np.ndarray:
    """Symmetrize ``m`` and lift its spectrum until Cholesky succeeds."""
    m = _as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise NumericalError("matrix has non-finite entries")
    d = m.shape[0]
    out = 0.5 * (m + m.T)
    if schedule.mode == "flat":
        out = out + schedule.eps * np.eye(d)
    elif schedule.mode == "linear":
        if d == 1:
            incr = np.array([schedule.eps])
        else:
            incr = np.linspace(schedule.lo, schedule.eps, d)
        out = out + np.diag(incr)
    # spectral repair loop; a floor handles exactly singular inputs where
    # |lambda_min| vanishes, escalating if one bump is not enough
    floor = 1e-10 * max(1.0, float(np.abs(np.diag(out)).max()))
    for _ in range(schedule.max_iter):
        try:
            np.linalg.cholesky(out)
            return out
        except np.linalg.LinAlgError:
            lam_min = np.linalg.eigvalsh(out)[0]
            bump = max(schedule.c * abs(lam_min), floor)
            out = out + bump * np.eye(d)
            floor *= 4.0
    raise NumericalError("matrix could not be regularized to positive definite")


def log_pdf(g: Gaussian, x) -> float:
    """log N(x; mean, cov) via the Cholesky factor of cov."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != g.dim:
        raise ValueError(f"point dim {x.shape[0]} != Gaussian dim {g.dim}")
    chol = cholesky_or_raise(g.cov)
    return float(chol_logpdf(x[None, :], g.mean, chol)[0])


def kl_divergence(q: Gaussian, p: Gaussian) -> float:
    """KL(q || p) in closed form; both covariances must be SPD."""
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: q has {q.dim}, p has {p.dim}")
    d = q.dim
    chol_p = cholesky_or_raise(p.cov)
    chol_q = cholesky_or_raise(q.cov)
    # tr(Sigma_p^-1 Sigma_q) = ||L_p^-1 L_q||_F^2
    a = np.linalg.solve(chol_p, chol_q)
    trace = float((a * a).sum())
    diff = p.mean - q.mean
    y = np.linalg.solve(chol_p, diff)
    maha = float(y @ y)
    logdet_p = 2.0 * float(np.log(np.diag(chol_p)).sum())
    logdet_q = 2.0 * float(np.log(np.diag(chol_q)).sum())
    return 0.5 * (trace + maha - d + logdet_p - logdet_q)


def condition_exact(j: BlockedGaussian, z_h) -> Gaussian:
    """Distribution of the second block given an observed first block."""
    z_h = np.asarray(z_h, dtype=np.float64).reshape(-1)
    if z_h.shape[0] != j.d_z:
        raise ValueError(f"conditioning point dim {z_h.shape[0]} != {j.d_z}")
    try:
        sol = np.linalg.solve(j.s_hh, np.hstack([(z_h - j.mu_h)[:, None], j.s_hr]))
    except np.linalg.LinAlgError:
        raise NumericalError("conditioning block is singular") from None
    mean = j.mu_r + j.s_rh @ sol[:, 0]
    cov = j.s_rr - j.s_rh @ sol[:, 1:]
    return Gaussian(mean, 0.5 * (cov + cov.T))


def sample(g: Gaussian, count: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``count`` samples as mean + L @ eps (deterministic per rng state)."""
    chol = cholesky_or_raise(g.cov)
    eps = rng.standard_normal((count, g.dim))
    return g.mean + eps @ chol.T
