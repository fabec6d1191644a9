"""Dense Gaussian algebra: log-density and SPD repair.

Moments pass between modules as plain (mean, cov) arrays. ``Gaussian``
carries the one stored distribution that is not part of a model's
parameter arrays, the contact gate's transition-state density, and
``log_pdf`` evaluates it. ``regularize_spd`` repairs fitted covariances.
All density arithmetic goes through Cholesky factors and stays in log
space; ``Gaussian``, like ``Hmm``, keeps its ``inverse_factors``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

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


def inverse_factors(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only inverse lower Cholesky factors L^-1 of ``covs`` (..., d, d) and
    log-normalizers -0.5 (log det + d log 2 pi); NumericalError unless SPD."""
    chol_invs = np.linalg.inv(cholesky_or_raise(covs))
    logdet = -2.0 * np.log(np.diagonal(chol_invs, axis1=-2, axis2=-1)).sum(axis=-1)
    return read_only(chol_invs), read_only(-0.5 * (logdet + covs.shape[-1] * _LOG_2PI))


def read_only(a) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Gaussian:
    """Immutable Gaussian with mean and full covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = read_only(np.asarray(self.mean).reshape(-1))
        cov = read_only(_as_matrix(self.cov))
        if cov.shape[0] != mean.shape[0]:
            raise ValueError(
                f"mean dim {mean.shape[0]} does not match cov dim {cov.shape[0]}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @cached_property
    def factors(self) -> tuple[np.ndarray, np.ndarray]:
        """``inverse_factors`` of the covariance, computed on first use."""
        return inverse_factors(self.cov)

    def to_dict(self) -> dict:
        return {"mean": self.mean.tolist(), "cov": self.cov.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "Gaussian":
        return cls(np.asarray(d["mean"]), np.asarray(d["cov"]))


FLAT_EPS = 1e-4  # the flat repair adds this to every diagonal entry first
EIGEN_C = 1e-2  # each spectral bump adds this share of |lambda_min|
MAX_BUMPS = 50


def regularize_spd(m: np.ndarray, *, flat: bool = True) -> np.ndarray:
    """Symmetrize ``m`` and lift its spectrum until Cholesky succeeds.

    ``flat`` first adds ``FLAT_EPS`` to the diagonal; then, while Cholesky
    fails, ``EIGEN_C * |lambda_min|`` is added to it.
    """
    m = _as_matrix(m)
    if not np.all(np.isfinite(m)):
        raise NumericalError("matrix has non-finite entries")
    d = m.shape[0]
    out = 0.5 * (m + m.T)
    if flat:
        out = out + FLAT_EPS * np.eye(d)
    # spectral repair loop; a floor handles exactly singular inputs where
    # |lambda_min| vanishes, escalating if one bump is not enough
    floor = 1e-10 * max(1.0, float(np.abs(np.diag(out)).max()))
    for _ in range(MAX_BUMPS):
        try:
            np.linalg.cholesky(out)
            return out
        except np.linalg.LinAlgError:
            lam_min = np.linalg.eigvalsh(out)[0]
            bump = max(EIGEN_C * abs(lam_min), floor)
            out = out + bump * np.eye(d)
            floor *= 4.0
    raise NumericalError("matrix could not be regularized to positive definite")


def log_pdf(g: Gaussian, x) -> float:
    """log N(x; mean, cov) via the Gaussian's cached inverse Cholesky factor."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    if x.shape[0] != g.dim:
        raise ValueError(f"point dim {x.shape[0]} != Gaussian dim {g.dim}")
    return float(chol_logpdf(x[None, :], g.mean, *g.factors)[0])
