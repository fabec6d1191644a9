"""Encoder/decoder pair and the three training objectives.

The encoder emits a diagonal Gaussian over the latent space; the decoder
mean is scored under a unit-variance likelihood, so reconstruction terms
are mean squared errors. A ``Vae`` may carry per-feature standardization
statistics (fitted by training on the fit split): ``encode_batch``
standardizes its input, ``decode`` returns raw units, and the objectives
score reconstruction in standardized units, so every feature weighs the
same whatever its raw scale. Without statistics both maps are the
identity. Two objectives are assembled here:

* the plain two-agent objective (reconstruction of both agents plus the
  per-timestep KL against the sequence model's marginal priors),
* the reactive-training objective, which adds a conditional reconstruction
  term whose flavor is selected by ``Variant``: the "v2" family conditions
  posterior samples and decodes the resulting means, the "v3" family
  conditions the posterior mean (optionally with its covariance) and
  decodes samples of the conditional distribution.

Both take the fitted ``Hmm`` as the prior: a window's KL term is scored
against one state's h- or r-block marginal from ``Hmm.factors``.

All gradients are assembled by hand on top of ``net.mlp_backward``; the
sampling noise is passed in explicitly so losses are deterministic given
the noise, which is what makes finite-difference gradient checks possible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from comotion.errors import ConfigError, DataError
from comotion.gauss import _LOG_2PI, regularize_spd
from comotion.hmm import Hmm, conditional_means, conditional_moments
from comotion.net import Mlp, mlp_backward, mlp_forward

VAR_MIN = 1e-8
VAR_MAX = 1e4
STD_MIN = 1e-8  # features whose spread is below this are only centered

VARIANT_TAGS = ("v1", "v2.1", "v2.2", "v3.1", "v3.2")


@dataclass(frozen=True)
class Variant:
    """Conditional-training flavor.

    v1 has no conditional term. v2.x condition posterior samples; v3.x
    condition the posterior mean. The ".2" members feed the posterior
    covariance into the conditioning gain, the ".1" members do not. An
    unknown tag is a ConfigError.
    """

    tag: str = "v1"

    def __post_init__(self):
        if self.tag not in VARIANT_TAGS:
            raise ConfigError(
                f"config field variant: unknown tag {self.tag!r}; expected one of {VARIANT_TAGS}"
            )

    @property
    def conditional(self) -> bool:
        return self.tag != "v1"

    @property
    def from_samples(self) -> bool:
        return self.tag.startswith("v2")

    @property
    def uses_cov(self) -> bool:
        return self.tag.endswith(".2")


@dataclass
class Vae:
    """Encoder (input -> 2*d_z: mean and log-variance) and decoder.

    ``x_mean``/``x_std`` (both (input_dim,) or both None) map raw features
    to the standardized units the networks work in.
    """

    encoder: Mlp
    decoder: Mlp
    d_z: int
    input_dim: int
    x_mean: np.ndarray | None = None
    x_std: np.ndarray | None = None

    @classmethod
    def create(
        cls,
        input_dim: int,
        d_z: int,
        hidden: tuple[int, ...],
        rng: np.random.Generator,
    ) -> "Vae":
        enc = Mlp.create([input_dim, *hidden, 2 * d_z], rng)
        dec = Mlp.create([d_z, *reversed(hidden), input_dim], rng)
        return cls(enc, dec, d_z, input_dim)

    @property
    def params(self) -> list[np.ndarray]:
        return self.encoder.params + self.decoder.params

    def fit_feature_stats(self, x: np.ndarray) -> None:
        """Standardize with the per-feature mean and std of a (B, input_dim)
        batch of raw windows."""
        std = x.std(axis=0)
        self.x_mean = x.mean(axis=0)
        self.x_std = np.where(std > STD_MIN, std, 1.0)

    def standardize(self, x: np.ndarray) -> np.ndarray:
        return x if self.x_mean is None else (x - self.x_mean) / self.x_std

    def unstandardize(self, x: np.ndarray) -> np.ndarray:
        return x if self.x_mean is None else x * self.x_std + self.x_mean

    def to_dict(self) -> dict:
        d = {
            "d_z": self.d_z,
            "input_dim": self.input_dim,
            "encoder": self.encoder.to_dict(),
            "decoder": self.decoder.to_dict(),
        }
        if self.x_mean is not None:
            d["x_mean"] = self.x_mean.tolist()
            d["x_std"] = self.x_std.tolist()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Vae":
        """Inverse of ``to_dict``; a dict without statistics loads unstandardized."""
        v = cls(
            Mlp.from_dict(d["encoder"]),
            Mlp.from_dict(d["decoder"]),
            int(d["d_z"]),
            int(d["input_dim"]),
        )
        widths = (v.encoder.in_dim, v.encoder.out_dim, v.decoder.in_dim, v.decoder.out_dim)
        if widths != (v.input_dim, 2 * v.d_z, v.d_z, v.input_dim):
            raise ValueError(f"layer widths {widths} disagree with input_dim and d_z")
        if "x_mean" in d:
            v.x_mean = np.asarray(d["x_mean"], dtype=np.float64)
            v.x_std = np.asarray(d["x_std"], dtype=np.float64)
            if v.x_mean.shape != (v.input_dim,) or v.x_std.shape != (v.input_dim,):
                raise ValueError("feature statistics do not have input_dim entries")
        return v


def encode_batch(v: Vae, x: np.ndarray):
    """(mu, var, dvar_dlogvar, tape) for a (B, input_dim) batch of raw windows;
    a batch of another width is a DataError naming both widths."""
    if x.shape[1:] != (v.input_dim,):
        raise DataError(f"windows of shape {x.shape}, not the model's input width {v.input_dim}")
    out, tape = mlp_forward(v.encoder, v.standardize(x))
    mu = out[..., : v.d_z]
    raw = np.exp(out[..., v.d_z :])
    var = np.clip(raw, VAR_MIN, VAR_MAX)
    dvar = np.where((raw > VAR_MIN) & (raw < VAR_MAX), raw, 0.0)
    return mu, var, dvar, tape


def decode(v: Vae, z) -> np.ndarray:
    """Deterministic decoder mean, in raw units, for a latent vector or
    (B, d_z) batch."""
    z = np.asarray(z, dtype=np.float64)
    out, _ = mlp_forward(v.decoder, z)
    return v.unstandardize(out)


def _kl_terms(mu, var, hmm: Hmm, block: str, idx):
    """Batched KL(diag posterior || states ``idx``'s ``block`` marginals) with
    its gradients (kl (B,), dmu (B, d), dvar (B, d)), from the kept factors:
    with M = L^-1 and y = M (mu_p - mu), the quadratic term is |y|^2, diag P
    the column sums of M*M and dmu = -M^T y."""
    d = mu.shape[1]
    chol_invs, log_norms = hmm.factors(block)
    M = chol_invs[idx]  # (B, d, d)
    y = np.einsum("bij,bj->bi", M, hmm.block_params(block)[0][idx] - mu)
    diagP = np.einsum("bij,bij->bj", M, M)
    with np.errstate(divide="ignore"):
        logdet_q = np.log(var).sum(axis=1)
    # the prior's log det is -2 log_norm - d log 2 pi
    trace_quad = (diagP * var + y * y).sum(axis=1)
    kl = 0.5 * (trace_quad - logdet_q - d * (1.0 + _LOG_2PI)) - log_norms[idx]
    dmu = -np.einsum("bji,bj->bi", M, y)
    dvar = 0.5 * (diagP - 1.0 / var)
    return kl, dmu, dvar


def _recon_stream(v: Vae, z: np.ndarray, x_std: np.ndarray, scale: float):
    """Decode a (B, k, d_z) latent batch and score it against the (B, D)
    standardized targets, broadcast over the k samples.

    The error, then the output gradient, live in the decoder's output
    buffer: one call allocates one (B*k, D) array. Returns (mse_sum_scaled,
    decoder grads, gradient w.r.t. z as (B*k, d_z)); mse is a mean over
    feature dims and ``scale`` folds in the outer averaging.
    """
    err, tape = mlp_forward(v.decoder, z.reshape(-1, v.d_z))
    samples = err.reshape(*z.shape[:2], v.input_dim)
    samples -= x_std[:, None, :]
    flat = err.ravel()
    loss = scale * float(flat @ flat) / v.input_dim
    err *= 2.0 * scale / v.input_dim
    grads, dz = mlp_backward(v.decoder, tape, err)
    return loss, grads, dz


def _add(acc: list[np.ndarray], new: list[np.ndarray]) -> None:
    for a, n in zip(acc, new):
        a += n


def _agent_elbo(
    v: Vae,
    x: np.ndarray,
    hmm: Hmm,
    block: str,
    idx: np.ndarray,
    beta: float,
    eps: np.ndarray,
):
    """Reconstruction + beta*KL, against ``hmm``'s ``block`` marginals at states
    ``idx``, for one agent over a (B, D) batch of raw windows; reconstruction
    is scored in standardized units.

    eps: (B, k, d_z) frozen reparameterization noise. Returns
    (recon, kl_mean, grads) with grads ordered like ``v.params``.
    """
    B, k = eps.shape[0], eps.shape[1]
    mu, var, dvar_dlv, enc_tape = encode_batch(v, x)
    sigma = np.sqrt(var)
    z = mu[:, None, :] + sigma[:, None, :] * eps  # (B, k, d_z)
    recon, dec_grads, dz_flat = _recon_stream(v, z, v.standardize(x), 1.0 / (B * k))
    dz = dz_flat.reshape(z.shape)
    dmu_recon = dz.sum(axis=1)
    dsigma = (dz * eps).sum(axis=1)
    dvar_recon = dsigma * (0.5 / sigma)
    kl, dmu_kl, dvar_kl = _kl_terms(mu, var, hmm, block, idx)
    kl_mean = float(kl.mean())
    dmu = dmu_recon + (beta / B) * dmu_kl
    dvar = dvar_recon + (beta / B) * dvar_kl
    enc_out_grad = np.concatenate([dmu, dvar * dvar_dlv], axis=1)
    enc_grads, _ = mlp_backward(v.encoder, enc_tape, enc_out_grad)
    return recon, kl_mean, enc_grads + dec_grads


def hhi_loss(
    v_h: Vae,
    v_r: Vae,
    x_h: np.ndarray,
    x_r: np.ndarray,
    hmm: Hmm,
    idx: np.ndarray,
    beta: float,
    eps_h: np.ndarray,
    eps_r: np.ndarray,
):
    """Two-agent objective on a batch of aligned timesteps, whose KL terms
    score each window against state ``idx`` of the fitted ``hmm``.

    Returns (loss, grads_h, grads_r, parts). When the two networks are the
    same object the caller is responsible for summing the gradient lists.
    """
    recon_h, kl_h, grads_h = _agent_elbo(v_h, x_h, hmm, "h", idx, beta, eps_h)
    recon_r, kl_r, grads_r = _agent_elbo(v_r, x_r, hmm, "r", idx, beta, eps_r)
    loss = recon_h + recon_r + beta * (kl_h + kl_r)
    parts = {"recon_h": recon_h, "recon_r": recon_r, "kl": kl_h + kl_r, "cond": 0.0}
    return loss, grads_h, grads_r, parts


LINEAR_BUMP_LO = 9.1e-5
LINEAR_BUMP_HI = 1e-4


def _sampling_chol(covs: np.ndarray) -> np.ndarray:
    """Cholesky factors for sampling, with the graded diagonal bump.

    Adds increments linearly spaced from 9.1e-5 to 1e-4 along the diagonal
    before factorizing; falls back to iterative spectral repair per item.
    """
    d = covs.shape[-1]
    bump = np.linspace(LINEAR_BUMP_LO, LINEAR_BUMP_HI, d) if d > 1 else np.array([LINEAR_BUMP_HI])
    bumped = covs + np.diag(bump)
    try:
        return np.linalg.cholesky(bumped)
    except np.linalg.LinAlgError:
        out = np.empty_like(bumped)
        for b in range(bumped.shape[0]):
            out[b] = np.linalg.cholesky(regularize_spd(bumped[b], flat=False))
        return out


def conditional_precompute(
    hmm: Hmm,
    mu_h: np.ndarray,
    var_h: np.ndarray,
    alphas: np.ndarray,
    variant: Variant,
) -> tuple[np.ndarray, np.ndarray] | None:
    """The v3 family's conditional r distribution, which no noise draw
    changes: (means (B, d_z), sampling factors (B, d_z, d_z) with the graded
    diagonal bump) of ``conditional_moments``; None for v1/v2."""
    if not variant.conditional or variant.from_samples:
        return None
    post_var = var_h if variant.uses_cov else None
    means, covs = conditional_moments(hmm, mu_h, post_var, alphas)
    return means, _sampling_chol(covs)


def conditional_latents(
    hmm: Hmm,
    mu_h: np.ndarray,
    var_h: np.ndarray,
    alphas: np.ndarray,
    variant: Variant,
    eps: np.ndarray,
    pre: tuple[np.ndarray, np.ndarray] | None,
) -> np.ndarray | None:
    """Latent inputs for the conditional reconstruction term, (B, k, d_z).

    ``eps`` is one (B, k, d_z) standard-normal draw. v2.x perturbs the
    posterior with it and returns the conditional means of those samples;
    v3.x draws ``means + chol @ eps`` from ``pre``, the
    ``conditional_precompute`` of the same arguments (None for v1/v2).
    Everything is constant w.r.t. the trainable network, so callers
    backpropagate only through the decoder.
    """
    if not variant.conditional:
        return None
    if variant.from_samples:
        B, k = eps.shape[0], eps.shape[1]
        z_h = mu_h[:, None, :] + np.sqrt(var_h)[:, None, :] * eps
        flat = z_h.reshape(B * k, -1)
        var_rep = np.repeat(var_h, k, axis=0) if variant.uses_cov else None
        alpha_rep = np.repeat(alphas, k, axis=0)
        return conditional_means(hmm, flat, var_rep, alpha_rep).reshape(B, k, -1)
    means, chol = pre
    return means[:, None, :] + np.einsum("bij,bkj->bki", chol, eps)


def hri_loss(
    v_r: Vae,
    x_r: np.ndarray,
    hmm: Hmm,
    idx: np.ndarray,
    beta: float,
    eps_r: np.ndarray,
    cond_z: np.ndarray | None,
    cond_weight: float = 1.0,
):
    """Reactive-training objective for the generated agent.

    ``cond_z`` holds the (frozen) conditional latent inputs from
    ``conditional_latents``, or None for the variant without conditional
    training. Returns (loss, grads_r, parts).
    """
    B = x_r.shape[0]
    recon_r, kl_r, grads = _agent_elbo(v_r, x_r, hmm, "r", idx, beta, eps_r)
    cond = 0.0
    if cond_z is not None:
        k = cond_z.shape[1]
        cond, dec_grads, _ = _recon_stream(
            v_r, cond_z, v_r.standardize(x_r), cond_weight / (B * k)
        )
        offset = len(v_r.encoder.params)
        _add(grads[offset:], dec_grads)
    loss = recon_r + beta * kl_r + cond
    parts = {"recon_h": 0.0, "recon_r": recon_r, "kl": kl_r, "cond": cond}
    return loss, grads, parts
