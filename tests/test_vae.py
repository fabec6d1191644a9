import tracemalloc

import numpy as np
import pytest

from comotion import vae
from comotion.errors import ConfigError, DataError, NumericalError
from comotion.gauss import Gaussian
from comotion.hmm import Hmm, conditional_moments
from comotion.net import AdamState, adam_step, mlp_backward, mlp_forward
from comotion.train import TrainConfig
from comotion.vae import (
    Vae,
    Variant,
    _agent_elbo,
    _kl_terms,
    _recon_stream,
    _sampling_chol,
    conditional_latents,
    conditional_precompute,
    decode,
    encode_batch,
    hhi_loss,
    hri_loss,
)

from test_gauss import kl_divergence
from test_infer import count_factorizations
from test_net import grad_check


def make_hmm(rng, n_states, d_z, spread=1.0):
    dim = 2 * d_z
    means = spread * rng.standard_normal((n_states, dim))
    covs = np.stack(
        [np.eye(dim) + 0.3 * np.outer(a, a) for a in rng.standard_normal((n_states, dim))]
    )
    return Hmm(
        rng.dirichlet(np.ones(n_states)),
        rng.dirichlet(np.ones(n_states), size=n_states),
        means,
        covs,
        d_z,
    )


def one_state_hmm(means, covs, d_z):
    """A one-state model over the (1, 2 d_z) ``means`` and (1, 2 d_z, 2 d_z) ``covs``."""
    return Hmm(np.ones(1), np.ones((1, 1)), means, covs, d_z)


def unit_prior(d_z):
    """Standard normal marginals for both blocks."""
    return one_state_hmm(np.zeros((1, 2 * d_z)), np.eye(2 * d_z)[None], d_z)


def zero_vae(input_dim, d_z, hidden=(6,)):
    rng = np.random.default_rng(0)
    v = Vae.create(input_dim, d_z, hidden, rng)
    for w in v.encoder.weights + v.decoder.weights:
        w[:] = 0.0
    return v


# ---------------------------------------------------------------------------
# encode / decode
# ---------------------------------------------------------------------------


def test_encode_zero_network_is_standard_normal():
    v = zero_vae(4, 2)
    mu, var, _, _ = encode_batch(v, np.ones((1, 4)))
    np.testing.assert_array_equal(mu, np.zeros((1, 2)))
    np.testing.assert_array_equal(var, np.ones((1, 2)))


def test_encode_variance_strictly_positive():
    rng = np.random.default_rng(1)
    v = Vae.create(6, 3, (8,), rng)
    _, var, _, _ = encode_batch(v, 10.0 * rng.standard_normal((20, 6)))
    assert np.all(var > 0)


def test_encode_identity_weights_reproduce_input():
    d = 3
    v = zero_vae(d, d, hidden=())
    v.encoder.weights[0][:d, :d] = np.eye(d)
    rng = np.random.default_rng(2)
    x = rng.standard_normal((1, d))
    mu, _, _, _ = encode_batch(v, x)
    np.testing.assert_allclose(mu, x, atol=1e-9)


def test_encode_shape_check():
    v = zero_vae(4, 2)
    with pytest.raises(DataError, match="width"):
        encode_batch(v, np.zeros((1, 5)))


def test_decode_zero_network():
    v = zero_vae(4, 2)
    np.testing.assert_array_equal(decode(v, np.ones(2)), np.zeros(4))


def test_decode_deterministic():
    rng = np.random.default_rng(3)
    v = Vae.create(5, 2, (7,), rng)
    z = rng.standard_normal(2)
    np.testing.assert_array_equal(decode(v, z), decode(v, z))


def test_trained_toy_model_beats_untrained():
    """A short optimization run must reduce round-trip error >= 10x."""
    rng = np.random.default_rng(4)
    d_z, D = 2, 6
    basis = rng.standard_normal((d_z, D))
    xs = rng.standard_normal((40, d_z)) @ basis
    v = Vae.create(D, d_z, (16,), rng)
    base = float(np.mean((decode(v, encode_batch(v, xs)[0]) - xs) ** 2))
    opt = AdamState.for_params(v.params, lr=5e-3)
    prior = unit_prior(d_z)
    idx = np.zeros(xs.shape[0], dtype=np.intp)
    for step in range(400):
        eps = rng.standard_normal((xs.shape[0], 3, d_z))
        _, grads_h, grads_r, _ = hhi_loss(v, v, xs, xs, prior, idx, 0.0, eps, eps)
        adam_step(v.params, [a + b for a, b in zip(grads_h, grads_r)], opt)
    trained = float(np.mean((decode(v, encode_batch(v, xs)[0]) - xs) ** 2))
    assert trained * 10 < base


# ---------------------------------------------------------------------------
# two-agent objective
# ---------------------------------------------------------------------------


def near_perfect_autoencoder(d):
    """Identity encoder/decoder with collapsed posterior variance."""
    v = zero_vae(d, d, hidden=())
    v.encoder.weights[0][:d, :d] = np.eye(d)
    v.encoder.biases[0][d:] = -40.0  # variance exp(-40), clamped to 1e-8
    v.decoder.weights[0][:, :] = np.eye(d)
    return v


def test_elbo_hhi_zero_beta_perfect_autoencoder():
    d = 3
    v = near_perfect_autoencoder(d)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((1, d))
    prior = unit_prior(d)
    eps = np.random.default_rng(0).standard_normal((1, 10, d))
    idx = np.zeros(1, dtype=np.intp)
    loss, _, _, _ = hhi_loss(v, v, x, x, prior, idx, 0.0, eps, eps)
    assert abs(loss) < 1e-6


def test_elbo_hhi_default_mc_samples_is_ten():
    """Both objectives draw ten Monte Carlo samples per window unless the
    training config says otherwise."""
    assert TrainConfig().mc_samples == 10


def test_elbo_hhi_gradients_pass_check():
    rng = np.random.default_rng(6)
    d_z, Dh, Dr = 2, 5, 4
    vh = Vae.create(Dh, d_z, (6,), rng)
    vr = Vae.create(Dr, d_z, (6,), rng)
    x_h = rng.standard_normal((1, Dh))
    x_r = rng.standard_normal((1, Dr))
    means = np.hstack([rng.standard_normal((1, d_z)), rng.standard_normal((1, d_z))])
    prior = one_state_hmm(means, np.diag([0.8] * d_z + [1.3] * d_z)[None], d_z)
    idx = np.zeros(1, dtype=np.intp)
    eps_h = rng.standard_normal((1, 4, d_z))
    eps_r = rng.standard_normal((1, 4, d_z))

    def loss(params):
        value, gh, gr, _ = hhi_loss(vh, vr, x_h, x_r, prior, idx, 5e-3, eps_h, eps_r)
        return value, gh + gr

    assert grad_check(loss, vh.params + vr.params) < 1e-4


def test_hhi_weight_sharing_same_object():
    rng = np.random.default_rng(7)
    d = 4
    v = Vae.create(d, 2, (6,), rng)
    x = rng.standard_normal((3, d))
    prior = unit_prior(2)
    idx = np.zeros(3, dtype=np.intp)
    eps = rng.standard_normal((3, 2, 2))
    _, gh, gr, _ = hhi_loss(v, v, x, x, prior, idx, 1e-2, eps, eps)
    for a, b in zip(gh, gr):
        np.testing.assert_allclose(a, b, atol=1e-12)  # same inputs, same object


# ---------------------------------------------------------------------------
# reactive-training objective
# ---------------------------------------------------------------------------


@pytest.fixture
def hri_setup():
    rng = np.random.default_rng(8)
    d_z, Dr, N, B, k = 2, 4, 3, 3, 4
    vr = Vae.create(Dr, d_z, (6,), rng)
    hm = make_hmm(rng, N, d_z)
    x_r = rng.standard_normal((B, Dr))
    mu_h = rng.standard_normal((B, d_z))
    var_h = rng.uniform(0.2, 1.0, (B, d_z))
    alphas = rng.dirichlet(np.ones(N), size=B)
    idx = np.array([0, 1, 2])
    eps = {
        "r": rng.standard_normal((B, k, d_z)),
        "post": rng.standard_normal((B, k, d_z)),
        "cond": rng.standard_normal((B, k, d_z)),
    }
    return vr, hm, x_r, mu_h, var_h, alphas, idx, eps


def v3_or_v2_latents(hm, mu_h, var_h, alphas, variant, eps):
    """``conditional_latents`` fed the draw its family perturbs: the posterior
    noise for v2, the conditional noise and the precompute for v3."""
    pre = conditional_precompute(hm, mu_h, var_h, alphas, variant)
    noise = eps["post"] if variant.from_samples else eps["cond"]
    return conditional_latents(hm, mu_h, var_h, alphas, variant, noise, pre)


def test_hri_v1_equals_independent_recomputation(hri_setup):
    vr, hm, x_r, mu_h, var_h, alphas, idx, eps = hri_setup
    beta = 5e-3
    loss, _, parts = hri_loss(vr, x_r, hm, idx, beta, eps["r"], None)
    # independent recomputation: decode reparameterized samples, plain MSE + KL
    mu, var, _, _ = encode_batch(vr, x_r)
    means_r, covs_r = hm.block_params("r")
    recon = 0.0
    kl = 0.0
    B, k, d_z = eps["r"].shape
    for b in range(B):
        for s in range(k):
            z = mu[b] + np.sqrt(var[b]) * eps["r"][b, s]
            recon += float(np.mean((decode(vr, z) - x_r[b]) ** 2))
        q = Gaussian(mu[b], np.diag(var[b]))
        p = Gaussian(means_r[idx[b]], covs_r[idx[b]])
        kl += kl_divergence(q, p)
    expected = recon / (B * k) + beta * kl / B
    assert loss == pytest.approx(expected, abs=1e-10)
    assert parts["cond"] == 0.0


def test_hri_all_variants_pass_grad_check(hri_setup):
    vr, hm, x_r, mu_h, var_h, alphas, idx, eps = hri_setup
    for tag in ("v1", "v2.1", "v2.2", "v3.1", "v3.2"):
        variant = Variant(tag)
        cond_z = v3_or_v2_latents(hm, mu_h, var_h, alphas, variant, eps)

        def loss(params, cond_z=cond_z):
            value, grads, _ = hri_loss(vr, x_r, hm, idx, 5e-3, eps["r"], cond_z)
            return value, grads

        assert grad_check(loss, vr.params) < 1e-4, tag


def test_hri_conditional_term_nonnegative(hri_setup):
    vr, hm, x_r, mu_h, var_h, alphas, idx, eps = hri_setup
    for tag in ("v2.1", "v2.2", "v3.1", "v3.2"):
        cond_z = v3_or_v2_latents(hm, mu_h, var_h, alphas, Variant(tag), eps)
        _, _, parts = hri_loss(vr, x_r, hm, idx, 5e-3, eps["r"], cond_z)
        assert parts["cond"] >= 0.0


def test_v32_converges_to_v31_as_posterior_cov_vanishes(hri_setup):
    vr, hm, x_r, mu_h, var_h, alphas, idx, eps = hri_setup
    tiny = np.full_like(var_h, 1e-8)
    z31 = v3_or_v2_latents(hm, mu_h, tiny, alphas, Variant("v3.1"), eps)
    z32 = v3_or_v2_latents(hm, mu_h, tiny, alphas, Variant("v3.2"), eps)
    _, _, p31 = hri_loss(vr, x_r, hm, idx, 5e-3, eps["r"], z31)
    _, _, p32 = hri_loss(vr, x_r, hm, idx, 5e-3, eps["r"], z32)
    assert p32["cond"] == pytest.approx(p31["cond"], abs=1e-5)


def test_v2_conditions_samples_v3_conditions_mean(hri_setup):
    vr, hm, x_r, mu_h, var_h, alphas, idx, eps = hri_setup
    z2 = conditional_latents(hm, mu_h, var_h, alphas, Variant("v2.1"), eps["post"], None)
    z3 = v3_or_v2_latents(hm, mu_h, var_h, alphas, Variant("v3.1"), eps)
    # v2 latents vary with the posterior noise draw, v3 with the conditional draw
    assert z2.shape == z3.shape
    zero_post = np.zeros_like(eps["post"])
    z2_mean = conditional_latents(hm, mu_h, var_h, alphas, Variant("v2.1"), zero_post, None)
    assert np.all(np.var(z2_mean, axis=1) < 1e-20)  # collapsed without sampling noise
    assert np.any(np.var(z2, axis=1) > 1e-6)


@pytest.mark.parametrize("tag", ["v3.1", "v3.2"])
def test_v3_latents_are_precomputed_means_plus_chol_eps(hri_setup, tag):
    vr, hm, x_r, mu_h, var_h, alphas, idx, eps = hri_setup
    variant = Variant(tag)
    means, chol = conditional_precompute(hm, mu_h, var_h, alphas, variant)
    z = conditional_latents(hm, mu_h, var_h, alphas, variant, eps["cond"], (means, chol))
    post_var = var_h if variant.uses_cov else None
    want_means, covs = conditional_moments(hm, mu_h, post_var, alphas)
    np.testing.assert_array_equal(means, want_means)
    np.testing.assert_array_equal(chol, _sampling_chol(covs))
    B, k, _ = eps["cond"].shape
    for b in range(B):
        for s in range(k):
            want = means[b] + chol[b] @ eps["cond"][b, s]
            np.testing.assert_allclose(z[b, s], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("tag", ["v2.1", "v2.2"])
def test_v2_latents_are_conditional_moments_means_of_the_samples(hri_setup, tag):
    vr, hm, x_r, mu_h, var_h, alphas, idx, eps = hri_setup
    variant = Variant(tag)
    z = conditional_latents(hm, mu_h, var_h, alphas, variant, eps["post"], None)
    B, k, d_z = eps["post"].shape
    samples = (mu_h[:, None, :] + np.sqrt(var_h)[:, None, :] * eps["post"]).reshape(B * k, d_z)
    post_var = np.repeat(var_h, k, axis=0) if variant.uses_cov else None
    want, _ = conditional_moments(hm, samples, post_var, np.repeat(alphas, k, axis=0))
    np.testing.assert_allclose(z, want.reshape(B, k, -1), rtol=0, atol=1e-12)


def test_variant_tags_and_flags():
    assert not Variant("v1").conditional
    assert Variant("v2.1").from_samples and not Variant("v2.1").uses_cov
    assert Variant("v2.2").from_samples and Variant("v2.2").uses_cov
    assert not Variant("v3.1").from_samples and not Variant("v3.1").uses_cov
    assert Variant("v3.2").uses_cov
    with pytest.raises(ConfigError, match="variant"):
        Variant("v4")


def precision_kl_terms(mu, var, means, covs, idx):
    """``_kl_terms`` through explicit precision matrices P = cov^-1, with the
    log det from a Cholesky factor of its own: the oracle for the arithmetic
    on the model's inverse factors."""
    d = mu.shape[1]
    chols = np.linalg.cholesky(covs)
    logdets = 2.0 * np.log(np.diagonal(chols, axis1=1, axis2=2)).sum(axis=1)
    P = np.linalg.inv(covs)[idx]
    diagP = np.diagonal(P, axis1=1, axis2=2)
    diff = means[idx] - mu
    quad = np.einsum("bi,bij,bj->b", diff, P, diff)
    kl = 0.5 * ((diagP * var).sum(axis=1) + quad - d + logdets[idx] - np.log(var).sum(axis=1))
    dmu = -np.einsum("bij,bj->bi", P, diff)
    dvar = 0.5 * (diagP - 1.0 / var)
    return kl, dmu, dvar


@pytest.mark.parametrize("rotated, rtol", [(False, 1e-12), (True, 1e8 * np.finfo(float).eps)],
                         ids=["graded", "rotated"])
def test_kl_terms_match_the_precision_matrix_oracle(rotated, rtol):
    """KL, dmu and dvar against both blocks of four random SPD priors agree
    with the oracle, each to ``rtol`` of its largest entry. State 0's blocks
    have condition number ~1e8. Graded, by standard deviations from 1e-2 to
    1e2 over a random correlation, as a latent dimension whose variance
    collapses makes them, both arithmetics keep 1e-12. Rotated, by a random
    orthogonal basis, each is only good to cond * eps of the exact value,
    and so of each other."""
    rng = np.random.default_rng(17)
    d_z, N, B = 3, 4, 40
    hm = make_hmm(rng, N, d_z)
    covs = hm.covs.copy()
    for lo in (0, d_z):
        if rotated:
            basis, _ = np.linalg.qr(rng.standard_normal((d_z, d_z)))
            block = (basis * np.logspace(-4, 4, d_z)) @ basis.T
        else:
            a = 0.3 * rng.standard_normal((d_z, d_z))
            c = np.eye(d_z) + a @ a.T
            sd = np.logspace(-2, 2, d_z) / np.sqrt(np.diag(c))
            block = c * np.outer(sd, sd)
        covs[0, lo:lo + d_z, :] = covs[0, :, lo:lo + d_z] = 0.0
        covs[0, lo:lo + d_z, lo:lo + d_z] = 0.5 * (block + block.T)
    hm = Hmm(hm.pi, hm.trans, hm.means, covs, d_z)
    idx = np.arange(B) % N
    for block in ("h", "r"):
        mu = rng.standard_normal((B, d_z))
        var = rng.uniform(0.1, 2.0, (B, d_z))
        means, block_covs = hm.block_params(block)
        assert 0.5e8 < np.linalg.cond(block_covs[0]) < 2e8
        got = _kl_terms(mu, var, hm, block, idx)
        want = precision_kl_terms(mu, var, means, block_covs, idx)
        for g, w in zip(got, want, strict=True):
            np.testing.assert_allclose(g, w, rtol=0, atol=rtol * np.abs(w).max())


def test_hri_loss_rejects_non_spd_prior():
    """An r block that is not positive definite is a NumericalError."""
    rng = np.random.default_rng(18)
    covs = np.stack([np.eye(4), np.diag([1.0, 1.0, 1.0, -1.0])])
    hm = Hmm(np.full(2, 0.5), np.full((2, 2), 0.5), np.zeros((2, 4)), covs, 2)
    vr = Vae.create(3, 2, (4,), rng)
    x_r = rng.standard_normal((2, 3))
    with pytest.raises(NumericalError, match="positive definite"):
        hri_loss(vr, x_r, hm, np.array([0, 1]), 5e-3, rng.standard_normal((2, 2, 2)), None)


def test_objectives_factor_nothing_once_the_model_has_its_factors(monkeypatch):
    """Both objectives read the model's kept factors: once the first call has
    factored the h and r blocks, neither objective calls np.linalg.cholesky
    or np.linalg.inv again."""
    rng = np.random.default_rng(19)
    d_z, N, B, k = 2, 4, 5, 3
    hm = make_hmm(rng, N, d_z)
    vh, vr = Vae.create(5, d_z, (6,), rng), Vae.create(4, d_z, (6,), rng)
    x_h, x_r = rng.standard_normal((B, 5)), rng.standard_normal((B, 4))
    idx = rng.integers(0, N, B)
    eps_h, eps_r = rng.standard_normal((B, k, d_z)), rng.standard_normal((B, k, d_z))
    calls = count_factorizations(monkeypatch)
    hhi_loss(vh, vr, x_h, x_r, hm, idx, 5e-3, eps_h, eps_r)
    assert calls == {"cholesky": 2, "inv": 2}  # the h block's and the r block's
    hhi_loss(vh, vr, x_h, x_r, hm, idx, 5e-3, eps_h, eps_r)
    hri_loss(vr, x_r, hm, idx, 5e-3, eps_r, None)
    hri_loss(vr, x_r, hm, idx, 5e-3, eps_r, rng.standard_normal((B, k, d_z)))
    assert calls == {"cholesky": 2, "inv": 2}


def test_sampling_chol_graded_bump_values():
    chol = _sampling_chol(np.zeros((1, 5, 5)))[0]
    np.testing.assert_allclose(
        np.diag(chol @ chol.T), [9.1e-5, 9.325e-5, 9.55e-5, 9.775e-5, 1e-4], rtol=0, atol=1e-18
    )


def test_vae_json_round_trip():
    rng = np.random.default_rng(9)
    v = Vae.create(6, 2, (5, 4), rng)
    v.fit_feature_stats(rng.standard_normal((10, 6)))
    v2 = Vae.from_dict(v.to_dict())
    for a, b in zip(v.params, v2.params):
        np.testing.assert_array_equal(a, b)
    assert (v2.d_z, v2.input_dim) == (2, 6)
    np.testing.assert_array_equal(v2.x_mean, v.x_mean)
    np.testing.assert_array_equal(v2.x_std, v.x_std)


def stats_vae(rng, input_dim=5, d_z=2):
    v = Vae.create(input_dim, d_z, (6,), rng)
    v.fit_feature_stats(3.0 + rng.standard_normal((30, input_dim)) * rng.uniform(0.1, 4.0, input_dim))
    return v


def plain_twin(v):
    return Vae(v.encoder, v.decoder, v.d_z, v.input_dim)


def test_feature_stats_standardize_encoder_input_and_decoder_output():
    rng = np.random.default_rng(10)
    v = stats_vae(rng)
    plain = plain_twin(v)
    x = rng.standard_normal((4, 5))
    mu, var, _, _ = encode_batch(v, x)
    mu0, var0, _, _ = encode_batch(plain, (x - v.x_mean) / v.x_std)
    np.testing.assert_array_equal(mu, mu0)
    np.testing.assert_array_equal(var, var0)
    z = rng.standard_normal((4, 2))
    np.testing.assert_allclose(decode(v, z), decode(plain, z) * v.x_std + v.x_mean, atol=1e-12)


def test_feature_stats_constant_feature_is_only_centered():
    v = Vae.create(3, 1, (), np.random.default_rng(11))
    x = np.array([[1.0, 2.0, 7.0], [3.0, 2.0, 7.0], [5.0, 2.0, 7.0]])
    v.fit_feature_stats(x)
    np.testing.assert_array_equal(v.x_mean, [3.0, 2.0, 7.0])
    np.testing.assert_allclose(v.x_std, [np.sqrt(8.0 / 3.0), 1.0, 1.0])
    np.testing.assert_allclose(v.standardize(x).std(axis=0), [1.0, 0.0, 0.0])


def test_objectives_score_reconstruction_in_standardized_units():
    """With statistics, both objectives equal the unstandardized network's
    objectives on pre-standardized windows, value and gradients."""
    rng = np.random.default_rng(12)
    d_z, B, k = 2, 3, 4
    vh, vr = stats_vae(rng, 5, d_z), stats_vae(rng, 4, d_z)
    x_h = 3.0 + 2.0 * rng.standard_normal((B, 5))
    x_r = 3.0 + 2.0 * rng.standard_normal((B, 4))
    prior = unit_prior(d_z)
    idx = np.zeros(B, dtype=np.intp)
    eps_h = rng.standard_normal((B, k, d_z))
    eps_r = rng.standard_normal((B, k, d_z))
    got = hhi_loss(vh, vr, x_h, x_r, prior, idx, 0.1, eps_h, eps_r)
    want = hhi_loss(
        plain_twin(vh), plain_twin(vr), vh.standardize(x_h), vr.standardize(x_r),
        prior, idx, 0.1, eps_h, eps_r,
    )
    assert got[0] == pytest.approx(want[0], rel=1e-12)
    for a, b in zip(got[1] + got[2], want[1] + want[2]):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)
    cond_z = rng.standard_normal((B, k, d_z))
    loss, grads, parts = hri_loss(vr, x_r, prior, idx, 0.1, eps_r, cond_z)
    loss0, grads0, parts0 = hri_loss(
        plain_twin(vr), vr.standardize(x_r), prior, idx, 0.1, eps_r, cond_z
    )
    assert parts["cond"] == pytest.approx(parts0["cond"], rel=1e-12)
    assert loss == pytest.approx(loss0, rel=1e-12)
    for a, b in zip(grads, grads0):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)


# ---------------------------------------------------------------------------
# reconstruction stream
# ---------------------------------------------------------------------------


def repeated_targets_stream(v, z, x_std, scale):
    """Oracle: the stream scored against explicit per-sample targets,
    ``np.repeat`` of the (B, D) targets to (B*k, D), in fresh arrays."""
    B, k = z.shape[0], z.shape[1]
    xhat, tape = mlp_forward(v.decoder, z.reshape(B * k, v.d_z))
    err = xhat - np.repeat(x_std, k, axis=0)
    loss = scale * float((err * err).sum()) / v.input_dim
    grads, dz = mlp_backward(v.decoder, tape, (2.0 * scale / v.input_dim) * err)
    return loss, grads, dz


@pytest.mark.parametrize("width", [90, 20])
def test_recon_stream_matches_repeated_targets(width):
    """Same gradients bit for bit; the loss sums in another order."""
    rng = np.random.default_rng(13)
    B, k, d_z = 66, 10, 5
    v = Vae.create(width, d_z, (40, 20), rng)
    x_std = rng.standard_normal((B, width))
    z = rng.standard_normal((B, k, d_z))
    scale = 0.7 / (B * k)
    loss, grads, dz = _recon_stream(v, z, x_std, scale)
    want_loss, want_grads, want_dz = repeated_targets_stream(v, z, x_std, scale)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for a, b in zip(grads, want_grads, strict=True):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(dz, want_dz)


def test_agent_elbo_allocates_one_decoder_output():
    """One agent term on the benchmark's stage-one batch (66 windows, 90
    wide, k = 10) peaks below four (B*k, D) arrays; scored against
    ``np.repeat`` targets it peaked at 3.1 MB. Each output-sized temporary
    is freed memory that the C allocator can hand back to the OS and fault
    in again on the next trajectory."""
    rng = np.random.default_rng(14)
    B, k, d_z, D = 66, 10, 5, 90
    v = Vae.create(D, d_z, (40, 20), rng)
    x = 3.0 + rng.standard_normal((B, D))
    v.fit_feature_stats(x)
    args = (v, x, unit_prior(d_z), "h", np.zeros(B, dtype=np.intp), 5e-3,
            rng.standard_normal((B, k, d_z)))
    _agent_elbo(*args)
    tracemalloc.start()
    try:
        _agent_elbo(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * B * k * D * np.dtype(np.float64).itemsize


def test_recon_stream_scores_without_output_sized_temporaries(monkeypatch):
    """Between the decoder's forward and backward passes the error, its
    squared sum and the output gradient allocate less than half a (B*k, D)
    array: no repeated targets, no separate error or squared copy."""
    rng = np.random.default_rng(15)
    B, k, d_z, D = 66, 10, 5, 90
    v = Vae.create(D, d_z, (40, 20), rng)
    seen = {}

    def forward(m, x):
        out = mlp_forward(m, x)
        tracemalloc.reset_peak()
        seen["start"] = tracemalloc.get_traced_memory()[0]
        return out

    def backward(m, tape, out_grad):
        seen["peak"] = tracemalloc.get_traced_memory()[1]
        return mlp_backward(m, tape, out_grad)

    monkeypatch.setattr(vae, "mlp_forward", forward)
    monkeypatch.setattr(vae, "mlp_backward", backward)
    tracemalloc.start()
    try:
        _recon_stream(v, rng.standard_normal((B, k, d_z)), rng.standard_normal((B, D)), 1.0 / (B * k))
    finally:
        tracemalloc.stop()
    assert seen["peak"] - seen["start"] < B * k * D * np.dtype(np.float64).itemsize / 2
