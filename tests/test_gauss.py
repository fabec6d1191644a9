import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comotion.errors import NumericalError
from comotion.gauss import (
    EIGEN,
    FLAT,
    LINEAR,
    BlockedGaussian,
    Gaussian,
    condition_exact,
    kl_divergence,
    log_pdf,
    regularize_spd,
    sample,
)


def random_spd(rng, d, scale=1.0):
    a = rng.standard_normal((d, d))
    return scale * (a @ a.T) + 0.5 * np.eye(d)


def test_log_pdf_standard_normal_at_mode():
    g = Gaussian(np.zeros(2), np.eye(2))
    assert log_pdf(g, [0.0, 0.0]) == pytest.approx(-math.log(2 * math.pi), abs=1e-12)


def test_log_pdf_scaling_identity():
    wide = Gaussian(np.zeros(1), 4.0 * np.eye(1))
    unit = Gaussian(np.zeros(1), np.eye(1))
    assert log_pdf(wide, [2.0]) == pytest.approx(log_pdf(unit, [1.0]) - math.log(2.0), abs=1e-12)


def test_log_pdf_matches_dense_inverse_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        cov = random_spd(rng, 3)
        mean = rng.standard_normal(3)
        x = rng.standard_normal(3)
        g = Gaussian(mean, cov)
        diff = x - mean
        expected = -0.5 * (
            diff @ np.linalg.inv(cov) @ diff
            + math.log(np.linalg.det(cov))
            + 3 * math.log(2 * math.pi)
        )
        assert log_pdf(g, x) == pytest.approx(expected, abs=1e-10)


def test_log_pdf_rejects_non_spd():
    g = Gaussian(np.zeros(2), np.array([[1.0, 0.0], [0.0, -1.0]]))
    with pytest.raises(NumericalError, match="positive definite"):
        log_pdf(g, [0.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_log_pdf_rejects_non_finite_point(bad):
    g = Gaussian(np.zeros(3), np.eye(3))
    with pytest.raises(ValueError, match="infs or NaNs"):
        log_pdf(g, np.array([0.0, bad, 0.0]))


def test_log_pdf_integrates_to_one_1d():
    g = Gaussian(np.array([0.3]), np.array([[0.7]]))
    sigma = math.sqrt(0.7)
    xs = np.linspace(0.3 - 8 * sigma, 0.3 + 8 * sigma, 5001)
    dens = np.exp([log_pdf(g, [x]) for x in xs])
    integral = np.trapezoid(dens, xs)
    cdf_mass = math.erf(8 / math.sqrt(2))  # mass inside the grid bounds
    assert integral == pytest.approx(cdf_mass, abs=1e-6)
    assert integral == pytest.approx(1.0, abs=1e-6)


def test_kl_identical_is_zero():
    g = Gaussian(np.zeros(5), np.eye(5))
    assert abs(kl_divergence(g, g)) < 1e-12


def test_kl_unit_mean_shift():
    q = Gaussian(np.ones(1), np.eye(1))
    p = Gaussian(np.zeros(1), np.eye(1))
    assert kl_divergence(q, p) == pytest.approx(0.5, abs=1e-12)


def test_kl_matches_monte_carlo_oracle():
    rng = np.random.default_rng(7)
    d = 5
    q = Gaussian(rng.standard_normal(d), np.diag(rng.uniform(0.5, 2.0, d)))
    p = Gaussian(rng.standard_normal(d), random_spd(rng, d))
    n = 1_000_000
    xs = sample(q, n, np.random.default_rng(1))
    diff_q = xs - q.mean
    var_q = np.diag(q.cov)
    log_q = -0.5 * (
        (diff_q**2 / var_q).sum(axis=1) + np.log(var_q).sum() + d * math.log(2 * math.pi)
    )
    chol_p = np.linalg.cholesky(p.cov)
    y = np.linalg.solve(chol_p, (xs - p.mean).T)
    log_p = -0.5 * (
        (y**2).sum(axis=0) + 2 * np.log(np.diag(chol_p)).sum() + d * math.log(2 * math.pi)
    )
    vals = log_q - log_p
    mc = vals.mean()
    se = vals.std() / math.sqrt(n)
    assert abs(kl_divergence(q, p) - mc) < 3 * se


def test_kl_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        kl_divergence(Gaussian(np.zeros(2), np.eye(2)), Gaussian(np.zeros(3), np.eye(3)))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6))
def test_kl_self_zero_property(seed, d):
    rng = np.random.default_rng(seed)
    g = Gaussian(rng.standard_normal(d), random_spd(rng, d))
    assert abs(kl_divergence(g, g)) < 1e-12


def blocked(rng, d_z, d_r=None):
    d_r = d_z if d_r is None else d_r
    d = d_z + d_r
    return BlockedGaussian(Gaussian(rng.standard_normal(d), random_spd(rng, d)), d_z)


def test_condition_independent_blocks_returns_marginal():
    rng = np.random.default_rng(3)
    cov = np.zeros((4, 4))
    cov[:2, :2] = random_spd(rng, 2)
    cov[2:, 2:] = random_spd(rng, 2)
    j = BlockedGaussian(Gaussian(rng.standard_normal(4), cov), 2)
    for z in (np.zeros(2), rng.standard_normal(2)):
        g = condition_exact(j, z)
        np.testing.assert_allclose(g.mean, j.mu_r, atol=1e-12)
        np.testing.assert_allclose(g.cov, j.s_rr, atol=1e-12)


def test_condition_at_marginal_mean():
    rng = np.random.default_rng(4)
    j = blocked(rng, 3)
    g = condition_exact(j, j.mu_h)
    np.testing.assert_allclose(g.mean, j.mu_r, atol=1e-12)


def test_condition_matches_dense_solve_oracle():
    rng = np.random.default_rng(5)
    for _ in range(20):
        j = blocked(rng, 2)
        z = rng.standard_normal(2)
        inv = np.linalg.inv(j.s_hh)
        mean = j.mu_r + j.s_rh @ inv @ (z - j.mu_h)
        cov = j.s_rr - j.s_rh @ inv @ j.s_hr
        g = condition_exact(j, z)
        np.testing.assert_allclose(g.mean, mean, atol=1e-10)
        np.testing.assert_allclose(g.cov, cov, atol=1e-10)


def test_regularize_flat_on_identity():
    out = regularize_spd(np.eye(3), FLAT)
    np.testing.assert_allclose(np.diag(out), [1.0001, 1.0001, 1.0001], rtol=0)


def test_regularize_linear_diagonal_values():
    out = regularize_spd(np.zeros((5, 5)), LINEAR)
    np.testing.assert_allclose(
        np.diag(out), [9.1e-5, 9.325e-5, 9.55e-5, 9.775e-5, 1e-4], rtol=0, atol=1e-18
    )


def test_regularize_eigen_repairs_rank_deficient():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 2))
    gram = a @ a.T  # rank 2
    out = regularize_spd(gram, EIGEN)
    assert np.linalg.eigvalsh(out)[0] > 0
    np.linalg.cholesky(out)


def test_regularize_eigen_idempotent_once_spd():
    rng = np.random.default_rng(8)
    m = random_spd(rng, 4)
    once = regularize_spd(m, EIGEN)
    twice = regularize_spd(once, EIGEN)
    np.testing.assert_array_equal(once, twice)


def test_regularize_rejects_non_finite():
    m = np.full((2, 2), np.nan)
    with pytest.raises(NumericalError, match="finite"):
        regularize_spd(m)


def test_sample_degenerate_spread():
    mu = np.array([1.0, -2.0])
    g = Gaussian(mu, 1e-12 * np.eye(2))
    xs = sample(g, 100, np.random.default_rng(0))
    assert np.abs(xs - mu).max() < 1e-5


def test_sample_law_of_large_numbers():
    g = Gaussian(np.zeros(2), np.eye(2))
    xs = sample(g, 100_000, np.random.default_rng(2))
    assert np.abs(xs.mean(axis=0)).max() < 0.02


def test_sample_deterministic_per_seed():
    g = Gaussian(np.zeros(3), np.diag([1.0, 2.0, 0.5]))
    a = sample(g, 50, np.random.default_rng(42))
    b = sample(g, 50, np.random.default_rng(42))
    np.testing.assert_array_equal(a, b)


def test_gaussian_json_round_trip():
    rng = np.random.default_rng(9)
    g = Gaussian(rng.standard_normal(3), random_spd(rng, 3))
    g2 = Gaussian.from_dict(g.to_dict())
    np.testing.assert_array_equal(g.mean, g2.mean)
    np.testing.assert_array_equal(g.cov, g2.cov)
