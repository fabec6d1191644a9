import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comotion.errors import NumericalError
from comotion.gauss import Gaussian, log_pdf, regularize_spd


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


def kl_divergence(q: Gaussian, p: Gaussian) -> float:
    """KL(q || p) in closed form; both covariances must be SPD."""
    if q.dim != p.dim:
        raise ValueError(f"dimension mismatch: q has {q.dim}, p has {p.dim}")
    chol_p = np.linalg.cholesky(p.cov)
    chol_q = np.linalg.cholesky(q.cov)
    # tr(Sigma_p^-1 Sigma_q) = ||L_p^-1 L_q||_F^2
    a = np.linalg.solve(chol_p, chol_q)
    y = np.linalg.solve(chol_p, p.mean - q.mean)
    logdet_p = 2.0 * float(np.log(np.diag(chol_p)).sum())
    logdet_q = 2.0 * float(np.log(np.diag(chol_q)).sum())
    return 0.5 * (float((a * a).sum()) + float(y @ y) - q.dim + logdet_p - logdet_q)


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
    var_q = np.diag(q.cov)
    xs = q.mean + np.random.default_rng(1).standard_normal((n, d)) * np.sqrt(var_q)
    diff_q = xs - q.mean
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


def test_regularize_flat_on_identity():
    out = regularize_spd(np.eye(3))
    np.testing.assert_allclose(np.diag(out), [1.0001, 1.0001, 1.0001], rtol=0)


def test_regularize_eigen_repairs_rank_deficient():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((5, 2))
    gram = a @ a.T  # rank 2
    out = regularize_spd(gram, flat=False)
    assert np.linalg.eigvalsh(out)[0] > 0
    np.linalg.cholesky(out)


def test_regularize_eigen_idempotent_once_spd():
    rng = np.random.default_rng(8)
    m = random_spd(rng, 4)
    once = regularize_spd(m, flat=False)
    twice = regularize_spd(once, flat=False)
    np.testing.assert_array_equal(once, twice)


def test_regularize_rejects_non_finite():
    m = np.full((2, 2), np.nan)
    with pytest.raises(NumericalError, match="finite"):
        regularize_spd(m)


def test_gaussian_json_round_trip():
    rng = np.random.default_rng(9)
    g = Gaussian(rng.standard_normal(3), random_spd(rng, 3))
    g2 = Gaussian.from_dict(g.to_dict())
    np.testing.assert_array_equal(g.mean, g2.mean)
    np.testing.assert_array_equal(g.cov, g2.cov)


def test_gaussian_is_read_only_and_keeps_its_factor():
    mean, cov = np.zeros(2), np.array([[2.0, 0.3], [0.3, 1.0]])
    g = Gaussian(mean, cov)
    first = log_pdf(g, [0.4, -0.2])
    cov[0, 0] = 9.0  # the Gaussian holds its own copy
    assert log_pdf(g, [0.4, -0.2]) == first
    for array in (g.mean, g.cov, *g.factors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
