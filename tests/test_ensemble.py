import numpy as np
import pytest

from flowfilter.ensemble import (compute_moments, density_from_function,
                                 kde_density_1d)
from flowfilter.errors import DegenerateCloud
from flowfilter.models import SystemModel, make_linear_gaussian


def _identity_model():
    return SystemModel(dim=1, drift=lambda x: np.zeros_like(x),
                       obs=lambda x: x[:, 0],
                       obs_grad=lambda x: np.ones_like(x))


def _square_model():
    return SystemModel(dim=1, drift=lambda x: np.zeros_like(x),
                       obs=lambda x: x[:, 0] ** 2,
                       obs_grad=lambda x: 2 * x)


def test_two_symmetric_points():
    m = compute_moments(np.array([[-1.0], [1.0]]), _identity_model())
    assert m.mean[0] == 0.0
    assert m.cov[0, 0] == 2.0          # (1 + 1) / (2 - 1)
    assert m.h_bar == 0.0


def test_degenerate_cloud_moments():
    m = compute_moments(np.array([[0.0], [0.0], [0.0]]), _identity_model())
    assert m.cov[0, 0] == 0.0
    assert m.h_bar == 0.0


def test_gaussian_moment_oracle():
    rng = np.random.default_rng(101)
    x = rng.standard_normal((100_000, 1))
    m = compute_moments(x, _square_model())
    assert abs(m.h_bar - 1.0) <= 0.02          # E x^2 = 1
    assert abs(m.h2_bar - 3.0) <= 0.1          # E x^4 = 3


def _gaussian_fit(x):
    m = compute_moments(x, make_linear_gaussian(np.zeros((x.shape[1],) * 2),
                                                np.ones(x.shape[1])))
    return m.mean, m.cov


def test_gaussian_fit_basics():
    mean, cov = _gaussian_fit(np.array([[-1.0], [1.0]]))
    assert mean[0] == 0.0 and cov[0, 0] == 2.0


def test_gaussian_fit_translation_equivariance():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((500, 2))
    m1, c1 = _gaussian_fit(x)
    m2, c2 = _gaussian_fit(x + np.array([3.0, -2.0]))
    np.testing.assert_allclose(m2 - m1, [3.0, -2.0], atol=1e-12)
    np.testing.assert_allclose(c2, c1, atol=1e-12)


def test_gaussian_fit_sampling_oracle():
    rng = np.random.default_rng(5)
    x = 3.0 + 0.5 * rng.standard_normal((10_000, 1))
    mean, cov = _gaussian_fit(x)
    assert abs(mean[0] - 3.0) <= 0.02
    assert abs(cov[0, 0] - 0.25) <= 0.02


def test_affine_equivariance():
    rng = np.random.default_rng(17)
    x = rng.standard_normal((400, 2))
    a = np.array([[2.0, 0.5], [0.0, -1.0]])
    b = np.array([1.0, -3.0])
    model = make_linear_gaussian(np.zeros((2, 2)), [1.0, 0.0])
    m1 = compute_moments(x, model)
    m2 = compute_moments(x @ a.T + b, model)
    np.testing.assert_allclose(m2.mean, a @ m1.mean + b, atol=1e-10)
    np.testing.assert_allclose(m2.cov, a @ m1.cov @ a.T, atol=1e-10)


def test_kde_degenerate_cloud():
    with pytest.raises(DegenerateCloud):
        kde_density_1d(np.array([[1.0], [1.0], [1.0]]))


def test_kde_consistency_against_normal_pdf():
    rng = np.random.default_rng(23)
    x = rng.standard_normal((100_000, 1))
    dens = kde_density_1d(x, grid_points=2001)
    truth = np.exp(-dens.grid**2 / 2) / np.sqrt(2 * np.pi)
    assert np.max(np.abs(dens.values - truth)) <= 0.02


def test_kde_two_particle_symmetry():
    dens = kde_density_1d(np.array([[-1.0], [1.0]]), bandwidth=1.0,
                          grid_points=801)
    np.testing.assert_allclose(dens.values, dens.values[::-1], atol=1e-12)


def test_kde_bandwidth_wider_than_grid():
    # bandwidth 0.5 on a sigma = 0.1 cloud: the 8-bandwidth kernel spans
    # more points than the 801-point grid
    x = 0.1 * np.random.default_rng(31).standard_normal((500, 1))
    dens = kde_density_1d(x, bandwidth=0.5)
    assert dens.values.shape == dens.grid.shape == (801,)
    assert abs(dens.mass() - 1.0) <= 1e-8


def test_kde_unit_mass_random_clouds():
    rng = np.random.default_rng(29)
    for _ in range(5):
        x = rng.normal(rng.uniform(-3, 3), rng.uniform(0.2, 2.0), size=(500, 1))
        dens = kde_density_1d(x)
        assert abs(dens.mass() - 1.0) <= 1e-8
        assert np.all(dens.values >= 0)


def test_density_from_function_moments():
    dens = density_from_function(
        lambda x: np.exp(-(x - 1.0) ** 2 / 2) / np.sqrt(2 * np.pi),
        half_width=10.0, center=1.0)
    assert dens.mean() == pytest.approx(1.0, abs=1e-9)
    assert dens.var() == pytest.approx(1.0, abs=1e-9)


def test_rbar_identity_constant_gain_linear_h():
    # weak form of the gain equation tested against h: mean(grad h . K)
    # equals the empirical variance of h exactly for linear h
    from flowfilter.gain import solve_constant_gain

    rng = np.random.default_rng(31)
    x = rng.standard_normal((2000, 1)) * 1.3
    model = make_linear_gaussian([[0.0]], [1.7])
    m = compute_moments(x, model)
    K = solve_constant_gain(m).at_particles
    lhs = np.mean(np.sum(model.obs_grad(x) * K, axis=1))
    rhs = m.h2_bar - m.h_bar**2
    assert abs(lhs - rhs) <= 1e-12


def test_moments_invariants_random_clouds():
    rng = np.random.default_rng(41)
    model = _square_model()
    for _ in range(10):
        n = rng.integers(3, 60)
        x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.1, 3.0),
                       size=(n, 1))
        m = compute_moments(x, model)
        assert np.min(np.linalg.eigvalsh(m.cov)) >= -1e-10
        assert m.h2_bar >= m.h_bar**2 - 1e-10
        np.testing.assert_allclose(m.cov, m.cov.T, atol=0)

