import numpy as np
import pytest

from flowfilter.errors import OutOfRange
from flowfilter.models import SystemModel, make_linear_gaussian
from flowfilter.paths import (ObservationPath, TimeGrid, discrete_observation,
                              refine_increments, simulate_observations,
                              simulate_truth, smoothed_value, total_variation)
from flowfilter.rng import GaussianIncrements, InjectedIncrements, ZeroIncrements


def _const_model(hval=0.0):
    return SystemModel(dim=1, drift=lambda x: np.zeros_like(x),
                       obs=lambda x: np.full(x.shape[0], hval),
                       obs_grad=lambda x: np.zeros_like(x), obs_sup=abs(hval))


def test_time_grid_alignment_checks():
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, t_end=1.0, fine_dt=0.003, delta=0.01)
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, t_end=1.05, fine_dt=0.001, delta=0.1)
    g = TimeGrid(t0=0.0, t_end=1.0, fine_dt=0.001, delta=0.01)
    assert (g.n_fine, g.n_mesh, g.steps_per_mesh) == (1000, 100, 10)


def test_truth_no_dynamics_stays_constant():
    g = TimeGrid(0.0, 0.1, 0.01, 0.05)
    tr = simulate_truth(_const_model(), g, [3.0], ZeroIncrements(1))
    assert np.all(tr.states == 3.0)


def test_truth_euler_hand_recursion():
    m = SystemModel(dim=1, drift=lambda x: -x,
                    obs=lambda x: x[:, 0], obs_grad=lambda x: np.ones_like(x))
    g = TimeGrid(0.0, 0.1, 0.01, 0.01)
    tr = simulate_truth(m, g, [1.0], ZeroIncrements(1))
    assert tr.states[1, 0] == pytest.approx(0.99, abs=1e-15)
    assert tr.states[2, 0] == pytest.approx(0.9801, abs=1e-15)


def test_truth_increment_variance_monte_carlo():
    # Var of a one-step increment with live noise = fine_dt, to 3 MC sigmas
    g = TimeGrid(0.0, 1000.0, 0.01, 0.01)
    tr = simulate_truth(_const_model(), g, [0.0],
                        GaussianIncrements(13, 1, g.fine_dt))
    inc = np.diff(tr.states[:, 0])
    assert abs(np.var(inc) - g.fine_dt) <= 3 * g.fine_dt * np.sqrt(2.0 / inc.size)


def test_observations_zero_h_zero_noise():
    g = TimeGrid(0.0, 0.3, 0.01, 0.1)
    m = _const_model(0.0)
    tr = simulate_truth(m, g, [0.0], ZeroIncrements(1))
    path = simulate_observations(m, tr, g, ZeroIncrements(1))
    assert np.all(path.z == 0.0) and np.all(path.slopes == 0.0)


def test_observations_unit_h_unit_slopes():
    g = TimeGrid(0.0, 0.3, 0.01, 0.1)
    m = _const_model(1.0)
    tr = simulate_truth(m, g, [0.0], ZeroIncrements(1))
    path = simulate_observations(m, tr, g, ZeroIncrements(1))
    np.testing.assert_allclose(path.slopes, 1.0, rtol=1e-12)


def _two_knot_path():
    g = TimeGrid(0.0, 0.1, 0.01, 0.1)
    z = np.linspace(0.0, 0.5, g.n_fine + 1)
    knots = z[::g.steps_per_mesh].copy()
    return ObservationPath(grid=g, z=z, z_knots=knots,
                           slopes=np.diff(knots) / g.delta)


def test_slope_from_knots():
    path = _two_knot_path()
    assert path.slopes[0] == pytest.approx(5.0, rel=1e-15)
    assert discrete_observation(path, 0) == path.slopes[0]
    with pytest.raises(OutOfRange):
        discrete_observation(path, 1)
    with pytest.raises(OutOfRange):
        discrete_observation(path, -1)


def test_smoothed_value_endpoint_rounding_slack():
    # values within the 1e-12 tolerance just outside [t0, T] clamp to the
    # boundary intervals instead of wrapping around
    path = _two_knot_path()
    assert smoothed_value(path, -5e-13) == pytest.approx(0.0, abs=1e-11)
    assert smoothed_value(path, 0.1 + 5e-13) == 0.5


def test_smoothed_value_knot_midpoint_and_interior():
    path = _two_knot_path()
    assert smoothed_value(path, 0.0) == 0.0
    assert smoothed_value(path, 0.1) == 0.5
    assert smoothed_value(path, 0.05) == pytest.approx(0.25, abs=1e-15)
    assert smoothed_value(path, 0.025) == pytest.approx(0.125, abs=1e-15)
    with pytest.raises(OutOfRange):
        smoothed_value(path, 0.2)
    with pytest.raises(OutOfRange):
        smoothed_value(path, -0.01)


def _random_path(seed=5, t_end=1.0):
    g = TimeGrid(0.0, t_end, 0.001, 0.01)
    m = make_linear_gaussian([[-0.5]], [1.0])
    tr = simulate_truth(m, g, [1.0], GaussianIncrements(seed, 1, g.fine_dt, label=1))
    return simulate_observations(m, tr, g, GaussianIncrements(seed + 1, 1,
                                                              g.fine_dt, label=2)), tr


def test_slopes_are_exactly_knot_differences_over_delta():
    path, _ = _random_path()
    # representation consistency is bitwise; the arithmetic identity holds
    # at ulp scale (IEEE rounding of the divide/multiply round trip)
    assert np.array_equal(path.slopes, np.diff(path.z_knots) / path.grid.delta)
    np.testing.assert_allclose(path.slopes * path.grid.delta,
                               np.diff(path.z_knots), rtol=1e-13, atol=1e-16)


def test_reconstruction_at_mesh_points():
    path, _ = _random_path()
    times = path.grid.mesh_times()
    for n in range(path.grid.n_mesh + 1):
        assert smoothed_value(path, times[n]) == pytest.approx(
            path.z_knots[n], abs=1e-12)
    # left limit at t_{n+1}: offset small enough that slope * eps < 1e-12
    for n in range(path.grid.n_mesh):
        t = times[n + 1] - 1e-14
        assert smoothed_value(path, t) == pytest.approx(path.z_knots[n + 1],
                                                        abs=1e-12)


def test_total_variation_is_sum_of_increments():
    path, _ = _random_path()
    assert total_variation(path) == np.sum(np.abs(np.diff(path.z_knots)))


def test_seed_determinism_bitwise():
    p1, t1 = _random_path(seed=9)
    p2, t2 = _random_path(seed=9)
    assert np.array_equal(p1.z, p2.z)
    assert np.array_equal(t1.states, t2.states)


def test_refinement_consistency_bounded_h():
    # halving fine_dt with a Brownian-bridge refinement moves the knots only
    # through the drift integrand, bounded by |h|_inf * fine_dt * n_fine
    m = SystemModel(dim=1, drift=lambda x: -x,
                    obs=lambda x: np.tanh(x[:, 0]),
                    obs_grad=lambda x: (1 / np.cosh(x[:, 0]) ** 2)[:, None],
                    obs_sup=1.0)
    g = TimeGrid(0.0, 1.0, 0.01, 0.1)
    sig = GaussianIncrements(21, 1, g.fine_dt, label=1)
    obs = GaussianIncrements(22, 1, g.fine_dt, label=2)
    dv = np.array([sig.increments(k, 1)[0] for k in range(g.n_fine)])
    dw = np.array([obs.increments(k, 1)[0] for k in range(g.n_fine)])
    tr = simulate_truth(m, g, [0.5], InjectedIncrements(dv[:, None]))
    path = simulate_observations(m, tr, g, InjectedIncrements(dw[:, None]))

    rng = np.random.default_rng(77)
    g2 = TimeGrid(0.0, 1.0, 0.005, 0.1)
    dv2 = refine_increments(dv, g.fine_dt, rng.standard_normal(dv.shape))
    dw2 = refine_increments(dw, g.fine_dt, rng.standard_normal(dw.shape))
    tr2 = simulate_truth(m, g2, [0.5], InjectedIncrements(dv2[:, None]))
    path2 = simulate_observations(m, tr2, g2, InjectedIncrements(dw2[:, None]))

    np.testing.assert_allclose(dv2[0::2] + dv2[1::2], dv, atol=1e-12)
    bound = m.obs_sup * g.fine_dt * g.n_fine
    assert np.max(np.abs(path2.z_knots - path.z_knots)) <= bound

