import dataclasses

import numpy as np
import pytest

from flowfilter import filters, gain
from flowfilter.ensemble import density_from_function
from flowfilter.errors import DimensionError, FilterAborted, ModelMismatch
from flowfilter.filters import FilterKind, run_filter, step
from flowfilter.gain import CoefficientSet, continuous_gain, solve_1d_integral
from flowfilter.models import SystemModel, make_linear_gaussian
from flowfilter.paths import TimeGrid, simulate_observations, simulate_truth
from flowfilter.rng import CounterStream


def _tanh_model():
    return SystemModel(dim=1, drift=lambda x: -x,
                       obs=lambda x: np.tanh(x[:, 0]),
                       obs_grad=lambda x: (1 / np.cosh(x[:, 0]) ** 2)[:, None],
                       drift_lipschitz=1.0, obs_sup=1.0, obs_sq_sup=1.0)


def _lg_model():
    return make_linear_gaussian([[-0.5]], [1.0])


def _make_path(model, grid, seed=5, x0=1.0):
    dv = CounterStream(seed, label=1).increments(
        np.empty((grid.n_fine, 1, model.dim)), grid.fine_dt)
    dw = CounterStream(seed + 1, label=2).increments(
        np.empty((grid.n_fine, 1, 1)), grid.fine_dt)
    states = simulate_truth(model, grid, [x0], dv[:, 0])
    return simulate_observations(model, states, grid, dw[:, 0, 0])


def test_delta_fpf_frozen_hand_step(monkeypatch):
    # x=1, K=2, h(x)=x with hbar frozen at 0, psi=0, drift=0, dV=0,
    # slope=3, dt=0.1: x' = 1 + 2*(0.3 - 0.05) = 1.5
    model = SystemModel(dim=1, drift=lambda x: np.zeros_like(x),
                        obs=lambda x: x[:, 0],
                        obs_grad=lambda x: np.ones_like(x))
    x = np.array([[1.0]])
    coeffs = CoefficientSet(a=np.array([[-0.5 * 2.0 * 1.0]]),
                            K=np.array([[2.0]]), diagnostics={})
    coeffs2 = CoefficientSet(a=np.tile(coeffs.a, (2, 1)),
                             K=np.tile(coeffs.K, (2, 1)), diagnostics={})
    monkeypatch.setitem(gain.ASSEMBLERS["delta_fpf"], "exact_gaussian",
                        lambda x, model: coeffs2)
    out, _ = step(FilterKind("delta_fpf"), "exact_gaussian", model,
                  np.vstack([x, x]), 3.0, 0.1, np.zeros((2, 1)))
    assert out[0, 0] == pytest.approx(1.5, abs=1e-15)


def test_enkbf_frozen_hand_step(monkeypatch):
    # x=1, xbar=0, P=2, A=0, H=1, slope=3, dt=0.1 -> 1 + 2(0.3 - 0.05) = 1.5
    model = make_linear_gaussian([[0.0]], [1.0])
    coeffs = CoefficientSet(a=np.array([[-0.5 * 2 * 1.0], [0.5 * 2 * 1.0]]),
                            K=np.array([[2.0], [2.0]]), diagnostics={})
    monkeypatch.setitem(gain.ASSEMBLERS["enkbf"], "exact_gaussian",
                        lambda x, model: coeffs)
    out, _ = step(FilterKind("enkbf"), "exact_gaussian", model,
                  np.array([[1.0], [-1.0]]), 3.0, 0.1, np.zeros((2, 1)))
    assert out[0, 0] == pytest.approx(1.5, abs=1e-15)


def test_enkbf_rejects_nonlinear_model():
    with pytest.raises(ModelMismatch):
        step(FilterKind("enkbf"), "exact_gaussian", _tanh_model(),
             np.array([[0.0], [1.0]]), 0.0, 0.1, np.zeros((2, 1)))


def test_delta_fpf_step_equals_enkbf_step_exact_gain():
    rng = np.random.default_rng(0)
    model = _lg_model()
    cloud = 1.0 + rng.standard_normal((500, 1))
    dv = 0.03 * rng.standard_normal((500, 1))
    s1, _ = step(FilterKind("delta_fpf"), "exact_gaussian", model, cloud,
                 0.7, 0.001, dv)
    s2, _ = step(FilterKind("enkbf"), "exact_gaussian", model, cloud,
                 0.7, 0.001, dv)
    assert np.max(np.abs(s1 - s2)) <= 1e-14


def test_zero_observation_function_is_pure_prediction():
    model = make_linear_gaussian([[-0.5]], [0.0])
    cloud = np.array([[1.0], [2.0]])
    dv = np.array([[0.01], [-0.02]])
    out, _ = step(FilterKind("delta_fpf"), "exact_gaussian", model, cloud,
                  5.0, 0.1, dv)
    expected = cloud + (-0.5 * cloud) * 0.1 + dv
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_equivalence_web_1d_trajectories():
    model = _tanh_model()
    grid = TimeGrid(0.0, 0.3, 0.001, 0.01)
    path = _make_path(model, grid, seed=11, x0=0.4)
    cloud = CounterStream(7, label=0).normals(0, (300, 1))

    runs = {}
    for kind in [FilterKind("delta_fpf"), FilterKind("crisan_xiong"),
                 FilterKind("delta_reich", "rho_identity"),
                 FilterKind("delta_reich", "identity")]:
        runs[kind.label()] = run_filter(kind, model, path, cloud, grid,
                                        "integral_1d", seed=7)
    base = runs["crisan_xiong"].means
    assert np.max(np.abs(runs["delta_reich(rho_identity)"].means - base)) == 0.0
    assert np.max(np.abs(runs["delta_fpf"].means - base)) <= 1e-12
    assert np.max(np.abs(runs["delta_reich(identity)"].means - base)) <= 1e-12


def test_continuous_filters_agree_in_1d():
    model = _tanh_model()
    grid = TimeGrid(0.0, 0.2, 0.001, 0.01)
    path = _make_path(model, grid, seed=13, x0=0.0)
    cloud = CounterStream(9, label=0).normals(0, (250, 1))
    r1 = run_filter(FilterKind("fpf_continuous"), model, path, cloud, grid,
                    "integral_1d", seed=9)
    r2 = run_filter(FilterKind("crisan_continuous"), model, path, cloud, grid,
                    "integral_1d", seed=9)
    assert np.max(np.abs(r1.means - r2.means)) <= 1e-12


def test_all_filters_equal_enkbf_linear_gaussian_exact_gain():
    model = _lg_model()
    grid = TimeGrid(0.0, 0.2, 0.001, 0.01)
    path = _make_path(model, grid, seed=15)
    cloud = 1.0 + np.sqrt(0.5) * CounterStream(3, label=0).normals(0, (400, 1))
    base = run_filter(FilterKind("enkbf"), model, path, cloud, grid,
                      "exact_gaussian", seed=3)
    for kind in [FilterKind("delta_fpf"), FilterKind("crisan_xiong"),
                 FilterKind("delta_reich", "cov_inverse")]:
        r = run_filter(kind, model, path, cloud, grid, "exact_gaussian", seed=3)
        assert np.max(np.abs(r.means - base.means)) <= 1e-12


def test_filter_kind_takes_the_tags_only():
    # a label of ASSEMBLERS is no tag: delta_reich(identity) ran as a kind
    with pytest.raises(ValueError) as err:
        FilterKind("delta_reich(identity)")
    listed = str(err.value).split("known:")[1]
    assert listed.strip() == str(["crisan_continuous", "crisan_xiong", "delta_fpf",
                                  "delta_reich", "enkbf", "fpf_continuous"])
    assert FilterKind("delta_reich", "identity").label() == "delta_reich(identity)"
    # a mass matrix is delta_reich's, which needs one of its three
    for tag, mass in [("delta_reich", None), ("delta_reich", "nosuch"),
                      ("enkbf", "identity")]:
        with pytest.raises(ValueError, match=r"\['cov_inverse', 'identity', "
                           r"'rho_identity'\]"):
            FilterKind(tag, mass)


def test_crisan_continuous_rejects_d2():
    model = make_linear_gaussian(np.eye(2) * -0.5, [1.0, 0.0])
    cloud = np.zeros((5, 2)) + np.random.default_rng(0).standard_normal((5, 2))
    with pytest.raises(DimensionError):
        step(FilterKind("crisan_continuous"), "exact_gaussian", model, cloud,
             1.0, 0.01, np.zeros((5, 2)))


def test_crisan_alpha_drift_oracle_at_zero_slope():
    # rho = N(0,1) table, h = x^2, slope = 0: the Crisan & Xiong update
    # moves x by dt (1/rho) grad alpha, the crisan_alpha field; at x = 0
    # the cumulative integral vanishes
    model = SystemModel(dim=1, drift=lambda x: np.zeros_like(x),
                        obs=lambda x: x[:, 0] ** 2,
                        obs_grad=lambda x: 2 * x)
    dens = density_from_function(
        lambda x: np.exp(-x**2 / 2) / np.sqrt(2 * np.pi), half_width=10.0)
    cloud = np.array([[0.0], [1.0], [-1.0], [0.5]])
    a = solve_1d_integral(dens, model, "crisan_alpha", particles=cloud)
    moved = 0.1 * a.at_particles[:, 0]
    # drift at 0 is 0, so the particle at 0 stays
    assert abs(moved[0]) <= 1e-6
    # at x=1: alpha'(1)/rho(1) = -2 (antiderivative of (y^4-3)rho is
    # -(y^3+3y)rho, so alpha'(1) = -2 rho(1))
    assert moved[1] == pytest.approx(0.1 * (-2.0), abs=1e-4)


def test_ito_correction_constant_gain_vanishes():
    model = _lg_model()
    rng = np.random.default_rng(1)
    ens = 1.0 + rng.standard_normal((300, 1))
    K, ito, _ = continuous_gain(ens, model, "exact_gaussian")
    assert np.all(ito == 0.0)


def test_ito_correction_linear_gain_is_half_x():
    # N(0,1) grid density with h = x^2 has K(x) = x, so (grad K)^T K / 2 = x/2
    model = SystemModel(dim=1, drift=lambda x: np.zeros_like(x),
                        obs=lambda x: x[:, 0] ** 2,
                        obs_grad=lambda x: 2 * x)
    dens = density_from_function(
        lambda x: np.exp(-x**2 / 2) / np.sqrt(2 * np.pi), half_width=10.0)
    pts = np.linspace(-2, 2, 41)
    K = solve_1d_integral(dens, model, "fpf_phi").gain_grid
    # the Ito drift of the continuous-time integral row, on the grid
    ito = 0.5 * np.interp(pts, dens.grid, np.gradient(K, dens.dx) * K)
    np.testing.assert_allclose(ito, 0.5 * pts, atol=1e-4)


def test_ito_correction_analytic_vs_finite_difference():
    # central differences of the K-field against the analytic derivative
    model = SystemModel(dim=1, drift=lambda x: np.zeros_like(x),
                        obs=lambda x: x[:, 0] ** 2,
                        obs_grad=lambda x: 2 * x)
    dens = density_from_function(
        lambda x: np.exp(-x**2 / 2) / np.sqrt(2 * np.pi), half_width=10.0)
    fld = solve_1d_integral(dens, model, "fpf_phi")
    bulk = np.abs(dens.grid) <= 3.0
    dK = np.gradient(fld.gain_grid, dens.dx)
    analytic = np.ones_like(dens.grid)          # K = x so K' = 1
    rel = np.abs(dK[bulk] - analytic[bulk]) / np.abs(analytic[bulk])
    assert np.max(rel) <= 1e-4


def test_run_filter_zero_horizon_returns_initial_moments():
    model = _lg_model()
    grid = TimeGrid(0.0, 0.0, 0.001, 0.01)
    path = _make_path(model, grid, seed=17)
    cloud = np.array([[0.5], [1.5], [1.0]])
    run = run_filter(FilterKind("enkbf"), model, path, cloud, grid,
                     "exact_gaussian", seed=1)
    assert run.means.shape == (1, 1)
    assert run.means[0, 0] == pytest.approx(1.0, abs=1e-15)


def test_run_filter_seed_determinism_bitwise():
    model = _lg_model()
    grid = TimeGrid(0.0, 0.1, 0.001, 0.01)
    path = _make_path(model, grid, seed=19)
    cloud = 1.0 + CounterStream(5, label=0).normals(0, (100, 1))
    r1 = run_filter(FilterKind("enkbf"), model, path, cloud, grid,
                    "exact_gaussian", seed=5)
    r2 = run_filter(FilterKind("enkbf"), model, path, cloud, grid,
                    "exact_gaussian", seed=5)
    assert np.array_equal(r1.means, r2.means)
    assert np.array_equal(r1.covs, r2.covs)


@pytest.mark.parametrize("kind", ["delta_fpf", "fpf_continuous"])
def test_diverging_drift_aborts_without_a_warning(kind):
    # a cloud of one point far out under dx = 1e4 x dt: the constant gain
    # stays 0 while the drift overflows, which numpy reported as a warning
    # (overflow in matmul) before the run's NonFiniteState
    grid = TimeGrid(0.0, 0.1, 0.001, 0.01)
    path = _make_path(_lg_model(), grid, seed=19)
    model = make_linear_gaussian([[1e4]], [1.0])
    with pytest.raises(FilterAborted) as err:
        run_filter(FilterKind(kind), model, path, np.full((8, 1), 1e300),
                   grid, "constant", seed=5)
    assert err.value.step == 5


def test_mean_update_consistency_richardson():
    # EnKBF with dV = 0: (xbar' - xbar)/dt equals A xbar + P H (slope - H xbar)
    # exactly (the update is linear in dt); Richardson extrapolation of the
    # two-step estimate reproduces it to rounding
    model = _lg_model()
    rng = np.random.default_rng(23)
    cloud = 1.0 + rng.standard_normal((400, 1))
    slope = 0.8
    P = np.var(cloud, ddof=1)
    xb = cloud.mean()
    target = -0.5 * xb + P * (slope - xb)

    def mean_rate(dt):
        out, _ = step(FilterKind("enkbf"), "exact_gaussian", model, cloud,
                      slope, dt, np.zeros((400, 1)))
        return (out.mean() - xb) / dt

    d1, d2 = mean_rate(0.01), mean_rate(0.005)
    richardson = 2 * d2 - d1
    assert richardson == pytest.approx(target, abs=1e-10)
    assert d1 == pytest.approx(target, abs=1e-10)


def test_particle_count_constant_no_resampling():
    model = _tanh_model()
    grid = TimeGrid(0.0, 0.1, 0.001, 0.01)
    path = _make_path(model, grid, seed=29, x0=0.0)
    cloud = CounterStream(2, label=0).normals(0, (123, 1))
    run = run_filter(FilterKind("delta_fpf"), model, path, cloud, grid,
                     "integral_1d", seed=2)
    assert run.final_particles.shape[0] == 123


def test_degenerate_density_reported_not_fatal():
    # a dense core of 80 particles and 20 outliers scattered over [-50, 50]^2:
    # the outliers, but not the core, sit where the KDE is below the floor
    rng = np.random.default_rng(37)
    core = rng.standard_normal((80, 2)) * 0.1
    outliers = rng.uniform(-50.0, 50.0, (20, 2))
    cloud = np.vstack([core, outliers])
    model = make_linear_gaussian(np.zeros((2, 2)), [1.0, 0.0])
    out, diags = step(FilterKind("crisan_xiong"), "fundamental_mc", model,
                      cloud, 0.1, 0.001, np.zeros((100, 2)), eps_floor=1e-4)
    assert 0.10 < diags["floor_frac"] < 1.0
    assert diags["degenerate_density"] == diags["floor_frac"]
    assert out.shape[0] == 100           # step still taken


@pytest.mark.parametrize("floor_frac, flagged", [(0.10 + 1e-9, True),
                                                 (0.10, False),
                                                 (0.10 - 1e-9, False)])
def test_degenerate_density_flagged_above_a_tenth(monkeypatch, floor_frac,
                                                  flagged):
    # the row reports its floor fraction; step alone draws the line at 0.10
    x = np.zeros((4, 1))
    monkeypatch.setattr(filters, "assemble_filter_coefficients",
                        lambda *args, **opts: CoefficientSet(
                            np.zeros((4, 1)), np.zeros((1, 1)),
                            {"floor_frac": floor_frac}))
    _, diags = step(FilterKind("crisan_xiong"), "integral_1d", _tanh_model(),
                    x, 0.0, 0.001, x)
    assert ("degenerate_density" in diags) is flagged


def test_healthy_1d_cloud_not_flagged_degenerate():
    # the 1D route reports the density mass below the floor, so the wide
    # N(0, 1) tails of a healthy cloud's grid do not count
    model = _tanh_model()
    grid = TimeGrid(0.0, 0.02, 0.001, 0.01)
    path = _make_path(model, grid, seed=43, x0=0.0)
    cloud = CounterStream(8, label=0).normals(0, (10_000, 1))
    run = run_filter(FilterKind("crisan_xiong"), model, path, cloud, grid,
                     "integral_1d", seed=8)
    assert len(run.step_log) == 20
    assert not any("degenerate_density" in e for e in run.step_log)


_CACHED_DRIFT = np.linspace(-0.3, 0.4, 300).reshape(-1, 1)


@pytest.mark.parametrize("drift", [lambda x: x, lambda x: _CACHED_DRIFT],
                         ids=["argument", "cached"])
@pytest.mark.parametrize("kind, method", [("delta_fpf", "integral_1d"),
                                          ("delta_fpf", "galerkin"),
                                          ("delta_fpf", "exact_gaussian"),
                                          ("fpf_continuous", "integral_1d")])
def test_step_writes_into_no_model_array_nor_the_cloud(drift, kind, method):
    # step builds the update in place: a drift that hands back its argument
    # or an array it keeps is not written into, and the new cloud is the
    # bytes of the update written as one expression
    model = dataclasses.replace(make_linear_gaussian([[0.0]], [1.0]), drift=drift)
    x = CounterStream(3, label=0).normals(0, (300, 1))
    dv = 0.03 * CounterStream(4, label=0).normals(0, (300, 1))
    x0, cached0 = x.copy(), _CACHED_DRIFT.copy()
    c = gain.ASSEMBLERS[kind][method](x, model)
    expected = x + model.drift(x) * 0.001 + dv + (c.a + c.K * 0.7) * 0.001
    new, _ = step(FilterKind(kind), method, model, x, 0.7, 0.001, dv)
    assert new.tobytes() == expected.tobytes()
    assert x.tobytes() == x0.tobytes()
    assert _CACHED_DRIFT.tobytes() == cached0.tobytes()


def test_rng_streams_advance_once_per_particle_per_step():
    s = CounterStream(1, label=1)
    a = s.normals(0, (5, 2))
    b = s.normals(0, (5, 2))
    assert np.array_equal(a, b)          # same step, same draws
    c = s.normals(1, (5, 2))
    assert not np.allclose(a, c)         # next step, fresh block


def test_run_filter_abort_carries_partial_trajectory():
    from flowfilter.errors import FilterAborted, NonFiniteState

    # explosive drift x^3 blows up mid-run from a wide cloud
    model = SystemModel(dim=1, drift=lambda x: x**3,
                        obs=lambda x: x[:, 0],
                        obs_grad=lambda x: np.ones_like(x))
    grid = TimeGrid(0.0, 2.0, 0.02, 0.1)
    path = _make_path(_lg_model(), grid, seed=41)
    cloud = np.array([[8.0], [9.0], [10.0]])
    with pytest.raises(FilterAborted) as err, \
            np.errstate(over="ignore", invalid="ignore"):
        run_filter(FilterKind("delta_fpf"), model, path, cloud, grid,
                   "constant", seed=11)
    assert isinstance(err.value.cause, NonFiniteState)
    partial = err.value.partial
    assert partial is not None
    assert 1 <= partial.means.shape[0] < grid.n_mesh + 1
    assert np.all(np.isfinite(partial.means))
