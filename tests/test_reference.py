import numpy as np
import pytest
from helpers import riccati_fixed_point

from flowfilter import _kernels
from flowfilter.ensemble import Density1D
from flowfilter.errors import CovarianceBlowup, NonFiniteState
from flowfilter.models import SystemModel, make_linear_gaussian
from flowfilter.paths import TimeGrid, simulate_observations, simulate_truth
from flowfilter.reference import cfl_bound, run_grid_kushner, run_kalman_bucy
from flowfilter.rng import CounterStream


def _path(model, grid, x0, truth_seed, obs_seed):
    """The truth and observation path driven by the increment streams
    (truth_seed, label 1) and (obs_seed, label 2)."""
    dv = CounterStream(truth_seed, label=1).increments(
        np.empty((grid.n_fine, 1, model.dim)), grid.fine_dt)
    dw = CounterStream(obs_seed, label=2).increments(
        np.empty((grid.n_fine, 1, 1)), grid.fine_dt)
    states = simulate_truth(model, grid, x0, dv[:, 0])
    return simulate_observations(model, states, grid, dw[:, 0, 0])


def _gauss_grid(var=1.0, mean=0.0, half=8.0, points=1601):
    g = np.linspace(-half, half, points)
    v = np.exp(-(g - mean) ** 2 / (2 * var)) / np.sqrt(2 * np.pi * var)
    return Density1D(grid=g, values=v)


def _excess_kurtosis(dens):
    m, v = dens.mean(), dens.var()
    m4 = float(np.trapezoid((dens.grid - m) ** 4 * dens.values, dens.grid))
    return m4 / v**2 - 3.0


def test_kalman_bucy_riccati_fixed_point():
    # A=0, H=1, P=1: dP/dt = 1 - 1 = 0
    _, covs = run_kalman_bucy([[0.0]], [1.0], [0.0], [[1.0]], np.zeros(100), 0.01)
    assert covs[-1, 0, 0] == pytest.approx(1.0, abs=1e-12)
    assert riccati_fixed_point(0.0, 1.0) == pytest.approx(1.0)


def test_kalman_bucy_pure_lyapunov_growth():
    _, covs = run_kalman_bucy([[0.0]], [0.0], [0.0], [[1.0]], np.zeros(1), 0.01)
    assert covs[1, 0, 0] == pytest.approx(1.01, abs=1e-15)


def test_kalman_bucy_zero_innovation_keeps_mean():
    h_m_dt = 1.0 * 0.7 * 0.01
    means, _ = run_kalman_bucy([[0.0]], [1.0], [0.7], [[2.0]],
                               np.array([h_m_dt]), 0.01)
    assert means[1, 0] == pytest.approx(0.7, abs=1e-15)


def test_kalman_bucy_covariance_blowup():
    with pytest.raises(CovarianceBlowup):
        run_kalman_bucy([[10.0]], [0.0], [0.0], [[1.0]], np.zeros(500), 0.01)


def test_grid_kushner_pure_heat_variance_growth():
    # drift 0, h = 0: one diffusion step grows the variance by dt
    dens = _gauss_grid(points=2001, half=10.0)
    model = make_linear_gaussian([[0.0]], [0.0])
    dt = cfl_bound(dens) * 0.9
    v0 = dens.var()
    steps = 200
    _, vars_, snapshots, _ = run_grid_kushner(dens, model, np.zeros(steps), dt,
                                              1, snapshot_slots=[steps])
    assert vars_[-1] - v0 == pytest.approx(steps * dt, abs=1e-4)
    final = snapshots[steps]
    assert np.trapezoid(final.values, final.grid) == pytest.approx(1.0, abs=1e-12)


def test_grid_kushner_non_finite_density_raises(recwarn):
    # h = 1e308 x overflows the Kushner update in the first mesh interval:
    # the density turns NaN, and the solver stops at that mesh point
    dens = _gauss_grid(points=201, half=6.0)
    model = SystemModel(dim=1, drift=lambda x: -x, obs=lambda x: 1e308 * x[:, 0],
                        obs_grad=lambda x: np.full_like(x, 1e308))
    with pytest.raises(NonFiniteState, match="grid Kushner") as err:
        run_grid_kushner(dens, model, np.zeros(5), 1e-3, 10)
    assert err.value.step == 10


def test_grid_kushner_is_its_loop_of_fine_steps_bitwise():
    # the solver is its loop of one kernel call per fine step, bitwise,
    # negative clips included (a box density under a drift past 1/dx clips)
    model = SystemModel(dim=1, drift=lambda x: 30.0 + 0.0 * x,
                        obs=lambda x: 3.0 * x[:, 0],
                        obs_grad=lambda x: np.full_like(x, 3.0))
    g = np.linspace(-2.0, 2.0, 41)
    dens = Density1D(grid=g, values=(np.abs(g) < 0.5).astype(float))
    slopes, fine_dt, spm = np.array([40.0, -25.0, 10.0, 0.0]), 0.01, 3
    means, vars_, snapshots, clips = run_grid_kushner(
        dens, model, slopes, fine_dt, spm, snapshot_slots=[len(slopes)])
    nsub = int(np.ceil(fine_dt / cfl_bound(dens)))
    assert nsub > 1
    drift_g, h_g = model.drift(g[:, None])[:, 0], model.obs(g[:, None])
    theta, loop_clips, loop_means = dens.values, 0, [dens.mean()]
    for slope in slopes:
        for _ in range(spm):
            theta, nclip = _kernels.kushner_substeps(
                theta, drift_g, h_g, dens.trapz_weights(), dens.dx,
                fine_dt / nsub, nsub, slope)
            loop_clips += int(nclip)
        loop_means.append(Density1D(grid=g, values=theta).mean())
    assert clips == loop_clips > 0
    assert snapshots[len(slopes)].values.tobytes() == theta.tobytes()
    assert means.tobytes() == np.array(loop_means).tobytes()


def test_grid_kushner_tracks_kalman_bucy():
    model = make_linear_gaussian([[-0.5]], [1.0])
    grid = TimeGrid(0.0, 1.0, 0.001, 0.01)
    path = _path(model, grid, [1.0], 3, 4)
    dens = _gauss_grid(var=0.5, mean=1.0, half=8.0, points=1601)
    means, vars_, _, _ = run_grid_kushner(dens, model, path.slopes,
                                          grid.fine_dt, grid.steps_per_mesh)
    drive = np.repeat(path.slopes, grid.steps_per_mesh) * grid.fine_dt
    km, kc = run_kalman_bucy([[-0.5]], [1.0], [1.0], [[0.5]],
                             drive, grid.fine_dt,
                             record_every=grid.steps_per_mesh)
    assert np.max(np.abs(means - km[:, 0])) <= 1e-3
    assert np.max(np.abs(vars_ - kc[:, 0, 0])) <= 1e-3


def test_grid_kushner_gaussianity_preserved():
    model = make_linear_gaussian([[-0.5]], [1.0])
    grid = TimeGrid(0.0, 1.0, 0.001, 0.01)
    path = _path(model, grid, [1.0], 5, 6)
    dens = _gauss_grid(var=0.5, mean=1.0, half=8.0, points=1601)
    _, _, snapshots, _ = run_grid_kushner(dens, model, path.slopes,
                                          grid.fine_dt, grid.steps_per_mesh,
                                          snapshot_slots=[grid.n_mesh])
    final = snapshots[grid.n_mesh]
    assert abs(_excess_kurtosis(final)) <= 1e-2


def test_riccati_monotone_bracket():
    # A <= 0 scalar, H != 0: P_t stays between P_0 and the fixed point
    A, H = -0.5, 1.0
    p_star = riccati_fixed_point(A, H)
    for p0 in (0.1, 2.0):
        _, covs = run_kalman_bucy([[A]], [H], [0.0], [[p0]], np.zeros(2000), 0.001)
        lo, hi = min(p0, p_star), max(p0, p_star)
        for P in covs[1:, 0, 0]:
            assert lo - 1e-9 <= P <= hi + 1e-9

