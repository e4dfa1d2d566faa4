import numpy as np
import pytest

from flowfilter.models import SystemModel, make_linear_gaussian
from flowfilter.paths import (TimeGrid, simulate_observations, simulate_truth,
                              smoothed_path)
from flowfilter.rng import CounterStream


def _const_model(hval=0.0):
    return SystemModel(dim=1, drift=lambda x: np.zeros_like(x),
                       obs=lambda x: np.full(x.shape[0], hval),
                       obs_grad=lambda x: np.zeros_like(x), obs_sup=abs(hval))


def _increments(seed, label, steps, dt, d=1):
    return CounterStream(seed, label).increments(np.empty((steps, 1, d)), dt)[:, 0]


def test_time_grid_alignment_checks():
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, t_end=1.0, fine_dt=0.003, delta=0.01)
    with pytest.raises(ValueError):
        TimeGrid(t0=0.0, t_end=1.05, fine_dt=0.001, delta=0.1)
    g = TimeGrid(t0=0.0, t_end=1.0, fine_dt=0.001, delta=0.01)
    assert (g.n_fine, g.n_mesh, g.steps_per_mesh) == (1000, 100, 10)


@pytest.mark.parametrize("t_end", [-1.0, -0.01, np.nan])
def test_time_grid_refuses_a_horizon_before_t0(t_end):
    # TimeGrid(0, -1, 0.001, 0.01) had n_mesh -100 and n_fine -1000
    with pytest.raises(ValueError, match="t_end"):
        TimeGrid(t0=0.0, t_end=t_end, fine_dt=0.001, delta=0.01)
    # a zero horizon is a grid of no steps
    assert TimeGrid(0.0, 0.0, 0.001, 0.01).n_fine == 0


def test_increments_are_scaled_normals_one_draw_per_step(monkeypatch):
    stream, dt, first = CounterStream(7, label=3), 0.004, 11
    calls = []
    normals = CounterStream.normals

    def counted(self, step, shape):
        calls.append((step, shape))
        return normals(self, step, shape)

    out = np.empty((5, 4, 2))
    monkeypatch.setattr(CounterStream, "normals", counted)
    assert stream.increments(out, dt, first) is out
    assert calls == [(first + i, (4, 2)) for i in range(5)]
    monkeypatch.undo()
    for i, block in enumerate(out):
        assert block.tobytes() == (np.sqrt(dt) * stream.normals(first + i,
                                                                (4, 2))).tobytes()


def _fresh_normals(seed, label, step, shape):
    """The draw of a Philox generator built for this one (step, shape)."""
    key = np.random.SeedSequence((seed, label)).generate_state(2, np.uint64)
    bg = np.random.Philox(key=key, counter=[0, 0, 0, step])
    return np.random.Generator(bg).standard_normal(shape)


def test_reused_stream_draws_what_a_fresh_generator_draws():
    # Philox fills a 4-word buffer; a (1, 1) or (3, 2) draw leaves part of
    # it unread, which the next draw must not use
    draws = [(step, shape) for step in (0, 1, 5, 17, 2**40)
             for shape in ((1, 1), (10000, 1), (3, 2))]
    draws = draws + draws[:6]
    order = np.random.default_rng(0).permutation(len(draws))
    stream = CounterStream(21, label=2)
    for i in order:
        step, shape = draws[i]
        assert stream.normals(step, shape).tobytes() \
            == _fresh_normals(21, 2, step, shape).tobytes()
    out = np.empty((6, 3, 1))      # 3 of 4 buffered words per block
    stream.increments(out, 0.01, first=9)
    for i, block in enumerate(out):
        assert block.tobytes() == (np.sqrt(0.01) * _fresh_normals(
            21, 2, 9 + i, (3, 1))).tobytes()


def test_truth_no_dynamics_stays_constant():
    g = TimeGrid(0.0, 0.1, 0.01, 0.05)
    states = simulate_truth(_const_model(), g, [3.0], np.zeros((g.n_fine, 1)))
    assert np.all(states == 3.0)


def test_truth_euler_hand_recursion():
    m = SystemModel(dim=1, drift=lambda x: -x,
                    obs=lambda x: x[:, 0], obs_grad=lambda x: np.ones_like(x))
    g = TimeGrid(0.0, 0.1, 0.01, 0.01)
    states = simulate_truth(m, g, [1.0], np.zeros((g.n_fine, 1)))
    assert states[1, 0] == pytest.approx(0.99, abs=1e-15)
    assert states[2, 0] == pytest.approx(0.9801, abs=1e-15)


def test_truth_increment_variance_monte_carlo():
    # Var of a one-step increment with live noise = fine_dt, to 3 MC sigmas
    g = TimeGrid(0.0, 1000.0, 0.01, 0.01)
    states = simulate_truth(_const_model(), g, [0.0],
                            _increments(13, 0, g.n_fine, g.fine_dt))
    inc = np.diff(states[:, 0])
    assert abs(np.var(inc) - g.fine_dt) <= 3 * g.fine_dt * np.sqrt(2.0 / inc.size)


def test_observations_zero_h_zero_noise():
    g = TimeGrid(0.0, 0.3, 0.01, 0.1)
    m = _const_model(0.0)
    states = simulate_truth(m, g, [0.0], np.zeros((g.n_fine, 1)))
    path = simulate_observations(m, states, g, np.zeros(g.n_fine))
    assert np.all(path.z == 0.0) and np.all(path.slopes == 0.0)


def test_observations_unit_h_unit_slopes():
    g = TimeGrid(0.0, 0.3, 0.01, 0.1)
    m = _const_model(1.0)
    states = simulate_truth(m, g, [0.0], np.zeros((g.n_fine, 1)))
    path = simulate_observations(m, states, g, np.zeros(g.n_fine))
    np.testing.assert_allclose(path.slopes, 1.0, rtol=1e-12)


def test_observation_path_is_the_stepwise_sum_bitwise():
    # the cumulative sum equals the recursion Z_{k+1} = Z_k + h dt + dW_k
    # taken one step at a time
    m = SystemModel(dim=1, drift=lambda x: -x, obs=lambda x: np.tanh(x[:, 0]),
                    obs_grad=lambda x: (1 / np.cosh(x[:, 0]) ** 2)[:, None])
    g = TimeGrid(0.0, 1.0, 0.001, 0.01)
    states = simulate_truth(m, g, [0.5], _increments(3, 1, g.n_fine, g.fine_dt))
    dw = _increments(4, 2, g.n_fine, g.fine_dt)[:, 0]
    h = m.obs(states[:-1])
    z, acc = [0.0], 0.0
    for k in range(g.n_fine):
        acc += h[k] * g.fine_dt + dw[k]
        z.append(acc)
    path = simulate_observations(m, states, g, dw)
    assert path.z.tobytes() == np.array(z).tobytes()


def test_slope_from_knots():
    g = TimeGrid(0.0, 0.1, 0.01, 0.1)
    path = smoothed_path(np.linspace(0.0, 0.5, g.n_fine + 1), g)
    assert path.z_knots.tolist() == [0.0, 0.5]
    assert path.slopes[0] == pytest.approx(5.0, rel=1e-15)


def _random_path(seed=5, t_end=1.0):
    g = TimeGrid(0.0, t_end, 0.001, 0.01)
    m = make_linear_gaussian([[-0.5]], [1.0])
    states = simulate_truth(m, g, [1.0], _increments(seed, 1, g.n_fine, g.fine_dt))
    dw = _increments(seed + 1, 2, g.n_fine, g.fine_dt)[:, 0]
    return simulate_observations(m, states, g, dw), states


def test_slopes_are_exactly_knot_differences_over_delta():
    path, _ = _random_path()
    # representation consistency is bitwise; the arithmetic identity holds
    # at ulp scale (IEEE rounding of the divide/multiply round trip)
    assert np.array_equal(path.slopes, np.diff(path.z_knots) / path.grid.delta)
    np.testing.assert_allclose(path.slopes * path.grid.delta,
                               np.diff(path.z_knots), rtol=1e-13, atol=1e-16)


def test_seed_determinism_bitwise():
    p1, t1 = _random_path(seed=9)
    p2, t2 = _random_path(seed=9)
    assert np.array_equal(p1.z, p2.z)
    assert np.array_equal(t1, t2)


def _refine_increments(dw, dt, normals):
    """Brownian-bridge refinement: split each increment over dt into two
    increments over dt/2 whose sum equals the original increment.  dw:
    (K, ...) increments with variance dt; normals: matching iid standard
    normals.  Returns (2K, ...) increments with variance dt/2."""
    first = 0.5 * dw + 0.5 * np.sqrt(dt) * normals
    out = np.empty((2 * dw.shape[0],) + dw.shape[1:])
    out[0::2] = first
    out[1::2] = dw - first
    return out


def test_refinement_consistency_bounded_h():
    # halving fine_dt with a Brownian-bridge refinement moves the knots only
    # through the drift integrand, bounded by |h|_inf * fine_dt * n_fine
    m = SystemModel(dim=1, drift=lambda x: -x,
                    obs=lambda x: np.tanh(x[:, 0]),
                    obs_grad=lambda x: (1 / np.cosh(x[:, 0]) ** 2)[:, None],
                    obs_sup=1.0)
    g = TimeGrid(0.0, 1.0, 0.01, 0.1)
    dv = _increments(21, 1, g.n_fine, g.fine_dt)
    dw = _increments(22, 2, g.n_fine, g.fine_dt)[:, 0]
    path = simulate_observations(m, simulate_truth(m, g, [0.5], dv), g, dw)

    rng = np.random.default_rng(77)
    g2 = TimeGrid(0.0, 1.0, 0.005, 0.1)
    dv2 = _refine_increments(dv, g.fine_dt, rng.standard_normal(dv.shape))
    dw2 = _refine_increments(dw, g.fine_dt, rng.standard_normal(dw.shape))
    path2 = simulate_observations(m, simulate_truth(m, g2, [0.5], dv2), g2, dw2)

    np.testing.assert_allclose(dv2[0::2] + dv2[1::2], dv, atol=1e-12)
    bound = m.obs_sup * g.fine_dt * g.n_fine
    assert np.max(np.abs(path2.z_knots - path.z_knots)) <= bound
