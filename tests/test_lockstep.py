"""The lockstep driver: runs that share a seed and a particle shape draw
each noise block once, and each run of a group is bitwise the run it would
be alone, whatever its position and siblings."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfilter import gain
from flowfilter.cli import parse_config, run_delta_sweep, run_experiment
from flowfilter.ensemble import compute_moments
from flowfilter.errors import FilterAborted, NonFiniteState
from flowfilter.filters import (STEP_ERRORS, FilterKind, FilterRun, Run,
                                run_filter, run_lockstep, step)
from flowfilter.gain import ASSEMBLERS, in_dimension
from flowfilter.models import SystemModel, make_linear_gaussian
from flowfilter.paths import TimeGrid, simulate_observations, simulate_truth
from flowfilter.rng import CounterStream

FINE_DT = 0.01
N_FINE = 6


def _tanh_model():
    return SystemModel(dim=1, drift=lambda x: -x,
                       obs=lambda x: np.tanh(x[:, 0]),
                       obs_grad=lambda x: (1 / np.cosh(x[:, 0]) ** 2)[:, None],
                       drift_lipschitz=1.0, obs_sup=1.0, obs_sq_sup=1.0)


MODELS = {
    "linear_1d": lambda: make_linear_gaussian([[-0.5]], [1.0]),
    "tanh_1d": _tanh_model,
    "linear_2d": lambda: make_linear_gaussian([[-0.5, 0.2], [0.0, -1.0]],
                                              [1.0, 0.5]),
}


def _rows(model):
    """The (kind label, gain) rows that run on this model without a typed
    refusal."""
    def valid(label, method):
        if method == "exact_gaussian" and model.H is None:
            return False        # the exact gain needs an H row
        return in_dimension(label, method, model.dim)

    return [(label, method) for label, row in sorted(ASSEMBLERS.items())
            for method in row if valid(label, method)]


def _kind(label):
    if "(" in label:
        tag, mass = label[:-1].split("(")
        return FilterKind(tag, mass)
    return FilterKind(label)


def _path(model, spm, seed=5):
    grid = TimeGrid(0.0, N_FINE * FINE_DT, FINE_DT, spm * FINE_DT)
    dv = CounterStream(seed, label=1).increments(
        np.empty((N_FINE, 1, model.dim)), FINE_DT)
    dw = CounterStream(seed + 1, label=2).increments(
        np.empty((N_FINE, 1, 1)), FINE_DT)
    states = simulate_truth(model, grid, [0.3] * model.dim, dv[:, 0])
    return simulate_observations(model, states, grid, dw[:, 0, 0]), grid


def _bytes_equal(a: FilterRun, b: FilterRun):
    for name in ("times", "means", "covs", "h_bars", "final_particles"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert repr(a.step_log) == repr(b.step_log)


def _solo(run, model, seed):
    try:
        return run_filter(run.kind, model, run.path, run.init_particles,
                          run.grid, run.gain_method, seed,
                          gain_opts=run.gain_opts)
    except FilterAborted as exc:
        return exc


def _every_step(run, model, seed):
    """The run as a plain loop of step calls, one noise draw per step, that
    records the moments of its cloud at its mesh points: what run_lockstep
    saves must not show."""
    x = np.array(run.init_particles, dtype=float)
    grid, kind = run.grid, run.kind
    slopes = run.path.fine_slopes() if kind.consumes_slope \
        else run.path.fine_increments() / grid.fine_dt
    noise = CounterStream(seed, label=1)
    means, covs, h_bars, log = [], [], [], []
    for k in range(grid.n_fine):
        if k % grid.steps_per_mesh == 0:
            m = compute_moments(x, model)
            means.append(m.mean), covs.append(m.cov), h_bars.append(m.h_bar)
        dv = np.sqrt(grid.fine_dt) * noise.normals(k, x.shape)
        try:
            new, diags = step(kind, run.gain_method, model, x, slopes[k],
                              grid.fine_dt, dv, **run.gain_opts)
            if not np.all(np.isfinite(new)):
                raise NonFiniteState(k + 1)
        except STEP_ERRORS:
            return means, covs, h_bars, log, x, False
        x = new
        log.append({"step": k, "method": run.gain_method, **diags})
    m = compute_moments(x, model)
    means.append(m.mean), covs.append(m.cov), h_bars.append(m.h_bar)
    return means, covs, h_bars, log, x, True


@st.composite
def groups(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    model = MODELS[name]()
    n = draw(st.integers(8, 40))
    seed = draw(st.integers(0, 50))
    base = CounterStream(seed + 100, label=0).normals(0, (n, model.dim))
    runs = []
    for _ in range(draw(st.integers(1, 4))):
        label, method = draw(st.sampled_from(_rows(model)))
        path, grid = _path(model, draw(st.sampled_from([1, 2, 3, 6])))
        cloud = draw(st.sampled_from([0.0, 0.5])) + \
            draw(st.sampled_from([1.0, 0.3])) * base
        opts = {"kde_opts": {"grid_points": 201}} \
            if method == "integral_1d" and draw(st.booleans()) else {}
        runs.append(Run(_kind(label), method, path, grid, cloud, opts))
    return model, seed, runs


@settings(max_examples=120, derandomize=True, deadline=None)
@given(groups())
def test_lockstep_run_equals_its_solo_run(case):
    model, seed, runs = case
    together = run_lockstep(runs, model, seed)
    for run, out in zip(runs, together):
        alone = _solo(run, model, seed)
        assert type(out) is type(alone)
        finished = isinstance(out, FilterRun)
        if not finished:
            assert out.step == alone.step
            out, alone = out.partial, alone.partial
        _bytes_equal(out, alone)
        means, covs, h_bars, log, x, done = _every_step(run, model, seed)
        assert done == finished
        assert np.array(means).tobytes() == out.means.tobytes()
        assert np.array(covs).tobytes() == out.covs.tobytes()
        assert np.array(h_bars).tobytes() == out.h_bars.tobytes()
        assert repr(log) == repr(out.step_log)
        assert x.tobytes() == out.final_particles.tobytes()


def _counting_normals(monkeypatch):
    calls = []
    original = CounterStream.normals

    def normals(self, k, shape):
        calls.append((self.seed, self.label, k))
        return original(self, k, shape)

    monkeypatch.setattr(CounterStream, "normals", normals)
    return calls


def test_run_experiment_draws_each_particle_block_once(monkeypatch):
    cfg = parse_config({
        "model": {"name": "linear_gaussian", "A": [[-0.5]], "H": [1.0]},
        "grid": {"t0": 0.0, "T": 0.05, "delta": 0.01, "fine_dt": 0.001},
        "init": {"kind": "gaussian", "mean": [1.0], "cov": [[0.5]]},
        "ensemble_size": 100,
        "filters": [{"kind": "enkbf", "gain": "exact_gaussian"},
                    {"kind": "delta_fpf", "gain": "constant"},
                    {"kind": "fpf_continuous", "gain": "exact_gaussian"}],
        "seeds": {"truth": 1, "observation": 2, "filter": 3}})
    calls = _counting_normals(monkeypatch)
    report = run_experiment(cfg)
    assert all(res.error is None for res in report.results)
    # one draw per fine step for the group, not one per filter and step
    assert [c for c in calls if c[:2] == (3, 1)] == \
        [(3, 1, k) for k in range(cfg.grid.n_fine)]
    # a sweep seed's group: two filters, each with its twin and two deltas
    cfg.filters = cfg.filters[:2]
    cfg.sweep = {"delta": [0.01, 0.005], "seeds": [5]}
    calls.clear()
    assert len(run_delta_sweep(cfg).rows) == 4
    assert [c for c in calls if c[:2] == (7, 1)] == \
        [(7, 1, k) for k in range(cfg.grid.n_fine)]


def test_aborted_run_leaves_its_siblings_bitwise_unchanged(monkeypatch):
    model = make_linear_gaussian([[-0.5]], [1.0])
    path, grid = _path(model, 2)
    cloud = 1.0 + CounterStream(4, label=0).normals(0, (30, 1))
    row = ASSEMBLERS["delta_fpf"]["constant"]
    calls = []

    def fails_at_step_3(x, model, **opts):
        calls.append(1)
        if len(calls) == 4:
            raise np.linalg.LinAlgError("Singular matrix")
        return row(x, model, **opts)

    runs = [Run(FilterKind("enkbf"), "exact_gaussian", path, grid, cloud),
            Run(FilterKind("delta_fpf"), "constant", path, grid, cloud),
            Run(FilterKind("fpf_continuous"), "galerkin", path, grid, cloud)]
    alone = [run_filter(r.kind, model, r.path, r.init_particles, r.grid,
                        r.gain_method, 6) for r in runs[::2]]
    monkeypatch.setitem(gain.ASSEMBLERS["delta_fpf"], "constant",
                        fails_at_step_3)
    first, aborted, last = run_lockstep(runs, model, seed=6)
    assert isinstance(aborted, FilterAborted) and aborted.step == 3
    assert aborted.partial.means.shape == (2, 1)       # mesh points 0 and 2
    assert len(aborted.partial.step_log) == 3
    _bytes_equal(first, alone[0])
    _bytes_equal(last, alone[1])
