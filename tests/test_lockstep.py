"""The lockstep driver: runs that share a seed and a particle shape draw
each noise block once, and each run of a group is bitwise the run it would
be alone, whatever its position and siblings."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfilter import filters, gain
from flowfilter.cli import parse_config, run_delta_sweep, run_experiment
from flowfilter.ensemble import Density1D, compute_moments
from flowfilter.errors import (DimensionError, FilterAborted, IllConditioned,
                               NonFiniteState)
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
        assert exc.partial.aborted is exc
        return exc.partial


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
        log.append(diags)
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
        finished = out.aborted is None
        assert (alone.aborted is None) == finished
        if not finished:
            assert out.aborted.step == alone.aborted.step
            assert out.aborted.partial is out
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
            raise IllConditioned(1e13)
        return row(x, model, **opts)

    runs = [Run(FilterKind("enkbf"), "exact_gaussian", path, grid, cloud),
            Run(FilterKind("delta_fpf"), "constant", path, grid, cloud),
            Run(FilterKind("fpf_continuous"), "galerkin", path, grid, cloud)]
    alone = [run_filter(r.kind, model, r.path, r.init_particles, r.grid,
                        r.gain_method, 6) for r in runs[::2]]
    monkeypatch.setitem(gain.ASSEMBLERS["delta_fpf"], "constant",
                        fails_at_step_3)
    first, partial, last = run_lockstep(runs, model, seed=6)
    assert partial.aborted is not None and partial.aborted.step == 3
    assert partial.aborted.partial is partial
    assert partial.means.shape == (2, 1)       # mesh points 0 and 2
    assert len(partial.step_log) == 3
    _bytes_equal(first, alone[0])
    _bytes_equal(last, alone[1])


def test_an_untyped_error_in_a_row_propagates(monkeypatch):
    # only a typed error or MemoryError aborts a run; any other exception
    # is a bug in the row, and used to read as an aborted filter
    def singular(x, model, **opts):
        raise np.linalg.LinAlgError("Singular matrix")

    model = make_linear_gaussian([[-0.5]], [1.0])
    path, grid = _path(model, 2)
    cloud = 1.0 + CounterStream(4, label=0).normals(0, (30, 1))
    runs = [Run(FilterKind("enkbf"), "exact_gaussian", path, grid, cloud),
            Run(FilterKind("delta_fpf"), "constant", path, grid, cloud)]
    cfg = parse_config({
        "model": {"name": "linear_gaussian", "A": [[-0.5]], "H": [1.0]},
        "grid": {"t0": 0.0, "T": 0.05, "delta": 0.01, "fine_dt": 0.001},
        "init": {"kind": "gaussian", "mean": [1.0], "cov": [[0.5]]},
        "ensemble_size": 30,
        "filters": [{"kind": "enkbf", "gain": "exact_gaussian"},
                    {"kind": "delta_fpf", "gain": "constant"}],
        "seeds": {"truth": 1, "observation": 2, "filter": 3},
    })
    monkeypatch.setitem(gain.ASSEMBLERS["delta_fpf"], "constant", singular)
    with pytest.raises(np.linalg.LinAlgError):
        run_lockstep(runs, model, seed=6)
    with pytest.raises(np.linalg.LinAlgError):
        run_experiment(cfg)


# runs that are one computation: the same row and kind of slope, fed from
# the same path and cloud objects on an equal mesh with equal gain_opts

def _counting_steps(monkeypatch):
    labels, original = [], filters.step

    def counting(kind, gain_method, *args, **opts):
        labels.append(f"{kind.label()}/{gain_method}")
        return original(kind, gain_method, *args, **opts)

    monkeypatch.setattr(filters, "step", counting)
    return labels


def _tanh_group(opts=None):
    model = _tanh_model()
    path, grid = _path(model, 2)
    cloud = 0.5 + CounterStream(9, label=0).normals(0, (40, 1))
    return model, [Run(_kind(label), "integral_1d", path, grid, cloud,
                       dict(opts or {}))
                   for label in ("delta_fpf", "crisan_xiong",
                                 "delta_reich(identity)")]


def test_delta_kinds_on_one_integral_row_compute_once(monkeypatch):
    # in 1D the three delta kinds share gain._integral_beta_alpha: the group
    # estimates one density per fine step, and each run is its solo run
    model, runs = _tanh_group({"kde_opts": {"grid_points": 201}})
    alone = [_solo(run, model, 3) for run in runs]
    densities, original = [], gain.kde_density_1d

    def counting(x, **opts):
        densities.append(1)
        return original(x, **opts)

    monkeypatch.setattr(gain, "kde_density_1d", counting)
    together = run_lockstep(runs, model, seed=3)
    assert len(densities) == N_FINE
    for out, solo in zip(together, alone):
        assert isinstance(out, FilterRun) and out.aborted is None
        _bytes_equal(out, solo)
        assert out.seconds == together[0].seconds


def test_each_shared_outcome_is_its_own():
    model, runs = _tanh_group()
    first, second, _ = run_lockstep(runs, model, seed=3)
    kept = second.means.tobytes(), second.final_particles.tobytes()
    for name in ("times", "means", "covs", "h_bars", "final_particles"):
        getattr(first, name)[...] = np.nan
    first.step_log.append({})
    first.step_log[0]["residual"] = None
    assert (second.means.tobytes(), second.final_particles.tobytes()) == kept
    assert len(second.step_log) == N_FINE
    assert second.step_log[0]["residual"] is not None


@pytest.mark.parametrize("differ", ["kde_opts", "cloud", "mesh",
                                    "consumes_slope", "density"])
def test_runs_that_differ_in_one_input_compute_apart(monkeypatch, differ):
    model, (fpf, cx, _) = _tanh_group()
    steps = _counting_steps(monkeypatch)
    if differ == "kde_opts":
        cx.gain_opts = {"kde_opts": {"grid_points": 201}}
    elif differ == "cloud":        # equal values, another object
        cx.init_particles = fpf.init_particles.copy()
    elif differ == "mesh":         # the same path, recorded on another mesh
        cx.grid = TimeGrid(0.0, N_FINE * FINE_DT, FINE_DT, 3 * FINE_DT)
    elif differ == "consumes_slope":    # gain._constant_coefficients both
        fpf = Run(FilterKind("delta_fpf"), "constant", fpf.path, fpf.grid,
                  fpf.init_particles)
        cx = Run(FilterKind("fpf_continuous"), "constant", fpf.path, fpf.grid,
                 fpf.init_particles)
    else:                          # a library value compares by identity
        density = gain.kde_density_1d(fpf.init_particles)
        fpf.gain_opts = {"density": density}
        cx.gain_opts = {"density": Density1D(density.grid.copy(),
                                             density.values.copy())}
    outs = run_lockstep([fpf, cx], model, seed=3)
    assert len(steps) == 2 * N_FINE
    for run, out in zip([fpf, cx], outs):
        _bytes_equal(out, _solo(run, model, 3))
    # equal values in other dict objects, and the same library value, share
    steps.clear()
    cx = replace(fpf, kind=cx.kind, gain_method=cx.gain_method,
                 gain_opts=dict(fpf.gain_opts))
    run_lockstep([fpf, cx], model, seed=3)
    assert len(steps) == (2 if differ == "consumes_slope" else 1) * N_FINE


@pytest.mark.parametrize("tags", [("fpf_continuous", "crisan_continuous"),
                                  ("crisan_continuous", "fpf_continuous")])
def test_a_row_refused_in_its_dimension_is_not_shared(tags):
    # crisan_continuous takes the fpf_continuous rows, but in 1D only
    model = MODELS["linear_2d"]()
    path, grid = _path(model, 2)
    cloud = CounterStream(4, label=0).normals(0, (30, 2))
    runs = [Run(FilterKind(tag), "constant", path, grid, cloud)
            for tag in tags]
    outs = dict(zip(tags, run_lockstep(runs, model, seed=6)))
    assert outs["fpf_continuous"].aborted is None
    assert isinstance(outs["crisan_continuous"].aborted.cause, DimensionError)


def test_a_shared_abort_names_each_run_its_own_kind():
    # the lane's own check that the update is finite ends all three runs
    model = replace(_tanh_model(), drift=lambda x: np.full_like(x, np.inf))
    _, runs = _tanh_group()
    outs = run_lockstep(runs, model, seed=3)
    assert len({id(out) for out in outs}) == 3
    assert len({id(out.aborted) for out in outs}) == 3
    for run, out in zip(runs, outs):
        aborted = out.aborted
        assert aborted is not None and aborted.step == 0
        assert aborted.partial is out
        assert isinstance(aborted.cause, NonFiniteState) and aborted.cause.step == 1
        assert str(aborted.cause).endswith(": " + run.kind.label())
        assert aborted.__cause__ is aborted.cause
        assert out.means.shape == (1, 1)
    outs[0].means[...] = np.nan
    assert np.isfinite(outs[1].means).all()


def test_a_cloud_whose_moments_overflow_aborts_quietly():
    # a finite cloud far out: its recorded covariance overflows, which is
    # the run's NonFiniteState, with no numpy warning before it
    model = make_linear_gaussian([[-0.5]], [1.0])
    path, grid = _path(model, 2)
    cloud = 1e160 * CounterStream(4, label=0).normals(0, (30, 1))
    with pytest.raises(FilterAborted) as err:
        run_filter(FilterKind("delta_fpf"), model, path, cloud, grid,
                   "constant", 6)
    assert err.value.step == 0 and isinstance(err.value.cause, NonFiniteState)
    assert "recorded moments of delta_fpf" in str(err.value.cause)
    assert err.value.partial.means.shape == (0, 1)


def test_a_final_record_that_overflows_spares_the_siblings(monkeypatch):
    # the last step throws the cloud far out, so the record after it fails:
    # that run aborts at step N_FINE, and the other run finishes
    model = make_linear_gaussian([[-0.5]], [1.0])
    path, grid = _path(model, 2)
    cloud = 1.0 + CounterStream(4, label=0).normals(0, (30, 1))
    row = ASSEMBLERS["delta_fpf"]["constant"]
    calls = []

    def throws_out_at_the_last_step(x, model, **opts):
        calls.append(1)
        cs = row(x, model, **opts)
        if len(calls) == N_FINE:
            return gain.CoefficientSet(cs.a + 1e162 * x, cs.K, cs.diagnostics)
        return cs

    runs = [Run(FilterKind("enkbf"), "exact_gaussian", path, grid, cloud),
            Run(FilterKind("delta_fpf"), "constant", path, grid, cloud)]
    alone = _solo(runs[0], model, 6)
    monkeypatch.setitem(gain.ASSEMBLERS["delta_fpf"], "constant",
                        throws_out_at_the_last_step)
    finished, partial = run_lockstep(runs, model, seed=6)
    _bytes_equal(finished, alone)
    assert partial.aborted is not None and partial.aborted.step == N_FINE
    assert partial.aborted.partial is partial
    assert isinstance(partial.aborted.cause, NonFiniteState)
    assert partial.means.shape == (N_FINE // 2, 1)
    assert len(partial.step_log) == N_FINE


@st.composite
def shared_groups(draw):
    """Groups whose runs draw their path, cloud and options from small pools
    of objects, so that many runs share a computation."""
    model = _tanh_model()
    seed = draw(st.integers(0, 50))
    base = CounterStream(seed + 100, label=0).normals(0, (20, 1))
    paths = {spm: _path(model, spm) for spm in (2, 3)}
    clouds = [base, 0.5 + 0.3 * base]
    opts = [{}, {"kde_opts": {"grid_points": 201}}]
    runs = []
    for _ in range(draw(st.integers(2, 5))):
        label, method = draw(st.sampled_from(_rows(model)))
        path, grid = paths[draw(st.sampled_from(sorted(paths)))]
        cloud = clouds[draw(st.integers(0, 1))]
        gain_opts = dict(draw(st.sampled_from(opts))) \
            if method == "integral_1d" else {}
        runs.append(Run(_kind(label), method, path, grid, cloud, gain_opts))
    return model, seed, runs


@settings(max_examples=40, derandomize=True, deadline=None)
@given(shared_groups())
def test_shared_runs_equal_their_solo_runs(case):
    model, seed, runs = case
    together = run_lockstep(runs, model, seed)
    assert len({id(out) for out in together}) == len(runs)
    for run, out in zip(runs, together):
        alone = _solo(run, model, seed)
        assert type(out) is type(alone)
        assert (out.aborted is None) == (alone.aborted is None)
        if out.aborted is not None:
            assert out.aborted.step == alone.aborted.step
            assert str(out.aborted) == str(alone.aborted)
            assert out.aborted.partial is out
        _bytes_equal(out, alone)
