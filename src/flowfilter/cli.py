"""Experiment runner: JSON config in, tidy CSV tables out.

Subcommands:
  flowfilter run    <config.json>   one experiment: truth + observation
                                    path, every configured filter on the
                                    identical path, references, error
                                    series (series.csv, gain_log.csv,
                                    report.json)
  flowfilter sweep  <config.json>   delta and/or ensemble-size sweeps
                                    against continuous-time references
                                    (sweep.csv)
  flowfilter theory <config.json>   Poincare certificates for the
                                    configured system (theory.csv)

Exit codes: 0 success, 2 config error, 3 numerical failure.  All seeds are
explicit in the config; re-running a config reproduces every CSV bitwise,
independent of --threads.
"""

import argparse
import concurrent.futures
import csv
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ensemble import Density1D
from .errors import ConfigError, FlowFilterError, NonNestedMeshes
from .filters import FilterKind, FilterRun, run_filter
from .gain import ASSEMBLERS, GAIN_OPTS
from .models import InitialDensity, LogConcaveOUSpec, SystemModel, \
    make_linear_gaussian, make_log_concave_ou
from .paths import ObservationPath, TimeGrid, simulate_observations, simulate_truth
from .reference import (GridDensity, KalmanBucyState, run_grid_kushner,
                        run_kalman_bucy)
from .rng import CounterStream, GaussianIncrements
from .theory import (empirical_poincare_1d, gamma_recursion,
                     kappa_continuous, kappa_delta)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# model registry

def _build_linear_gaussian(params: dict) -> SystemModel:
    try:
        return make_linear_gaussian(params["A"], params["H"])
    except KeyError as exc:
        raise ConfigError("model", f"missing parameter {exc}") from None


def _build_log_concave_ou(params: dict) -> SystemModel:
    c = float(params.get("c", 1.0))
    H = params.get("H", [1.0])
    d = np.asarray(H, dtype=float).reshape(-1).shape[0]
    spec = LogConcaveOUSpec(
        potential=lambda x: -0.5 * c * np.sum(x * x, axis=1),
        grad=lambda x: -c * x,
        c_u=c, c_g=float(params.get("c_g", 1.0)), c_r=2.0 * c * c,
        linear_growth_D=float(params.get("D", c + 1.0)))
    return make_log_concave_ou(spec, H)


def _build_scalar_tanh(params: dict) -> SystemModel:
    return SystemModel(
        dim=1,
        drift=lambda x: -x,
        obs=lambda x: np.tanh(x[:, 0]),
        obs_grad=lambda x: (1.0 / np.cosh(x[:, 0]) ** 2)[:, None],
        drift_lipschitz=1.0, obs_sup=1.0, obs_sq_sup=1.0, kind="general")


MODEL_REGISTRY = {
    "linear_gaussian": _build_linear_gaussian,
    "log_concave_ou": _build_log_concave_ou,
    "scalar_tanh": _build_scalar_tanh,
}


def register_model(name: str, builder):
    """Programmatic registration hook for custom drifts."""
    MODEL_REGISTRY[name] = builder


# ---------------------------------------------------------------------------
# configuration

@dataclass
class FilterSpec:
    kind: FilterKind
    gain: str
    gain_opts: dict = field(default_factory=dict)

    def label(self) -> str:
        # gain method included so configs running one kind under several
        # gain methods stay distinguishable in every output table
        return f"{self.kind.label()}/{self.gain}"


@dataclass
class ExperimentConfig:
    model_name: str
    model_params: dict
    grid: TimeGrid
    init: InitialDensity
    ensemble_size: int
    filters: list
    seeds: dict
    reference: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    output_dir: str = "out"
    raw: dict = field(default_factory=dict)

    def build_model(self) -> SystemModel:
        builder = MODEL_REGISTRY.get(self.model_name)
        if builder is None:
            raise ConfigError("model.name", f"unknown model {self.model_name!r}; "
                              f"registered: {sorted(MODEL_REGISTRY)}")
        return builder(self.model_params)


def _need(d: dict, key: str, path: str):
    if key not in d:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return d[key]


def _check_opts(opts, allowed: dict, path: str):
    """Every key of opts is allowed and its value passes the key's check,
    or the nested spec when the key has one."""
    if not isinstance(opts, dict):
        raise ConfigError(path, "must be an object")
    for key, value in opts.items():
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", f"unknown; allowed: {sorted(allowed)}")
        if isinstance(allowed[key], dict):
            _check_opts(value, allowed[key], f"{path}.{key}")
            continue
        what, check = allowed[key]
        if not check(value):
            raise ConfigError(f"{path}.{key}", f"must be {what}, not {value!r}")


def parse_config(raw: dict) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("", "config must be a JSON object")
    version = raw.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {version}")
    model = _need(raw, "model", "")
    name = _need(model, "name", "model")

    g = _need(raw, "grid", "")
    try:
        grid = TimeGrid(t0=float(g.get("t0", 0.0)), t_end=float(_need(g, "T", "grid")),
                        fine_dt=float(_need(g, "fine_dt", "grid")),
                        delta=float(_need(g, "delta", "grid")))
    except ValueError as exc:
        raise ConfigError("grid", str(exc)) from None

    init_raw = _need(raw, "init", "")
    kind = init_raw.get("kind", "gaussian")
    try:
        if kind == "gaussian":
            init = InitialDensity(kind="gaussian", mean=_need(init_raw, "mean", "init"),
                                  cov=_need(init_raw, "cov", "init"))
        elif kind == "grid_table":
            init = InitialDensity(kind="grid_table", grid=_need(init_raw, "grid", "init"),
                                  values=_need(init_raw, "values", "init"))
        else:
            raise ConfigError("init.kind", f"unknown kind {kind!r}")
    except ValueError as exc:
        raise ConfigError("init", str(exc)) from None

    n = int(raw.get("ensemble_size", 0))
    if n < 2:
        raise ConfigError("ensemble_size", "need at least 2 particles")

    filters = []
    for i, f in enumerate(raw.get("filters", [])):
        try:
            fk = FilterKind(tag=_need(f, "kind", f"filters[{i}]"),
                            mass_matrix=f.get("mass_matrix"))
        except ValueError as exc:
            raise ConfigError(f"filters[{i}]", str(exc)) from None
        gain = f.get("gain", "exact_gaussian")
        if gain not in ASSEMBLERS[fk.label()]:
            raise ConfigError(f"filters[{i}].gain", f"{fk.label()} takes "
                              f"{sorted(ASSEMBLERS[fk.label()])}, not {gain!r}")
        _check_opts(f.get("gain_opts", {}), GAIN_OPTS.get(gain, {}),
                    f"filters[{i}].gain_opts")
        filters.append(FilterSpec(kind=fk, gain=gain,
                                  gain_opts=f.get("gain_opts", {})))

    seeds = _need(raw, "seeds", "")
    for key in ("truth", "observation", "filter"):
        if key not in seeds:
            raise ConfigError(f"seeds.{key}", "seeds must be explicit "
                              "(no ambient randomness)")

    sweep = raw.get("sweep", {})
    if "delta" in sweep:
        horizon = grid.t_end - grid.t0
        for dv in sweep["delta"]:
            ratio = horizon / float(dv)
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError("sweep.delta", f"delta {dv} does not divide "
                                  f"the horizon {horizon}")
        for i, spec in enumerate(filters):   # each is compared with its twin
            twin, twin_gain = CONTINUOUS_TWIN.get(spec.kind.tag, (None, None))
            if twin is None or (twin_gain or spec.gain) not in ASSEMBLERS[twin]:
                raise ConfigError(f"filters[{i}].kind", f"{spec.label()} has no "
                                  "continuous-time twin to sweep delta against")

    return ExperimentConfig(model_name=name, model_params=model,
                            grid=grid, init=init, ensemble_size=n,
                            filters=filters, seeds=dict(seeds),
                            reference=raw.get("reference", {}),
                            sweep=sweep,
                            output_dir=raw.get("output_dir", "out"), raw=raw)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError("", f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}") from None
    return parse_config(raw)


# ---------------------------------------------------------------------------
# simulation plumbing

def _simulate_paths(config: ExperimentConfig, model: SystemModel,
                    grid: Optional[TimeGrid] = None):
    grid = grid or config.grid
    d = model.dim
    s = config.seeds
    x0 = config.init.sample(1, CounterStream(s["truth"], label=0).normals(0, (1, d)))
    truth = simulate_truth(model, grid, x0,
                           GaussianIncrements(s["truth"], d, grid.fine_dt, label=1),
                           seed=s["truth"])
    path = simulate_observations(model, truth, grid,
                                 GaussianIncrements(s["observation"], 1,
                                                    grid.fine_dt, label=2),
                                 seed=s["observation"])
    return truth, path


def _initial_cloud(config: ExperimentConfig, d: int, n: Optional[int] = None,
                   seed: Optional[int] = None) -> np.ndarray:
    n = n or config.ensemble_size
    seed = config.seeds["filter"] if seed is None else seed
    return config.init.sample(n, CounterStream(seed, label=0).normals(0, (n, d)))


def _gaussian_grid_density(init: InitialDensity, half_width: float,
                           points: int) -> GridDensity:
    mean = float(init.mean[0])
    var = float(init.cov[0, 0])
    grid = np.linspace(-half_width, half_width, points)
    vals = np.exp(-0.5 * (grid - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)
    return GridDensity(grid=grid, values=vals)


def _init_grid_density(config: ExperimentConfig, half_width: float,
                       points: int) -> GridDensity:
    if config.init.kind == "gaussian":
        return _gaussian_grid_density(config.init, half_width, points)
    return GridDensity(grid=config.init.grid, values=config.init.values)


# ---------------------------------------------------------------------------
# run_experiment

@dataclass
class FilterResult:
    label: str
    run: Optional[FilterRun]
    error: Optional[str]
    rmse_mean: float = float("nan")
    terminal_err_mean: float = float("nan")
    terminal_err_cov: float = float("nan")
    wall_clock: float = 0.0


@dataclass
class RunReport:
    config: ExperimentConfig
    reference_kind: str
    ref_means: np.ndarray
    ref_covs: np.ndarray
    results: list
    slope_checksum: str
    truth_terminal: np.ndarray
    wall_clock: float


def _reference_solution(config: ExperimentConfig, model: SystemModel,
                        path: ObservationPath):
    """Mesh-point reference moments driven by the identical slope process."""
    grid = config.grid
    drive = path.fine_slopes() * path.grid.fine_dt   # smoothed-path increments
    if model.kind == "linear_gaussian" and config.reference.get("kalman_bucy", True):
        st = KalmanBucyState(mean=config.init.mean, cov=config.init.cov)
        means, covs = run_kalman_bucy(model.A, model.h_row(), st, drive,
                                      grid.fine_dt,
                                      record_every=grid.steps_per_mesh)
        return "kalman_bucy", means, covs
    if model.dim != 1:
        raise ConfigError("reference", "no reference available: grid Kushner "
                          "is 1D only and the model is not linear-Gaussian")
    opts = config.reference.get("grid_kushner", {})
    dens = _init_grid_density(config, float(opts.get("half_width", 6.0)),
                              int(opts.get("points", 1201)))
    means, vars_, _, _ = run_grid_kushner(dens, model, path.slopes,
                                          grid.fine_dt, grid.steps_per_mesh)
    return "grid_kushner", means[:, None], vars_[:, None, None]


def _run_one_filter(spec: FilterSpec, config: ExperimentConfig,
                    model: SystemModel, path: ObservationPath,
                    cloud: np.ndarray) -> FilterResult:
    t0 = time.perf_counter()
    try:
        run = run_filter(spec.kind, model, path, cloud, config.grid,
                         spec.gain, config.seeds["filter"],
                         gain_opts=spec.gain_opts)
        return FilterResult(label=spec.label(), run=run, error=None,
                            wall_clock=time.perf_counter() - t0)
    except FlowFilterError as exc:
        return FilterResult(label=spec.label(), run=None,
                            error=f"{type(exc).__name__}: {exc}",
                            wall_clock=time.perf_counter() - t0)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> RunReport:
    """One truth + observation path; every filter consumes the identical
    path; errors are measured against the reference at mesh points only.
    One filter's failure never aborts the siblings."""
    t_start = time.perf_counter()
    model = config.build_model()
    truth, path = _simulate_paths(config, model)
    checksum = hashlib.sha256(path.slopes.tobytes()).hexdigest()
    ref_kind, ref_means, ref_covs = _reference_solution(config, model, path)
    cloud = _initial_cloud(config, model.dim)

    if threads > 1 and len(config.filters) > 1:
        with concurrent.futures.ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(_run_one_filter, spec, config, model, path,
                                   cloud) for spec in config.filters]
            results = [f.result() for f in futures]
    else:
        results = [_run_one_filter(spec, config, model, path, cloud)
                   for spec in config.filters]

    for res in results:
        if res.run is None:
            continue
        err_mean = np.linalg.norm(res.run.means - ref_means, axis=1)
        err_cov = np.linalg.norm((res.run.covs - ref_covs)
                                 .reshape(err_mean.size, -1), axis=1)
        res.rmse_mean = float(np.sqrt(np.mean(err_mean**2)))
        res.terminal_err_mean = float(err_mean[-1])
        res.terminal_err_cov = float(err_cov[-1])
    return RunReport(config=config, reference_kind=ref_kind,
                     ref_means=ref_means, ref_covs=ref_covs, results=results,
                     slope_checksum=checksum,
                     truth_terminal=truth.states[-1],
                     wall_clock=time.perf_counter() - t_start)


# ---------------------------------------------------------------------------
# sweeps

CONTINUOUS_TWIN = {
    "enkbf": ("fpf_continuous", "exact_gaussian"),
    "delta_fpf": ("fpf_continuous", None),
    "delta_reich": ("fpf_continuous", None),
    "crisan_xiong": ("crisan_continuous", None),
}


@dataclass
class SweepRow:
    axis: str                   # "delta" | "n"
    value: float
    seed: int
    filter_label: str
    rmse: float                 # vs continuous-time twin (same particles)
    rmse_exact: float           # vs exact reference where available


@dataclass
class SweepReport:
    rows: list
    trends: dict                # (filter, seed) -> spearman rho (delta axis)
    monotone_counts: dict       # filter -> number of monotone seeds


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    from scipy.stats import spearmanr

    if len(set(y)) <= 1 or x.size < 2:
        return float("nan")
    return float(spearmanr(x, y).statistic)


def run_delta_sweep(config: ExperimentConfig, threads: int = 1) -> SweepReport:
    """Pathwise RMSE of each delta-filter against its continuous-time form
    (identical seeds and particle noise) across the delta list, per seed;
    RMSE against the exact reference is reported alongside.  The trend
    (Spearman rho and per-seed monotonicity) is reported, not asserted."""
    model = config.build_model()
    sweep = config.sweep
    deltas = [float(v) for v in sweep.get("delta", [config.grid.delta])]
    seeds = [int(s) for s in sweep.get("seeds", [config.seeds["filter"]])]
    if len(deltas) > 1:
        deltas = sorted(deltas, reverse=True)
        for a, b in zip(deltas[:-1], deltas[1:]):
            ratio = a / b
            if abs(ratio - round(ratio)) > 1e-9:
                raise NonNestedMeshes(f"{a} is not an integer multiple of {b}")
    fine_dt = config.grid.fine_dt
    rows = []
    trends = {}
    monotone = {}
    coarse_delta = max(deltas)

    for seed in seeds:
        cfg_seeds = dict(config.seeds)
        cfg_seeds.update({"truth": seed, "observation": seed + 1,
                          "filter": seed + 2})
        local = ExperimentConfig(**{**config.__dict__,
                                    "seeds": cfg_seeds})
        base_grid = TimeGrid(t0=config.grid.t0, t_end=config.grid.t_end,
                             fine_dt=fine_dt, delta=min(deltas))
        _, fine_path = _simulate_paths(local, model, grid=base_grid)
        cloud = _initial_cloud(local, model.dim)
        coarse_every = round(coarse_delta / fine_dt)
        cmp_idx = np.arange(0, base_grid.n_fine + 1, coarse_every)

        exact_means = None
        if model.kind == "linear_gaussian":
            st = KalmanBucyState(mean=config.init.mean, cov=config.init.cov)
            em, _ = run_kalman_bucy(model.A, model.h_row(), st,
                                    fine_path.fine_increments(), fine_dt,
                                    record_every=1)
            exact_means = em[cmp_idx]

        for spec in config.filters:
            twin_tag, twin_gain = CONTINUOUS_TWIN[spec.kind.tag]
            gain = twin_gain or spec.gain
            twin = run_filter(FilterKind(twin_tag), model, fine_path, cloud,
                              base_grid, gain, cfg_seeds["filter"],
                              gain_opts=spec.gain_opts)
            twin_every = round(coarse_delta / base_grid.delta)
            twin_means = twin.means[::twin_every]
            rmses = []
            for dv in deltas:
                grid_d = TimeGrid(t0=config.grid.t0, t_end=config.grid.t_end,
                                  fine_dt=fine_dt, delta=dv)
                spm = grid_d.steps_per_mesh
                z_knots = fine_path.z[::spm].copy()
                path_d = ObservationPath(grid=grid_d, z=fine_path.z,
                                         z_knots=z_knots,
                                         slopes=np.diff(z_knots) / dv,
                                         seed=fine_path.seed)
                run = run_filter(spec.kind, model, path_d, cloud, grid_d,
                                 spec.gain, cfg_seeds["filter"],
                                 gain_opts=spec.gain_opts)
                every = round(coarse_delta / dv)
                means_c = run.means[::every]
                rmse = float(np.sqrt(np.mean(
                    np.sum((means_c - twin_means) ** 2, axis=1))))
                rmse_exact = float("nan")
                if exact_means is not None:
                    rmse_exact = float(np.sqrt(np.mean(
                        np.sum((means_c - exact_means) ** 2, axis=1))))
                rows.append(SweepRow(axis="delta", value=dv, seed=seed,
                                     filter_label=spec.label(), rmse=rmse,
                                     rmse_exact=rmse_exact))
                rmses.append(rmse)
            arr = np.array(rmses)
            # trend vs sweep order (delta descending): improving RMSE <=> rho < 0
            trends[(spec.label(), seed)] = _spearman(
                np.arange(len(deltas), dtype=float), arr) \
                if len(deltas) > 1 else float("nan")
            monotone[spec.label()] = monotone.get(spec.label(), 0) + int(
                len(deltas) > 1 and bool(np.all(np.diff(arr) <= 1e-15)))

    # ensemble-size sweep at the configured delta
    for n_val in [int(v) for v in sweep.get("n", [])]:
        for seed in seeds:
            cfg_seeds = {"truth": seed, "observation": seed + 1,
                         "filter": seed + 2}
            local = ExperimentConfig(**{**config.__dict__, "seeds": cfg_seeds})
            _, path = _simulate_paths(local, model)
            cloud = _initial_cloud(local, model.dim, n=n_val)
            for spec in config.filters:
                run = run_filter(spec.kind, model, path, cloud, config.grid,
                                 spec.gain, cfg_seeds["filter"],
                                 gain_opts=spec.gain_opts)
                _, ref_means, _ = _reference_solution(local, model, path)
                rmse = float(np.sqrt(np.mean(np.sum(
                    (run.means - ref_means) ** 2, axis=1))))
                rows.append(SweepRow(axis="n", value=float(n_val), seed=seed,
                                     filter_label=spec.label(), rmse=rmse,
                                     rmse_exact=rmse))
    return SweepReport(rows=rows, trends=trends, monotone_counts=monotone)


# ---------------------------------------------------------------------------
# theory certificates

@dataclass
class TheoryRow:
    provenance: str
    inputs: str
    kappa: float
    kappa_emp: float
    margin: float


def theory_certificates(config: ExperimentConfig) -> list:
    """Certificate table for the configured system: the continuous-time
    bound with empirical posterior checks (log-concave OU), the gamma
    fixed point, and the per-path delta bound for bounded observations."""
    model = config.build_model()
    grid = config.grid
    rows = []
    _, path = _simulate_paths(config, model)

    snapshot_times = [grid.t0, grid.t0 + (grid.t_end - grid.t0) / 2, grid.t_end]
    opts = config.reference.get("grid_kushner", {})
    dens0 = _init_grid_density(config, float(opts.get("half_width", 6.0)),
                               int(opts.get("points", 2001)))
    _, _, snapshots, _ = run_grid_kushner(dens0, model, path.slopes,
                                          grid.fine_dt, grid.steps_per_mesh,
                                          snapshot_times=snapshot_times)
    kappas_emp = {}
    for slot, snap in snapshots.items():
        dens = Density1D(grid=snap.grid, values=np.maximum(snap.values, 1e-300))
        kappas_emp[slot] = empirical_poincare_1d(dens)

    if config.model_name == "log_concave_ou":
        c = float(config.model_params.get("c", 1.0))
        c_g = float(config.model_params.get("c_g", 1.0))
        c_r = 2.0 * c * c
        bound = kappa_continuous(c, c_g, c_r)
        for slot in sorted(kappas_emp):
            t = grid.t0 + slot * grid.delta
            rows.append(TheoryRow(
                provenance="lemma42",
                inputs=f"c_u={c};c_g={c_g};c_r={c_r};t={t:g}",
                kappa=bound.constant, kappa_emp=kappas_emp[slot],
                margin=bound.constant - kappas_emp[slot]))
        trace = gamma_recursion(c_g, c_r, grid.delta, grid.n_mesh)
        rows.append(TheoryRow(
            provenance="gamma_recursion",
            inputs=f"c_g={c_g};c_r={c_r};dt={grid.delta:g};steps={grid.n_mesh}",
            kappa=trace.fixed_point, kappa_emp=trace.floor(),
            margin=trace.floor() - min(c_g, trace.fixed_point)))

    if model.obs_sup is not None and model.obs_sq_sup is not None:
        if config.init.kind == "gaussian":
            kappa0 = float(np.max(np.linalg.eigvalsh(config.init.cov)))
        else:
            kappa0 = empirical_poincare_1d(Density1D(grid=config.init.grid,
                                                     values=config.init.values))
        T = grid.t_end - grid.t0
        bound = kappa_delta(kappa0, T, model.drift_lipschitz or 0.0,
                            model.obs_sup, model.obs_sq_sup, grid.delta,
                            float(np.max(np.abs(np.diff(path.z_knots)))))
        emp_max = max(kappas_emp.values()) if kappas_emp else float("nan")
        rows.append(TheoryRow(
            provenance="lemma51",
            inputs=";".join(f"{k}={v:g}" for k, v in bound.inputs.items()),
            kappa=bound.constant, kappa_emp=emp_max,
            margin=bound.constant - emp_max))
    return rows


# ---------------------------------------------------------------------------
# CSV emission

def _f(x) -> str:
    return format(float(x), ".17g")


def emit_plot_data(report: RunReport, out_dir: str):
    """series.csv (long format keyed by t, filter), gain_log.csv, report.json."""
    os.makedirs(out_dir, exist_ok=True)
    d = report.ref_means.shape[1]
    mean_cols = [f"mean_{j + 1}" for j in range(d)]
    cov_cols = [f"cov_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
    with open(os.path.join(out_dir, "series.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "filter"] + mean_cols + cov_cols
                   + ["h_bar", "err_mean", "err_cov"])
        for res in report.results:
            if res.run is None:
                continue
            run = res.run
            err_mean = np.linalg.norm(run.means - report.ref_means, axis=1)
            err_cov = np.linalg.norm(
                (run.covs - report.ref_covs).reshape(err_mean.size, -1), axis=1)
            for k, t in enumerate(run.times):
                w.writerow([_f(t), res.label]
                           + [_f(v) for v in run.means[k]]
                           + [_f(v) for v in run.covs[k].ravel()]
                           + [_f(run.h_bars[k]), _f(err_mean[k]), _f(err_cov[k])])
    diag_keys = ["residual", "centring", "condition_number", "epsilon"]
    with open(os.path.join(out_dir, "gain_log.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["filter", "step", "method"] + diag_keys)
        for res in report.results:
            if res.run is None:
                continue
            for entry in res.run.step_log:
                w.writerow([res.label, entry.get("step"), entry.get("method")]
                           + [(_f(entry[k]) if k in entry else "")
                              for k in diag_keys])
    summary = {
        "schema_version": SCHEMA_VERSION,
        "reference": report.reference_kind,
        "slope_checksum": report.slope_checksum,
        "wall_clock": report.wall_clock,
        "filters": {
            res.label: {
                "error": res.error,
                "rmse_mean": res.rmse_mean,
                "terminal_err_mean": res.terminal_err_mean,
                "terminal_err_cov": res.terminal_err_cov,
                "wall_clock": res.wall_clock,
            } for res in report.results
        },
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)


def emit_sweep_csv(report: SweepReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["axis", "delta_or_n", "seed", "filter", "rmse", "rmse_exact"])
        for row in report.rows:
            w.writerow([row.axis, _f(row.value), row.seed, row.filter_label,
                        _f(row.rmse), _f(row.rmse_exact)])
    with open(os.path.join(out_dir, "sweep_trends.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["filter", "seed", "spearman_rho", "monotone_seeds"])
        for (label, seed), rho in sorted(report.trends.items()):
            w.writerow([label, seed,
                        "" if np.isnan(rho) else _f(rho),
                        report.monotone_counts.get(label, 0)])


def emit_theory_csv(rows: list, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "theory.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["provenance", "inputs", "kappa", "kappa_emp", "margin"])
        for r in rows:
            w.writerow([r.provenance, r.inputs, _f(r.kappa), _f(r.kappa_emp),
                        _f(r.margin)])


# ---------------------------------------------------------------------------
# entry point

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="flowfilter",
        description="particle-flow filter experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "theory"):
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config.seeds = {"truth": args.seed, "observation": args.seed + 1,
                            "filter": args.seed + 2}
            config.sweep = {**config.sweep, "seeds": [args.seed]}
        out_dir = args.out_dir or config.output_dir
        if args.command == "run":
            report = run_experiment(config, threads=args.threads)
            emit_plot_data(report, out_dir)
            failed = [r.label for r in report.results if r.error]
            if failed:
                print(f"filters failed: {', '.join(failed)}", file=sys.stderr)
                return 3
            print(f"run complete: {len(report.results)} filters, "
                  f"reference {report.reference_kind}, output in {out_dir}")
        elif args.command == "sweep":
            report = run_delta_sweep(config, threads=args.threads)
            emit_sweep_csv(report, out_dir)
            print(f"sweep complete: {len(report.rows)} rows, output in {out_dir}")
        else:
            rows = theory_certificates(config)
            emit_theory_csv(rows, out_dir)
            print(f"theory certificates: {len(rows)} rows, output in {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FlowFilterError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
