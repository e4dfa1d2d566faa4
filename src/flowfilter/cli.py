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

Exit codes: 0 success, 2 config error (also two filters of one label, or an
output directory that cannot be made), 3 numerical, allocation or output failure.
All seeds are explicit in the config; re-running a config reproduces every
CSV bitwise.  The filters of a run, and the runs of one sweep seed, share
the filter seed, so they advance as one lockstep group
(filters.run_lockstep) that draws each noise block once; --threads is
accepted and changes nothing.  main first sets the allocator policy of
its process (_keep_freed_heap), so a step's temporaries are reused from
the heap in place of faulting in again.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import sys
import time
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from . import _kernels
from .ensemble import Density1D, density_from_function
from .errors import (ConfigError, FlowFilterError, NonPositiveDensity,
                     NonPositiveParameter)
from .filters import FilterKind, FilterRun, Run, run_lockstep
# bound here only for the tracer in perfbench/layers.py, which wraps it
from .filters import run_filter  # noqa: F401
from .gain import ASSEMBLERS, GAIN_OPTS, POSITIVE, TWINS, galerkin_basis_size, in_dimension
from .models import GaussianLaw, LogConcaveOUSpec, SystemModel, \
    make_linear_gaussian, make_log_concave_ou
from .paths import (ObservationPath, TimeGrid, simulate_observations,
                    simulate_truth, smoothed_path)
from .reference import run_grid_kushner, run_kalman_bucy, substeps_per_fine_step
from .rng import CounterStream
from .theory import (empirical_poincare_1d, gamma_recursion,
                     kappa_continuous, kappa_delta)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# model registry

def _build_linear_gaussian(params: dict) -> SystemModel:
    return make_linear_gaussian(params["A"], params["H"])


def _ou_spec(params: dict) -> LogConcaveOUSpec:
    """U = -c|x|^2/2 with the constants (C1)-(C4) of a checked
    log_concave_ou model; c_r = 2c^2 is the convexity of R."""
    c = params["c"]
    return LogConcaveOUSpec(
        potential=lambda x: -0.5 * c * np.sum(x * x, axis=1),
        grad=lambda x: -c * x,
        c_u=c, c_g=params["c_g"], c_r=2.0 * c * c, linear_growth_D=c + 1.0)


def _build_log_concave_ou(params: dict) -> SystemModel:
    return make_log_concave_ou(_ou_spec(params), params["H"])


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
    """Programmatic registration hook for custom drifts; a model without
    a MODEL_PARAMS table takes its parameters unchecked."""
    MODEL_REGISTRY[name] = builder


# ---------------------------------------------------------------------------
# configuration

@dataclass
class FilterSpec:
    kind: FilterKind
    gain: str
    gain_opts: dict

    def label(self) -> str:
        # gain method included so configs running one kind under several
        # gain methods stay distinguishable in every output table
        return f"{self.kind.label()}/{self.gain}"


@dataclass
class ExperimentConfig:
    model_name: str
    model_params: dict
    grid: TimeGrid
    init: Union[GaussianLaw, Density1D]
    ensemble_size: int
    filters: list
    seeds: dict
    reference: dict
    sweep: dict
    output_dir: str
    sha256: str             # of the parsed document, as canonical JSON

    def build_model(self) -> SystemModel:
        try:
            model = MODEL_REGISTRY[self.model_name](self.model_params)
        except (ValueError, TypeError, NonPositiveParameter) as exc:
            raise ConfigError("model", str(exc)) from None
        if self.init.dim != model.dim:
            raise ConfigError("init", f"a {self.init.dim}D initial law for a "
                              f"{model.dim}D model")
        for i, spec in enumerate(self.filters):
            if spec.gain == "exact_gaussian" and model.H is None:
                raise ConfigError(f"filters[{i}].gain", "exact_gaussian needs an "
                                  f"H row, which {self.model_name} has not")
        return model


# The config schema.  A leaf is (description, check, default): check is a
# predicate of the JSON value, or [spec] for a list whose items each match
# spec; default is the value taken when the key is absent, or REQUIRED.  A
# leaf without a default (gain.GAIN_OPTS, sweep) stays absent when absent.
# A dict is an object with exactly its keys, walked as {} when absent.
REQUIRED = object()


@dataclass(frozen=True)
class _Pick:
    """An object whose other keys are those of the table that the value of
    its key picks; a value without a table leaves them unchecked."""
    key: str
    leaf: tuple
    tables: dict


def _at_least(low: int) -> tuple:
    return f"an integer >= {low}", lambda v: type(v) is int and v >= low


# a number field holds a float whether or not its JSON number has a
# fraction, so that theory.csv prints c_u=1.0 for "c": 1
NUMBER = ("a finite number",
          lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max)
_FLOATS = (NUMBER[1], POSITIVE[1])
VECTOR = ("a list of finite numbers", [NUMBER])
MATRIX = ("a list of lists of finite numbers", [VECTOR])
STRING = ("a string", lambda v: isinstance(v, str))
SEED = _at_least(0)
GAINS = sorted({gain for row in ASSEMBLERS.values() for gain in row})
# the grid Kushner points of the run and sweep reference, and of the theory
# snapshots, when reference.grid_kushner.points is absent
REFERENCE_POINTS = 1201
THEORY_POINTS = 2001
# the most cell updates (points x CFL substeps x fine steps) that a grid
# Kushner solve may take: about 18 minutes at some 10 ns per cell update
MAX_REFERENCE_CELL_UPDATES = 10**11

# the parameters of the built-in models, by name; apart from MODEL_REGISTRY,
# whose builders register_model may replace
MODEL_PARAMS = {
    "linear_gaussian": {"A": (*MATRIX, REQUIRED), "H": (*VECTOR, REQUIRED)},
    "log_concave_ou": {"c": (*POSITIVE, 1.0), "c_g": (*POSITIVE, 1.0),
                       "H": (*VECTOR, (1.0,))},
    "scalar_tanh": {},
}

CONFIG = {
    "schema_version": (str(SCHEMA_VERSION), lambda v: type(v) is int
                       and v == SCHEMA_VERSION, SCHEMA_VERSION),
    "model": _Pick("name", ("a registered model name", lambda v: isinstance(
        v, str) and v in MODEL_REGISTRY, REQUIRED), MODEL_PARAMS),
    "grid": {"t0": (*NUMBER, 0.0), "T": (*NUMBER, REQUIRED),
             "fine_dt": (*POSITIVE, REQUIRED), "delta": (*POSITIVE, REQUIRED)},
    "init": _Pick("kind", ('"gaussian" or "grid_table"', lambda v: v in (
        "gaussian", "grid_table"), "gaussian"), {
        "gaussian": {"mean": (*VECTOR, REQUIRED), "cov": (*MATRIX, REQUIRED)},
        "grid_table": {"grid": (*VECTOR, REQUIRED), "values": (*VECTOR, REQUIRED)}}),
    "ensemble_size": (*_at_least(2), REQUIRED),
    "filters": ("a list of filters", [_Pick("gain", (
        f"one of {GAINS}", lambda v: v in GAINS, "exact_gaussian"), {gain: {
            "kind": (*STRING, REQUIRED), "mass_matrix": (*STRING, None),
            "gain_opts": GAIN_OPTS.get(gain, {})} for gain in GAINS})], ()),
    "seeds": {key: (*SEED, REQUIRED) for key in ("truth", "observation", "filter")},
    # absent: the grid's delta, seeds.filter and no n axis (run_delta_sweep)
    "sweep": {"delta": ("a non-empty list of positive finite numbers", [POSITIVE]),
              "seeds": ("a non-empty list of integers >= 0", [SEED]),
              "n": ("a list of integers >= 2", [_at_least(2)])},
    "reference": {
        "kalman_bucy": ("true or false", lambda v: isinstance(v, bool), True),
        "grid_kushner": {"points": (*_at_least(3), None),
                         "half_width": (*POSITIVE, 6.0)}},
    "output_dir": ("a non-empty string",
                   lambda v: isinstance(v, str) and v != "", "out"),
}


def _walk(value, spec, path: str):
    """value checked against spec, with the defaults filled in; a fault
    raises ConfigError naming its field."""
    if isinstance(spec, tuple):
        what, check = spec[:2]
        if isinstance(check, list) and isinstance(value, list):
            return [_walk(v, check[0], path if isinstance(check[0], tuple)
                          else f"{path}[{i}]") for i, v in enumerate(value)]
        if not isinstance(check, list) and check(value):
            return float(value) if check in _FLOATS else value
        raise ConfigError(path, f"must be {what}, not {value!r}")
    if not isinstance(value, dict):
        raise ConfigError(path, "must be an object")
    if isinstance(spec, _Pick):
        choice = _walk({spec.key: value[spec.key]} if spec.key in value else {},
                       {spec.key: spec.leaf}, path)[spec.key]
        if spec.tables.get(choice) is None:
            return dict(value)
        spec = {spec.key: spec.leaf, **spec.tables[choice]}
    for key in value:
        if key not in spec:
            raise ConfigError(f"{path}.{key}".lstrip("."),
                              f"unknown; allowed: {sorted(spec)}")
    out = {}
    for key, sub in spec.items():
        where = f"{path}.{key}".lstrip(".")
        if key in value or not isinstance(sub, tuple):
            out[key] = _walk(value[key] if key in value else {}, sub, where)
        elif sub[2:] == (REQUIRED,):
            raise ConfigError(where, "missing required field")
        elif sub[2:]:
            out[key] = sub[2]
    return out


def parse_config(raw) -> ExperimentConfig:
    """The config walked against CONFIG, then the rules across fields."""
    cfg = _walk(raw, CONFIG, "")
    g, sweep = cfg["grid"], cfg["sweep"]
    if g["T"] <= g["t0"]:
        raise ConfigError("grid.T", f"must be greater than grid.t0 = {g['t0']}")
    try:
        grid = TimeGrid(g["t0"], g["T"], g["fine_dt"], g["delta"])
    except (ValueError, OverflowError) as exc:
        raise ConfigError("grid", str(exc)) from None
    model = cfg["model"]
    # the Euler step of the drift -c x, in the truth path and in every
    # filter, multiplies x by 1 - c fine_dt
    if model["name"] == "log_concave_ou" and model["c"] * grid.fine_dt >= 2:
        raise ConfigError("model.c", f"c * grid.fine_dt must be below 2, not "
                          f"{model['c'] * grid.fine_dt:g}")
    law = dict(cfg["init"])
    try:
        if law.pop("kind") == "gaussian":
            init = GaussianLaw(**law)
        else:   # held to unit mass, which Density1D would restore silently
            init = Density1D(**law)
            mass = np.trapezoid(np.asarray(law["values"], dtype=float), init.grid)
            if abs(mass - 1.0) > 1e-10:
                raise ValueError(f"grid table mass {mass} not within 1e-10 of 1")
    except ValueError as exc:
        raise ConfigError("init", str(exc)) from None
    _check_path_size(grid, init.dim)
    filters = []
    for i, f in enumerate(cfg["filters"]):
        try:
            kind = FilterKind(tag=f["kind"], mass_matrix=f["mass_matrix"])
        except ValueError as exc:
            field = "kind" if f["kind"] not in FilterKind.TAGS else "mass_matrix"
            raise ConfigError(f"filters[{i}].{field}", str(exc)) from None
        label = kind.label()    # a kind with no row in this dimension is at fault
        gains = sorted(g for g in ASSEMBLERS[label] if in_dimension(label, g, init.dim))
        if f["gain"] not in gains:
            raise ConfigError(f"filters[{i}].{'gain' if gains else 'kind'}", f"{label} "
                              f"takes {gains or 'no gain'} in {init.dim}D, not {f['gain']!r}")
        spec = FilterSpec(kind, f["gain"], f["gain_opts"])
        same = [j for j, other in enumerate(filters) if other.label() == spec.label()]
        if same:        # every output keys on the label
            raise ConfigError(f"filters[{i}]", f"{spec.label()} is the label of "
                              f"filters[{same[0]}] too; outputs key on it")
        filters.append(spec)
    # a delta galerkin row solves its drift on the monomial basis, which
    # needs more particles than functions; the continuous-time galerkin rows
    # are constant rows
    if any(f.gain == "galerkin" and f.kind.consumes_slope for f in filters):
        nb = galerkin_basis_size(init.dim)
        for where, n in [("ensemble_size", cfg["ensemble_size"]),
                         *(("sweep.n", n) for n in sweep.get("n", ()))]:
            if n <= nb:
                raise ConfigError(where, f"a galerkin filter in {init.dim}D "
                                  f"needs more than {nb} particles, not {n}")
    for key in ("delta", "seeds"):
        if key in sweep and not sweep[key]:
            raise ConfigError(f"sweep.{key}", "must not be empty")
    if "delta" in sweep:
        for dv in sweep["delta"]:       # each divides the horizon into steps
            try:
                _check_path_size(replace(grid, delta=dv), init.dim)
            except (ValueError, OverflowError) as exc:
                raise ConfigError("sweep.delta", str(exc)) from None
        _check_twins(filters, init.dim)
    return ExperimentConfig(
        model_name=model["name"], model_params=model, grid=grid,
        init=init, ensemble_size=cfg["ensemble_size"], filters=filters,
        seeds=cfg["seeds"], reference=cfg["reference"], sweep=sweep,
        output_dir=cfg["output_dir"],
        sha256=hashlib.sha256(json.dumps(raw, sort_keys=True, separators=(
            ",", ":")).encode()).hexdigest())


def _check_path_size(grid: TimeGrid, dim: int):
    """The truth increments (n_fine, 1, dim) must fit one numpy array."""
    if 8 * (grid.n_fine + 1) * dim > np.iinfo(np.intp).max:
        raise ConfigError("grid", f"fine_dt={grid.fine_dt} gives {grid.n_fine} "
                          f"fine steps of {dim} floats each, more than one "
                          "array can hold")


def _check_out_dir(out_dir: str, field: str):
    """Refuse, creating nothing, an empty output directory name, or one
    whose nearest existing ancestor is not a writable directory."""
    if not out_dir:
        raise ConfigError(field, "must be a non-empty string")
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not (os.path.isdir(path) and os.access(path, os.W_OK | os.X_OK)):
        raise ConfigError(field, f"{out_dir!r}: {path} is not a writable directory")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    # ValueError: invalid JSON or UTF-8; RecursionError: nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError("", f"cannot read {path} as JSON: {exc}") from None
    return parse_config(raw)


# ---------------------------------------------------------------------------
# simulation plumbing

def _simulate_paths(config: ExperimentConfig, model: SystemModel):
    grid = config.grid
    d = model.dim
    s = config.seeds
    x0 = config.init.sample(1, CounterStream(s["truth"], label=0).normals(0, (1, d)))
    dv = CounterStream(s["truth"], label=1).increments(
        np.empty((grid.n_fine, 1, d)), grid.fine_dt)
    dw = CounterStream(s["observation"], label=2).increments(
        np.empty((grid.n_fine, 1, 1)), grid.fine_dt)
    states = simulate_truth(model, grid, x0, dv.reshape(grid.n_fine, d))
    return simulate_observations(model, states, grid, dw.reshape(grid.n_fine))


def _initial_cloud(config: ExperimentConfig, d: int,
                   n: Optional[int] = None) -> np.ndarray:
    n = config.ensemble_size if n is None else n
    return config.init.sample(n, CounterStream(config.seeds["filter"], label=0)
                              .normals(0, (n, d)))


def _reseeded(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    """config with the seeds that --seed and each sweep seed derive."""
    return replace(config, seeds={"truth": seed, "observation": seed + 1,
                                  "filter": seed + 2})


def _init_grid_density(config: ExperimentConfig, points: int) -> Density1D:
    """The initial law on the grid Kushner grid (of points unless configured),
    whose CFL step 0.4 dx^2 must split a fine step into a finite number of
    substeps, and the solve into at most MAX_REFERENCE_CELL_UPDATES cell
    updates."""
    if isinstance(config.init, Density1D):
        where, dens = "init", config.init
    else:
        where = "reference.grid_kushner"
        half_width = config.reference["grid_kushner"]["half_width"]
        points = config.reference["grid_kushner"]["points"] or points
        mean, var = float(config.init.mean[0]), float(config.init.cov[0, 0])
        if not 2.0 * half_width < math.inf:     # linspace spans 2 half_width
            raise ConfigError(where, f"a grid of half-width {half_width:g} "
                              "spans more than the float range")

        def pdf(grid):
            with np.errstate(over="ignore"):    # a square past it: exp(-inf) = 0
                values = np.exp(-0.5 * (grid - mean) ** 2 / var)
            return values / np.sqrt(2 * np.pi * var)

        try:
            dens = density_from_function(pdf, half_width, points)
        except ValueError as exc:
            raise ConfigError(where, f"the initial law on {points} points over "
                              f"+-{half_width}: {exc}") from None
    try:        # a CFL step of 0, past the float range, or too short
        substeps = substeps_per_fine_step(dens, config.grid.fine_dt)
    except (ZeroDivisionError, OverflowError):
        raise ConfigError(where, f"the grid spacing {dens.dx:g} splits no fine "
                          f"step of {config.grid.fine_dt:g} into a finite "
                          "count of CFL steps") from None
    # a float, which may be inf: the substeps can number up to 1e308
    updates = float(substeps) * dens.grid.size * config.grid.n_fine
    if updates > MAX_REFERENCE_CELL_UPDATES:
        raise ConfigError(where, f"{dens.grid.size} points at spacing "
                          f"{dens.dx:g} need {updates:.3g} cell updates over "
                          f"{config.grid.n_fine} fine steps, more than "
                          f"{MAX_REFERENCE_CELL_UPDATES:.0e}")
    return dens


# ---------------------------------------------------------------------------
# run_experiment

@dataclass
class FilterResult:
    label: str
    gain: str
    run: Optional[FilterRun]
    error: Optional[str]
    rmse_mean: float = float("nan")
    terminal_err_mean: float = float("nan")
    terminal_err_cov: float = float("nan")
    wall_clock: float = 0.0
    # mean and covariance error against the reference at every mesh point
    err_mean: Optional[np.ndarray] = None
    err_cov: Optional[np.ndarray] = None


@dataclass
class RunReport:
    reference_kind: str
    ref_means: np.ndarray
    ref_covs: np.ndarray
    reference_clip_count: Optional[int]     # None for Kalman-Bucy
    reference_substeps_per_fine_step: Optional[int]     # likewise
    results: list
    slope_checksum: str
    wall_clock: float
    environment: dict


def environment(config: ExperimentConfig) -> dict:
    """What produced a report: the kernel backend, the Python and numpy
    versions, the usable core count and the config's sha256."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()
    return {"backend": _kernels.BACKEND, "python": platform.python_version(),
            "numpy": np.__version__, "nproc": nproc,
            "config_sha256": config.sha256}


def _kalman_bucy_exact(config: ExperimentConfig, model: SystemModel) -> bool:
    return model.kind == "linear_gaussian" and isinstance(config.init, GaussianLaw)


def _reference_density(config: ExperimentConfig,
                       model: SystemModel) -> Optional[Density1D]:
    """The initial law of the grid Kushner reference, or None where the
    reference is Kalman-Bucy; a ConfigError where no reference fits."""
    if _kalman_bucy_exact(config, model) and config.reference["kalman_bucy"]:
        return None
    if model.dim != 1:
        raise ConfigError("reference", "no reference available: grid Kushner "
                          "is 1D only and the model is not linear-Gaussian")
    return _init_grid_density(config, REFERENCE_POINTS)


def _reference_solution(config: ExperimentConfig, model: SystemModel,
                        path: ObservationPath):
    """Mesh-point reference moments driven by the identical slope process:
    Kalman-Bucy for a linear-Gaussian model from a Gaussian law, else the
    1D grid Kushner filter.  Returns (kind, means, covs, clip_count, nsub):
    the grid's count of clipped negative cells and its substeps per fine
    step, both None for Kalman-Bucy."""
    grid = config.grid
    dens = _reference_density(config, model)
    if dens is None:
        # the smoothed path's increments
        drive = path.fine_slopes() * path.grid.fine_dt
        means, covs = run_kalman_bucy(model.A, model.h_row(), config.init.mean,
                                      config.init.cov, drive, grid.fine_dt,
                                      record_every=grid.steps_per_mesh)
        return "kalman_bucy", means, covs, None, None
    means, vars_, _, clips = run_grid_kushner(dens, model, path.slopes,
                                              grid.fine_dt, grid.steps_per_mesh)
    return ("grid_kushner", means[:, None], vars_[:, None, None], clips,
            substeps_per_fine_step(dens, grid.fine_dt))


def _filter_result(spec: FilterSpec, out: FilterRun, ref_means: np.ndarray,
                   ref_covs: np.ndarray) -> FilterResult:
    """The report row of a run_lockstep outcome: the abort that ended the
    run, or the run with its errors against the reference."""
    if out.aborted is not None:
        return FilterResult(label=spec.label(), gain=spec.gain, run=None,
                            error=f"{type(out.aborted).__name__}: {out.aborted}",
                            wall_clock=out.seconds)
    err_mean = np.linalg.norm(out.means - ref_means, axis=1)
    err_cov = np.linalg.norm((out.covs - ref_covs).reshape(err_mean.size, -1),
                             axis=1)
    return FilterResult(label=spec.label(), gain=spec.gain, run=out, error=None,
                        wall_clock=out.seconds,
                        rmse_mean=float(np.sqrt(np.mean(err_mean**2))),
                        terminal_err_mean=float(err_mean[-1]),
                        terminal_err_cov=float(err_cov[-1]),
                        err_mean=err_mean, err_cov=err_cov)


def run_experiment(config: ExperimentConfig, threads: int = 1) -> RunReport:
    """One truth + observation path; every filter consumes the identical
    path; errors are measured against the reference at mesh points only.
    The filters advance as one lockstep group, so threads is accepted but
    does not change how they run.  One filter's failure never aborts the
    siblings."""
    t_start = time.perf_counter()
    model = config.build_model()
    path = _simulate_paths(config, model)
    checksum = hashlib.sha256(path.slopes.tobytes()).hexdigest()
    ref_kind, ref_means, ref_covs, ref_clips, ref_nsub = _reference_solution(
        config, model, path)
    cloud = _initial_cloud(config, model.dim)
    runs = [Run(spec.kind, spec.gain, path, config.grid, cloud, spec.gain_opts)
            for spec in config.filters]
    results = [_filter_result(spec, out, ref_means, ref_covs) for spec, out in zip(
        config.filters, run_lockstep(runs, model, config.seeds["filter"]))]
    return RunReport(reference_kind=ref_kind, ref_means=ref_means,
                     ref_covs=ref_covs, reference_clip_count=ref_clips,
                     reference_substeps_per_fine_step=ref_nsub,
                     results=results, slope_checksum=checksum,
                     wall_clock=time.perf_counter() - t_start,
                     environment=environment(config))


# ---------------------------------------------------------------------------
# sweeps

def _twin(spec: FilterSpec, d: int) -> Optional[str]:
    """The tag of spec's twin in gain.TWINS, where it runs spec's gain in dD."""
    tag = TWINS.get(spec.kind.label())
    if spec.gain in ASSEMBLERS.get(tag, ()) and in_dimension(tag, spec.gain, d):
        return tag


def _check_twins(filters: list, d: int):
    """A delta sweep compares each filter with its continuous-time twin."""
    for i, spec in enumerate(filters):
        if _twin(spec, d) is None:
            raise ConfigError(f"filters[{i}].kind", f"{spec.label()} has no "
                              "continuous-time twin to sweep delta against")


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


def _ranks(a: np.ndarray) -> np.ndarray:
    """Ranks from 1, each tie given the mean of the ranks it spans."""
    _, inv, counts = np.unique(a, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - 0.5 * (counts - 1))[inv]


def _spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Spearman's rho: the correlation of the ranks, taken as the [1, 0]
    entry, in which scipy.stats.spearmanr divides."""
    if not np.isfinite(y).all() or len(set(y)) <= 1 or x.size < 2:
        return float("nan")
    ranks = np.column_stack((_ranks(x), _ranks(y)))
    return float(np.corrcoef(ranks, rowvar=False)[1, 0])


def _means(out: FilterRun, every: int = 1) -> Optional[np.ndarray]:
    """Every every-th mesh mean of a run_lockstep outcome; None if it aborted."""
    return out.means[::every] if out.aborted is None else None


def _rmse(means: Optional[np.ndarray], ref: Optional[np.ndarray]) -> float:
    """nan where either side is missing: an aborted run, or no reference."""
    if means is None or ref is None:
        return float("nan")
    return float(np.sqrt(np.mean(np.sum((means - ref) ** 2, axis=1))))


def run_delta_sweep(config: ExperimentConfig) -> SweepReport:
    """Pathwise RMSE of each delta-filter against its continuous-time form
    (identical seeds and particle noise) across the delta list, per seed;
    RMSE against the exact reference is reported alongside.  The trend
    (Spearman rho and per-seed monotonicity) is reported, not asserted.  A
    run that aborts, or whose twin does, reads nan and has no trend."""
    model = config.build_model()
    if not config.filters:
        raise ConfigError("filters", "a sweep needs at least one filter")
    _check_twins(config.filters, model.dim)     # also when sweep.delta is absent
    sweep = {"delta": [config.grid.delta], "seeds": [config.seeds["filter"]],
             "n": [], **config.sweep}
    deltas, seeds = sorted(sweep["delta"], reverse=True), sweep["seeds"]
    for a, b in zip(deltas[:-1], deltas[1:]):
        if abs(a / b - round(a / b)) > 1e-9:
            raise ConfigError("sweep.delta",
                              f"{a} is not an integer multiple of {b}")
    if sweep["n"]:          # refuse a bad reference before the delta axis runs
        _reference_density(config, model)
    rows, trends, monotone = [], {}, {}
    coarse_delta = max(deltas)
    grids = [replace(config.grid, delta=dv) for dv in deltas]   # coarsest first
    twins = [_twin(spec, model.dim) for spec in config.filters]

    # seed -> its path on the configured mesh; the fine observation depends
    # only on fine_dt and the horizon, which every mesh of the sweep shares
    fine_paths = {}
    for seed in seeds:
        local = _reseeded(config, seed)
        fine_path = fine_paths[seed] = _simulate_paths(local, model)
        cloud = _initial_cloud(local, model.dim)
        paths = [smoothed_path(fine_path.z, g) for g in grids]
        exact_means = None
        if _kalman_bucy_exact(config, model):
            exact_means, _ = run_kalman_bucy(
                model.A, model.h_row(), config.init.mean, config.init.cov,
                fine_path.fine_increments(), config.grid.fine_dt,
                record_every=grids[0].steps_per_mesh)

        # each filter's twin, which reads the fine increments, recorded on
        # the coarsest mesh, then per filter one run per delta, all in one
        # lockstep group, which computes equal twins and equal runs once
        runs = [Run(FilterKind(tag), spec.gain, paths[0], grids[0], cloud,
                    spec.gain_opts) for spec, tag in zip(config.filters, twins)]
        runs += [Run(spec.kind, spec.gain, p, g, cloud, spec.gain_opts)
                 for spec in config.filters for p, g in zip(paths, grids)]
        outs = run_lockstep(runs, model, local.seeds["filter"])
        twin_outs, outs = outs[:len(twins)], iter(outs[len(twins):])
        for spec, twin_out in zip(config.filters, twin_outs):
            twin_means = _means(twin_out)
            rmses = []
            for dv in deltas:
                means_c = _means(next(outs), round(coarse_delta / dv))
                rmse = _rmse(means_c, twin_means)
                rows.append(SweepRow(axis="delta", value=dv, seed=seed,
                                     filter_label=spec.label(), rmse=rmse,
                                     rmse_exact=_rmse(means_c, exact_means)))
                rmses.append(rmse)
            arr = np.array(rmses)
            # trend vs sweep order (delta descending): improving RMSE <=> rho < 0
            trends[(spec.label(), seed)] = _spearman(
                np.arange(len(deltas), dtype=float), arr)
            monotone[spec.label()] = monotone.get(spec.label(), 0) + int(
                len(deltas) > 1 and bool(np.all(np.diff(arr) <= 1e-15)))

    # ensemble-size sweep at the configured delta; a seed's path and
    # reference do not depend on n
    references = {}             # seed -> reference means
    for n_val in sweep["n"]:
        for seed in seeds:
            local = _reseeded(config, seed)
            path = fine_paths[seed]
            if seed not in references:
                references[seed] = _reference_solution(local, model, path)[1]
            ref_means = references[seed]
            cloud = _initial_cloud(local, model.dim, n=n_val)
            runs = [Run(spec.kind, spec.gain, path, config.grid, cloud,
                        spec.gain_opts) for spec in config.filters]
            outs = run_lockstep(runs, model, local.seeds["filter"])
            for spec, out in zip(config.filters, outs):
                rmse = _rmse(_means(out), ref_means)
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


def _certificate_density(grid: np.ndarray, values: np.ndarray) -> Density1D:
    """The density whose spectral gap is certified: values cut to the points
    from the first to the last at or above 1e-300, and floored at 1e-300
    between them.  An underflowed or zero run at either end would add
    modes of its own, confined to that run, below the gap of the law."""
    kept = np.flatnonzero(values >= 1e-300)
    if kept.size < 2:
        raise NonPositiveDensity("the density is at or above 1e-300 on "
                                 f"{kept.size} grid point(s); a spectral gap "
                                 "needs two")
    cut = slice(kept[0], kept[-1] + 1)
    return Density1D(grid=grid[cut], values=np.maximum(values[cut], 1e-300))


def theory_certificates(config: ExperimentConfig) -> list:
    """Certificate table for the configured system: the continuous-time
    bound with empirical posterior checks (log-concave OU), the gamma
    fixed point, and the per-path delta bound for bounded observations."""
    model = config.build_model()
    if model.dim != 1:
        raise ConfigError("model", "theory needs a 1D model: its grid Kushner "
                          "snapshots are 1D only")
    grid = config.grid
    rows = []
    path = _simulate_paths(config, model)

    dens0 = _init_grid_density(config, THEORY_POINTS)
    slots = [0, grid.n_mesh // 2, grid.n_mesh]      # t0, the midpoint, T
    _, _, snapshots, _ = run_grid_kushner(dens0, model, path.slopes,
                                          grid.fine_dt, grid.steps_per_mesh,
                                          snapshot_slots=slots)
    kappas_emp = {slot: empirical_poincare_1d(
        _certificate_density(snap.grid, snap.values))
        for slot, snap in snapshots.items()}

    if config.model_name == "log_concave_ou":
        spec = _ou_spec(config.model_params)
        c, c_g, c_r = spec.c_u, spec.c_g, spec.c_r
        bound = kappa_continuous(c, c_g, c_r)
        for slot in sorted(kappas_emp):
            t = grid.t0 + slot * grid.delta
            rows.append(TheoryRow(
                provenance=bound.provenance,
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
        if isinstance(config.init, GaussianLaw):
            kappa0 = float(np.max(np.linalg.eigvalsh(config.init.cov)))
        else:
            kappa0 = empirical_poincare_1d(
                _certificate_density(config.init.grid, config.init.values))
        bound = kappa_delta(kappa0, grid.t_end - grid.t0,
                            model.drift_lipschitz or 0.0, model.obs_sup,
                            model.obs_sq_sup, grid.delta,
                            float(np.max(np.abs(np.diff(path.z_knots)))))
        emp_max = max(kappas_emp.values())
        rows.append(TheoryRow(
            provenance=bound.provenance,
            inputs=";".join(f"{k}={v:g}" for k, v in bound.inputs.items()),
            kappa=bound.constant, kappa_emp=emp_max,
            margin=bound.constant - emp_max))
    return rows


# ---------------------------------------------------------------------------
# CSV emission

def _f(x) -> str:
    return format(float(x), ".17g")


def _write_csv(out_dir: str, name: str, header: list, rows):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def emit_plot_data(report: RunReport, out_dir: str):
    """series.csv (long format keyed by t, filter), gain_log.csv, report.json."""
    d = report.ref_means.shape[1]
    done = [res for res in report.results if res.run is not None]
    _write_csv(out_dir, "series.csv", ["t", "filter"]
               + [f"mean_{j + 1}" for j in range(d)]
               + [f"cov_{i + 1}{j + 1}" for i in range(d) for j in range(d)]
               + ["h_bar", "err_mean", "err_cov"],
               ([_f(t), res.label] + [_f(v) for v in res.run.means[k]]
                + [_f(v) for v in res.run.covs[k].ravel()]
                + [_f(res.run.h_bars[k]), _f(res.err_mean[k]), _f(res.err_cov[k])]
                for res in done for k, t in enumerate(res.run.times)))
    diag_keys = ["residual", "centring", "condition_number", "epsilon"]
    _write_csv(out_dir, "gain_log.csv", ["filter", "step", "method"] + diag_keys,
               ([res.label, k, res.gain]
                + [(_f(entry[key]) if key in entry else "") for key in diag_keys]
                for res in done for k, entry in enumerate(res.run.step_log)))
    summary = {
        "schema_version": SCHEMA_VERSION,
        "reference": report.reference_kind,
        "reference_clip_count": report.reference_clip_count,
        "reference_substeps_per_fine_step":
            report.reference_substeps_per_fine_step,
        "environment": report.environment,
        "slope_checksum": report.slope_checksum,
        "wall_clock": report.wall_clock,
        "filters": {res.label: {key: getattr(res, key) for key in (
            "error", "rmse_mean", "terminal_err_mean", "terminal_err_cov",
            "wall_clock")} for res in report.results},
    }
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)


def emit_sweep_csv(report: SweepReport, out_dir: str):
    _write_csv(out_dir, "sweep.csv",
               ["axis", "delta_or_n", "seed", "filter", "rmse", "rmse_exact"],
               ([row.axis, _f(row.value), row.seed, row.filter_label,
                 _f(row.rmse), _f(row.rmse_exact)] for row in report.rows))
    _write_csv(out_dir, "sweep_trends.csv",
               ["filter", "seed", "spearman_rho", "monotone_seeds"],
               ([label, seed, "" if np.isnan(rho) else _f(rho),
                 report.monotone_counts.get(label, 0)]
                for (label, seed), rho in sorted(report.trends.items())))


def emit_theory_csv(rows: list, out_dir: str):
    _write_csv(out_dir, "theory.csv",
               ["provenance", "inputs", "kappa", "kappa_emp", "margin"],
               ([r.provenance, r.inputs, _f(r.kappa), _f(r.kappa_emp),
                 _f(r.margin)] for r in rows))


# ---------------------------------------------------------------------------
# entry point

# glibc's mallopt parameters (malloc.h) and the values the CLI sets
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _keep_freed_heap():
    """The allocator policy of a CLI process: blocks up to 32 MiB come from
    the heap, and the heap keeps up to 64 MiB of freed memory at its top.

    Every filter step solves again from the current cloud, so it makes and
    drops the same particle-sized temporaries (80 KiB at N = 1e4, 320 KiB
    at N = 4e4).  With glibc's defaults those sit near or above its
    dynamic mmap threshold, or are trimmed from the heap top, so their
    pages fault in again on every step, at a rate that depends on the heap
    layout (even on the length of --out-dir).  Both settings are needed:
    a trim threshold alone turns the dynamic mmap threshold off, so every
    block above 128 KiB becomes a fresh mapping.  Where the C library has
    no mallopt (not glibc) this does nothing.  The library itself sets no
    policy, so importing it leaves the caller's allocator alone.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), \
        ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    mallopt(M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = argparse.ArgumentParser(
        prog="flowfilter", description="particle-flow filter experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "sweep", "theory"):
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override every seed in the config")
        p.add_argument("--out-dir", default=None)
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility; the filters of a "
                       "run share one lockstep loop on one thread")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = _reseeded(config, _walk(args.seed, SEED, "--seed"))
            config.sweep = {**config.sweep, "seeds": [args.seed]}
        if args.out_dir is None:
            out_dir, field = config.output_dir, "output_dir"
        else:
            out_dir, field = args.out_dir, "--out-dir"
        _check_out_dir(out_dir, field)
        if args.command == "run":
            report, emit = run_experiment(config, threads=args.threads), emit_plot_data
            failed = [r.label for r in report.results if r.error]
            done = (f"run complete: {len(report.results)} filters, "
                    f"reference {report.reference_kind}")
        elif args.command == "sweep":
            report, emit = run_delta_sweep(config), emit_sweep_csv
            failed = list(dict.fromkeys(row.filter_label for row in report.rows
                                        if math.isnan(row.rmse)))
            done = f"sweep complete: {len(report.rows)} rows"
        else:
            report, emit = theory_certificates(config), emit_theory_csv
            failed, done = [], f"theory certificates: {len(report)} rows"
        try:
            emit(report, out_dir)
        except OSError as exc:
            print(f"output failure: {exc}", file=sys.stderr)
            return 3
        if args.command == "theory" and not report:
            print(f"no certificate applies to model {config.model_name}: "
                  "lemma42 needs the log_concave_ou model, lemma51 a model "
                  "with obs_sup and obs_sq_sup", file=sys.stderr)
        if failed:
            print(f"filters failed: {', '.join(failed)}", file=sys.stderr)
            return 3
        print(f"{done}, output in {out_dir}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FlowFilterError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"allocation failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
