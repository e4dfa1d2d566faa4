"""The step engine and run driver of the McKean-Vlasov filter catalog.

Every filter advances particles by the one update

    x <- x + M(x) dt + dV + (a(x) + K(x) * slope) dt

with (a, K) from the (kind, gain) row of gain.ASSEMBLERS.  Delta filters
see the slope of the smoothed path on the current mesh interval, the
continuous-time filters slope = dZ/dt of the fine step.  A step solves the
fields from the current cloud, then moves every particle.  Noise comes from
counter-based streams (one block per step, one slot per particle), so runs
are bitwise reproducible for a given seed regardless of scheduling.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .ensemble import Ensemble, compute_moments
from .errors import FilterAborted, FlowFilterError, NonFiniteState
from .gain import (ASSEMBLERS, CoefficientSet, assemble_filter_coefficients,
                   kind_label)
# bound here only for the tracer in perfbench/layers.py, which wraps them
from .gain import _exact_coefficients, continuous_gain  # noqa: F401
from .models import SystemModel
from .paths import ObservationPath, TimeGrid
from .rng import CounterStream


# a failure inside a step that aborts this filter run only, as FilterAborted
STEP_ERRORS = (FlowFilterError, ValueError, FloatingPointError,
               ZeroDivisionError, np.linalg.LinAlgError)


@dataclass(frozen=True)
class FilterKind:
    tag: str
    mass_matrix: Optional[str] = None

    def __post_init__(self):     # mass_matrix is delta_reich's, which needs one
        if self.label() not in ASSEMBLERS or (
                self.mass_matrix is not None and self.tag != "delta_reich"):
            raise ValueError(f"unknown filter kind {self.tag!r} with mass_matrix "
                             f"{self.mass_matrix!r}; known: {sorted(ASSEMBLERS)}")

    @property
    def consumes_slope(self) -> bool:
        return self.tag not in ("fpf_continuous", "crisan_continuous")

    def label(self) -> str:
        return kind_label(self.tag, self.mass_matrix)


def step(kind: FilterKind, gain_method: str, model: SystemModel, x: np.ndarray,
         slope: float, dt: float, dv: np.ndarray, moments=None,
         coeffs: Optional[CoefficientSet] = None, **gain_opts):
    """x + M(x) dt + dV + (a + K slope) dt for the particles x (n, d), with
    (a, K) from coeffs or else the (kind, gain_method) row at the moments of
    x.  Returns the new particles and the solver diagnostics; a density
    floor over more than 10% is reported as degenerate_density, not fatal.
    """
    if coeffs is None:
        if moments is None:
            moments = compute_moments(x, model)
        coeffs = assemble_filter_coefficients(
            kind.tag, x, model, moments, gain_method,
            mass_matrix=kind.mass_matrix, **gain_opts)
    new = x + model.drift(x) * dt + dv + (coeffs.a + coeffs.K * slope) * dt
    diags = dict(coeffs.diagnostics)
    if diags.get("floor_frac", 0.0) > 0.10:
        diags["degenerate_density"] = diags["floor_frac"]
    return new, diags


@dataclass
class FilterRun:
    times: np.ndarray
    means: np.ndarray           # (n_mesh + 1, d)
    covs: np.ndarray            # (n_mesh + 1, d, d)
    h_bars: np.ndarray
    step_log: list
    final_particles: np.ndarray


def run_filter(kind: FilterKind, model: SystemModel, path: ObservationPath,
               init_particles: np.ndarray, grid: TimeGrid, gain_method: str,
               seed: int, gain_opts: Optional[dict] = None) -> FilterRun:
    """Iterate the filter over the fine grid, reassembling the coefficient
    fields every fine step since the law evolves continuously.  Moments are
    computed once a step and recorded at every mesh point.  A STEP_ERRORS
    failure raises FilterAborted with the run up to that mesh point.
    """
    gain_opts = dict(gain_opts or {})
    x = Ensemble(init_particles).particles
    n, d = x.shape
    noise = CounterStream(seed, label=1)
    spm = grid.steps_per_mesh
    sqdt = np.sqrt(grid.fine_dt)
    slopes = path.fine_slopes() if kind.consumes_slope \
        else path.fine_increments() / grid.fine_dt

    times = grid.mesh_times()
    means = np.empty((grid.n_mesh + 1, d))
    covs = np.empty((grid.n_mesh + 1, d, d))
    h_bars = np.empty(grid.n_mesh + 1)
    step_log = []

    def record(slot, m):
        means[slot], covs[slot], h_bars[slot] = m.mean, m.cov, m.h_bar

    def result(upto_mesh):      # the run up to and including that mesh point
        upto = slice(upto_mesh + 1)
        return FilterRun(times[upto], means[upto], covs[upto], h_bars[upto],
                         step_log, final_particles=x)

    for k in range(grid.n_fine):
        moments = compute_moments(x, model)
        if k % spm == 0:
            record(k // spm, moments)
        dv = sqdt * noise.normals(k, (n, d))
        try:
            new, diags = step(kind, gain_method, model, x, slopes[k],
                              grid.fine_dt, dv, moments=moments, **gain_opts)
            if not np.all(np.isfinite(new)):
                raise NonFiniteState(k + 1, kind.label())
        except STEP_ERRORS as exc:
            raise FilterAborted(k, exc, partial=result(k // spm)) from exc
        x = new
        step_log.append({"step": k, "method": gain_method, **diags})
    record(grid.n_mesh, compute_moments(x, model))
    return result(grid.n_mesh)
