"""The step engine and run driver of the McKean-Vlasov filter catalog.

Every filter advances particles by the one update

    x <- x + M(x) dt + dV + (a(x) + K(x) * slope) dt

with (a, K) from the (kind, gain) row of gain.ASSEMBLERS.  Delta filters
see the slope of the smoothed path on the current mesh interval, the
continuous-time filters slope = dZ/dt of the fine step.  A step solves the
fields from the current cloud, then moves every particle.  Noise comes from
counter-based streams (one block per step, one slot per particle), so runs
are bitwise reproducible for a given seed regardless of scheduling.

Runs that share the filter seed and the particle shape (n, d) need the same
noise block at every fine step, so run_lockstep advances them as one group:
it draws a few steps' blocks once into a small buffer, then takes each live
run through all of those steps in turn, so that a run's working set stays
in cache across them.  run_filter is the group of one run.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ensemble import compute_moments
from .errors import FilterAborted, FlowFilterError, NonFiniteState
from .gain import ASSEMBLERS, assemble_filter_coefficients, kind_label
# bound here only for the tracer in perfbench/layers.py, which wraps them
from .gain import _exact_coefficients, continuous_gain  # noqa: F401
from .models import SystemModel
from .paths import ObservationPath, TimeGrid
from .rng import CounterStream


# a failure inside a step that aborts this filter run only, as FilterAborted:
# the typed errors, and MemoryError, which numpy raises before it allocates,
# so the siblings run on; any other exception is a bug and propagates
STEP_ERRORS = (FlowFilterError, MemoryError)

# a group draws this many bytes of noise blocks ahead: 13 fine steps at
# N = 1e4, d = 1, over a mesh interval of the shipped configs; longer
# chunks gain little and add their size to the peak memory
NOISE_BUFFER_BYTES = 1 << 20


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
         slope: float, dt: float, dv: np.ndarray, **gain_opts):
    """x + M(x) dt + dV + (a + K slope) dt for the particles x (n, d), with
    (a, K) from the (kind, gain_method) row, which computes from x all it
    reads.  Returns the new particles and the solver diagnostics; a density
    floor over more than 10% is reported as degenerate_density, not fatal.
    """
    coeffs = assemble_filter_coefficients(kind.tag, x, model, gain_method,
                                          mass_matrix=kind.mass_matrix,
                                          **gain_opts)
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
    seconds: float = 0.0        # wall time of the run's own steps


@dataclass
class Run:
    """One run of a lockstep group: the (kind, gain_method) row driven by
    path on grid, from init_particles (n, d)."""
    kind: FilterKind
    gain_method: str
    path: ObservationPath
    grid: TimeGrid
    init_particles: np.ndarray
    gain_opts: dict = field(default_factory=dict)


class _Lane:
    """A run's particles and records while its group advances it."""

    def __init__(self, run: Run, model: SystemModel):
        x = np.atleast_2d(np.asarray(run.init_particles, dtype=float))
        if x.shape[0] < 2:
            raise ValueError("ensemble needs at least 2 particles")
        if not np.all(np.isfinite(x)):
            raise ValueError("ensemble contains non-finite entries")
        grid = run.grid
        self.run, self.model, self.x = run, model, x
        self.slopes = run.path.fine_slopes() if run.kind.consumes_slope \
            else run.path.fine_increments() / grid.fine_dt
        self.times = grid.mesh_times()
        self.means = np.empty((grid.n_mesh + 1, x.shape[1]))
        self.covs = np.empty((grid.n_mesh + 1, x.shape[1], x.shape[1]))
        self.h_bars = np.empty(grid.n_mesh + 1)
        self.recorded = 0           # mesh points recorded so far
        self.step_log = []
        self.seconds = 0.0
        self.aborted = None         # the FilterAborted that ended the run

    def record(self, m):
        slot = self.recorded
        self.means[slot], self.covs[slot], self.h_bars[slot] = m.mean, m.cov, m.h_bar
        self.recorded += 1

    def result(self) -> FilterRun:       # the run up to its last mesh record
        upto = slice(self.recorded)
        return FilterRun(self.times[upto], self.means[upto], self.covs[upto],
                         self.h_bars[upto], self.step_log,
                         final_particles=self.x, seconds=self.seconds)

    def advance(self, k0: int, dv: np.ndarray) -> bool:
        """Take the fine steps k0, k0 + 1, ... with the noise blocks dv;
        False once the run has aborted."""
        run, model, x = self.run, self.model, self.x
        spm, dt = run.grid.steps_per_mesh, run.grid.fine_dt
        t0 = time.perf_counter()
        failure = None
        for k, dv_k in enumerate(dv, start=k0):
            try:
                if k % spm == 0:
                    self.record(compute_moments(x, model))
                new, diags = step(run.kind, run.gain_method, model, x,
                                  self.slopes[k], dt, dv_k, **run.gain_opts)
                if not np.all(np.isfinite(new)):
                    raise NonFiniteState(k + 1, run.kind.label())
            except STEP_ERRORS as exc:
                failure = (k, exc)
                break
            x = new
            self.step_log.append({"step": k, "method": run.gain_method, **diags})
        self.x = x
        self.seconds += time.perf_counter() - t0
        if failure is not None:
            k, exc = failure
            self.aborted = FilterAborted(k, exc, partial=self.result())
            self.aborted.__cause__ = exc
        return self.aborted is None

    def finish(self):
        if self.aborted is not None:
            return self.aborted
        self.record(compute_moments(self.x, self.model))
        return self.result()


def run_lockstep(runs: list, model: SystemModel, seed: int) -> list:
    """Advance runs that share the seed and the particle shape (n, d) over
    one fine grid, each on its own mesh.  Each fine step's noise block
    sqrt(dt) N(0, I) is drawn once for the group into a buffer of up to
    NOISE_BUFFER_BYTES, then every live run takes the buffered steps,
    recording the moments of its cloud at its mesh points.  Returns each
    run's FilterRun, or the FilterAborted of a run whose step raised one of
    STEP_ERRORS, carrying its series up to that step; the other runs go on
    unchanged.
    """
    lanes = [_Lane(run, model) for run in runs]
    if not lanes:
        return []
    grid = runs[0].grid
    n, d = lanes[0].x.shape
    if any(lane.x.shape != (n, d) or lane.run.grid.fine_dt != grid.fine_dt
           or lane.run.grid.n_fine != grid.n_fine for lane in lanes):
        raise ValueError("a lockstep group shares one particle shape (n, d) "
                         "and one fine grid")
    noise = CounterStream(seed, label=1)
    buf = np.empty((max(1, min(grid.n_fine, NOISE_BUFFER_BYTES // (8 * n * d))),
                    n, d))
    live = lanes
    for k0 in range(0, grid.n_fine, len(buf)):
        dv = noise.increments(buf[:grid.n_fine - k0], grid.fine_dt, k0)
        live = [lane for lane in live if lane.advance(k0, dv)]
        if not live:
            break
    return [lane.finish() for lane in lanes]


def run_filter(kind: FilterKind, model: SystemModel, path: ObservationPath,
               init_particles: np.ndarray, grid: TimeGrid, gain_method: str,
               seed: int, gain_opts: Optional[dict] = None) -> FilterRun:
    """Iterate one filter over the fine grid, a lockstep group of one run:
    the coefficient fields are reassembled every fine step since the law
    evolves continuously, and moments are recorded at every mesh point.  A
    STEP_ERRORS failure raises FilterAborted with the run up to that mesh
    point.
    """
    [out] = run_lockstep([Run(kind, gain_method, path, grid, init_particles,
                              dict(gain_opts or {}))], model, seed)
    if isinstance(out, FilterAborted):
        raise out
    return out
