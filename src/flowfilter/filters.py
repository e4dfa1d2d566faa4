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

Runs of a group that are one computation, the same row of ASSEMBLERS fed
the same slopes from the same path and cloud on an equal mesh with equal
options (in 1D delta_fpf and crisan_xiong on integral_1d, say), are
computed once: the first of them advances, and each of the others gets its
own copy of that outcome, whose seconds is the time of the one shared
computation.
"""

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .ensemble import compute_moments
from .errors import FilterAborted, FlowFilterError, NonFiniteState
from .gain import ASSEMBLERS, TWINS, assemble_filter_coefficients, in_dimension
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
# chunks gain little and add their size to the peak memory, and one-step
# chunks cost 7.7% of perfbench's nonlinear_1d wall_cal_s (1.899 -> 2.044 s
# over 8 alternated pairs, faster in 1 of 8)
NOISE_BUFFER_BYTES = 1 << 20


@dataclass(frozen=True)
class FilterKind:
    tag: str
    mass_matrix: Optional[str] = None
    TAGS = sorted({label.split("(")[0] for label in ASSEMBLERS})
    MASS_MATRICES = sorted(label[:-1].split("(")[1] for label in ASSEMBLERS if "(" in label)

    def __post_init__(self):
        if self.tag not in self.TAGS:
            raise ValueError(f"unknown filter kind {self.tag!r}; known: {self.TAGS}")
        if self.label() not in ASSEMBLERS:      # a known tag: the mass_matrix is at fault
            raise ValueError(f"{self.tag} with mass_matrix {self.mass_matrix!r}: only "
                             f"delta_reich takes one, one of {self.MASS_MATRICES}")

    @property
    def consumes_slope(self) -> bool:
        return self.label() in TWINS

    def label(self) -> str:
        """The kind's key in ASSEMBLERS."""
        return self.tag if self.mass_matrix is None else f"{self.tag}({self.mass_matrix})"


def step(kind: FilterKind, gain_method: str, model: SystemModel, x: np.ndarray,
         slope: float, dt: float, dv: np.ndarray, **gain_opts):
    """x + M(x) dt + dV + (a + K slope) dt for the particles x (n, d), with
    (a, K) from the (kind, gain_method) row, which computes from x all it
    reads.  Returns the new particles and the solver diagnostics; a density
    floor over more than 10% is reported as degenerate_density, not fatal.
    """
    coeffs = assemble_filter_coefficients(kind.label(), x, model, gain_method,
                                          **gain_opts)
    # ((x + M dt) + dV) + (a + K slope) dt, the update's association order,
    # built in place on the fresh arrays M dt and K slope, never on x or on
    # what a model callable returned; a + K slope is a fresh (n, d) array
    # where K is one (1, d) row.  The literal expression, with a temporary
    # per operation, costs 7 to 13 us more per step at N = 1e4
    new = model.drift(x) * dt
    new += x                    # a sum of two floats does not depend on order
    new += dv
    term = coeffs.K * slope
    if term.shape == new.shape:
        term += coeffs.a
    else:
        term = coeffs.a + term
    term *= dt
    new += term
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
    step_log: list              # [k]: fine step k's diagnostics from step
    final_particles: np.ndarray
    # wall time of the steps that computed the run, which the runs of one
    # shared computation all report
    seconds: float = 0.0
    aborted: Optional[FilterAborted] = None    # its .partial is this record


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


def _row(run: Run, d: int):
    """run's row of ASSEMBLERS, looked up now; None where the row does not
    run in dimension d, and the first step refuses it naming the kind."""
    label = run.kind.label()
    if in_dimension(label, run.gain_method, d):
        return ASSEMBLERS.get(label, {}).get(run.gain_method)


class _Lane:
    """A run's particles and records while its group advances it, shared
    by every later run of the group that computes the same (computes)."""

    def __init__(self, run: Run, model: SystemModel):
        x = np.atleast_2d(np.asarray(run.init_particles, dtype=float))
        if x.shape[0] < 2:
            raise ValueError("ensemble needs at least 2 particles")
        if not np.all(np.isfinite(x)):
            raise ValueError("ensemble contains non-finite entries")
        grid = run.grid
        self.run, self.model, self.x = run, model, x
        self.row = _row(run, x.shape[1])
        self.slopes = run.path.fine_slopes() if run.kind.consumes_slope \
            else run.path.fine_increments() / grid.fine_dt
        self.times = grid.mesh_times()
        self.means = np.empty((grid.n_mesh + 1, x.shape[1]))
        self.covs = np.empty((grid.n_mesh + 1, x.shape[1], x.shape[1]))
        self.h_bars = np.empty(grid.n_mesh + 1)
        self.recorded = 0           # mesh points recorded so far
        self.step_log = []
        self.seconds = 0.0
        self.failure = None         # (fine step, cause) that ended the run
        self.non_finite = None      # (step, detail) of the lane's NonFiniteState
        self.handed_out = False     # whether outcome has been called

    def computes(self, run: Run) -> bool:
        """Whether run is this lane's computation: the same row and kind of
        slope, the same path and initial cloud objects, an equal mesh and
        gain_opts of one repr: a row takes JSON values only, which repr
        tells apart by value and type (so -0.0 is not 0.0, nor 1 1.0)."""
        mine = self.run
        return (self.row is not None and run.path is mine.path
                and run.init_particles is mine.init_particles
                and run.kind.consumes_slope == mine.kind.consumes_slope
                and run.grid == mine.grid
                and _row(run, self.x.shape[1]) is self.row
                and repr(run.gain_opts) == repr(mine.gain_opts))

    def _non_finite(self, step: int, detail: str = "") -> NonFiniteState:
        self.non_finite = (step, detail)
        return NonFiniteState(step, detail + self.run.kind.label())

    def record(self, x: np.ndarray, k: int):
        """Record the moments of the cloud x at fine step k; NonFiniteState
        where they leave the float range, as those of a finite cloud far
        out can."""
        m = compute_moments(x, self.model)
        if not (np.all(np.isfinite(m.mean)) and np.all(np.isfinite(m.cov))
                and np.isfinite(m.h_bar)):
            raise self._non_finite(k, "the recorded moments of ")
        slot = self.recorded
        self.means[slot], self.covs[slot], self.h_bars[slot] = m.mean, m.cov, m.h_bar
        self.recorded += 1

    def advance(self, k0: int, dv: np.ndarray) -> bool:
        """Take the fine steps k0, k0 + 1, ... with the noise blocks dv;
        False once the run has aborted."""
        run, model, x = self.run, self.model, self.x
        spm, dt = run.grid.steps_per_mesh, run.grid.fine_dt
        t0 = time.perf_counter()
        for k, dv_k in enumerate(dv, start=k0):
            try:
                if k % spm == 0:
                    self.record(x, k)
                new, diags = step(run.kind, run.gain_method, model, x,
                                  self.slopes[k], dt, dv_k, **run.gain_opts)
                if not np.all(np.isfinite(new)):
                    raise self._non_finite(k + 1)
            except STEP_ERRORS as exc:
                self.failure = (k, exc)
                break
            x = new
            self.step_log.append(diags)
        self.x = x
        self.seconds += time.perf_counter() - t0
        return self.failure is None

    def finish(self):
        """Record the final cloud of a run that has not aborted."""
        if self.failure is None:
            n_fine = self.run.grid.n_fine
            try:
                self.record(self.x, n_fine)
            except STEP_ERRORS as exc:
                self.failure = (n_fine, exc)

    def outcome(self, run: Run) -> FilterRun:
        """run's outcome of this lane's computation: its series up to its
        last mesh record and the FilterAborted that ended it, if any.  The
        first call, for the lane's own run, gets the lane's arrays; each later
        run gets copies, and its own kind in a NonFiniteState of the lane."""
        copy, self.handed_out = self.handed_out, True
        upto = slice(self.recorded)
        series = [self.times[upto], self.means[upto], self.covs[upto],
                  self.h_bars[upto], self.x]
        log = self.step_log
        if copy:
            series = [a.copy() for a in series]
            log = [dict(entry) for entry in log]
        times, means, covs, h_bars, x = series
        result = FilterRun(times, means, covs, h_bars, log, final_particles=x,
                           seconds=self.seconds)
        if self.failure is not None:
            k, cause = self.failure
            if copy and self.non_finite is not None:
                at, detail = self.non_finite
                cause = NonFiniteState(at, detail + run.kind.label())
            result.aborted = FilterAborted(k, cause, partial=result)
            result.aborted.__cause__ = cause
        return result


def run_lockstep(runs: list, model: SystemModel, seed: int) -> list:
    """Advance runs that share the seed and the particle shape (n, d) over
    one fine grid, each on its own mesh.  Each fine step's noise block
    sqrt(dt) N(0, I) is drawn once for the group into a buffer of up to
    NOISE_BUFFER_BYTES, then every live run takes the buffered steps,
    recording the moments of its cloud at its mesh points; runs that
    _Lane.computes the same are computed once.  Returns each run's own
    FilterRun; a run whose step raised one of STEP_ERRORS carries its series
    up to that step and its FilterAborted, and the other runs go on
    unchanged; a run that leaves the float range ends on its typed error
    with no numpy warning first.
    """
    if not runs:
        return []
    lanes, owners = [], []      # owners[i]: the lane that computes runs[i]
    for run in runs:
        lane = next((lane for lane in lanes if lane.computes(run)), None)
        if lane is None:
            lane = _Lane(run, model)
            lanes.append(lane)
        owners.append(lane)
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
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k0 in range(0, grid.n_fine, len(buf)):
            dv = noise.increments(buf[:grid.n_fine - k0], grid.fine_dt, k0)
            live = [lane for lane in live if lane.advance(k0, dv)]
            if not live:
                break
        for lane in lanes:
            lane.finish()
    return [lane.outcome(run) for lane, run in zip(owners, runs)]


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
    if out.aborted is not None:
        raise out.aborted
    return out
