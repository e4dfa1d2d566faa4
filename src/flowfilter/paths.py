"""Ground-truth simulation and the piecewise-linear smoothed observation path.

The observation path Z is simulated on the fine integrator grid; its values
at the mesh points t_n = t0 + n*delta are the knots of the piecewise-linear
smoothing Z^delta, whose slope on [t_n, t_{n+1}) is
(Z_{t_{n+1}} - Z_{t_n}) / delta.  Every filter in the library consumes
either these slopes (delta-filters) or the raw fine-grid increments
(continuous-time filters).

Conventions: Z_{t0} = 0 (only increments enter the filters), and the fine
grid is aligned with the mesh (delta is an integer multiple of fine_dt),
so knots are fine-grid samples and no interpolation ambiguity arises.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteState, OutOfRange
from .models import SystemModel


@dataclass(frozen=True)
class TimeGrid:
    """Fine integrator grid nested in the observation mesh."""

    t0: float
    t_end: float
    fine_dt: float
    delta: float

    def __post_init__(self):
        if self.fine_dt <= 0 or self.delta <= 0:
            raise ValueError("fine_dt and delta must be positive")
        spm = self.delta / self.fine_dt
        if abs(spm - round(spm)) > 1e-12 * max(1.0, spm):
            raise ValueError(f"delta={self.delta} is not an integer multiple "
                             f"of fine_dt={self.fine_dt}")
        nm = (self.t_end - self.t0) / self.delta
        if abs(nm - round(nm)) > 1e-12 * max(1.0, nm):
            raise ValueError(f"horizon {self.t_end - self.t0} is not an "
                             f"integer multiple of delta={self.delta}")

    @property
    def steps_per_mesh(self) -> int:
        return round(self.delta / self.fine_dt)

    @property
    def n_mesh(self) -> int:
        return round((self.t_end - self.t0) / self.delta)

    @property
    def n_fine(self) -> int:
        return self.n_mesh * self.steps_per_mesh

    def fine_times(self) -> np.ndarray:
        return self.t0 + self.fine_dt * np.arange(self.n_fine + 1)

    def mesh_times(self) -> np.ndarray:
        return self.t0 + self.delta * np.arange(self.n_mesh + 1)


@dataclass(frozen=True)
class TruthTrajectory:
    states: np.ndarray          # (n_fine + 1, d)
    seed: int = -1


@dataclass(frozen=True)
class ObservationPath:
    """Fine-grid observation plus its piecewise-linear smoothing.

    slopes is defined as diff(z_knots)/delta; smoothed_value interpolates
    knots + slopes, so reconstruction at every knot is exact.
    """

    grid: TimeGrid
    z: np.ndarray               # (n_fine + 1,)
    z_knots: np.ndarray         # (n_mesh + 1,)
    slopes: np.ndarray          # (n_mesh,)
    seed: int = -1

    def fine_increments(self) -> np.ndarray:
        return np.diff(self.z)

    def fine_slopes(self) -> np.ndarray:
        """The smoothed path's slope on each fine step."""
        return np.repeat(self.slopes, self.grid.steps_per_mesh)


def simulate_truth(model: SystemModel, grid: TimeGrid, init, noise,
                   seed: int = -1) -> TruthTrajectory:
    """Euler-Maruyama: X_{k+1} = X_k + drift(X_k) dt + dV_k."""
    d = model.dim
    x = np.asarray(init, dtype=float).reshape(1, d)
    states = np.empty((grid.n_fine + 1, d))
    states[0] = x
    dt = grid.fine_dt
    for k in range(grid.n_fine):
        dv = noise.increments(k, 1).reshape(1, d)
        x = x + model.drift(x) * dt + dv
        if not np.all(np.isfinite(x)):
            raise NonFiniteState(k + 1, "truth trajectory")
        states[k + 1] = x
    return TruthTrajectory(states=states, seed=seed)


def simulate_observations(model: SystemModel, truth: TruthTrajectory,
                          grid: TimeGrid, noise, seed: int = -1) -> ObservationPath:
    """Z_{k+1} = Z_k + h(X_k) dt + dW_k with Z_{t0} = 0; knots and slopes
    extracted at the mesh points."""
    if truth.states.shape[0] != grid.n_fine + 1:
        raise ValueError("truth trajectory not aligned with grid")
    dt = grid.fine_dt
    hvals = model.obs(truth.states[:-1])
    z = np.empty(grid.n_fine + 1)
    z[0] = 0.0
    acc = 0.0
    for k in range(grid.n_fine):
        dw = noise.increments(k, 1).reshape(-1)[0]
        acc += hvals[k] * dt + dw
        z[k + 1] = acc
    if not np.all(np.isfinite(z)):
        raise NonFiniteState(int(np.argmax(~np.isfinite(z))), "observation path")
    z_knots = z[::grid.steps_per_mesh].copy()
    slopes = np.diff(z_knots) / grid.delta
    return ObservationPath(grid=grid, z=z, z_knots=z_knots, slopes=slopes, seed=seed)


def smoothed_value(path: ObservationPath, t: float) -> float:
    """Z^delta(t): knot value plus slope times the offset into the interval."""
    g = path.grid
    if t < g.t0 - 1e-12 or t > g.t_end + 1e-12:
        raise OutOfRange(f"t={t} outside [{g.t0}, {g.t_end}]")
    if t >= g.t_end:
        return float(path.z_knots[-1])
    n = int(np.floor((t - g.t0) / g.delta))
    n = min(max(n, 0), g.n_mesh - 1)
    t_n = g.t0 + n * g.delta
    if t < t_n and n > 0:             # guard against floor() landing one high
        n -= 1
        t_n = g.t0 + n * g.delta
    return float(path.z_knots[n] + path.slopes[n] * (t - t_n))


def discrete_observation(path: ObservationPath, n: int) -> float:
    """Y_n = (Z_{t_{n+1}} - Z_{t_n}) / delta, the slope view of the discrete
    observation model with R = 1/delta."""
    if not 0 <= n < path.grid.n_mesh:
        raise OutOfRange(f"mesh index {n} outside [0, {path.grid.n_mesh})")
    return float(path.slopes[n])


def total_variation(path: ObservationPath) -> float:
    return float(np.sum(np.abs(np.diff(path.z_knots))))


def refine_increments(dw: np.ndarray, dt: float, normals: np.ndarray) -> np.ndarray:
    """Brownian-bridge refinement: split each increment over dt into two
    increments over dt/2 whose sum equals the original increment.

    dw: (K, ...) increments with variance dt; normals: matching iid standard
    normals.  Returns (2K, ...) increments with variance dt/2.
    """
    dw = np.asarray(dw, dtype=float)
    xi = np.asarray(normals, dtype=float)
    first = 0.5 * dw + 0.5 * np.sqrt(dt) * xi
    second = dw - first
    out = np.empty((2 * dw.shape[0],) + dw.shape[1:])
    out[0::2] = first
    out[1::2] = second
    return out

