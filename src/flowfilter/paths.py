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

from .errors import NonFiniteState
from .models import SystemModel


@dataclass(frozen=True)
class TimeGrid:
    """Fine integrator grid nested in the observation mesh."""

    t0: float
    t_end: float
    fine_dt: float
    delta: float

    def __post_init__(self):
        if not self.t_end >= self.t0:       # t_end = t0 makes no steps
            raise ValueError(f"t_end={self.t_end} must not be before "
                             f"t0={self.t0}")
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
        # numpy shapes no array over intp max bytes: the path's n_fine + 1 floats
        if 8 * (self.n_fine + 1) > np.iinfo(np.intp).max:
            raise ValueError(f"fine_dt={self.fine_dt} gives more fine steps "
                             "than an array of one float per step can hold")

    @property
    def steps_per_mesh(self) -> int:
        return round(self.delta / self.fine_dt)

    @property
    def n_mesh(self) -> int:
        return round((self.t_end - self.t0) / self.delta)

    @property
    def n_fine(self) -> int:
        return self.n_mesh * self.steps_per_mesh

    def mesh_times(self) -> np.ndarray:
        return self.t0 + self.delta * np.arange(self.n_mesh + 1)


@dataclass(frozen=True)
class ObservationPath:
    """Fine-grid observation plus its piecewise-linear smoothing, whose
    slopes are diff(z_knots)/delta."""

    grid: TimeGrid
    z: np.ndarray               # (n_fine + 1,)
    z_knots: np.ndarray         # (n_mesh + 1,)
    slopes: np.ndarray          # (n_mesh,)

    def fine_increments(self) -> np.ndarray:
        return np.diff(self.z)

    def fine_slopes(self) -> np.ndarray:
        """The smoothed path's slope on each fine step."""
        return np.repeat(self.slopes, self.grid.steps_per_mesh)


def smoothed_path(z: np.ndarray, grid: TimeGrid) -> ObservationPath:
    """The fine observation z smoothed on grid's mesh: knots at the mesh
    points, slope (Z_{t_{n+1}} - Z_{t_n}) / delta on each interval."""
    z_knots = z[::grid.steps_per_mesh].copy()
    return ObservationPath(grid=grid, z=z, z_knots=z_knots,
                           slopes=np.diff(z_knots) / grid.delta)


def simulate_truth(model: SystemModel, grid: TimeGrid, init,
                   dv: np.ndarray) -> np.ndarray:
    """Euler-Maruyama X_{k+1} = X_k + drift(X_k) dt + dV_k driven by the
    increments dv (n_fine, d); returns the states (n_fine + 1, d), or raises
    NonFiniteState, with no numpy warning, at the first non-finite one."""
    d = model.dim
    x = np.asarray(init, dtype=float).reshape(1, d)
    states = np.empty((grid.n_fine + 1, d))
    states[0] = x
    dt = grid.fine_dt
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(grid.n_fine):
            x = x + model.drift(x) * dt + dv[k]
            if not np.all(np.isfinite(x)):
                raise NonFiniteState(k + 1, "truth trajectory")
            states[k + 1] = x
    return states


def simulate_observations(model: SystemModel, states: np.ndarray,
                          grid: TimeGrid, dw: np.ndarray) -> ObservationPath:
    """Z_{k+1} = Z_k + h(X_k) dt + dW_k with Z_{t0} = 0, driven by the
    increments dw (n_fine,), smoothed on the mesh; raises NonFiniteState,
    with no numpy warning, at the first Z that is not finite."""
    if states.shape[0] != grid.n_fine + 1:
        raise ValueError("truth trajectory not aligned with grid")
    z = np.empty(grid.n_fine + 1)
    z[0] = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        np.cumsum(model.obs(states[:-1]) * grid.fine_dt + dw, out=z[1:])
    if not np.all(np.isfinite(z)):
        raise NonFiniteState(int(np.argmax(~np.isfinite(z))), "observation path")
    return smoothed_path(z, grid)
