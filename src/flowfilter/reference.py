"""Ground-truth reference solvers: Kalman-Bucy and a 1D grid filter.

The particle filters are validated against (a) the exact Kalman-Bucy
recursion on linear-Gaussian systems and (b) an explicit finite-difference
solver for the smoothed Kushner-Stratonovich equation in d = 1.  Both
consume exactly the slope/increment process the particle filters see, so
comparisons carry no observation-path Monte-Carlo error.
"""

import numpy as np

from . import _kernels
from .ensemble import Density1D
from .errors import CovarianceBlowup, NonFiniteState
from .models import SystemModel

CFL_FACTOR = 0.4

GridDensity = Density1D    # the former name, which perfbench/child.py imports


def run_kalman_bucy(A, H, mean0, cov0, drive: np.ndarray, dt: float,
                    record_every: int = 1):
    """Euler update of dm = Am dt + PH^T(dZ - Hm dt),
    dP = (AP + PA^T + I - PH^T HP) dt, with symmetrisation each step, along
    a drive of increments dZ from (mean0, cov0); returns (means, covs)
    sampled every record_every steps (slot 0 = initial).  Raises
    NonFiniteState, with the step and no numpy warning first, where m or P
    leaves the float range, and CovarianceBlowup where an eigenvalue of P
    passes 1e8."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    A = np.atleast_2d(np.asarray(A, float))
    Hrow = np.asarray(H, float).reshape(-1)
    m = np.atleast_1d(np.asarray(mean0, float))
    P = np.atleast_2d(np.asarray(cov0, float))
    eye = np.eye(P.shape[0])
    n = drive.shape[0]
    means = np.empty((n // record_every + 1, m.shape[0]))
    covs = np.empty((n // record_every + 1,) + P.shape)
    means[0], covs[0] = m, P
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n):
            gain = P @ Hrow
            m = m + A @ m * dt + gain * (float(drive[k]) - float(Hrow @ m) * dt)
            P = P + (A @ P + P @ A.T + eye - np.outer(gain, gain)) * dt
            P = 0.5 * (P + P.T)
            # eigvalsh raises LinAlgError on a matrix that is not finite
            if not (np.isfinite(m).all() and np.isfinite(P).all()):
                raise NonFiniteState(k + 1, "Kalman-Bucy reference")
            if np.max(np.linalg.eigvalsh(P)) > 1e8:
                raise CovarianceBlowup("Kalman-Bucy covariance eigenvalue exceeds 1e8")
            if (k + 1) % record_every == 0:
                means[(k + 1) // record_every] = m
                covs[(k + 1) // record_every] = P
    return means, covs


def cfl_bound(dens: Density1D) -> float:
    return CFL_FACTOR * dens.dx ** 2


def substeps_per_fine_step(dens: Density1D, fine_dt: float) -> int:
    """The explicit substeps under the CFL bound that make one fine step."""
    return max(1, int(np.ceil(fine_dt / cfl_bound(dens))))


def _read_only(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def run_grid_kushner(dens: Density1D, model: SystemModel,
                     slopes: np.ndarray, fine_dt: float,
                     steps_per_mesh: int, snapshot_slots=()):
    """Advance the grid density along the slope process (one slope per mesh
    interval) by explicit steps of
    d theta = (L* theta - (h^2 - h2bar) theta / 2 + (h - hbar) theta slope) dt
    with L* theta = -(M theta)' + theta''/2 in conservative flux form,
    zero-flux boundaries and negative clipping, substepped under the CFL
    bound and renormalised to unit mass after every fine step.  Returns
    (means, vars, snapshots, clip_count): moments at every mesh point and
    the Density1D at each requested mesh index (0 = the initial density).
    Raises NonFiniteState, with the fine step and no numpy warning or
    ValueError first, at the first mesh point whose density is not finite."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nsub = substeps_per_fine_step(dens, fine_dt)
        dt_sub = fine_dt / nsub
        g2 = dens.grid.reshape(-1, 1)
        # read-only copies, so the kernel builds the operator once per mesh
        # interval (see _kernels.kushner_substeps_numpy)
        drift_g, h_g, w = (_read_only(a) for a in (model.drift(g2)[:, 0],
                                                   model.obs(g2),
                                                   dens.trapz_weights()))

        n_mesh = slopes.shape[0]
        means = np.empty(n_mesh + 1)
        vars_ = np.empty(n_mesh + 1)
        means[0], vars_[0] = dens.mean(), dens.var()
        snapshots = {0: dens} if 0 in snapshot_slots else {}
        theta = dens.values
        nclip_total = 0
        for m in range(n_mesh):
            slope = float(slopes[m])
            # one kernel call per fine step: the kernel normalises when it
            # returns, so the result does not depend on a grouping of calls
            for _ in range(steps_per_mesh):
                theta, nclip = _kernels.kushner_substeps(
                    theta, drift_g, h_g, w, dens.dx, dt_sub, nsub, slope)
                nclip_total += int(nclip)     # a Python int for report.json
            if not np.isfinite(theta).all():
                raise NonFiniteState((m + 1) * steps_per_mesh,
                                     "grid Kushner reference density")
            cur = Density1D(grid=dens.grid, values=theta)
            means[m + 1], vars_[m + 1] = cur.mean(), cur.var()
            if (m + 1) in snapshot_slots:
                snapshots[m + 1] = cur
    return means, vars_, snapshots, nclip_total

