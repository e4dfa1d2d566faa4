"""Signal-observation system models and structural condition checks.

A model packages the signal drift, the scalar observation function, its
gradient and optional global bounds.  All callables are batched: drift
maps (n, d) -> (n, d), obs maps (n, d) -> (n,), obs_grad maps
(n, d) -> (n, d).

Benchmarks provided here:
  * linear-Gaussian systems dX = A X dt + dV, dZ = H X dt + dW,
  * log-concave Ornstein-Uhlenbeck-type systems dX = grad U(X) dt + dV
    with linear observation, together with numerical certificates for the
    strong-concavity/convexity conditions (C1)-(C4) that guarantee a
    posterior Poincare inequality.

Condition checks use finite-difference Hessians on a user-supplied point
cloud; they are desk-scale certificates, not global proofs, and the
report records the cloud it was computed on.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import CertificateFailed, ConditionViolation, ModelMismatch

_FD_STEP = 1e-4
# R = |Hx|^2 + (lap U + |grad U|^2) nests second derivatives of U inside a
# second Hessian; the chained differences need a larger step or rounding
# noise (eps/h^4) swamps the estimate
_FD_STEP_CHAIN = 5e-3
_COND_TOL = 1e-4


def as_batch(x, dim: int) -> np.ndarray:
    """Coerce a point or a batch of points to shape (n, dim)."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, dim) if a.shape[0] == dim else a.reshape(-1, 1)
    return a


@dataclass(frozen=True)
class SystemModel:
    """Signal drift, scalar observation, gradient and structural metadata."""

    dim: int
    drift: Callable[[np.ndarray], np.ndarray]
    obs: Callable[[np.ndarray], np.ndarray]
    obs_grad: Callable[[np.ndarray], np.ndarray]
    drift_lipschitz: Optional[float] = None
    obs_sup: Optional[float] = None
    obs_sq_sup: Optional[float] = None
    kind: str = "general"
    A: Optional[np.ndarray] = None
    H: Optional[np.ndarray] = None

    def h_row(self) -> np.ndarray:
        """Observation row vector for linear models, shape (dim,)."""
        if self.H is None:
            raise ModelMismatch("the model has no H row (no linear observation)")
        return np.asarray(self.H, dtype=float).reshape(self.dim)


@dataclass(frozen=True)
class LogConcaveOUSpec:
    """Potential U with strong-concavity/convexity parameters.

    c_u: -grad^2 U >= c_u I (C1); c_g: convexity of U + G0 for the initial
    density exp(-G0) (C2, user-asserted); c_r: convexity of
    R = |Hx|^2 + (Lap U + |grad U|^2) (C3); linear_growth_D: |grad U| <=
    D(1+|x|) (C4).
    """

    potential: Callable[[np.ndarray], np.ndarray]
    c_u: float
    c_g: float
    c_r: float
    linear_growth_D: float
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        from .errors import NonPositiveParameter

        if not (self.c_u > 0 and self.c_g > 0 and self.c_r > 0):
            raise NonPositiveParameter("c_u, c_g, c_r must be positive")

    def grad_potential(self, x: np.ndarray) -> np.ndarray:
        if self.grad is not None:
            return self.grad(x)
        return _fd_gradient(self.potential, x)


@dataclass(frozen=True)
class InitialDensity:
    """Initial law: Gaussian or a 1D grid table."""

    kind: str                       # "gaussian" | "grid_table"
    mean: Optional[np.ndarray] = None
    cov: Optional[np.ndarray] = None
    grid: Optional[np.ndarray] = None
    values: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind == "gaussian":
            m = np.atleast_1d(np.asarray(self.mean, dtype=float))
            c = np.atleast_2d(np.asarray(self.cov, dtype=float))
            if m.ndim != 1 or c.shape != (m.size, m.size):
                raise ValueError(f"gaussian mean of shape {m.shape} needs a "
                                 f"square covariance of its size, not {c.shape}")
            if not np.allclose(c, c.T, atol=1e-12):
                raise ValueError("gaussian covariance must be symmetric")
            if np.any(np.linalg.eigvalsh(c) <= 0):
                raise ValueError("gaussian covariance must be positive definite")
            object.__setattr__(self, "mean", m)
            object.__setattr__(self, "cov", c)
        elif self.kind == "grid_table":
            g = np.asarray(self.grid, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
                raise ValueError(f"grid table needs one value per point of a 1D "
                                 f"grid of at least 2 points, not {v.shape} "
                                 f"on {g.shape}")
            # the grid solvers take grid[1] - grid[0] as the spacing
            dg = np.diff(g)
            if not (np.all(np.isfinite(g)) and np.all(dg > 0)
                    and np.max(np.abs(dg - dg[0])) <= 1e-9 * dg[0]):
                raise ValueError("grid table grid must be strictly increasing "
                                 "and uniform")
            if not np.all(v >= 0):
                raise ValueError("grid table values must be nonnegative")
            mass = np.trapezoid(v, g)
            if abs(mass - 1.0) > 1e-10:
                raise ValueError(f"grid table mass {mass} not within 1e-10 of 1")
            object.__setattr__(self, "grid", g)
            object.__setattr__(self, "values", v)
        else:
            raise ValueError(f"unknown initial density kind {self.kind!r}")

    @property
    def dim(self) -> int:
        return 1 if self.kind == "grid_table" else self.mean.shape[0]

    def sample(self, n: int, normals: np.ndarray) -> np.ndarray:
        """Map standard-normal draws (n, dim) to samples from the density.

        Grid tables use inverse-CDF transform of the first column.
        """
        if self.kind == "gaussian":
            chol = np.linalg.cholesky(self.cov)
            return self.mean[None, :] + normals @ chol.T
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (self.values[1:] + self.values[:-1]) * np.diff(self.grid))])
        cdf /= cdf[-1]
        u = _ndtr(normals[:, 0])
        return np.interp(u, cdf, self.grid).reshape(n, 1)


_SQRT_HALF = math.sqrt(0.5)


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF of each entry, in the form of cephes' ndtr:
    with x = a sqrt(1/2), 0.5 + 0.5 erf(x) for |x| < sqrt(1/2), else from
    erfc(|x|), which keeps the relative accuracy of the lower tail."""
    out = np.empty(a.shape)
    for i, x in enumerate(a * _SQRT_HALF):
        if abs(x) < _SQRT_HALF:
            out[i] = 0.5 + 0.5 * math.erf(x)
        else:
            y = 0.5 * math.erfc(abs(x))
            out[i] = 1.0 - y if x > 0 else y
    return out


@dataclass
class ConditionCheck:
    name: str
    passed: bool
    margin: float
    witness: Optional[np.ndarray] = None
    note: str = ""


@dataclass
class ConditionReport:
    checks: list = field(default_factory=list)
    n_points: int = 0
    vacuous: bool = False


def _fd_gradient(f, x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of a batched scalar function, (n,d)->(n,d)."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    out = np.empty((n, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = _FD_STEP
        out[:, j] = (f(x + e) - f(x - e)) / (2 * _FD_STEP)
    return out


def _fd_hessian(f, x: np.ndarray, h: float = _FD_STEP) -> np.ndarray:
    """Central-difference Hessian of a scalar function at a single point (d,)."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    d = x.shape[1]
    H = np.empty((d, d))
    f0 = float(f(x)[0])
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        H[i, i] = (float(f(x + ei)[0]) - 2 * f0 + float(f(x - ei)[0])) / h**2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            H[i, j] = H[j, i] = (
                float(f(x + ei + ej)[0]) - float(f(x + ei - ej)[0])
                - float(f(x - ei + ej)[0]) + float(f(x - ei - ej)[0])
            ) / (4 * h**2)
    return H


def _linear_observation(Hrow: np.ndarray):
    """(obs, obs_grad) of the observation x -> Hrow . x."""
    d = Hrow.shape[0]

    def obs(x):
        return as_batch(x, d) @ Hrow

    def obs_grad(x):
        return np.tile(Hrow, (as_batch(x, d).shape[0], 1))

    return obs, obs_grad


def make_linear_gaussian(A, H) -> SystemModel:
    """Linear-Gaussian benchmark: drift x -> A x, observation x -> H x."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    H = np.asarray(H, dtype=float).reshape(1, -1)
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(H))):
        raise ValueError("A and H must have finite entries")
    d = A.shape[0]
    if A.shape != (d, d) or H.shape != (1, d):
        raise ValueError(f"shape mismatch: A {A.shape}, H {H.shape}")
    obs, obs_grad = _linear_observation(H[0])

    def drift(x):
        return as_batch(x, d) @ A.T

    # |A| operator norm is the global Lipschitz constant of x -> Ax
    lip = float(np.linalg.norm(A, 2))
    return SystemModel(dim=d, drift=drift, obs=obs, obs_grad=obs_grad,
                       drift_lipschitz=lip, kind="linear_gaussian", A=A, H=H)


def _make_R(spec: LogConcaveOUSpec, Hrow: np.ndarray):
    def R(x):
        x = np.asarray(x, dtype=float)
        hx = x @ Hrow
        lap = np.empty(x.shape[0])
        for k in range(x.shape[0]):
            lap[k] = np.trace(_fd_hessian(spec.potential, x[k],
                                          h=_FD_STEP_CHAIN))
        g = spec.grad_potential(x)
        # an overflow leaves R and its Hessian non-finite, which
        # _worst_margin refuses as CertificateFailed
        with np.errstate(over="ignore", invalid="ignore"):
            return hx**2 + lap + np.sum(g * g, axis=1)

    return R


def make_log_concave_ou(spec: LogConcaveOUSpec, H, points=None) -> SystemModel:
    """OU-type benchmark: drift = grad U, observation H x, with (C1)/(C3)
    checked on a sample cloud (ConditionViolation on failure, CertificateFailed
    where a margin is not finite)."""
    Hrow = np.asarray(H, dtype=float).reshape(-1)
    d = Hrow.shape[0]
    obs, obs_grad = _linear_observation(Hrow)

    def drift(x):
        return spec.grad_potential(as_batch(x, d))

    model = SystemModel(dim=d, drift=drift, obs=obs, obs_grad=obs_grad,
                        kind="log_concave_ou", H=Hrow.reshape(1, -1))
    if points is None:
        points = default_cloud(d)
    report = validate_conditions(model, spec, points)
    for check in report.checks:
        if check.name in ("C1", "C3") and not check.passed:
            raise ConditionViolation(check.name, check.witness, check.margin)
    return model


def default_cloud(dim: int, half_width: float = 3.0, n: int = 41) -> np.ndarray:
    """Deterministic validation cloud: a 1D linspace, or a seeded Gaussian
    scatter for d >= 2."""
    if dim == 1:
        return np.linspace(-half_width, half_width, n).reshape(-1, 1)
    rng = np.random.Generator(np.random.Philox(key=20240901))
    return half_width / 3.0 * rng.standard_normal((n, dim))


def _worst_margin(name: str, pts: np.ndarray, hessian, margin) -> ConditionCheck:
    """The check of condition name: the smallest margin(eigenvalues of
    hessian(x)) over the points x, >= 0 required, and the point that attains
    it.  A Hessian or margin that is not finite certifies nothing, so it
    raises CertificateFailed naming the condition and the point."""
    worst, witness = np.inf, None
    for x in pts:
        hess = hessian(x)
        m = margin(np.linalg.eigvalsh(hess)) if np.all(np.isfinite(hess)) \
            else np.nan
        if not np.isfinite(m):
            raise CertificateFailed(f"condition {name} cannot be checked at "
                                    f"{x}: margin {m}")
        if m < worst:
            worst, witness = m, x
    return ConditionCheck(name, worst >= -_COND_TOL, worst, witness)


def validate_conditions(model: SystemModel, spec: LogConcaveOUSpec,
                        points) -> ConditionReport:
    """Check (C1)-(C4) of the log-concave OU hypothesis set on a point cloud.

    Report-only: per-condition pass/fail with the worst-case margin and the
    witness point.  (C2) concerns the initial density decomposition and is
    user-asserted through spec.c_g; it is recorded as such.  A (C1) or (C3)
    margin that is not finite raises CertificateFailed.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return ConditionReport(checks=[], n_points=0, vacuous=True)
    pts = pts.reshape(-1, model.dim)
    Hrow = model.h_row()
    R = _make_R(spec, Hrow)

    report = ConditionReport(n_points=pts.shape[0])

    # C1: hess U <= -c_u I  <=>  lambda_max(hess U) <= -c_u
    report.checks.append(_worst_margin(
        "C1", pts, lambda x: _fd_hessian(spec.potential, x),
        lambda lam: -spec.c_u - lam[-1]))

    # C2: initial-density convexity parameter, asserted by the caller
    report.checks.append(ConditionCheck(
        "C2", True, spec.c_g, None,
        "asserted convexity of U + G0 for the chosen initial density"))

    # C3: hess R >= c_r I
    report.checks.append(_worst_margin(
        "C3", pts, lambda x: _fd_hessian(R, x, h=_FD_STEP_CHAIN),
        lambda lam: lam[0] - spec.c_r))

    # C4: |grad U| <= D (1 + |x|)
    g = spec.grad_potential(pts)
    slack = spec.linear_growth_D * (1.0 + np.linalg.norm(pts, axis=1)) \
        - np.linalg.norm(g, axis=1)
    i = int(np.argmin(slack))
    report.checks.append(ConditionCheck("C4", slack[i] >= -_COND_TOL,
                                        float(slack[i]), pts[i]))
    return report
