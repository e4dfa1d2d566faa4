"""Well-posedness certificates: Poincare constants and log-concavity traces.

The library certifies, at desk scale, the constants that make the weighted
Poisson equations solvable:

  * kappa_continuous - the continuous-time bound
    kappa = (c_u + min(c_g, sqrt(c_r / 2)))^{-1} for log-concave OU systems;
  * gamma_recursion  - the discrete log-concavity recursion
    gamma_i = m(gamma_{i-1}), its closed-form stable fixed point and floor;
  * kappa_delta      - the per-path bound
    kappa_T = (kappa_0 + T) exp((2 L_M + |h^2|_inf) T
              + 2 |h|_inf (T/delta)^2 sup_n |dZ_n|)
    for bounded observation functions, together with the signal-only
    constant kappa_T^- = exp(2 L_M T)(kappa_0 + T);
  * lipschitz_transfer - transport of a Poincare constant under a Lipschitz
    map (squared rule operative, see inputs for the stated linear rule);
  * empirical_poincare_1d - spectral-gap estimate of the weighted operator
    -(1/rho)(rho f')' with zero flux, Rayleigh-certified;
  * brascamp_lieb_check - numerical Brascamp-Lieb variance bound for
    strictly log-concave grid densities.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .ensemble import Density1D
from .errors import (NonPositiveDelta, NonPositiveDensity,
                     NonPositiveParameter, NotLogConcave)


@dataclass(frozen=True)
class PoincareBound:
    constant: float
    provenance: str             # lemma42 | lemma51 | lipschitz_transfer | empirical
    inputs: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.constant > 0:
            raise NonPositiveParameter(f"Poincare constant {self.constant}")


@dataclass(frozen=True)
class GammaTrace:
    gamma: np.ndarray
    dt: float
    c_g: float
    c_r: float
    fixed_point: float

    def floor(self) -> float:
        return float(np.min(self.gamma))


def kappa_continuous(c_u: float, c_g: float, c_r: float) -> PoincareBound:
    """kappa = (c_u + min(c_g, sqrt(c_r/2)))^{-1}, uniform in time."""
    if not (c_u > 0 and c_g > 0 and c_r > 0):
        raise NonPositiveParameter("c_u, c_g, c_r must be positive")
    kappa = 1.0 / (c_u + min(c_g, np.sqrt(c_r / 2.0)))
    return PoincareBound(constant=kappa, provenance="lemma42",
                         inputs={"c_u": c_u, "c_g": c_g, "c_r": c_r})


def gamma_map(gamma: float, c_r: float, dt: float) -> float:
    z = gamma + dt * c_r / 2.0
    return z / (1.0 + dt * z)


def gamma_fixed_point(c_r: float, dt: float) -> float:
    a = dt * c_r
    return (-a + np.sqrt(a * a + 8.0 * c_r)) / 4.0


def gamma_recursion(c_g: float, c_r: float, dt: float, steps: int) -> GammaTrace:
    """Iterate the log-concavity recursion from gamma_0 = c_g.

    The trace approaches the stable fixed point monotonically; the
    construction asserts m(gamma*) = gamma* to 1e-12 and the floor
    min_i gamma_i >= min(c_g, gamma*) - 1e-12.
    """
    if not (c_g > 0 and c_r > 0 and dt > 0):
        raise NonPositiveParameter("c_g, c_r, dt must be positive")
    star = gamma_fixed_point(c_r, dt)
    if abs(gamma_map(star, c_r, dt) - star) > 1e-12:
        raise AssertionError("closed-form fixed point fails m(gamma*) = gamma*")
    gam = np.empty(steps + 1)
    gam[0] = c_g
    for i in range(steps):
        gam[i + 1] = gamma_map(gam[i], c_r, dt)
    if np.min(gam) < min(c_g, star) - 1e-12:
        raise AssertionError("gamma trace dipped below min(c_g, gamma*)")
    return GammaTrace(gamma=gam, dt=dt, c_g=c_g, c_r=c_r, fixed_point=star)


def kappa_delta(kappa0: float, T: float, L_M: float, h_sup: float,
                h2_sup: float, delta: float, max_dz: float) -> PoincareBound:
    """Per-path constant for the smoothed-observation filter (bounded h).

    Also records the signal-only constant kappa_minus = exp(2 L_M T)
    (kappa_0 + T) in the inputs.  The bound depends on the realised
    sup_n |Z_{t_{n+1}} - Z_{t_n}|, so the certificate is per observation
    path.
    """
    if delta <= 0:
        raise NonPositiveDelta(f"delta = {delta}")
    if min(kappa0, T, L_M, h_sup, h2_sup, max_dz) < 0:
        raise NonPositiveParameter("arguments must be nonnegative")
    kappa_minus = np.exp(2.0 * L_M * T) * (kappa0 + T)
    kappa = (kappa0 + T) * np.exp((2.0 * L_M + h2_sup) * T
                                  + 2.0 * h_sup * (T / delta) ** 2 * max_dz)
    return PoincareBound(constant=float(kappa), provenance="lemma51",
                         inputs={"kappa0": kappa0, "T": T, "L_M": L_M,
                                 "h_sup": h_sup, "h2_sup": h2_sup,
                                 "delta": delta, "max_dz": max_dz,
                                 "kappa_minus": float(kappa_minus)})


def lipschitz_transfer(base: PoincareBound, lip: float) -> PoincareBound:
    """Transport under y = Theta(x) with Lipschitz constant lip.

    The operative constant is c * lip^2 (the Gaussian dilation case shows
    the chain rule costs |grad Theta|^2); the linear rule c * lip is kept
    in the record for traceability.
    """
    if lip <= 0:
        raise NonPositiveParameter(f"lip = {lip}")
    return PoincareBound(constant=base.constant * lip * lip,
                         provenance="lipschitz_transfer",
                         inputs={"base": base.constant, "lip": lip,
                                 "stated_linear_rule": base.constant * lip})


def empirical_poincare_1d(dens: Density1D, certify_tol: float = 1e-8) -> float:
    """1/lambda_1 of -(1/rho)(rho f')' with zero-flux boundary.

    Discretised as the generalized symmetric eigenproblem A f = lambda B f
    with the Dirichlet-form stiffness and trapezoid mass, symmetrised to a
    tridiagonal standard problem; the constant eigenvector is an exact null
    vector, so lambda_1 is the second-smallest eigenvalue.  The returned
    constant is Rayleigh-certified on the computed eigenfunction.
    """
    rho = dens.values
    if np.any(rho <= 0):
        raise NonPositiveDensity("empirical Poincare needs a strictly "
                                 "positive grid density")
    g = dens.grid
    dx = dens.dx
    G = g.size
    rh = 0.5 * (rho[:-1] + rho[1:])
    Ad = np.empty(G)
    Ad[1:-1] = (rh[:-1] + rh[1:]) / dx
    Ad[0] = rh[0] / dx
    Ad[-1] = rh[-1] / dx
    Ao = -rh / dx
    B = rho * dens.trapz_weights()
    s = 1.0 / np.sqrt(B)
    vals, vecs = eigh_tridiagonal(Ad * s * s, Ao * s[:-1] * s[1:],
                                  select="i", select_range=(0, 1))
    lam1 = float(vals[1])
    if lam1 <= 0:
        raise NonPositiveDensity(f"spectral gap {lam1} not positive")
    kappa = 1.0 / lam1
    f1 = vecs[:, 1] * s
    f1 = f1 - np.sum(B * f1)                 # mean-zero under rho
    var_form = float(np.sum(B * f1 * f1))
    dir_form = float(np.sum(rh * np.diff(f1) ** 2 / dx))
    if var_form > kappa * dir_form * (1.0 + certify_tol):
        raise AssertionError("Rayleigh certificate failed for kappa_emp")
    return kappa


@dataclass
class BrascampLiebReport:
    variance: float
    bound: float
    passed: bool
    margin: float
    min_convexity: float


def brascamp_lieb_check(dens: Density1D, f: Union[Callable, np.ndarray],
                        f_prime: Optional[Union[Callable, np.ndarray]] = None,
                        tol: float = 1e-6) -> BrascampLiebReport:
    """Verify Var_rho(f) <= int (f')^2 / (-log rho)'' rho dx.

    The convexity profile (-log rho)'' comes from central differences of
    log rho on the grid; NotLogConcave(witness) if it is not strictly
    positive on the interior.
    """
    rho = dens.values
    if np.any(rho <= 0):
        raise NonPositiveDensity("Brascamp-Lieb check needs rho > 0 on the grid")
    g = dens.grid
    dx = dens.dx
    neg_log = -np.log(rho)
    conv = np.empty_like(neg_log)
    conv[1:-1] = (neg_log[2:] - 2 * neg_log[1:-1] + neg_log[:-2]) / dx**2
    conv[0], conv[-1] = conv[1], conv[-2]
    if np.min(conv) <= 0:
        i = int(np.argmin(conv))
        raise NotLogConcave(float(g[i]), float(conv[i]))

    fv = f(g) if callable(f) else np.asarray(f, float)
    if f_prime is None:
        fp = np.gradient(fv, dx)
    else:
        fp = f_prime(g) if callable(f_prime) else np.asarray(f_prime, float)

    mean_f = np.trapezoid(fv * rho, g)
    variance = float(np.trapezoid(fv * fv * rho, g) - mean_f**2)
    bound = float(np.trapezoid(fp * fp / conv * rho, g))
    margin = bound - variance
    return BrascampLiebReport(variance=variance, bound=bound,
                              passed=margin >= -tol, margin=margin,
                              min_convexity=float(np.min(conv)))


def affine_pushforward(dens: Density1D, a: float, b: float = 0.0) -> Density1D:
    """Law of a*X + b on the transformed grid (for transfer experiments)."""
    if a == 0:
        raise NonPositiveParameter("a must be nonzero")
    grid = a * dens.grid + b
    if a < 0:
        return Density1D(grid=grid[::-1].copy(),
                         values=(dens.values / abs(a))[::-1].copy())
    return Density1D(grid=grid, values=dens.values / abs(a))
