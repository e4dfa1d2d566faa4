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
    -(1/rho)(rho f')' with zero flux, by inverse iteration through the 1D
    weighted Poisson solve (two cumulative sums, numpy only),
    certified by its Rayleigh quotient and a Sturm count;
  * brascamp_lieb_check - numerical Brascamp-Lieb variance bound for
    strictly log-concave grid densities.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .ensemble import Density1D
from .errors import (CertificateFailed, NonPositiveDelta, NonPositiveDensity,
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
    construction checks m(gamma*) = gamma* and the floor
    min_i gamma_i >= min(c_g, gamma*) to 1e-12 max(1, gamma*), since the
    closed form cancels digits of dt c_r, and raises CertificateFailed if
    either fails.
    """
    if not (c_g > 0 and c_r > 0 and dt > 0):
        raise NonPositiveParameter("c_g, c_r, dt must be positive")
    star = gamma_fixed_point(c_r, dt)
    tol = 1e-12 * max(1.0, star)
    if abs(gamma_map(star, c_r, dt) - star) > tol:
        raise CertificateFailed("closed-form fixed point fails m(gamma*) = gamma*")
    gam = np.empty(steps + 1)
    gam[0] = c_g
    for i in range(steps):
        gam[i + 1] = gamma_map(gam[i], c_r, dt)
    if np.min(gam) < min(c_g, star) - tol:
        raise CertificateFailed("gamma trace dipped below min(c_g, gamma*)")
    return GammaTrace(gamma=gam, fixed_point=star)


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


# cap on the inverse iterations of empirical_poincare_1d
_MAX_ITER = 500
# the relative slack below the Rayleigh quotient at which
# empirical_poincare_1d's Sturm count certifies the gap
CERTIFY_TOL = 1e-8


def _count_below(c: np.ndarray, B: np.ndarray, sigma: float) -> int:
    """Eigenvalues of A f = lambda B f below sigma, A = D^T diag(c) D.

    By Sylvester's law of inertia this is the number of negative pivots of
    the LDL^T factorisation of A - sigma B.  Its pivots are c_i - e_i
    (the last one -e_{G-1}) with e_0 = sigma B_0 and e_i = sigma B_i
    + e_{i-1} c_{i-1} / (c_{i-1} - e_{i-1}): the differential form, which
    never subtracts the O(c) stiffness entries from each other.  Each
    rounding then acts as a relative change of a few ulps in one c_i or
    B_i, which moves every eigenvalue of the pencil by a few ulps
    relative, so the count is exact for a pencil that close to this one
    however widely c and B are scaled.  A zero pivot is taken as negative,
    that is, as if its c_i were one ulp smaller.
    """
    count, t = 0, 0.0
    for ci, bi in zip(c.tolist(), B.tolist()):
        e = sigma * bi + t
        d = ci - e
        if d <= 0.0:
            count += 1
            d = d or -ci * 2.0 ** -52
        t = e * (ci / d)
    return count + int(sigma * B[-1] + t >= 0.0)


# a density near the float range's floor overflows the flux step dx / rh;
# the iteration then leaves the float range, which it refuses
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def empirical_poincare_1d(dens: Density1D) -> float:
    """1/lambda_1 of -(1/rho)(rho f')' with zero-flux boundary.

    Discretised as the generalized symmetric eigenproblem A f = lambda B f
    with the Dirichlet-form stiffness A = D^T diag(rh/dx) D (rh the edge
    midpoint density) and the trapezoid mass B = rho w.  The constants are
    its null space, so lambda_1 is the smallest eigenvalue on the functions
    of mean zero under B.  It is found by inverse iteration on a pair of
    such functions, started from x - mean (never orthogonal to the first
    eigenfunction: both are increasing) and (x - mean)^2 - mean, with a
    Rayleigh-Ritz step on the pair after every solve, so the convergence
    rate is lambda_1 / lambda_3 and two nearly equal lowest eigenvalues do
    not slow it.  Each solve is the weighted Poisson equation A f = B g in
    1D, by two cumulative sums: the edge flux -sum_{k<=i} (Bg)_k, which
    equals sum_{k>i} (Bg)_k, is summed from the nearer tail (from the left
    where the B mass left of the edge is at most half, from the right
    elsewhere), so a tail flux is not the difference of two O(1) sums;
    then f, the cumulative sum of flux dx/rh, is summed outward from that
    mass median, so its values there do not sit on a tail's offset, and is
    centred under B.  lambda is the Rayleigh quotient
    sum rh (Df)^2/dx / sum B f^2 of the lower Ritz function, a ratio of
    sums of non-negative terms; the iteration stops when it changes by at
    most 1e-14 relative.

    Certificate: lambda, a Rayleigh quotient on the mean-zero functions,
    is at least lambda_1; a Sturm count (`_count_below`) then shows that
    the pencil has no eigenvalue but the constant mode's 0 below
    lambda (1 - CERTIFY_TOL).  So the returned kappa lies within
    CERTIFY_TOL relative below the discrete 1/lambda_1, whatever the
    scaling of rho.  A mode confined to a flat tail floored to ~1e-300
    carries that mass in B, so the iteration does not reach it; if its
    eigenvalue lies below the gap of the density above the floor, the
    count finds it and the certificate fails.

    NonPositiveDensity if rho or the finite gap is not positive;
    CertificateFailed, naming the range of rho, if an iterate or the gap
    is not finite (a range too wide for the flux step dx / rh), if the
    iteration has not converged within _MAX_ITER steps, or if the Sturm
    count fails.  No numpy warning comes first.
    """
    rho = dens.values
    if np.any(rho <= 0):
        raise NonPositiveDensity("empirical Poincare needs a strictly "
                                 "positive grid density")
    dx = dens.dx
    rh = 0.5 * (rho[:-1] + rho[1:])
    c = rh / dx
    B = rho * dens.trapz_weights()
    mass = np.cumsum(B)
    # edges [0, split) hold at most half the mass on their left
    split = int(np.count_nonzero(mass[:-1] <= 0.5 * mass[-1]))
    step = dx / rh
    x = dens.grid - np.sum(B * dens.grid) / mass[-1]
    F = np.stack((x, x * x))[:rho.size - 1]    # G - 1 mean-zero dimensions
    F -= (F @ B / mass[-1])[:, None]
    lam = np.inf
    for _ in range(_MAX_ITER):
        BG = B * F
        flux = np.concatenate((-np.cumsum(BG[:, :split], axis=1),
                               np.cumsum(BG[:, :split:-1], axis=1)[:, ::-1]),
                              axis=1)
        df = flux * step
        left = -np.cumsum(df[:, :split][:, ::-1], axis=1)[:, ::-1]
        F = np.concatenate((left, np.zeros((len(F), 1)),
                            np.cumsum(df[:, split:], axis=1)), axis=1)
        F -= (F @ B / mass[-1])[:, None]     # mean-zero under rho
        for j in range(len(F)):          # B-orthonormalise, then Rayleigh-Ritz
            F[j] -= (F[:j] @ (B * F[j])) @ F[:j]
            F[j] /= np.sqrt(np.sum(B * F[j] * F[j]))
        dF = np.diff(F, axis=1)
        _, U = np.linalg.eigh((dF * c) @ dF.T)
        F = U.T @ F
        f = F[0]
        prev, lam = lam, float(np.sum(c * np.diff(f) ** 2)
                               / np.sum(B * f * f))
        if not (np.isfinite(lam) and np.isfinite(F).all()):
            raise CertificateFailed(
                f"inverse iteration for kappa_emp left the float range: the "
                f"flux step dx / rho cannot carry a density ranging over "
                f"[{rho.min():.3g}, {rho.max():.3g}]")
        if lam <= 0:
            raise NonPositiveDensity(f"spectral gap {lam} not positive")
        if abs(lam - prev) <= 1e-14 * lam:
            break
    else:
        raise CertificateFailed(f"inverse iteration for kappa_emp did not "
                                f"converge in {_MAX_ITER} iterations")
    below = _count_below(c, B, lam * (1.0 - CERTIFY_TOL))
    if below != 1:
        raise CertificateFailed(f"Rayleigh-Sturm certificate failed for "
                                f"kappa_emp: {below - 1} nonzero eigenvalues "
                                f"below 1/kappa_emp = {lam:.6g}")
    return 1.0 / lam


@dataclass
class BrascampLiebReport:
    variance: float
    bound: float
    passed: bool
    margin: float


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
                              passed=margin >= -tol, margin=margin)


def affine_pushforward(dens: Density1D, a: float, b: float = 0.0) -> Density1D:
    """Law of a*X + b on the transformed grid (for transfer experiments)."""
    if a == 0:
        raise NonPositiveParameter("a must be nonzero")
    grid = a * dens.grid + b
    if a < 0:
        return Density1D(grid=grid[::-1].copy(),
                         values=(dens.values / abs(a))[::-1].copy())
    return Density1D(grid=grid, values=dens.values / abs(a))
