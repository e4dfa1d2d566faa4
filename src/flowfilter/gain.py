"""Poisson-equation solvers for the filter coefficients.

Every filter in the catalog needs, each step, the solution of one or two
Poisson equations against the current law rho:

  weighted (FPF / Reich):   div(rho M^{-1} grad p) = rhs * rho
  unweighted (Crisan&Xiong): lap p = rhs * rho

with rhs one of -(h - hbar), (r - rbar) with r = grad h . K, or
+-(h^2 - h2bar)/2.  Five solver routes are provided:

  * solve_exact_gaussian  - closed form for linear observation under a
    Gaussian law: constant gain P H^T, zero auxiliary potential;
  * solve_constant_gain   - the empirical-measure weak form tested against
    linear functions: K = Cov(x, h) under the sample measure;
  * solve_1d_integral     - exact cumulative quadrature of the once-
    integrated 1D equation on a grid density (shared by the FPF and the
    Crisan & Xiong routes, which coincide in 1D), by a direct equal-
    interval Simpson rule; GridIntervals carries the grid fields to the
    particles;
  * solve_galerkin        - the drift equations (fpf_psi, reich_omega)
    projected on the linear and quadratic monomials, with Monte-Carlo
    quadrature over the cloud (any dimension); the Galerkin gain itself,
    on the linear monomials, is the constant gain;
  * the fundamental_mc row - particle sum of the fundamental-solution
    gradient for the unweighted equation in d >= 2, with an epsilon
    cutoff of the singular kernel, taken with the KDE of rho in one pass
    over the particle pairs (_kernels.fundamental_pass).

ASSEMBLERS maps each (filter kind, gain method) pair to the drift field a(x_i)
and gain field K(x_i) of its McKean-Vlasov representation; the pairs it holds
are the only ones that exist, and in_dimension says where each one runs.
TWINS maps each delta kind to its continuous-time limit as delta -> 0.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .ensemble import (Density1D, Moments, _trapezoid, compute_moments,
                       kde_density_1d)
from .errors import (DegenerateCloud, DimensionError, IllConditioned,
                     NonFiniteState, SingularCovariance, UnresolvedTail)
from .models import SystemModel

EPS_RHO = 1e-8
RIDGE = 1e-10


@dataclass
class GainField:
    """Per-particle gain vectors plus solver diagnostics.

    1D grid solvers keep the gain on their grid so it can be interpolated
    or differentiated; the Galerkin solver keeps the basis coefficients.
    """

    # (n, d), or (1, d) for a gain constant over the cloud, which broadcasts
    at_particles: Optional[np.ndarray]
    diagnostics: dict = field(default_factory=dict)
    gain_grid: Optional[np.ndarray] = None
    coefficients: Optional[np.ndarray] = None


def solve_exact_gaussian(moments: Moments, H) -> GainField:
    """Gaussian closed form: phi = (x - xbar)^T P H^T, so K = P H^T for
    every particle, one (1, d) row; the auxiliary psi potential is
    identically zero."""
    Hrow = np.asarray(H, dtype=float).reshape(-1)
    P = np.atleast_2d(moments.cov)
    # eigvalsh raises LinAlgError on a matrix that is not finite
    if not np.isfinite(P).all():
        raise SingularCovariance("covariance is not finite")
    if np.any(np.linalg.eigvalsh(P) <= 0):
        raise SingularCovariance(f"covariance eigenvalues {np.linalg.eigvalsh(P)}")
    return GainField(at_particles=(P @ Hrow)[None, :],
                     diagnostics={"residual": 0.0, "centring": 0.0})


def solve_constant_gain(moments: Moments) -> GainField:
    """Constant-gain approximation: the weak form tested against x gives
    K = Cov(x, h) under the empirical (1/n) measure, one (1, d) row."""
    K = moments.cov_xh * (moments.n - 1) / moments.n
    return GainField(at_particles=K[None, :],
                     diagnostics={"residual": 0.0, "centring": 0.0})


def cumulative_simpson(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of y on an equal-interval grid, starting at 0.

    The arithmetic of scipy.integrate.cumulative_simpson(y, dx=dx,
    initial=0.0): the interval [x_k, x_k+1] takes the integral of the
    parabola through y_k, y_k+1, y_k+2 on even k, and of the one through
    y_k-1, y_k, y_k+1 on odd k and on the last interval.
    """
    n = y.shape[0]
    if n < 3:
        raise ValueError(f"Simpson's rule needs at least 3 points, got {n}")
    d = dx / 3
    # 5 y_k / 4 and y_k / 4 on the even k, once: the parabolas' outer
    # points are y_k (those but the last) and y_k+2 (those but the first)
    five, quarter = 5 * y[::2] / 4, y[::2] / 4
    f2 = 2 * y[1:-1:2]
    sub = np.empty(n - 1)
    sub[:-1:2] = d * (five[:-1] + f2 - quarter[1:])
    sub[1::2] = d * (five[1:] + f2 - quarter[:-1])
    sub[-1] = d * (5 * y[-1] / 4 + 2 * y[-2] - y[-3] / 4)
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(sub, out=out[1:])
    out[1:] += 0.0          # adding scipy's initial 0.0 turns -0.0 into 0.0
    return out


class GridIntervals:
    """The grid interval of each point, found once and shared by every
    field carried from that grid to those points.

    j is searchsorted(grid, x, "right") - 1 held to [0, G - 2]: an
    estimate in [0, G - 2] within one of it, corrected by one against the
    grid values.  The estimate is cells, the cell index the KDE deposit
    binned x by (ensemble.kde_density_1d), which this corrects in place.
    interp(fp) is np.interp(x, grid, fp) bit for bit on finite inputs (up
    to the sign of a zero at an exact grid hit): slope_j (x - g_j) + fp_j,
    fp_0 below the grid and fp_-1 from its last point on.
    """

    def __init__(self, grid: np.ndarray, x: np.ndarray, cells: np.ndarray):
        G = grid.shape[0]
        j = cells
        # the estimate is rarely off, so each correction indexes only the
        # points it moves: down past g_j, then up past g_j+1
        offset = grid[j]
        down = (x < offset).nonzero()[0]
        j[down] -= 1
        up = (x >= grid[1:][j]).nonzero()[0]
        j[up] += 1
        # a point below the grid reached -1 and one from its last point on
        # G - 1, and no other point did: these are the ends np.interp
        # holds, and j holds them to the end intervals
        self.below = down[j[down] < 0]
        self.above = up[j[up] == G - 1]
        j[self.below] = 0
        j[self.above] = G - 2
        moved = np.concatenate((down, up))
        offset[moved] = grid[j[moved]]
        self.j = j
        self.offset = np.subtract(x, offset, out=offset)
        self.spacing = grid[1:] - grid[:-1]

    def interp(self, fp: np.ndarray) -> np.ndarray:
        slope = (fp[1:] - fp[:-1]) / self.spacing
        out = slope[self.j]
        out *= self.offset
        out += fp[self.j]
        out[self.below] = fp[0]
        out[self.above] = fp[-1]
        return out


def _gradient(f: np.ndarray, dx: float) -> np.ndarray:
    """np.gradient(f, dx) on a uniform grid, in its arithmetic: central
    differences inside, one-sided ones at the two ends."""
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2. * dx)
    out[0] = (f[1] - f[0]) / dx
    out[-1] = (f[-1] - f[-2]) / dx
    return out


def _integral_fields(density: Density1D, model: SystemModel, rhs_kinds,
                     eps_floor: float) -> list:
    """The (gain_grid, diagnostics) of each rhs kind of rhs_kinds, in turn,
    from one pass over the grid quantities they all read: the spacing, h on
    the grid, the floored density and floor_frac."""
    if model.dim != 1:
        raise DimensionError("solve_1d_integral requires d = 1")
    g = density.grid
    rho = density.values
    dx = density.dx
    spacing = density.spacing
    h = model.obs(g.reshape(-1, 1))
    rho_f = np.maximum(rho, eps_floor)
    # density mass below the floor, not the share of (mostly tail) grid points
    floor_frac = float(np.sum(rho[rho < eps_floor]) * dx)
    fields = []
    for rhs_kind in rhs_kinds:
        diagnostics = {"epsilon": eps_floor, "floor_frac": floor_frac}
        if rhs_kind == "fpf_phi":
            rhs = (h - _trapezoid(h * rho, spacing)) * rho
            I = cumulative_simpson(rhs, dx)
            rho_K = -I
            gain_grid = rho_K / rho_f
            # divergence check: d/dx(rho K) + (h - hbar) rho, central differences
            resid = float(np.max(np.abs(_gradient(rho_K, dx) + rhs)))
            # centred potential of the gain, read only by the centring diagnostic
            potential = cumulative_simpson(gain_grid, dx)
            potential -= _trapezoid(potential * rho, spacing)
            diagnostics["centring"] = abs(_trapezoid(potential * rho, spacing))
        elif rhs_kind == "crisan_alpha":
            h2 = h * h
            rhs = 0.5 * (h2 - _trapezoid(h2 * rho, spacing)) * rho
            I = cumulative_simpson(rhs, dx)
            gain_grid = I / rho_f
            resid = float(np.max(np.abs(_gradient(I, dx) - rhs)))
        else:
            raise ValueError(f"unknown rhs_kind {rhs_kind!r}")
        if abs(I[-1]) > 1e-6:       # every rhs integrates to 0 over the line
            raise UnresolvedTail(f"residual rhs integral {I[-1]:.3e} (grid too narrow)")
        fields.append((gain_grid, {"residual": resid, **diagnostics}))
    return fields


def solve_1d_integral(density: Density1D, model: SystemModel, rhs_kind: str,
                      particles: Optional[np.ndarray] = None,
                      eps_floor: float = EPS_RHO) -> GainField:
    """Integrate the 1D Poisson equation once on the grid.

    The gain kind fpf_phi returns K with rho(x) K(x) = -int_{-inf}^x
    (h - hbar) rho dy, which is also the unweighted Crisan & Xiong gain
    K = beta'/rho with beta'' = -(h - hbar) rho.  The drift kind
    crisan_alpha returns grad alpha / rho.  In 1D the FPF drift
    -(h + hbar) K / 2 + grad psi / 2, and the Reich fields grad Lambda and
    grad Omega with M = I, are these two fields, so the route takes the
    names fpf_phi and crisan_alpha only.  Only fpf_phi reports the centring
    of its potential.
    """
    [(gain_grid, diagnostics)] = _integral_fields(density, model, (rhs_kind,),
                                                  eps_floor)
    at = None
    if particles is not None:
        xs = np.asarray(particles, dtype=float).reshape(-1)
        at = np.interp(xs, density.grid, gain_grid).reshape(-1, 1)
    return GainField(at_particles=at, gain_grid=gain_grid,
                     diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# Galerkin route

def galerkin_basis_size(d: int) -> int:
    """The d linear and d(d+1)/2 quadratic monomials of the drift basis."""
    return d + d * (d + 1) // 2


def solve_galerkin(x: np.ndarray, model: SystemModel, rhs_kind: str,
                   m_inv: Optional[np.ndarray] = None,
                   prior_gain: Optional[np.ndarray] = None,
                   h: Optional[np.ndarray] = None) -> GainField:
    """Weak form of a drift equation (fpf_psi or reich_omega) projected on
    the monomials x_j and x_j x_k (j <= k), with Monte-Carlo quadrature
    over the cloud.

    Stiffness A_jk = mean(grad b_j . M^{-1} grad b_k); the load vector
    follows the rhs_kind, fpf_psi reading r = grad h . prior_gain.  The
    basis values are written once per solve into one (nb, n) array, the
    gradients of the quadratic monomials into one (n, d) array each; those
    of the linear ones are constant, one (1, d) row each.  The symmetric
    solve carries a 1e-10 ridge followed by two iterative-refinement
    sweeps, so the ridge stabilises degenerate clouds without biasing
    well-conditioned systems.  h is obs(x), evaluated here
    when not given; fpf_psi does not read it.  (The gain itself needs no
    solve: on the linear monomials the Galerkin gain is the constant gain
    Cov(x, h) for every M, see solve_constant_gain.)
    """
    if rhs_kind not in ("fpf_psi", "reich_omega"):
        raise ValueError(f"unknown rhs_kind {rhs_kind!r}")
    if rhs_kind == "fpf_psi" and prior_gain is None:
        raise ValueError("the fpf_psi solve needs the prior gain")
    n, d = x.shape
    nb = galerkin_basis_size(d)
    if n <= nb:
        raise DegenerateCloud(f"{n} particles for {nb} basis functions: "
                              "the drift solve needs more")
    # the values (nb, n); the gradients of the linear monomials are the
    # constant rows e_j, kept (1, d), those of the quadratic ones (n, d):
    # (n, d) rows for all of them made the solve 6.8% slower at N = 1e4 and
    # 20% slower at N = 4e4, 12% faster at N = 1e3 (interleaved in one process)
    vals, grads = np.empty((nb, n)), list(np.eye(d)[:, None, :])
    for j in range(d):
        vals[j] = x[:, j]
    i = d
    for j in range(d):
        for k in range(j, d):
            np.multiply(x[:, j], x[:, k], out=vals[i])
            g = np.zeros((n, d))
            g[:, j] += x[:, k]
            g[:, k] += x[:, j]
            grads.append(g)
            i += 1
    # M^{-1} grad b_j; M = I leaves the gradients as they are
    mg = grads if m_inv is None else \
        [g @ np.atleast_2d(np.asarray(m_inv, dtype=float)).T for g in grads]

    def mean(a, axis=0):        # np.mean's arithmetic, without its wrapper
        return np.add.reduce(a, axis=axis) / n

    # A_jk = A_kj for j <= k: the per-particle dot product grad b_j .
    # M^{-1} grad b_k averaged over the cloud, through work arrays; in 1D
    # the sum over one term is that term.  The product of two constant
    # rows is one value, averaged as n copies of it
    A = np.empty((nb, nb))
    dots = np.empty(n)
    prod = np.empty((n, d)) if d > 1 else None
    for j in range(nb):
        for k in range(j, nb):
            m = max(grads[j].shape[0], mg[k].shape[0])
            if d == 1:
                np.multiply(grads[j][:, 0], mg[k][:, 0], out=dots[:m])
            else:
                np.sum(np.multiply(grads[j], mg[k], out=prod[:m]), axis=1,
                       out=dots[:m])
            if m == 1:
                dots.fill(dots[0])
            A[j, k] = A[k, j] = mean(dots)
    # entries past the float range: LAPACK's SVD would print its refusal
    if not np.isfinite(A).all():
        raise IllConditioned(math.inf)
    try:
        cond = float(np.linalg.cond(A))
    except np.linalg.LinAlgError:       # an SVD that does not converge
        cond = math.inf
    if cond > 1e12:
        raise IllConditioned(cond)

    weighted = np.empty((nb, n))
    if rhs_kind == "fpf_psi":
        r = model.obs_grad(x) * prior_gain
        r = r[:, 0] if d == 1 else np.sum(r, axis=1)
        load = -mean(np.multiply(r - mean(r), vals, out=weighted), axis=1)
    else:
        h = model.obs(x) if h is None else h
        h2 = h * h
        load = -0.5 * mean(np.multiply(h2 - mean(h2), vals, out=weighted), axis=1)

    damped = A + RIDGE * np.eye(nb)
    c = np.linalg.solve(damped, load)
    for _ in range(2):                       # refine away the ridge bias
        c = c + np.linalg.solve(damped, load - A @ c)
    diagnostics = {"residual": float(np.max(np.abs(A @ c - load))),
                   "condition_number": cond}

    # K = sum_j c_j M^{-1} grad b_j from 0, in basis order: a (1, d) row
    # while the terms are constant rows, then the first term that is not,
    # with that row added to it (a sum of two floats does not depend on order)
    K = np.zeros((1, d))
    for cj, g in zip(c, mg):
        term = cj * g
        if term.shape[0] > K.shape[0]:
            term += K
            K = term
        else:
            K += term
    return GainField(at_particles=K, coefficients=c, diagnostics=diagnostics)


# ---------------------------------------------------------------------------
# fundamental-solution route (unweighted Poisson equation, d >= 2)

def unit_sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


# ---------------------------------------------------------------------------
# filter-coefficient assembly: a row maps (particles x, model, **gain options)
# to the (a, K) of the update x + M dt + dV + (a + K slope) dt, computing
# from x whatever else it reads (h = obs(x), the moments of x); continuous-
# time rows see slope = dZ/dt, a = (1/2)(grad K)^T K - K(h + hbar)/2.  A row
# is plain arithmetic: assemble_filter_coefficients, its one caller, runs it
# under np.errstate and refuses the (a, K) it returns past the float range

@dataclass
class CoefficientSet:
    a: np.ndarray               # (n, d) drift field
    K: np.ndarray               # (n, d) gain field, or (1, d) if constant
    diagnostics: dict


def _centred_drift(K, h, h_bar) -> np.ndarray:
    """-K (h + hbar) / 2, the whole drift of a constant gain, hbar the
    mean of h."""
    return -0.5 * K * (h + h_bar)[:, None]


def _constant_gain_row(x, model, solve) -> CoefficientSet:
    """(a, K) of the gain solve(moments), constant over the cloud, whose
    whole drift is the centring term."""
    h = model.obs(x)
    moments = compute_moments(x, model, h)
    fld = solve(moments)
    return CoefficientSet(_centred_drift(fld.at_particles, h, moments.h_bar),
                          fld.at_particles, fld.diagnostics)


def _exact_coefficients(x, model) -> CoefficientSet:
    return _constant_gain_row(
        x, model, lambda moments: solve_exact_gaussian(moments, model.h_row()))


def _constant_coefficients(x, model) -> CoefficientSet:
    return _constant_gain_row(x, model, solve_constant_gain)


def _integral_beta_alpha(x, model, kde_opts=None,
                         eps_floor=EPS_RHO) -> CoefficientSet:
    """K = grad beta / rho, a = grad alpha / rho: the fpf_phi and
    crisan_alpha fields of the integral route, since in 1D the gain
    grad beta / rho is the FPF gain grad phi, and the FPF drift
    a = -(h + hbar) K / 2 + grad psi / 2 and the Reich fields grad Lambda
    and grad Omega (M = I) solve the same equations."""
    density, cells = kde_density_1d(x, **(kde_opts or {}))
    (k_grid, diagnostics), (a_grid, a_diagnostics) = _integral_fields(
        density, model, ("fpf_phi", "crisan_alpha"), eps_floor)
    at = GridIntervals(density.grid, x[:, 0], cells)
    return CoefficientSet(at.interp(a_grid).reshape(-1, 1),
                          at.interp(k_grid).reshape(-1, 1),
                          {**diagnostics,
                           "drift_residual": a_diagnostics["residual"]})


def _integral_continuous(x, model, kde_opts=None,
                         eps_floor=EPS_RHO) -> CoefficientSet:
    density, cells = kde_density_1d(x, **(kde_opts or {}))
    [(k_grid, diagnostics)] = _integral_fields(density, model, ("fpf_phi",),
                                               eps_floor)
    dK = _gradient(k_grid, density.dx)
    at = GridIntervals(density.grid, x[:, 0], cells)
    K = at.interp(k_grid).reshape(-1, 1)
    ito = 0.5 * at.interp(dK * k_grid).reshape(-1, 1)
    h = model.obs(x)
    return CoefficientSet(ito + _centred_drift(K, h, h.mean()), K, diagnostics)


def _galerkin_fpf(x, model) -> CoefficientSet:
    h = model.obs(x)
    moments = compute_moments(x, model, h)
    K = solve_constant_gain(moments).at_particles
    psif = solve_galerkin(x, model, "fpf_psi", prior_gain=K)
    return CoefficientSet(_centred_drift(K, h, moments.h_bar)
                          + 0.5 * psif.at_particles, K, psif.diagnostics)


def _galerkin_reich(cov_inverse: bool):
    def assemble(x, model) -> CoefficientSet:
        h = model.obs(x)
        moments = compute_moments(x, model, h)
        m_inv = moments.cov if cov_inverse else None     # M = P^{-1} or I
        of = solve_galerkin(x, model, "reich_omega", m_inv=m_inv, h=h)
        return CoefficientSet(of.at_particles,
                              solve_constant_gain(moments).at_particles,
                              of.diagnostics)
    return assemble


def _fundamental_mc(x, model, eps_floor=EPS_RHO) -> CoefficientSet:
    """K = grad beta / rho and a = grad alpha / rho for lap beta =
    -(h - hbar) rho and lap alpha = (h^2 - mean h^2) rho / 2, each field the
    particle sum of the fundamental-solution gradient
    grad u(x) = (1 / (N omega_d)) sum_i (y_i - x) (m_i - mbar) / max(|x - y_i|, eps)^d
    with the cutoff eps = N^(-1/d), self-interactions skipped, and rho the
    product-Gaussian KDE at the particles, floored at eps_floor.  One pass
    over the particle pairs gives the two sums and the KDE's."""
    n, d = x.shape
    h = model.obs(x)
    m_alpha = -0.5 * h * h
    eps = float(n ** (-1.0 / d))
    sig = np.std(x, axis=0, ddof=1)
    bw = sig * (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0))
    beta, alpha, kde = _kernels.fundamental_pass(
        x, x, h - h.mean(), m_alpha - m_alpha.mean(), eps, bw)
    scale = n * unit_sphere_area(d)
    rho = kde * (1.0 / (n * np.prod(bw * np.sqrt(2.0 * np.pi))))
    rho_f = np.maximum(rho, eps_floor)[:, None]
    return CoefficientSet(alpha / scale / rho_f, beta / scale / rho_f,
                          {"epsilon": eps,
                           "floor_frac": float(np.mean(rho < eps_floor))})


# a constant gain's continuous-time row is its delta row only where
# grad h . K does not vary over the cloud (a linear h), so that the gain
# has no Ito term; for a nonlinear h the delta -> 0 limit also carries
# 1/2 Cov(x, grad h . K), which these rows leave out (ROADMAP item 13).  On
# the linear monomials the Galerkin gain is the constant gain
_CONTINUOUS = {"exact_gaussian": _exact_coefficients,
               "constant": _constant_coefficients,
               "integral_1d": _integral_continuous,
               "galerkin": _constant_coefficients}
_CRISAN_XIONG = {"exact_gaussian": _exact_coefficients,
                 "integral_1d": _integral_beta_alpha,
                 "fundamental_mc": _fundamental_mc}

# filter kind label -> gain method -> row, each row a function
# row(x, model, **its GAIN_OPTS) that reads nothing but the cloud, the model
# and its options, called only by assemble_filter_coefficients; in 1D the
# delta kinds share one field, so one integral_1d row, and the
# continuous-time Crisan & Xiong filter is the FPF
ASSEMBLERS = {
    "delta_fpf": {"exact_gaussian": _exact_coefficients,
                  "constant": _constant_coefficients,
                  "integral_1d": _integral_beta_alpha,
                  "galerkin": _galerkin_fpf},
    "delta_reich(identity)": {"exact_gaussian": _exact_coefficients,
                              "integral_1d": _integral_beta_alpha,
                              "galerkin": _galerkin_reich(False)},
    "delta_reich(cov_inverse)": {"exact_gaussian": _exact_coefficients,
                                 "integral_1d": _integral_beta_alpha,
                                 "galerkin": _galerkin_reich(True)},
    # with M = rho I the Reich filter is the Crisan & Xiong filter
    "delta_reich(rho_identity)": _CRISAN_XIONG,
    "crisan_xiong": _CRISAN_XIONG,
    "enkbf": {"exact_gaussian": _exact_coefficients},
    "fpf_continuous": _CONTINUOUS,
    "crisan_continuous": _CONTINUOUS,
}
# delta kind label -> the continuous-time kind it tends to under the same
# gain; labels that share one row table share one twin
TWINS = {"delta_fpf": "fpf_continuous",
         "delta_reich(identity)": "fpf_continuous",
         "delta_reich(cov_inverse)": "fpf_continuous",
         "delta_reich(rho_identity)": "crisan_continuous",
         "crisan_xiong": "crisan_continuous",
         "enkbf": "fpf_continuous"}


def in_dimension(label: str, gain: str, d: int) -> bool:
    """Whether the (kind label, gain) row of ASSEMBLERS runs in dimension d:
    the grid quadrature integral_1d and crisan_continuous (the FPF rows) need
    d = 1, fundamental_mc (the Laplacian's fundamental solution) d >= 2."""
    if gain == "integral_1d" or label == "crisan_continuous":
        return d == 1
    return gain != "fundamental_mc" or d >= 2


def _positive_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


POSITIVE = ("a positive finite number", _positive_number)

# the options a config may give each gain, kde_opts nesting those of
# kde_density_1d, each leaf a (description, check) of its value
KDE_OPTS = {
    # cumulative_simpson needs 3 grid points
    "grid_points": ("an int >= 3", lambda v: type(v) is int and v >= 3),
    "half_width": POSITIVE,
    "bandwidth": ('a positive finite number or "silverman"',
                  lambda v: v == "silverman" or _positive_number(v)),
    "pad_sigmas": POSITIVE,
}
GAIN_OPTS = {"integral_1d": {"kde_opts": KDE_OPTS, "eps_floor": POSITIVE},
             "fundamental_mc": {"eps_floor": POSITIVE}}


def assemble_filter_coefficients(label: str, x: np.ndarray, model: SystemModel,
                                 method: str, **gain_opts) -> CoefficientSet:
    """(a, K) at the particles x (n, d) from the (label, method) row of
    ASSEMBLERS, label naming the kind as FilterKind.label does
    (delta_reich(identity), say); ValueError where the table has no such
    row, DimensionError outside its dimensions, and NonFiniteState, with no
    numpy warning first, where the cloud drives (a, K) past the float
    range."""
    row = ASSEMBLERS.get(label, {}).get(method)
    if row is None:
        raise ValueError(f"no {method!r} gain for filter kind {label!r}")
    if not in_dimension(label, method, x.shape[1]):
        raise DimensionError(f"{label}/{method} does not run in {x.shape[1]}D")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        cs = row(x, model, **gain_opts)
    if not (np.isfinite(cs.a).all() and np.isfinite(cs.K).all()):
        raise NonFiniteState(None, "the cloud drives the coefficients (a, K) "
                             "past the float range")
    return cs


def continuous_gain(x: np.ndarray, model: SystemModel, method: str,
                    **gain_opts):
    """Gain K(x_i) and Ito drift (1/2)(grad K)^T K(x_i) of the fpf_continuous
    row: its drift a with the centring term -K (h + hbar) / 2 taken out."""
    cs = assemble_filter_coefficients("fpf_continuous", x, model, method,
                                      **gain_opts)
    h = model.obs(x)
    return cs.K, cs.a - _centred_drift(cs.K, h, h.mean()), cs.diagnostics

