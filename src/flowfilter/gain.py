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
  * solve_galerkin        - basis-projected weak form with Monte-Carlo
    quadrature over the cloud (any dimension);
  * solve_fundamental_mc  - particle sum of the fundamental-solution
    gradient for the unweighted equation in d >= 2, with an epsilon
    cutoff of the singular kernel.

ASSEMBLERS maps each (filter kind, gain method) pair to the drift field
a(x_i) and gain field K(x_i) of its McKean-Vlasov representation; the
pairs it holds are the only ones that exist.
"""

import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .ensemble import (Density1D, Moments, compute_moments, kde_density_1d,
                       particles_of)
from .errors import (DimensionError, IllConditioned, ModelMismatch,
                     SingularCovariance, UnresolvedTail)
from .models import SystemModel

EPS_RHO = 1e-8
RIDGE = 1e-10


@dataclass
class GainField:
    """Per-particle gain vectors plus solver diagnostics.

    1D grid solvers keep the gain on their grid so it can be interpolated
    or differentiated; Galerkin solvers keep the basis coefficients.
    """

    at_particles: Optional[np.ndarray]      # (n, d)
    aux_drift: Optional[np.ndarray] = None  # (n, d)
    diagnostics: dict = field(default_factory=dict)
    gain_grid: Optional[np.ndarray] = None
    coefficients: Optional[np.ndarray] = None
    # a 1D gain solve's (h, hbar, I = int (h - hbar) rho) on the grid, which
    # the fpf_psi solve of the same step reuses
    phi_terms: Optional[tuple] = None


def solve_exact_gaussian(moments: Moments, H) -> GainField:
    """Gaussian closed form: phi = (x - xbar)^T P H^T, so K = P H^T for
    every particle; the auxiliary psi potential is identically zero."""
    Hrow = np.asarray(H, dtype=float).reshape(-1)
    P = np.atleast_2d(moments.cov)
    if np.any(np.linalg.eigvalsh(P) <= 0):
        raise SingularCovariance(f"covariance eigenvalues {np.linalg.eigvalsh(P)}")
    K = P @ Hrow
    at = np.tile(K, (moments.n, 1))
    return GainField(at_particles=at, aux_drift=np.zeros_like(at),
                     diagnostics={"residual": 0.0, "centring": 0.0})


def solve_constant_gain(moments: Moments) -> GainField:
    """Constant-gain approximation: the weak form tested against x gives
    K = Cov(x, h) under the empirical (1/n) measure."""
    K = moments.cov_xh * (moments.n - 1) / moments.n
    at = np.tile(K, (moments.n, 1))
    return GainField(at_particles=at,
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
    f1, f2, f3 = y[:-2:2], 2 * y[1:-1:2], y[2::2]
    sub = np.empty(n - 1)
    sub[:-1:2] = d * (5 * f1 / 4 + f2 - f3 / 4)
    sub[1::2] = d * (5 * f3 / 4 + f2 - f1 / 4)
    sub[-1] = d * (5 * y[-1] / 4 + 2 * y[-2] - y[-3] / 4)
    out = np.empty(n)
    out[0] = 0.0
    np.cumsum(sub, out=out[1:])
    out[1:] += 0.0          # adding scipy's initial 0.0 turns -0.0 into 0.0
    return out


class GridIntervals:
    """The grid interval of each point, found once and shared by every
    field carried from that grid to those points.

    j is searchsorted(grid, x, "right") - 1 held to [0, G - 2]: the float
    estimate floor((x - g_0) / dx) on the uniform grid, corrected by one
    against the grid values.  interp(fp) is np.interp(x, grid, fp) bit for
    bit on finite inputs (up to the sign of a zero at an exact grid hit):
    slope_j (x - g_j) + fp_j, fp_0 below the grid and fp_-1 from its last
    point on.
    """

    def __init__(self, grid: np.ndarray, x: np.ndarray):
        G = grid.shape[0]
        pos = (x - grid[0]) * ((G - 1) / (grid[-1] - grid[0]))
        j = np.clip(pos, 0, G - 2).astype(np.intp)
        j -= x < grid[j]
        j += x >= grid[j + 1]
        np.clip(j, 0, G - 2, out=j)
        self.j = j
        self.offset = x - grid[j]
        self.below = np.flatnonzero(x < grid[0])
        self.above = np.flatnonzero(x >= grid[-1])
        self.spacing = np.diff(grid)

    def interp(self, fp: np.ndarray) -> np.ndarray:
        slope = np.diff(fp) / self.spacing
        out = slope[self.j] * self.offset + fp[self.j]
        out[self.below] = fp[0]
        out[self.above] = fp[-1]
        return out


def solve_1d_integral(density: Density1D, model: SystemModel, rhs_kind: str,
                      particles: Optional[np.ndarray] = None,
                      h_bar: Optional[float] = None,
                      phi: Optional[GainField] = None,
                      eps_floor: float = EPS_RHO) -> GainField:
    """Integrate the 1D Poisson equation once on the grid.

    For the gain kinds, rho(x) K(x) = -int_{-inf}^x (h - hbar) rho dy and
    the same cumulative integral serves the unweighted crisan_beta case
    since K = beta'/rho with beta'' = -(h - hbar) rho.  Drift kinds return
    the gradient field of the respective potential (grad psi, grad Omega,
    or grad alpha / rho, the last two being the same formula).  fpf_psi
    takes h, hbar, I and the gain from phi, the fpf_phi field of the same
    density, and solves for it when phi is None.
    """
    if model.dim != 1:
        raise DimensionError("solve_1d_integral requires d = 1")
    g = density.grid
    rho = density.values
    dx = density.dx
    x2 = g.reshape(-1, 1)
    rho_f = np.maximum(rho, eps_floor)
    # density mass below the floor, not the share of (mostly tail) grid points
    floor_frac = float(np.sum(rho[rho < eps_floor]) * dx)
    phi_terms = None

    if rhs_kind in ("fpf_phi", "crisan_beta", "reich_lambda"):
        h = model.obs(x2)
        hb = float(np.trapezoid(h * rho, g)) if h_bar is None else float(h_bar)
        I = cumulative_simpson((h - hb) * rho, dx)
        gain_grid = -I / rho_f
        # divergence check: d/dx(rho K) + (h - hbar) rho, central differences
        resid = float(np.max(np.abs(np.gradient(-I, dx) + (h - hb) * rho)))
        phi_terms = (h, hb, I)
    elif rhs_kind == "fpf_psi":
        # integrate by parts with rbar = h2bar - hbar^2 (the weak-form value):
        # rho psi' = S - (h + hbar) I, S = int (h^2 - h2bar) rho,
        # I = int (h - hbar) rho.  Exact in 1D; the residual below checks it
        # against the direct rhs (r - rbar) rho with r = h' K.
        if phi is None:
            phi = solve_1d_integral(density, model, "fpf_phi", h_bar=h_bar,
                                    eps_floor=eps_floor)
        h, hb, I = phi.phi_terms
        h2b = float(np.trapezoid(h * h * rho, g))
        S = cumulative_simpson((h * h - h2b) * rho, dx)
        rho_psi_p = S - (h + hb) * I
        gain_grid = rho_psi_p / rho_f
        r = model.obs_grad(x2)[:, 0] * phi.gain_grid
        rb = h2b - hb * hb
        resid = float(np.max(np.abs(np.gradient(rho_psi_p, dx) - (r - rb) * rho)))
    elif rhs_kind in ("reich_omega", "crisan_alpha"):
        h = model.obs(x2)
        h2b = float(np.trapezoid(h * h * rho, g))
        I = cumulative_simpson(0.5 * (h * h - h2b) * rho, dx)
        gain_grid = I / rho_f
        resid = float(np.max(np.abs(np.gradient(I, dx) - 0.5 * (h * h - h2b) * rho)))
    else:
        raise ValueError(f"unknown rhs_kind {rhs_kind!r}")
    if abs(I[-1]) > 1e-6:       # every rhs integrates to 0 over the line
        raise UnresolvedTail(f"residual rhs integral {I[-1]:.3e} (grid too narrow)")

    potential = cumulative_simpson(gain_grid, dx)
    potential -= np.trapezoid(potential * rho, g)
    centring = float(abs(np.trapezoid(potential * rho, g)))

    at = None
    if particles is not None:
        xs = np.asarray(particles, dtype=float).reshape(-1)
        at = GridIntervals(g, xs).interp(gain_grid).reshape(-1, 1)
    return GainField(at_particles=at, gain_grid=gain_grid, phi_terms=phi_terms,
                     diagnostics={"residual": resid, "centring": centring,
                                  "epsilon": eps_floor, "floor_frac": floor_frac})


# ---------------------------------------------------------------------------
# Galerkin route

@dataclass(frozen=True)
class BasisFunction:
    """C^1 basis element with batched value/gradient (and Hessian for the
    Ito-correction term of the continuous-time filters)."""

    name: str
    value: callable             # (n, d) -> (n,)
    grad: callable              # (n, d) -> (n, d)
    hess: Optional[callable] = None   # (n, d) -> (n, d, d)


def monomial_basis(dim: int, quadratic: bool = False):
    """Coordinate monomials x_1..x_d, optionally plus all quadratics."""
    basis = []
    for j in range(dim):
        def value(x, j=j):
            return x[:, j]

        def grad(x, j=j):
            out = np.zeros_like(x)
            out[:, j] = 1.0
            return out

        def hess(x, j=j):
            return np.zeros((x.shape[0], x.shape[1], x.shape[1]))

        basis.append(BasisFunction(f"x{j + 1}", value, grad, hess))
    if quadratic:
        for j in range(dim):
            for k in range(j, dim):
                def value(x, j=j, k=k):
                    return x[:, j] * x[:, k]

                def grad(x, j=j, k=k):
                    out = np.zeros_like(x)
                    out[:, j] += x[:, k]
                    out[:, k] += x[:, j]
                    return out

                def hess(x, j=j, k=k):
                    out = np.zeros((x.shape[0], x.shape[1], x.shape[1]))
                    out[:, j, k] += 1.0
                    out[:, k, j] += 1.0
                    return out

                basis.append(BasisFunction(f"x{j + 1}x{k + 1}", value, grad, hess))
    return basis


def solve_galerkin(ens, model: SystemModel, rhs_kind: str,
                   basis=None, m_inv: Optional[np.ndarray] = None,
                   prior_gain: Optional[np.ndarray] = None,
                   ridge: float = RIDGE) -> GainField:
    """Basis-projected weak form with Monte-Carlo quadrature over the cloud.

    Stiffness A_jk = mean(grad b_j . M^{-1} grad b_k); the load vector
    follows the rhs_kind.  The symmetric solve carries a 1e-10 ridge
    followed by two iterative-refinement sweeps, so the ridge stabilises
    degenerate clouds without biasing well-conditioned systems.
    """
    x = particles_of(ens)
    n, d = x.shape
    if basis is None:
        basis = monomial_basis(d, quadratic=rhs_kind in ("fpf_psi", "reich_omega",
                                                         "crisan_alpha"))
    nb = len(basis)
    if n <= nb:
        raise ValueError("need more particles than basis functions")
    grads = [b.grad(x) for b in basis]
    vals = [b.value(x) for b in basis]
    Minv = np.eye(d) if m_inv is None else np.atleast_2d(np.asarray(m_inv, dtype=float))

    A = np.empty((nb, nb))
    mg = [g @ Minv.T for g in grads]
    for j in range(nb):
        for k in range(j, nb):
            A[j, k] = A[k, j] = np.mean(np.sum(grads[j] * mg[k], axis=1))
    cond = float(np.linalg.cond(A))
    if cond > 1e12:
        raise IllConditioned(cond)

    h = model.obs(x)
    h_bar = h.mean()
    if rhs_kind in ("fpf_phi", "reich_lambda", "crisan_beta"):
        load = np.array([np.mean((h - h_bar) * v) for v in vals])
    elif rhs_kind == "fpf_psi":
        if prior_gain is None:
            prior_gain = solve_galerkin(x, model, "fpf_phi",
                                        basis=monomial_basis(d), m_inv=m_inv,
                                        ridge=ridge).at_particles
        r = np.sum(model.obs_grad(x) * prior_gain, axis=1)
        r_bar = r.mean()
        load = np.array([-np.mean((r - r_bar) * v) for v in vals])
    elif rhs_kind in ("reich_omega", "crisan_alpha"):
        h2_bar = (h * h).mean()
        load = np.array([-0.5 * np.mean((h * h - h2_bar) * v) for v in vals])
    else:
        raise ValueError(f"unknown rhs_kind {rhs_kind!r}")

    damped = A + ridge * np.eye(nb)
    c = np.linalg.solve(damped, load)
    for _ in range(2):                       # refine away the ridge bias
        c = c + np.linalg.solve(damped, load - A @ c)
    residual = float(np.max(np.abs(A @ c - load)))

    K = np.zeros((n, d))
    for j in range(nb):
        K += c[j] * mg[j]
    pot = np.zeros(n)
    for j in range(nb):
        pot += c[j] * vals[j]
    pot -= pot.mean()
    centring = float(abs(pot.mean()))
    return GainField(at_particles=K, coefficients=c,
                     diagnostics={"residual": residual, "centring": centring,
                                  "condition_number": cond})


def galerkin_ito_drift(ens, model: SystemModel, fld: GainField,
                       basis=None) -> np.ndarray:
    """(1/2) (grad K)^T K for a Galerkin field, from the basis Hessians."""
    x = particles_of(ens)
    n, d = x.shape
    if basis is None:
        basis = monomial_basis(d)
    K = fld.at_particles
    out = np.zeros((n, d))
    for j, b in enumerate(basis):
        if b.hess is None:
            raise ValueError(f"basis {b.name} lacks a Hessian")
        Hj = b.hess(x)                       # (n, d, d)
        out += fld.coefficients[j] * np.einsum("nij,nj->ni", Hj, K)
    return 0.5 * out


# ---------------------------------------------------------------------------
# fundamental-solution route (unweighted Poisson equation, d >= 2)

def unit_sphere_area(d: int) -> float:
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


@dataclass
class FundamentalField:
    """Monte-Carlo fundamental-solution gradient field for lap u = -(m - mbar) rho."""

    sources: np.ndarray
    m_centered: np.ndarray
    epsilon: float

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        d = self.sources.shape[1]
        raw = _kernels.pairwise_grad_field(pts, self.sources, self.m_centered,
                                           self.epsilon)
        return raw / (self.sources.shape[0] * unit_sphere_area(d))


def solve_fundamental_mc(ens, m_values: np.ndarray,
                         epsilon: Optional[float] = None) -> FundamentalField:
    """grad u(x) = (1/omega_d) (1/N) sum_i (y_i - x) (m_i - mbar) / max(|x-y_i|, eps)^d.

    Self-interactions (y_i == x) are skipped; the default cutoff is
    eps = N^{-1/d} and is reported through the field object."""
    x = particles_of(ens)
    n, d = x.shape
    if d < 2:
        raise DimensionError("fundamental-solution route requires d >= 2 "
                             "(use solve_1d_integral in d = 1)")
    m = np.asarray(m_values, dtype=float).reshape(-1)
    if m.shape[0] != n:
        raise ValueError("m_values must have one entry per particle")
    eps = float(n ** (-1.0 / d)) if epsilon is None else float(epsilon)
    if eps <= 0:
        raise ValueError("epsilon must be positive")
    return FundamentalField(sources=x, m_centered=m - m.mean(), epsilon=eps)


def multivariate_kde_at_points(ens, points: Optional[np.ndarray] = None,
                               eps_floor: float = EPS_RHO):
    """Product-Gaussian KDE evaluated at particle locations (d >= 2 Crisan
    1/rho factor).  Returns (values, floored_values, floor_fraction)."""
    x = particles_of(ens)
    pts = x if points is None else np.atleast_2d(points)
    n, d = x.shape
    sig = np.std(x, axis=0, ddof=1)
    bw = sig * (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0))
    vals = _kernels.kde_eval_points(pts, x, bw)
    floored = np.maximum(vals, eps_floor)
    return vals, floored, float(np.mean(vals < eps_floor))


# ---------------------------------------------------------------------------
# filter-coefficient assembly: a row maps (particles x, model, moments of x,
# **gain options) to the (a, K) of the update x + M dt + dV + (a + K slope) dt;
# continuous-time rows see slope = dZ/dt, a = (1/2)(grad K)^T K - K(h + hbar)/2

@dataclass
class CoefficientSet:
    a: np.ndarray               # (n, d) drift field
    K: np.ndarray               # (n, d) gain field
    diagnostics: dict


def _centred_drift(K, x, model) -> np.ndarray:
    """-K (h + hbar) / 2, the whole drift of a constant gain."""
    h = model.obs(x)
    return -0.5 * K * (h + h.mean())[:, None]


def _exact_coefficients(x, model, moments) -> CoefficientSet:
    if model.H is None:
        raise ModelMismatch("exact-Gaussian gain needs a stored H row")
    fld = solve_exact_gaussian(moments, model.h_row())
    return CoefficientSet(_centred_drift(fld.at_particles, x, model),
                          fld.at_particles, fld.diagnostics)


def _constant_coefficients(x, model, moments) -> CoefficientSet:
    fld = solve_constant_gain(moments)
    return CoefficientSet(_centred_drift(fld.at_particles, x, model),
                          fld.at_particles, fld.diagnostics)


def _integral_fpf(x, model, moments, density=None, kde_opts=None,
                  eps_floor=EPS_RHO) -> CoefficientSet:
    density = kde_density_1d(x, **(kde_opts or {})) if density is None else density
    kf = solve_1d_integral(density, model, "fpf_phi", eps_floor=eps_floor)
    psif = solve_1d_integral(density, model, "fpf_psi", phi=kf,
                             eps_floor=eps_floor)
    # a on the grid with the grid hbar, so the exact 1D identity
    # a = -(h+hbar)K/2 + grad psi/2 = grad alpha / rho carries to the particles
    h, hb, _ = kf.phi_terms
    a_grid = -0.5 * kf.gain_grid * (h + hb) + 0.5 * psif.gain_grid
    cells = GridIntervals(density.grid, x[:, 0])
    return CoefficientSet(cells.interp(a_grid).reshape(-1, 1),
                          cells.interp(kf.gain_grid).reshape(-1, 1),
                          {**kf.diagnostics,
                           "psi_residual": psif.diagnostics["residual"]})


def _integral_beta_alpha(x, model, moments, density=None, kde_opts=None,
                         eps_floor=EPS_RHO) -> CoefficientSet:
    """K = grad beta / rho, a = grad alpha / rho; in 1D the Reich fields
    grad Lambda and grad Omega (M = I) solve the same equations."""
    density = kde_density_1d(x, **(kde_opts or {})) if density is None else density
    kf, af = (solve_1d_integral(density, model, kind, eps_floor=eps_floor)
              for kind in ("crisan_beta", "crisan_alpha"))
    cells = GridIntervals(density.grid, x[:, 0])
    return CoefficientSet(cells.interp(af.gain_grid).reshape(-1, 1),
                          cells.interp(kf.gain_grid).reshape(-1, 1),
                          {**kf.diagnostics,
                           "drift_residual": af.diagnostics["residual"]})


def _integral_continuous(x, model, moments, density=None, kde_opts=None,
                         eps_floor=EPS_RHO) -> CoefficientSet:
    density = kde_density_1d(x, **(kde_opts or {})) if density is None else density
    fld = solve_1d_integral(density, model, "fpf_phi", eps_floor=eps_floor)
    dK = np.gradient(fld.gain_grid, density.dx)
    cells = GridIntervals(density.grid, x[:, 0])
    K = cells.interp(fld.gain_grid).reshape(-1, 1)
    ito = 0.5 * cells.interp(dK * fld.gain_grid).reshape(-1, 1)
    return CoefficientSet(ito + _centred_drift(K, x, model), K, fld.diagnostics)


def _galerkin_fpf(x, model, moments, basis=None) -> CoefficientSet:
    kf = solve_galerkin(x, model, "fpf_phi", basis=basis)
    psif = solve_galerkin(x, model, "fpf_psi", prior_gain=kf.at_particles)
    return CoefficientSet(_centred_drift(kf.at_particles, x, model)
                          + 0.5 * psif.at_particles,
                          kf.at_particles, dict(kf.diagnostics))


def _galerkin_reich(cov_inverse: bool):
    def assemble(x, model, moments, basis=None) -> CoefficientSet:
        m_inv = moments.cov if cov_inverse else None     # M = P^{-1} or I
        kf = solve_galerkin(x, model, "fpf_phi", basis=basis, m_inv=m_inv)
        of = solve_galerkin(x, model, "reich_omega", m_inv=m_inv)
        return CoefficientSet(of.at_particles, kf.at_particles,
                              dict(kf.diagnostics))
    return assemble


def _galerkin_continuous(x, model, moments, basis=None) -> CoefficientSet:
    fld = solve_galerkin(x, model, "fpf_phi", basis=basis)
    ito = galerkin_ito_drift(x, model, fld, basis=basis)
    return CoefficientSet(ito + _centred_drift(fld.at_particles, x, model),
                          fld.at_particles, fld.diagnostics)


def _fundamental_mc(x, model, moments, eps_floor=EPS_RHO) -> CoefficientSet:
    h = model.obs(x)
    beta = solve_fundamental_mc(x, h)
    alpha = solve_fundamental_mc(x, -0.5 * h * h)
    _, rho_f, floor_frac = multivariate_kde_at_points(x, eps_floor=eps_floor)
    return CoefficientSet(alpha.evaluate(x) / rho_f[:, None],
                          beta.evaluate(x) / rho_f[:, None],
                          {"epsilon": beta.epsilon, "floor_frac": floor_frac})


def _enkbf_coefficients(x, model, moments) -> CoefficientSet:
    if model.kind != "linear_gaussian":
        raise ModelMismatch("enkbf requires a linear-Gaussian model")
    return _exact_coefficients(x, model, moments)


def _in_1d(row):
    def assemble(x, model, moments, **gain_opts) -> CoefficientSet:
        if x.shape[1] != 1:
            raise DimensionError("continuous-time Crisan & Xiong needs d = 1")
        return row(x, model, moments, **gain_opts)
    return assemble


# constant gains have no Ito term, so their continuous-time rows are the
# delta rows themselves
_CONTINUOUS = {"exact_gaussian": _exact_coefficients,
               "constant": _constant_coefficients,
               "integral_1d": _integral_continuous,
               "galerkin": _galerkin_continuous}
_CRISAN_XIONG = {"exact_gaussian": _exact_coefficients,
                 "integral_1d": _integral_beta_alpha,
                 "fundamental_mc": _fundamental_mc}

# filter kind label -> gain method -> row
ASSEMBLERS = {
    "delta_fpf": {"exact_gaussian": _exact_coefficients,
                  "constant": _constant_coefficients,
                  "integral_1d": _integral_fpf,
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
    "enkbf": {"exact_gaussian": _enkbf_coefficients},
    "fpf_continuous": _CONTINUOUS,
    "crisan_continuous": {gain: _in_1d(row) for gain, row in _CONTINUOUS.items()},
}


def _positive_number(value) -> bool:
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and 0 < value <= sys.float_info.max)


_POSITIVE = ("a positive finite number", _positive_number)

# the options a config may give each gain, kde_opts nesting those of
# kde_density_1d, each leaf a (description, check) of its value; library
# callers may also pass density= and basis=
KDE_OPTS = {
    # cumulative_simpson needs 3 grid points
    "grid_points": ("an int >= 3", lambda v: type(v) is int and v >= 3),
    "half_width": _POSITIVE,
    "bandwidth": ('a positive finite number or "silverman"',
                  lambda v: v == "silverman" or _positive_number(v)),
    "pad_sigmas": _POSITIVE,
}
GAIN_OPTS = {"integral_1d": {"kde_opts": KDE_OPTS, "eps_floor": _POSITIVE},
             "fundamental_mc": {"eps_floor": _POSITIVE}}


def kind_label(tag: str, mass_matrix: Optional[str] = None) -> str:
    return f"delta_reich({mass_matrix})" if tag == "delta_reich" else tag


def assemble_filter_coefficients(kind: str, ens, model: SystemModel,
                                 moments: Moments, method: str,
                                 mass_matrix: str = "identity",
                                 **gain_opts) -> CoefficientSet:
    """(a, K) at the particles of ens from the (kind, method) row, given
    the moments of ens; delta_reich picks its row by mass_matrix."""
    row = ASSEMBLERS.get(kind_label(kind, mass_matrix), {}).get(method)
    if row is None:
        raise ValueError(f"no {method!r} gain for filter kind "
                         f"{kind_label(kind, mass_matrix)!r}")
    return row(particles_of(ens), model, moments, **gain_opts)


def continuous_gain(ens, model: SystemModel, method: str, **gain_opts):
    """Gain K(x_i) and Ito drift (1/2)(grad K)^T K(x_i) of the fpf_continuous
    row: its drift a with the centring term -K (h + hbar) / 2 taken out."""
    x = particles_of(ens)
    row = ASSEMBLERS["fpf_continuous"][method]
    cs = row(x, model, compute_moments(x, model), **gain_opts)
    return cs.K, cs.a - _centred_drift(cs.K, x, model), cs.diagnostics


def reich_identity_continuous_drift(K: np.ndarray, h: np.ndarray,
                                    h_bar: float) -> np.ndarray:
    """d=1 exactly-integrated grad(Omega + Theta~) of the M=I Reich limit:
    the divergence-form equation integrates to -(h + hbar) K / 2."""
    return -0.5 * K * (np.asarray(h) + h_bar)[:, None]
