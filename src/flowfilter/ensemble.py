"""Empirical moments of a particle cloud and densities on a 1D grid.

The particles, an (n, d) float array, are the Monte-Carlo surrogate for
the mean-field conditional law: every filter coefficient is computed from
its empirical statistics.  Density1D is the other form of that law, a
density on a uniform 1D grid, shared by the kernel density estimate, the
grid Kushner reference, the Poincare certificates and the grid-table
initial law.  The kernel density estimate also returns the grid cell its
deposit binned each particle by, so the integral gain rows locate the
particles on that grid once.
Reductions go through numpy's pairwise summation in a fixed order, so
moments do not depend on how particle work is scheduled.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DegenerateCloud, DimensionError
from .models import SystemModel, _ndtr


@dataclass(frozen=True)
class Moments:
    """Empirical mean/covariance and observation statistics.

    cov and cov_xh carry the unbiased 1/(n-1) normalization; h_bar is the
    plain sample mean (the empirical-measure average used in the weak
    forms).
    """

    n: int
    mean: np.ndarray            # (d,)
    cov: np.ndarray             # (d, d)
    h_bar: float
    cov_xh: np.ndarray          # (d,)


def _trapezoid(y: np.ndarray, spacing: np.ndarray) -> float:
    """np.trapezoid(y, grid) with spacing = np.diff(grid), in its arithmetic."""
    return float((spacing * (y[1:] + y[:-1]) / 2.0).sum())


@dataclass(frozen=True)
class Density1D:
    """Nonnegative density values on a uniform grid, unit trapezoid mass;
    also a 1D initial law (dim, sample), as models.GaussianLaw is.

    ValueError unless the grid is 1D, of 2 points or more, finite, strictly
    increasing and uniform (the range of its spacing within 1e-9 of the
    least: every grid solver takes grid[1] - grid[0] as the spacing), and
    the values are finite, nonnegative and of the grid's shape.
    """

    grid: np.ndarray
    values: np.ndarray
    spacing: np.ndarray = field(init=False, repr=False, compare=False)
    dim = 1                 # not a field: the dimension of an initial law

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if g.ndim != 1 or g.size < 2 or v.shape != g.shape:
            raise ValueError(f"a grid density needs a 1D grid of 2 points or "
                             f"more and a value per point, not {v.shape} "
                             f"on {g.shape}")
        spacing = g[1:] - g[:-1]
        lo = spacing.min()      # a NaN or an infinity in g fails the test too
        if not (lo > 0 and spacing.max() - lo <= 1e-9 * lo):
            raise ValueError("the grid must be finite, strictly increasing "
                             "and uniform")
        if not v.min() >= 0:        # NaN fails it too
            raise ValueError("density values must be nonnegative")
        mass = _trapezoid(v, spacing)       # infinite for an infinite value
        if not 0 < mass < math.inf:
            raise ValueError(f"density mass {mass} is not positive and finite")
        if abs(mass - 1.0) > 1e-8:
            v = v / mass
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "spacing", spacing)

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def trapz_weights(self) -> np.ndarray:
        w = np.full(self.grid.size, self.dx)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def mean(self) -> float:
        return _trapezoid(self.grid * self.values, self.spacing)

    def var(self) -> float:
        return _trapezoid((self.grid - self.mean()) ** 2 * self.values,
                          self.spacing)

    def sample(self, n: int, normals: np.ndarray) -> np.ndarray:
        """Map standard-normal draws (n, 1) to draws from the density, by
        the inverse of its trapezoid CDF."""
        cdf = np.concatenate([[0.0], np.cumsum(
            0.5 * (self.values[1:] + self.values[:-1]) * self.spacing)])
        cdf /= cdf[-1]
        return np.interp(_ndtr(normals[:, 0]), cdf, self.grid).reshape(n, 1)


def compute_moments(x: np.ndarray, model: SystemModel,
                    h: Optional[np.ndarray] = None) -> Moments:
    """Single pass over the particles x (n, d): mean, unbiased covariance,
    hbar and Cov(x, h), from h = obs(x) when the caller has it."""
    n = x.shape[0]
    mean = x.mean(axis=0)
    centred = x - mean
    cov = centred.T @ centred / (n - 1)
    if h is None:
        h = model.obs(x)
    h_bar = float(h.mean())
    cov_xh = centred.T @ (h - h_bar) / (n - 1)
    return Moments(n=n, mean=mean, cov=cov, h_bar=h_bar, cov_xh=cov_xh)


def kde_density_1d(x: np.ndarray, grid_points: int = 801,
                   half_width: Optional[float] = None,
                   bandwidth=None, pad_sigmas: float = 8.0
                   ) -> tuple[Density1D, np.ndarray]:
    """Gaussian-kernel density on a uniform grid, renormalized to unit
    mass, and the grid cell of each particle: (density, cells).

    Linear binning followed by convolution with the discretised kernel
    (kernel truncated at 8 bandwidths; truncation error ~ 1e-15 relative).
    cells is the index the binning found, floor((x - g_0) / dx) held to
    [0, grid_points - 2]: within one of each particle's grid interval, so
    gain.GridIntervals starts from it instead of estimating it again.
    The default bandwidth is Silverman's 1.06 sigma n^{-1/5}.  The grid
    half-width defaults to max(|mean| + pad_sigmas * sigma, user value) so
    the tail mass off the grid is negligible for near-Gaussian clouds.
    """
    if x.shape[1] != 1:
        raise DimensionError("kde_density_1d requires 1D particles")
    xs = x[:, 0]
    n = xs.size
    # the sample mean and unbiased variance once, in np.var's arithmetic;
    # a cloud past the float range overflows them, and is refused below
    with np.errstate(over="ignore", invalid="ignore"):
        mean = xs.sum() / n
        dev = xs - mean
        var = float(np.sum(np.square(dev, out=dev)) / (n - 1))
    if var < 1e-14:
        raise DegenerateCloud(f"sample variance {var:.3e} below 1e-14")
    sigma = np.sqrt(var)
    if bandwidth is None or bandwidth == "silverman":
        bw = 1.06 * float(sigma) * n ** (-0.2)
    else:
        bw = float(bandwidth)
        if bw <= 0:
            raise ValueError("bandwidth must be positive")
    auto_l = abs(float(mean)) + pad_sigmas * sigma + 4.0 * bw
    half = max(auto_l, half_width) if half_width is not None else auto_l
    if not 2.0 * float(half) < math.inf:     # linspace spans 2 half
        raise DegenerateCloud(f"the cloud needs a grid of half-width {half:.3e}, "
                              "whose span is not finite")
    grid = np.linspace(-half, half, grid_points)
    dx = grid[1] - grid[0]
    counts, cells = _kernels.deposit_linear(xs, grid[0], dx, grid_points)
    half_k = int(np.ceil(8.0 * bw / dx))
    u = np.arange(-half_k, half_k + 1) * dx
    # a bandwidth far below dx squares u / bw past the float range, and
    # exp(-inf) = 0 is the right tap there
    with np.errstate(over="ignore"):
        kernel = np.exp(-0.5 * (u / bw) ** 2)
    # centred slice of the full convolution: mode="same" breaks on long kernels
    # nonnegative counts under nonnegative taps: no value to floor
    values = np.convolve(counts, kernel)[half_k:half_k + grid_points]
    return Density1D(grid=grid, values=values), cells


def density_from_function(pdf, half_width: float,
                          grid_points: int = 4001) -> Density1D:
    """Tabulate an analytic pdf on a uniform grid over [-half_width,
    half_width] (reference densities)."""
    grid = np.linspace(-half_width, half_width, grid_points)
    return Density1D(grid=grid, values=np.maximum(pdf(grid), 0.0))

