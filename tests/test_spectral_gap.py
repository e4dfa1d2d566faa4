"""The spectral gap of theory.empirical_poincare_1d against LAPACK.

The library finds lambda_1 of A f = lambda B f (Dirichlet-form stiffness,
trapezoid mass) by inverse iteration through the 1D weighted Poisson
solve, and certifies it by a Sturm count.  Two references check it:

  * the former route: the same pencil symmetrised to a tridiagonal matrix
    T and handed to scipy's eigh_tridiagonal, which bisects with LAPACK's
    stebz.  Its eigenvalues carry an absolute error of order eps * ||T||,
    so the two must agree within that bound, written out in
    `lapack_bound`, and nothing looser.  On coarse, wide grids ||T|| is
    large (neighbouring tail values differ by up to e^30), and the bound
    is then weak;
  * the Sturm count `theory._count_below`, whose error is a few ulps
    relative to each eigenvalue however rho is scaled.  On every case the
    gap must lie within 1e-10 relative of the discrete lambda_1 by it:
    no nonzero eigenvalue below lambda (1 - 1e-10), one at most
    lambda (1 + 1e-10).  The count itself is held to LAPACK's eigenvalues
    where their bound is tight.

Densities floored to 1e-300 on a tail can hold modes confined to the flat
floor, of eigenvalue O(1 / width^2) and mass ~1e-300; LAPACK finds them,
the B-weighted iteration cannot see them, and the Sturm count does: when
such a mode lies below the gap of the density above the floor, the
certificate fails.  The LAPACK reference is therefore taken on the grid
with its floored tail runs cut off, and a fixed case shows a floor mode.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from flowfilter import theory
from flowfilter.ensemble import Density1D
from flowfilter.errors import CertificateFailed
from flowfilter.theory import affine_pushforward, empirical_poincare_1d

FLOOR = 1e-300
EPS = np.finfo(float).eps
REL = 1e-10


def lapack_eigs(dens: Density1D, k: int = 2) -> tuple:
    """The k lowest eigenvalues by eigh_tridiagonal on the symmetrised
    pencil, and the Gershgorin norm of the tridiagonal matrix it bisects."""
    rho, dx = dens.values, dens.dx
    rh = 0.5 * (rho[:-1] + rho[1:])
    Ad = np.concatenate(([rh[0]], rh[:-1] + rh[1:], [rh[-1]])) / dx
    s = 1.0 / np.sqrt(rho * dens.trapz_weights())
    d, e = Ad * s * s, -rh / dx * s[:-1] * s[1:]
    vals = eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                            select_range=(0, k - 1))
    ae = np.abs(e)
    tnorm = float(np.max(np.abs(d) + np.r_[0.0, ae] + np.r_[ae, 0.0]))
    return vals, tnorm


def lapack_gap(dens: Density1D) -> tuple:
    vals, tnorm = lapack_eigs(dens)
    return float(vals[1]), tnorm


def lapack_bound(lam: float, tnorm: float) -> float:
    """How far the two gaps may lie apart.  stebz stops when the bracket
    is narrower than eps * ||T|| (its default abstol), its Sturm counts are
    exact for a matrix within about 3 eps of T entrywise, and forming T
    from rho rounds each entry by about 3 eps: together at most 8 eps ||T||.
    The iteration stops when lambda changes by 1e-14 relative; at a
    contraction of 0.99 per step the rest is below 1e-12 relative."""
    return 8.0 * EPS * tnorm + 1e-12 * lam


def count_below(dens: Density1D, sigma: float) -> int:
    """Eigenvalues of the pencil of dens below sigma, the constant mode's
    0 included."""
    rho = dens.values
    c = 0.5 * (rho[:-1] + rho[1:]) / dens.dx
    return theory._count_below(c, rho * dens.trapz_weights(), sigma)


def without_floored_tails(grid, raw):
    """The density on the grid with its leading and trailing runs of
    floored values cut off (floors between modes stay)."""
    up = np.flatnonzero(raw > FLOOR)
    cut = slice(up[0], up[-1] + 1)
    return Density1D(grid=grid[cut], values=raw[cut])


@st.composite
def mixtures(draw):
    """A mixture of 1-3 Gaussians on a uniform grid of 101-2001 points
    reaching 4-40 of the widest component's deviations past the furthest
    mean, floored to 1e-300; optionally scaled or pushed forward by an
    affine map."""
    k = draw(st.integers(1, 3))
    mu = [draw(st.floats(-4.0, 4.0)) for _ in range(k)]
    sd = [draw(st.floats(0.1, 2.0)) for _ in range(k)]
    w = [draw(st.floats(0.1, 1.0)) for _ in range(k)]
    half = max(abs(m) for m in mu) + draw(st.floats(4.0, 40.0)) * max(sd)
    grid = np.linspace(-half, half, draw(st.integers(101, 2001)))
    raw = np.maximum(sum(wi * np.exp(-0.5 * ((grid - m) / s) ** 2) / s
                         for wi, m, s in zip(w, mu, sd)), FLOOR)
    a, b = 1.0, 0.0
    kind = draw(st.sampled_from(["plain", "scaled", "pushed"]))
    if kind != "plain":
        a = draw(st.floats(0.3, 3.0))
    if kind == "pushed":
        a, b = draw(st.sampled_from([a, -a])), draw(st.floats(-2.0, 2.0))
    return grid, raw, a, b


def assert_is_discrete_gap(dens: Density1D, lam: float):
    assert count_below(dens, lam * (1.0 - REL)) == 1
    assert count_below(dens, lam * (1.0 + REL)) >= 2


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=mixtures())
def test_gap_agrees_with_lapack_within_its_bound(case):
    grid, raw, a, b = case
    dens = affine_pushforward(Density1D(grid=grid, values=raw), a, b)
    ref = affine_pushforward(without_floored_tails(grid, raw), a, b)
    lam_ref, tnorm = lapack_gap(ref)
    try:
        lam = 1.0 / empirical_poincare_1d(dens)
    except CertificateFailed:
        # a floored tail's mode lies below the gap above the floor
        lam = 1.0 / empirical_poincare_1d(ref)
        assert count_below(dens, lam * (1.0 - REL)) >= 2
        dens = ref
    assert lam > 0
    assert_is_discrete_gap(dens, lam)
    assert abs(lam - lam_ref) <= lapack_bound(lam_ref, tnorm), (lam, lam_ref)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(case=mixtures())
def test_sturm_count_matches_lapack_where_its_bound_is_tight(case):
    grid, raw, a, b = case
    ref = affine_pushforward(without_floored_tails(grid, raw), a, b)
    vals, tnorm = lapack_eigs(ref, k=5)
    err = 8.0 * EPS * tnorm
    for k in range(1, 5):
        lo, hi = vals[k - 1] + err, vals[k] - err
        if lo < hi:
            assert count_below(ref, 0.5 * (lo + hi)) == k


def _deep_bimodal():
    g = np.linspace(-10.0, 10.0, 2001)
    v = np.exp(-(g - 3.0) ** 2 / 0.3) + np.exp(-(g + 3.0) ** 2 / 0.3)
    return Density1D(grid=g, values=np.maximum(v, FLOOR))


def test_deep_bimodal_gap_is_positive_and_certified():
    # modes at +-3 of variance 0.15: lambda_1 ~ 2e-12 sits inside LAPACK's
    # eps * ||T|| ~ 1e-11, so eigh_tridiagonal's sign is noise; the
    # iteration's Rayleigh quotient is a ratio of positive sums
    dens = _deep_bimodal()
    kappa = empirical_poincare_1d(dens)
    assert 1e11 < kappa < 1e12
    assert_is_discrete_gap(dens, 1.0 / kappa)
    lam, tnorm = lapack_gap(dens)
    assert abs(1.0 / kappa - lam) <= lapack_bound(lam, tnorm)


def test_near_degenerate_three_wells_converge():
    # a heavy centre and two light outer wells of mass 0.005 whose escape
    # rates differ by 1%: lambda_2 / lambda_1 = 1.01, so iterating on one
    # vector would need ~1600 steps; the pair converges at
    # lambda_1 / lambda_3 ~ 5e-5
    g = np.linspace(-6.0, 6.0, 1201)
    v = (np.exp(-g ** 2 / 0.18) / 0.3
         + 0.005 * np.exp(-(g + 3.0) ** 2 / 0.18) / 0.3
         + 0.005 * np.exp(-(g - 2.7988797224407227) ** 2 / 0.125) / 0.25)
    dens = Density1D(grid=g, values=np.maximum(v, FLOOR))
    vals, tnorm = lapack_eigs(dens, k=4)
    assert vals[2] / vals[1] < 1.011 and vals[3] / vals[2] > 1e4
    kappa = empirical_poincare_1d(dens)
    assert_is_discrete_gap(dens, 1.0 / kappa)
    assert abs(1.0 / kappa - vals[1]) <= lapack_bound(vals[1], tnorm)


def test_floored_tail_mode_fails_the_certificate():
    # exp(-|x|^3) reaches the floor at |x| ~ 8.8, so [-10, 10] has two flat
    # tails of mass ~1e-300 whose own modes (lambda ~ 1.83) lie below the
    # bulk gap (~2.58); the iteration finds the bulk gap, which is the
    # LAPACK gap once the floored tails are cut, and the Sturm count finds
    # the tail modes below it
    g = np.linspace(-10.0, 10.0, 2001)
    raw = np.maximum(np.exp(-np.abs(g) ** 3), FLOOR)
    full, _ = lapack_gap(Density1D(grid=g, values=raw))
    with pytest.raises(CertificateFailed, match="2 nonzero eigenvalues"):
        empirical_poincare_1d(Density1D(grid=g, values=raw))
    cut = without_floored_tails(g, raw)
    kappa = empirical_poincare_1d(cut)
    lam, tnorm = lapack_gap(cut)
    assert abs(1.0 / kappa - lam) <= lapack_bound(lam, tnorm)
    assert kappa == pytest.approx(0.3875, abs=1e-4)
    assert full < 0.75 * lam


def test_iteration_cap_raises_certificate_failed(monkeypatch):
    monkeypatch.setattr(theory, "_MAX_ITER", 1)
    with pytest.raises(CertificateFailed, match="converge"):
        empirical_poincare_1d(_deep_bimodal())
