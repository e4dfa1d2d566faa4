import numpy as np
import pytest

from flowfilter.ensemble import Density1D, density_from_function
from flowfilter import theory
from flowfilter.errors import (CertificateFailed, FlowFilterError,
                               NonPositiveDelta, NonPositiveDensity,
                               NonPositiveParameter, NotLogConcave)
from flowfilter.theory import (affine_pushforward, brascamp_lieb_check,
                               empirical_poincare_1d, gamma_fixed_point,
                               gamma_map, gamma_recursion, kappa_continuous,
                               kappa_delta, lipschitz_transfer)


def _normal_density(var=1.0, points=4001, sigmas=10.0):
    s = np.sqrt(var)
    return density_from_function(
        lambda x: np.exp(-x**2 / (2 * var)) / np.sqrt(2 * np.pi * var),
        half_width=sigmas * s, grid_points=points)


def test_kappa_continuous_reference_value():
    assert kappa_continuous(1.0, 1.0, 2.0).constant == 0.5


def test_kappa_continuous_branch_selection():
    # c_g = 5, c_r = 2: sqrt(c_r/2) = 1 < c_g wins
    b = kappa_continuous(0.3, 5.0, 2.0)
    assert b.constant == 1.0 / (0.3 + 1.0)


def test_kappa_continuous_degenerates_as_parameters_vanish():
    assert kappa_continuous(1e-9, 1e-9, 1e-9).constant > 1e8
    with pytest.raises(NonPositiveParameter):
        kappa_continuous(0.0, 1.0, 1.0)


def test_gamma_fixed_point_closed_form():
    star = gamma_fixed_point(2.0, 1.0)
    assert star == pytest.approx((-2.0 + np.sqrt(20.0)) / 4.0, abs=1e-15)
    assert abs(gamma_map(star, 2.0, 1.0) - star) <= 1e-12


def test_gamma_fixed_point_small_dt_limit():
    # gamma* -> sqrt(c_r / 2) as dt -> 0
    vals = [gamma_fixed_point(2.0, dt) for dt in (1e-1, 1e-2, 1e-3)]
    errs = [abs(v - 1.0) for v in vals]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3


def test_gamma_recursion_constant_at_fixed_point():
    star = gamma_fixed_point(2.0, 0.5)
    tr = gamma_recursion(star, 2.0, 0.5, 20)
    np.testing.assert_allclose(tr.gamma, star, atol=1e-12)


def test_gamma_recursion_monotone_and_floored():
    rng = np.random.default_rng(3)
    for _ in range(25):
        c_g = rng.uniform(0.05, 4.0)
        c_r = rng.uniform(0.05, 4.0)
        dt = rng.uniform(1e-3, 1.0)
        tr = gamma_recursion(c_g, c_r, dt, 60)
        diffs = np.diff(tr.gamma)
        assert np.all(diffs <= 1e-12) or np.all(diffs >= -1e-12)
        assert tr.floor() >= min(c_g, tr.fixed_point) - 1e-12
        # the stated floor min(c_g, sqrt(c_r/2)) holds up to the O(dt)
        # defect of the fixed point, c_r dt / 4
        assert tr.floor() >= min(c_g, np.sqrt(c_r / 2)) - c_r * dt / 4 - 1e-9


def test_gamma_recursion_failed_checks_are_typed(monkeypatch):
    # the closed-form fixed point loses m(gamma*) = gamma* to cancellation
    with pytest.raises(CertificateFailed, match="fixed point"):
        gamma_recursion(1.0, 1e20, 1.0, 5)
    # a map that keeps gamma* fixed but halves any other value dips
    # the trace below min(c_g, gamma*)
    star = gamma_fixed_point(2.0, 0.5)
    monkeypatch.setattr(theory, "gamma_map", lambda g, c_r, dt:
                        g if g == star else 0.5 * g)
    with pytest.raises(CertificateFailed, match="dipped"):
        gamma_recursion(1.0, 2.0, 0.5, 3)
    assert issubclass(CertificateFailed, FlowFilterError)


def test_stiff_fixed_point_is_judged_at_its_own_scale(monkeypatch):
    # c = 1900 on delta 0.01: the closed form cancels digits of
    # dt c_r = 72200, and m(gamma*) - gamma* = 1.8e-12 failed an absolute
    # tolerance of 1e-12
    c_r, dt = 2.0 * 1900.0 ** 2, 0.01
    star = gamma_fixed_point(c_r, dt)
    assert abs(gamma_map(star, c_r, dt) - star) > 1e-12
    assert gamma_recursion(1.0, c_r, dt, 100).fixed_point == star
    # a fixed point moved by 1e-6 still fails
    monkeypatch.setattr(theory, "gamma_fixed_point",
                        lambda c_r, dt: star + 1e-6)
    with pytest.raises(CertificateFailed, match="fixed point"):
        gamma_recursion(1.0, c_r, dt, 100)


def test_kappa_delta_empty_horizon():
    assert kappa_delta(1.3, 0.0, 2.0, 1.0, 1.0, 0.1, 5.0).constant == 1.3


def test_kappa_delta_reference_value():
    b = kappa_delta(1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0)
    assert b.constant == pytest.approx(2.0 * np.exp(3.0), rel=1e-12)
    assert b.inputs["kappa_minus"] == pytest.approx(2.0, rel=1e-15)


def test_kappa_delta_squares_T_over_delta():
    # T / delta = 4, where the reference value's T = delta = 1 cannot tell
    # (T / delta)^2 from T / delta
    b = kappa_delta(0.5, 1.0, 0.25, 0.5, 0.25, 0.25, 0.1)
    assert b.constant == pytest.approx(
        1.5 * np.exp((2 * 0.25 + 0.25) * 1.0 + 2 * 0.5 * 4.0 ** 2 * 0.1),
        rel=1e-14)
    assert b.inputs["kappa_minus"] == pytest.approx(1.5 * np.exp(0.5),
                                                    rel=1e-14)


def test_kappa_delta_monotone_in_each_argument():
    rng = np.random.default_rng(9)
    base = dict(kappa0=0.7, T=0.8, L_M=0.4, h_sup=0.5, h2_sup=0.6,
                delta=0.2, max_dz=0.3)
    k0 = kappa_delta(**base).constant
    for key in ("kappa0", "T", "L_M", "h_sup", "h2_sup", "max_dz"):
        for _ in range(5):
            bumped = dict(base)
            bumped[key] = base[key] + rng.uniform(0.01, 1.0)
            assert kappa_delta(**bumped).constant >= k0
    # decreasing delta increases the constant
    bumped = dict(base, delta=0.1)
    assert kappa_delta(**bumped).constant >= k0
    with pytest.raises(NonPositiveDelta):
        kappa_delta(1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0)


def test_kappa_delta_bounded_h_degenerate_case():
    # h = 0: the bound collapses to the signal-only constant exactly
    b = kappa_delta(0.9, 1.5, 0.7, 0.0, 0.0, 0.25, 3.0)
    assert b.constant == pytest.approx(b.inputs["kappa_minus"], rel=1e-15)


def test_lipschitz_transfer_rules():
    base = kappa_continuous(1.0, 1.0, 2.0)           # 0.5
    out = lipschitz_transfer(base, 2.0)
    assert out.constant == pytest.approx(2.0)        # squared rule
    assert out.inputs["stated_linear_rule"] == pytest.approx(1.0)
    assert lipschitz_transfer(base, 1.0).constant == base.constant
    four = lipschitz_transfer(lipschitz_transfer(base, 2.0), 0.5)
    assert four.constant == pytest.approx(0.5)


def test_empirical_poincare_gaussian_equals_variance():
    for var in (1.0, 0.49):
        dens = _normal_density(var)
        k = empirical_poincare_1d(dens)
        assert abs(k - var) / var <= 0.01


def test_empirical_poincare_dilation_consistency():
    # N(0,1) under Theta(x) = 2x has true constant 4 = 1 * 2^2: the
    # eigen-oracle confirms the squared transfer rule
    dens = _normal_density(1.0)
    base = empirical_poincare_1d(dens)
    pushed = affine_pushforward(dens, 2.0)
    k2 = empirical_poincare_1d(pushed)
    transferred = base * 2.0**2
    assert abs(k2 - transferred) / transferred <= 0.02
    assert abs(k2 - 4.0) <= 0.05


def test_empirical_poincare_plateau_density():
    # smoothed indicator of width 2L: kappa ~ (2L)^2 / pi^2 (Neumann gap)
    L0 = 2.0
    g = np.linspace(-4, 4, 4001)
    v = 1.0 / (1.0 + np.exp((np.abs(g) - L0) / 0.05))
    dens = Density1D(grid=g, values=v / np.trapezoid(v, g))
    k = empirical_poincare_1d(dens)
    target = (2 * L0) ** 2 / np.pi**2
    assert abs(k - target) / target <= 0.02


def test_empirical_poincare_scaling_property():
    dens = _normal_density(1.0)
    for a in (0.5, 3.0):
        scaled = affine_pushforward(dens, a)
        ratio = empirical_poincare_1d(scaled) / empirical_poincare_1d(dens)
        assert ratio == pytest.approx(a * a, rel=1e-6)


def test_empirical_poincare_failed_certificate_is_typed(monkeypatch):
    # a negative tolerance asks the Sturm count to find no eigenvalue but
    # the constant mode's below lambda_1 (1 + 1e-3), where lambda_1 is
    dens = _normal_density(1.0, points=801)
    assert empirical_poincare_1d(dens) > 0
    monkeypatch.setattr(theory, "CERTIFY_TOL", -1e-3)
    with pytest.raises(CertificateFailed, match="Rayleigh"):
        empirical_poincare_1d(dens)


def test_empirical_poincare_rejects_nonpositive():
    g = np.linspace(-1, 1, 101)
    v = np.maximum(0.0, 1 - g**2)
    with pytest.raises(NonPositiveDensity):
        empirical_poincare_1d(Density1D(grid=g, values=v))


def test_brascamp_lieb_gaussian_equality():
    dens = _normal_density(1.0)
    rep = brascamp_lieb_check(dens, lambda x: x, lambda x: np.ones_like(x))
    assert rep.passed
    assert rep.variance == pytest.approx(1.0, abs=1e-6)
    assert abs(rep.bound - rep.variance) <= 1e-6    # equality case


def test_brascamp_lieb_quadratic_slack():
    dens = _normal_density(1.0)
    rep = brascamp_lieb_check(dens, lambda x: x**2, lambda x: 2 * x)
    assert rep.variance == pytest.approx(2.0, abs=1e-6)
    assert rep.bound == pytest.approx(4.0, abs=1e-5)
    assert rep.passed


def test_brascamp_lieb_constant_function():
    dens = _normal_density(1.0)
    rep = brascamp_lieb_check(dens, lambda x: np.full_like(x, 2.0),
                              lambda x: np.zeros_like(x))
    assert rep.variance == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_brascamp_lieb_rejects_non_log_concave():
    g = np.linspace(-6, 6, 2001)
    v = np.exp(-(g - 2) ** 2 / 2) + np.exp(-(g + 2) ** 2 / 2)
    dens = Density1D(grid=g, values=v / np.trapezoid(v, g))
    with pytest.raises(NotLogConcave):
        brascamp_lieb_check(dens, lambda x: x)
