import numpy as np
import pytest
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.integrate import quad

from flowfilter.ensemble import Ensemble, compute_moments, density_from_function
from flowfilter.errors import DimensionError, IllConditioned, UnresolvedTail
from flowfilter.gain import (BasisFunction, GridIntervals,
                             assemble_filter_coefficients, cumulative_simpson,
                             monomial_basis, multivariate_kde_at_points,
                             reich_identity_continuous_drift,
                             solve_1d_integral, solve_constant_gain,
                             solve_exact_gaussian, solve_fundamental_mc,
                             solve_galerkin, unit_sphere_area)
from flowfilter.models import SystemModel, make_linear_gaussian


def _linear_model(H=1.0):
    return make_linear_gaussian([[0.0]], [H])


def _square_model():
    return SystemModel(dim=1, drift=lambda x: np.zeros_like(x),
                       obs=lambda x: x[:, 0] ** 2,
                       obs_grad=lambda x: 2 * x)


def _gaussian_density(var=1.0, half_width_sigmas=10.0, points=4001):
    s = np.sqrt(var)
    return density_from_function(
        lambda x: np.exp(-x**2 / (2 * var)) / np.sqrt(2 * np.pi * var),
        half_width=half_width_sigmas * s, grid_points=points)


# ---------------------------------------------------------------------------
# exact Gaussian and constant gain

def test_exact_gaussian_scalar():
    ens = Ensemble(np.random.default_rng(0).normal(size=(50, 1)))
    m = compute_moments(ens, _linear_model())
    m = type(m)(n=m.n, mean=m.mean, cov=np.array([[2.0]]), h_bar=m.h_bar,
                h2_bar=m.h2_bar, cov_xh=m.cov_xh)
    fld = solve_exact_gaussian(m, [3.0])
    assert np.all(fld.at_particles == 6.0)
    assert np.all(fld.aux_drift == 0.0)


def test_exact_gaussian_zero_h():
    ens = Ensemble(np.random.default_rng(0).normal(size=(50, 1)))
    m = compute_moments(ens, _linear_model())
    assert np.all(solve_exact_gaussian(m, [0.0]).at_particles == 0.0)


def test_exact_gaussian_2d_matrix_product():
    rng = np.random.default_rng(1)
    ens = Ensemble(rng.normal(size=(100, 2)))
    model = make_linear_gaussian(np.zeros((2, 2)), [1.0, 0.0])
    m = compute_moments(ens, model)
    m = type(m)(n=m.n, mean=m.mean, cov=np.eye(2), h_bar=m.h_bar,
                h2_bar=m.h2_bar, cov_xh=m.cov_xh)
    fld = solve_exact_gaussian(m, [1.0, 0.0])
    np.testing.assert_allclose(fld.at_particles, np.tile([1.0, 0.0], (100, 1)))


def test_constant_gain_linear_h_matches_sample_measure_covariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(300, 1)) * 0.8
    H = 1.3
    model = _linear_model(H)
    m = compute_moments(Ensemble(x), model)
    K = solve_constant_gain(m).at_particles
    biased = np.mean((x[:, 0] - x.mean()) * (H * x[:, 0] - H * x.mean()))
    assert abs(K[0, 0] - biased) <= 1e-14


def test_constant_gain_constant_h_is_zero():
    x = np.random.default_rng(3).normal(size=(100, 1))
    model = SystemModel(dim=1, drift=lambda v: np.zeros_like(v),
                        obs=lambda v: np.full(v.shape[0], 2.5),
                        obs_grad=lambda v: np.zeros_like(v))
    K = solve_constant_gain(compute_moments(Ensemble(x), model)).at_particles
    assert np.max(np.abs(K)) <= 1e-13


def test_constant_gain_quadratic_h_near_zero_odd_moment():
    rng = np.random.default_rng(5)
    n = 40_000
    x = rng.standard_normal((n, 1))
    K = solve_constant_gain(compute_moments(Ensemble(x), _square_model()))
    # K estimates E[x^3] = 0; fluctuation scale sqrt(Var(x(x^2-1))/n) ~ sqrt(10/n)
    assert abs(K.at_particles[0, 0]) <= 4 * np.sqrt(10.0 / n)


# ---------------------------------------------------------------------------
# 1D cumulative-integral solver

def test_integral_1d_linear_h_recovers_PH():
    var, H = 0.64, 1.7
    dens = _gaussian_density(var)
    model = _linear_model(H)
    s = np.sqrt(var)
    # within 5 sigma the rho-floor is inactive and the tail mass resolved
    particles = np.linspace(-5 * s, 5 * s, 2001)
    fld = solve_1d_integral(dens, model, "fpf_phi", particles=particles)
    assert np.max(np.abs(fld.at_particles - var * H)) <= 1e-6
    assert fld.diagnostics["residual"] <= 1e-5
    assert fld.diagnostics["centring"] <= 1e-10


def test_integral_1d_quadratic_h_gain_is_x():
    dens = _gaussian_density(1.0)
    particles = np.linspace(-5, 5, 2001)
    fld = solve_1d_integral(dens, _square_model(), "crisan_beta",
                            particles=particles)
    assert np.max(np.abs(fld.at_particles[:, 0] - particles)) <= 1e-6


def test_integral_1d_constant_h_zero_gain():
    dens = _gaussian_density(1.0)
    model = SystemModel(dim=1, drift=lambda v: np.zeros_like(v),
                        obs=lambda v: np.full(v.shape[0], 3.0),
                        obs_grad=lambda v: np.zeros_like(v))
    fld = solve_1d_integral(dens, model, "fpf_phi",
                            particles=np.linspace(-3, 3, 101))
    assert np.max(np.abs(fld.at_particles)) <= 1e-12


def test_integral_1d_unresolved_tail():
    dens = _gaussian_density(1.0, half_width_sigmas=10.0)
    # an externally supplied (wrong) h_bar leaves the rhs uncentred
    with pytest.raises(UnresolvedTail):
        solve_1d_integral(dens, _linear_model(), "fpf_phi", h_bar=0.5)


def test_integral_1d_psi_zero_for_linear_h():
    dens = _gaussian_density(0.7)
    fld = solve_1d_integral(dens, _linear_model(1.3), "fpf_psi")
    bulk = np.abs(dens.grid) <= 5 * np.sqrt(0.7)
    assert np.max(np.abs(fld.gain_grid[bulk])) <= 1e-7


def test_integral_1d_rbar_identity_on_grid():
    # |int grad h . K rho - (h2bar - hbar^2)| <= 1e-6 for both oracle cases
    for model, var in [(_linear_model(1.7), 0.64), (_square_model(), 1.0)]:
        dens = _gaussian_density(var)
        fld = solve_1d_integral(dens, model, "fpf_phi")
        g = dens.grid
        gradh = model.obs_grad(g.reshape(-1, 1))[:, 0]
        lhs = np.trapezoid(gradh * fld.gain_grid * dens.values, g)
        h = model.obs(g.reshape(-1, 1))
        hbar = np.trapezoid(h * dens.values, g)
        h2bar = np.trapezoid(h * h * dens.values, g)
        assert abs(lhs - (h2bar - hbar**2)) <= 1e-6


def test_integral_1d_crisan_alpha_quadrature_oracle():
    # a(x) = (1/rho) * (1/2) int_{-inf}^x (h^2 - h2bar) rho dy for h = x^2,
    # rho = N(0,1); checked at x in {0, 1} against adaptive quadrature
    dens = _gaussian_density(1.0)
    fld = solve_1d_integral(dens, _square_model(), "crisan_alpha",
                            particles=np.array([0.0, 1.0]))
    pdf = lambda y: np.exp(-y**2 / 2) / np.sqrt(2 * np.pi)
    h2bar = 3.0                                  # E x^4 under N(0,1)
    for idx, xv in enumerate([0.0, 1.0]):
        oracle = 0.5 * quad(lambda y: (y**4 - h2bar) * pdf(y),
                            -np.inf, xv)[0] / pdf(xv)
        assert abs(fld.at_particles[idx, 0] - oracle) <= 1e-6


def test_integral_1d_psi_reuses_phi_bitwise():
    dens = _gaussian_density(0.8, points=801)
    model = SystemModel(dim=1, drift=lambda x: -x,
                        obs=lambda x: np.tanh(x[:, 0]),
                        obs_grad=lambda x: 1.0 / np.cosh(x) ** 2)
    phi = solve_1d_integral(dens, model, "fpf_phi")
    shared = solve_1d_integral(dens, model, "fpf_psi", phi=phi)
    alone = solve_1d_integral(dens, model, "fpf_psi")
    assert shared.gain_grid.tobytes() == alone.gain_grid.tobytes()
    assert shared.diagnostics == alone.diagnostics


def test_cumulative_simpson_matches_scipy_bitwise():
    rng = np.random.default_rng(3)
    for n in range(3, 51):
        for scale in (1e-6, 1.0, 1e4):
            y = scale * rng.standard_normal(n)
            # zeros of either sign: scipy's sums read 0.0, never -0.0
            y[: n // 3] = np.where(rng.random(n // 3) < 0.5, -0.0, 0.0)
            dx = float(rng.uniform(1e-3, 2.0))
            ours = cumulative_simpson(y, dx)
            ref = scipy_cumulative_simpson(y, dx=dx, initial=0.0)
            assert ours.tobytes() == ref.tobytes(), (n, scale)


def test_cumulative_simpson_needs_three_points():
    with pytest.raises(ValueError):
        cumulative_simpson(np.ones(2), 0.1)


def test_grid_intervals_match_np_interp_bitwise():
    rng = np.random.default_rng(4)
    for G in (3, 4, 17, 801):
        grid = np.linspace(-3.7, 4.1, G)
        fp = rng.standard_normal(G)
        x = rng.uniform(-5.0, 5.5, 4000)          # unsorted, past both ends
        hits = rng.integers(0, G, 200)
        x[:200] = grid[hits]                      # exact grid-point hits
        x[200:300] = np.nextafter(grid[hits[:100]], np.inf)
        x[300:400] = np.nextafter(grid[hits[:100]], -np.inf)
        x[400:402] = grid[0], grid[-1]
        ours = GridIntervals(grid, x).interp(fp)
        assert ours.tobytes() == np.interp(x, grid, fp).tobytes(), G


# ---------------------------------------------------------------------------
# Galerkin solver

def test_galerkin_linear_basis_matches_constant_gain():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(500, 1)) * 1.2
    ens = Ensemble(x)
    model = _linear_model(0.9)
    fld = solve_galerkin(ens, model, "fpf_phi", basis=monomial_basis(1))
    K_const = solve_constant_gain(compute_moments(ens, model)).at_particles
    assert np.max(np.abs(fld.at_particles - K_const)) <= 1e-12


def test_galerkin_psi_coefficients_vanish_for_linear_h():
    rng = np.random.default_rng(8)
    ens = Ensemble(rng.standard_normal((2000, 1)))
    model = _linear_model(1.0)
    phi = solve_galerkin(ens, model, "fpf_phi", basis=monomial_basis(1))
    psi = solve_galerkin(ens, model, "fpf_psi", prior_gain=phi.at_particles)
    assert np.max(np.abs(psi.coefficients)) <= 1e-10


def test_galerkin_constant_h_zero_coefficients():
    rng = np.random.default_rng(9)
    ens = Ensemble(rng.standard_normal((200, 1)))
    model = SystemModel(dim=1, drift=lambda v: np.zeros_like(v),
                        obs=lambda v: np.full(v.shape[0], 1.0),
                        obs_grad=lambda v: np.zeros_like(v))
    fld = solve_galerkin(ens, model, "fpf_phi",
                         basis=monomial_basis(1, quadratic=True))
    assert np.max(np.abs(fld.coefficients)) <= 1e-12


def test_galerkin_weak_form_residual():
    rng = np.random.default_rng(10)
    ens = Ensemble(rng.standard_normal((1000, 2)))
    model = make_linear_gaussian(np.zeros((2, 2)), [1.0, -0.5])
    fld = solve_galerkin(ens, model, "fpf_phi",
                         basis=monomial_basis(2, quadratic=True))
    assert fld.diagnostics["residual"] <= 1e-9


def test_galerkin_ill_conditioned_duplicate_basis():
    rng = np.random.default_rng(11)
    ens = Ensemble(rng.standard_normal((100, 1)))
    b = monomial_basis(1)[0]
    dup = BasisFunction("x_again", b.value, b.grad, b.hess)
    with pytest.raises(IllConditioned):
        solve_galerkin(ens, _linear_model(), "fpf_phi", basis=[b, dup])


def test_galerkin_cov_inverse_mass_reproduces_constant_gain():
    rng = np.random.default_rng(12)
    ens = Ensemble(rng.normal(size=(400, 1)) * 0.7)
    model = _linear_model(1.1)
    moments = compute_moments(ens, model)
    fld = solve_galerkin(ens, model, "fpf_phi", basis=monomial_basis(1),
                         m_inv=moments.cov)
    K_const = solve_constant_gain(moments).at_particles
    assert np.max(np.abs(fld.at_particles - K_const)) <= 1e-12


# ---------------------------------------------------------------------------
# fundamental-solution Monte-Carlo field

def test_fundamental_constant_m_gives_zero_field():
    rng = np.random.default_rng(13)
    ens = Ensemble(rng.standard_normal((50, 2)))
    fld = solve_fundamental_mc(ens, np.full(50, 3.3))
    out = fld.evaluate(rng.standard_normal((10, 2)))
    # centred rhs vanishes; the mean of identical values rounds at ulp scale
    assert np.max(np.abs(out)) <= 1e-14


def test_fundamental_two_particle_hand_value():
    # y1=(1,0), y2=(-1,0), m=(1,-1), x=(0,1): both kernel terms have
    # |y - x|^2 = 2, so the sum is (1,0) and the field is (1/(4 pi), 0)
    ens = Ensemble(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    fld = solve_fundamental_mc(ens, np.array([1.0, -1.0]), epsilon=1e-6)
    out = fld.evaluate(np.array([[0.0, 1.0]]))
    expected = np.array([1.0 / (4 * np.pi), 0.0])
    np.testing.assert_allclose(out[0], expected, rtol=0, atol=1e-14)
    assert unit_sphere_area(2) == pytest.approx(2 * np.pi, rel=1e-15)
    assert unit_sphere_area(3) == pytest.approx(4 * np.pi, rel=1e-15)


def test_fundamental_antisymmetry():
    # swapping the two particles and negating m negates the field
    pts = np.array([[0.3, 0.7], [-0.2, 1.5]])
    f1 = solve_fundamental_mc(Ensemble(np.array([[1.0, 0.2], [-0.7, 0.0]])),
                              np.array([0.4, -1.1]), epsilon=1e-6)
    f2 = solve_fundamental_mc(Ensemble(np.array([[-0.7, 0.0], [1.0, 0.2]])),
                              np.array([1.1, -0.4]), epsilon=1e-6)
    np.testing.assert_allclose(f2.evaluate(pts), -f1.evaluate(pts), atol=1e-15)


def test_fundamental_rejects_d1():
    ens = Ensemble(np.array([[0.0], [1.0]]))
    with pytest.raises(DimensionError):
        solve_fundamental_mc(ens, np.array([1.0, -1.0]))


def test_fundamental_weak_divergence_consistency():
    # int grad u . grad b dx ~ E[(m - mbar) b(Y)] within MC error 3/sqrt(N)
    rng = np.random.default_rng(14)
    n = 4000
    ys = rng.standard_normal((n, 2))
    h = np.tanh(ys[:, 0])
    ens = Ensemble(ys)
    fld = solve_fundamental_mc(ens, h)

    # bump b(x) = exp(-|x|^2): grad b = -2 x b
    L, G = 4.0, 61
    ax = np.linspace(-L, L, G)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    grad_u = fld.evaluate(pts)
    b_grad = -2 * pts * np.exp(-np.sum(pts**2, axis=1))[:, None]
    dx = ax[1] - ax[0]
    lhs = np.sum(np.sum(grad_u * b_grad, axis=1)) * dx * dx
    m_c = h - h.mean()
    rhs = np.mean(m_c * np.exp(-np.sum(ys**2, axis=1)))
    assert abs(lhs - rhs) <= 3.0 / np.sqrt(n)


def test_multivariate_kde_matches_normal_density_scale():
    rng = np.random.default_rng(15)
    ens = Ensemble(rng.standard_normal((4000, 2)))
    vals, floored, frac = multivariate_kde_at_points(
        ens, points=np.array([[0.0, 0.0]]))
    assert abs(vals[0] - 1.0 / (2 * np.pi)) <= 0.02
    assert frac == 0.0


# ---------------------------------------------------------------------------
# assembly

def test_assemble_exact_gives_enkbf_coefficients():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(200, 1))
    ens = Ensemble(x)
    model = make_linear_gaussian([[-0.5]], [1.0])
    for kind, mm in [("delta_fpf", "identity"), ("crisan_xiong", "identity"),
                     ("delta_reich", "cov_inverse"), ("enkbf", "identity")]:
        cs = assemble_filter_coefficients(kind, ens, model,
                                          compute_moments(ens, model),
                                          "exact_gaussian", mass_matrix=mm)
        m = compute_moments(ens, model)
        K_expect = float(m.cov[0, 0] * 1.0)
        h = model.obs(x)
        np.testing.assert_allclose(cs.K[:, 0], K_expect, rtol=1e-14)
        np.testing.assert_allclose(cs.a[:, 0],
                                   -0.5 * K_expect * (h + h.mean()),
                                   rtol=0, atol=1e-13)


def test_assemble_constant_h_all_kinds_zero():
    rng = np.random.default_rng(17)
    ens = Ensemble(rng.standard_normal((150, 1)))
    model = SystemModel(dim=1, drift=lambda v: np.zeros_like(v),
                        obs=lambda v: np.full(v.shape[0], 2.0),
                        obs_grad=lambda v: np.zeros_like(v))
    for kind in ("delta_fpf", "crisan_xiong", "delta_reich"):
        cs = assemble_filter_coefficients(
            kind, ens, model, compute_moments(ens, model), "integral_1d",
            mass_matrix="identity" if kind == "delta_reich" else "identity")
        assert np.max(np.abs(cs.K)) <= 1e-10
        assert np.max(np.abs(cs.a)) <= 1e-10


def test_assemble_1d_fpf_equals_crisan_pointwise():
    rng = np.random.default_rng(18)
    ens = Ensemble(rng.standard_normal((300, 1)))
    model = SystemModel(dim=1, drift=lambda v: -v,
                        obs=lambda v: np.tanh(v[:, 0]),
                        obs_grad=lambda v: (1 / np.cosh(v[:, 0]) ** 2)[:, None])
    m = compute_moments(ens, model)
    fpf = assemble_filter_coefficients("delta_fpf", ens, model, m, "integral_1d")
    cx = assemble_filter_coefficients("crisan_xiong", ens, model, m, "integral_1d")
    assert np.max(np.abs(fpf.K - cx.K)) <= 1e-12
    assert np.max(np.abs(fpf.a - cx.a)) <= 1e-12


def test_reich_identity_continuous_drift_formula():
    K = np.array([[1.0], [2.0]])
    h = np.array([0.5, -0.5])
    out = reich_identity_continuous_drift(K, h, 0.1)
    np.testing.assert_allclose(out, -0.5 * K * (h + 0.1)[:, None])
