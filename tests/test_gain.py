import inspect
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.integrate import quad
from test_bitwise import oracle_galerkin

from flowfilter import _kernels
from flowfilter.cli import MODEL_REGISTRY, _twin, load_config
from flowfilter.ensemble import (compute_moments, density_from_function,
                                 kde_density_1d)
from flowfilter.errors import (DegenerateCloud, DimensionError, FlowFilterError,
                               IllConditioned, NonFiniteState,
                               SingularCovariance, UnresolvedTail)
from flowfilter.filters import FilterKind
from flowfilter.gain import (ASSEMBLERS, GAIN_OPTS, TWINS, GridIntervals,
                             assemble_filter_coefficients,
                             cumulative_simpson, galerkin_basis_size,
                             in_dimension, solve_1d_integral,
                             solve_constant_gain, solve_exact_gaussian,
                             solve_galerkin, unit_sphere_area)
from flowfilter.models import SystemModel, make_linear_gaussian
from flowfilter.rng import CounterStream


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
    ens = np.random.default_rng(0).normal(size=(50, 1))
    m = compute_moments(ens, _linear_model())
    m = type(m)(n=m.n, mean=m.mean, cov=np.array([[2.0]]), h_bar=m.h_bar,
                cov_xh=m.cov_xh)
    fld = solve_exact_gaussian(m, [3.0])
    assert np.all(fld.at_particles == 6.0)


def test_exact_gaussian_zero_h():
    ens = np.random.default_rng(0).normal(size=(50, 1))
    m = compute_moments(ens, _linear_model())
    assert np.all(solve_exact_gaussian(m, [0.0]).at_particles == 0.0)


def test_exact_gaussian_2d_matrix_product():
    rng = np.random.default_rng(1)
    ens = rng.normal(size=(100, 2))
    model = make_linear_gaussian(np.zeros((2, 2)), [1.0, 0.0])
    m = compute_moments(ens, model)
    m = type(m)(n=m.n, mean=m.mean, cov=np.eye(2), h_bar=m.h_bar,
                cov_xh=m.cov_xh)
    fld = solve_exact_gaussian(m, [1.0, 0.0])
    np.testing.assert_allclose(fld.at_particles, [[1.0, 0.0]])


def test_constant_gain_linear_h_matches_sample_measure_covariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(300, 1)) * 0.8
    H = 1.3
    model = _linear_model(H)
    m = compute_moments(x, model)
    K = solve_constant_gain(m).at_particles
    biased = np.mean((x[:, 0] - x.mean()) * (H * x[:, 0] - H * x.mean()))
    assert abs(K[0, 0] - biased) <= 1e-14


def test_constant_gain_constant_h_is_zero():
    x = np.random.default_rng(3).normal(size=(100, 1))
    model = SystemModel(dim=1, drift=lambda v: np.zeros_like(v),
                        obs=lambda v: np.full(v.shape[0], 2.5),
                        obs_grad=lambda v: np.zeros_like(v))
    K = solve_constant_gain(compute_moments(x, model)).at_particles
    assert np.max(np.abs(K)) <= 1e-13


def test_constant_gain_quadratic_h_near_zero_odd_moment():
    rng = np.random.default_rng(5)
    n = 40_000
    x = rng.standard_normal((n, 1))
    K = solve_constant_gain(compute_moments(x, _square_model()))
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
    fld = solve_1d_integral(dens, _square_model(), "fpf_phi",
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
    # on 11 points the trapezoid hbar and the Simpson integral disagree:
    # h(x) = x on N(1, 1) over +-10 leaves |I[-1]| = 0.31
    dens = density_from_function(
        lambda x: np.exp(-(x - 1.0)**2 / 2) / np.sqrt(2 * np.pi),
        half_width=10.0, grid_points=11)
    with pytest.raises(UnresolvedTail):
        solve_1d_integral(dens, _linear_model(), "fpf_phi")


def test_integral_1d_psi_zero_for_linear_h():
    # for linear h on a Gaussian grad psi = 0, so the crisan_alpha field is
    # the FPF drift -(h + hbar) K / 2 alone
    dens = _gaussian_density(0.7)
    model = _linear_model(1.3)
    K = solve_1d_integral(dens, model, "fpf_phi").gain_grid
    a = solve_1d_integral(dens, model, "crisan_alpha").gain_grid
    h = model.obs(dens.grid.reshape(-1, 1))
    hbar = np.trapezoid(h * dens.values, dens.grid)
    bulk = np.abs(dens.grid) <= 5 * np.sqrt(0.7)
    assert np.max(np.abs(a + 0.5 * (h + hbar) * K)[bulk]) <= 1e-7


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


@pytest.mark.parametrize("rhs_kind", ["reich_lambda", "reich_omega", "fpf_psi",
                                      "crisan_beta"])
def test_integral_1d_refuses_the_reich_names(rhs_kind):
    # in 1D the Reich fields (M = I), the FPF drift and the Crisan & Xiong
    # gain are the fpf_phi and crisan_alpha fields, so the route takes
    # those names only
    with pytest.raises(ValueError, match="rhs_kind"):
        solve_1d_integral(_gaussian_density(), _linear_model(), rhs_kind)


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
        _, cells = _kernels.deposit_linear_numpy(x, grid[0], grid[1] - grid[0], G)
        ours = GridIntervals(grid, x, cells).interp(fp)
        assert ours.tobytes() == np.interp(x, grid, fp).tobytes(), G


@settings(max_examples=150, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), G=st.integers(3, 1500),
       lo=st.floats(-50.0, 50.0), span=st.floats(1e-3, 200.0))
def test_grid_intervals_seeded_by_the_deposit_match_bitwise(seed, G, lo, span):
    # the KDE's cell index as the estimate gives searchsorted's intervals
    # and np.interp's offsets, bit for bit, at the points where rounding
    # decides them
    rng = np.random.default_rng(seed)
    grid = np.linspace(lo, lo + span, G)
    nodes = grid[rng.integers(0, G, 300)]
    x = np.concatenate([
        rng.uniform(lo - 0.3 * span, lo + 1.3 * span, 300),  # past both ends
        nodes, np.nextafter(nodes[:100], np.inf),
        np.nextafter(nodes[100:200], -np.inf), grid[[0, -1]],
        np.nextafter(grid[[0, -1]], np.inf), np.nextafter(grid[[0, -1]], -np.inf)])
    rng.shuffle(x)
    _, cells = _kernels.deposit_linear_numpy(x, grid[0], grid[1] - grid[0], G)
    # the loop numba compiles, run as Python, bins by the same index
    _, loop_cells = _kernels._deposit_linear_impl(x, grid[0], grid[1] - grid[0], G)
    assert loop_cells.tobytes() == cells.tobytes()
    seeded = GridIntervals(grid, x, cells)
    j = np.clip(np.searchsorted(grid, x, "right") - 1, 0, G - 2)
    assert seeded.j.tobytes() == j.tobytes()
    assert seeded.offset.tobytes() == (x - grid[j]).tobytes()
    assert seeded.below.tolist() == (x < grid[0]).nonzero()[0].tolist()
    assert seeded.above.tolist() == (x >= grid[-1]).nonzero()[0].tolist()


# ---------------------------------------------------------------------------
# Galerkin solver

# On the linear monomials the Galerkin gain solve has stiffness M^{-1} and
# load Cov(x, h), so its gain is the constant gain for M = I and M = P^{-1}
# alike; the galerkin rows take their gain from solve_constant_gain on that
# ground.  The two tests below hold the full solve (tests/test_bitwise.py's
# oracle) to the constant gain.

def test_galerkin_linear_basis_matches_constant_gain():
    rng = np.random.default_rng(7)
    ens = rng.normal(size=(500, 1)) * 1.2
    model = _linear_model(0.9)
    fld = oracle_galerkin(ens, model, "fpf_phi")
    K_const = solve_constant_gain(compute_moments(ens, model)).at_particles
    assert np.max(np.abs(fld.at_particles - K_const)) <= 1e-12


def test_galerkin_cov_inverse_mass_reproduces_constant_gain():
    rng = np.random.default_rng(12)
    ens = rng.normal(size=(400, 1)) * 0.7
    model = _linear_model(1.1)
    moments = compute_moments(ens, model)
    fld = oracle_galerkin(ens, model, "fpf_phi", m_inv=moments.cov)
    K_const = solve_constant_gain(moments).at_particles
    assert np.max(np.abs(fld.at_particles - K_const)) <= 1e-12


def _drift_solve(x, model, rhs_kind):
    """The Galerkin drift solve of rhs_kind as the galerkin rows call it,
    fpf_psi with the constant gain as its prior gain."""
    if rhs_kind == "reich_omega":
        return solve_galerkin(x, model, rhs_kind)
    K = solve_constant_gain(compute_moments(x, model)).at_particles
    return solve_galerkin(x, model, rhs_kind, prior_gain=K)


def test_galerkin_psi_coefficients_vanish_for_linear_h():
    rng = np.random.default_rng(8)
    ens = rng.standard_normal((2000, 1))
    model = _linear_model(1.0)
    psi = _drift_solve(ens, model, "fpf_psi")
    assert np.max(np.abs(psi.coefficients)) <= 1e-10


@pytest.mark.parametrize("rhs_kind", ["fpf_psi", "reich_omega"])
def test_galerkin_constant_h_zero_coefficients(rhs_kind):
    rng = np.random.default_rng(9)
    ens = rng.standard_normal((200, 1))
    model = SystemModel(dim=1, drift=lambda v: np.zeros_like(v),
                        obs=lambda v: np.full(v.shape[0], 1.0),
                        obs_grad=lambda v: np.zeros_like(v))
    fld = _drift_solve(ens, model, rhs_kind)
    assert np.max(np.abs(fld.coefficients)) <= 1e-12


@pytest.mark.parametrize("rhs_kind", ["fpf_psi", "reich_omega"])
def test_galerkin_weak_form_residual(rhs_kind):
    rng = np.random.default_rng(10)
    ens = rng.standard_normal((1000, 2))
    model = make_linear_gaussian(np.zeros((2, 2)), [1.0, -0.5])
    fld = _drift_solve(ens, model, rhs_kind)
    assert fld.diagnostics["residual"] <= 1e-9


@pytest.mark.parametrize("rhs_kind", ["fpf_psi", "reich_omega"])
def test_galerkin_collapsed_cloud_is_ill_conditioned(rhs_kind):
    # x and x^2 have proportional gradients on a cloud of one point
    ens = np.full((50, 1), 0.7)
    with pytest.raises(IllConditioned):
        _drift_solve(ens, _linear_model(), rhs_kind)


@pytest.mark.parametrize("rhs_kind", ["fpf_phi", "reich_lambda",
                                      "crisan_beta", "crisan_alpha"])
def test_galerkin_refuses_a_gain_solve(rhs_kind):
    # the gain solves have no Galerkin form left; only the drift solves do
    ens = np.random.default_rng(11).standard_normal((100, 1))
    with pytest.raises(ValueError, match="rhs_kind"):
        solve_galerkin(ens, _linear_model(), rhs_kind)


def test_galerkin_refuses_psi_without_prior_gain():
    ens = np.random.default_rng(11).standard_normal((100, 1))
    with pytest.raises(ValueError, match="prior gain"):
        solve_galerkin(ens, _linear_model(), "fpf_psi")


# ---------------------------------------------------------------------------
# fundamental-solution Monte-Carlo row (d >= 2): the one pass over the
# particle pairs (_kernels.fundamental_pass) and the row around it

def _field(targets, sources, m):
    """The fundamental-solution gradient field of m at the targets from one
    kernel pass, centred and scaled by 1/(N omega_d) as the row does it,
    with the pass's Gaussian sums at unit bandwidth."""
    n, d = sources.shape
    mc = m - m.mean()
    beta, alpha, kde = _kernels.fundamental_pass(targets, sources, mc, mc,
                                                 n ** (-1.0 / d), np.ones(d))
    assert alpha.tobytes() == beta.tobytes()
    return beta / (n * unit_sphere_area(d)), kde


def _tanh_2d():
    """h = tanh(x_1) + x_2 / 2."""
    def obs_grad(x):
        return np.column_stack([1 / np.cosh(x[:, 0]) ** 2,
                                np.full(x.shape[0], 0.5)])

    return SystemModel(dim=2, drift=lambda x: -x,
                       obs=lambda x: np.tanh(x[:, 0]) + 0.5 * x[:, 1],
                       obs_grad=obs_grad)


def test_fundamental_constant_m_gives_zero_field():
    rng = np.random.default_rng(13)
    ens = rng.standard_normal((50, 2))
    out, _ = _field(rng.standard_normal((10, 2)), ens, np.full(50, 3.3))
    # centred rhs vanishes; the mean of identical values rounds at ulp scale
    assert np.max(np.abs(out)) <= 1e-14


def test_fundamental_two_particle_hand_value():
    # y1=(1,0), y2=(-1,0), m=(1,-1), x=(0,1): both kernel terms have
    # |y - x|^2 = 2, so the sum is (1,0) and the field is (1/(4 pi), 0);
    # each Gaussian tap is exp(-2 / 2)
    ens = np.array([[1.0, 0.0], [-1.0, 0.0]])
    out, kde = _field(np.array([[0.0, 1.0]]), ens, np.array([1.0, -1.0]))
    expected = np.array([1.0 / (4 * np.pi), 0.0])
    np.testing.assert_allclose(out[0], expected, rtol=0, atol=1e-14)
    assert kde[0] == pytest.approx(2 * np.exp(-1.0), rel=1e-15)
    assert unit_sphere_area(2) == pytest.approx(2 * np.pi, rel=1e-15)
    assert unit_sphere_area(3) == pytest.approx(4 * np.pi, rel=1e-15)


def test_fundamental_antisymmetry():
    # swapping the two particles and negating m negates the field
    pts = np.array([[0.3, 0.7], [-0.2, 1.5]])
    f1, _ = _field(pts, np.array([[1.0, 0.2], [-0.7, 0.0]]),
                   np.array([0.4, -1.1]))
    f2, _ = _field(pts, np.array([[-0.7, 0.0], [1.0, 0.2]]),
                   np.array([1.1, -0.4]))
    np.testing.assert_allclose(f2, -f1, atol=1e-15)


@pytest.mark.parametrize("label", ["crisan_xiong", "delta_reich(rho_identity)"])
def test_fundamental_mc_rejects_d1(label):
    with pytest.raises(DimensionError):
        assemble_filter_coefficients(label, np.array([[0.0], [1.0]]),
                                     _linear_model(), "fundamental_mc")


def test_fundamental_weak_divergence_consistency():
    # int grad u . grad b dx ~ E[(m - mbar) b(Y)] within MC error 3/sqrt(N)
    rng = np.random.default_rng(14)
    n = 4000
    ys = rng.standard_normal((n, 2))
    h = np.tanh(ys[:, 0])

    # bump b(x) = exp(-|x|^2): grad b = -2 x b
    L, G = 4.0, 61
    ax = np.linspace(-L, L, G)
    xx, yy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    grad_u, _ = _field(pts, ys, h)
    b_grad = -2 * pts * np.exp(-np.sum(pts**2, axis=1))[:, None]
    dx = ax[1] - ax[0]
    lhs = np.sum(np.sum(grad_u * b_grad, axis=1)) * dx * dx
    m_c = h - h.mean()
    rhs = np.mean(m_c * np.exp(-np.sum(ys**2, axis=1)))
    assert abs(lhs - rhs) <= 3.0 / np.sqrt(n)


def test_fundamental_mc_kde_matches_normal_density_scale():
    # the row's rho, taken back out of its gain as K = beta / rho with the
    # beta field of one kernel pass, at the particle nearest the origin
    # against the N(0, I) density there
    ens = np.random.default_rng(15).standard_normal((1000, 2))
    model = _tanh_2d()
    cs = assemble_filter_coefficients("crisan_xiong", ens, model,
                                      "fundamental_mc")
    beta, _ = _field(ens, ens, model.obs(ens))
    i = int(np.argmin(np.sum(ens * ens, axis=1)))
    pdf = np.exp(-0.5 * np.sum(ens[i] ** 2)) / (2 * np.pi)
    np.testing.assert_allclose(beta[i] / cs.K[i], pdf, rtol=0, atol=0.02)
    assert cs.diagnostics["floor_frac"] == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fundamental_mc_solves_the_weak_form_identities(seed):
    """div(rho K) = -(h - hbar) rho and div(rho a) = (h^2 - mean h^2) rho / 2
    tested against the bump f = exp(-|x - (0.3, 0.3)|^2):
    mean(grad f . K) = Cov(f, h) and mean(grad f . a) = -Cov(f, h^2) / 2
    over an anisotropic cloud of 1000, within 25% (9-13% at these seeds;
    the fields decay like r^-d, so f must be bounded).  The cutoff is the
    reported N^(-1/d)."""
    z = np.random.default_rng(seed).standard_normal((1000, 2))
    x = z @ np.array([[1.0, 0.0], [0.4, 0.5]]).T
    model = _tanh_2d()
    cs = assemble_filter_coefficients("crisan_xiong", x, model,
                                      "fundamental_mc")
    assert cs.diagnostics["epsilon"] == 1000 ** (-1 / 2)
    f = np.exp(-np.sum((x - 0.3) ** 2, axis=1))
    grad_f = -2 * (x - 0.3) * f[:, None]
    h = model.obs(x)

    def cov(u, v):
        return np.mean(u * v) - u.mean() * v.mean()

    for field, rhs in ((cs.K, cov(f, h)), (cs.a, -0.5 * cov(f, h * h))):
        lhs = np.mean(np.sum(grad_f * field, axis=1))
        assert abs(lhs / rhs - 1) <= 0.25, (lhs, rhs)


@pytest.mark.parametrize("label", sorted(label for label in TWINS
                                          if "integral_1d" in ASSEMBLERS[label]))
@settings(max_examples=25, derandomize=True, deadline=None)
@given(mean=st.floats(-1.0, 1.0), spread=st.floats(0.5, 1.5),
       centre=st.floats(-1.5, 1.5), width=st.floats(0.3, 1.5),
       seed=st.integers(0, 10_000))
def test_integral_1d_rows_solve_the_weak_form_identities(label, mean, spread,
                                                        centre, width, seed):
    """The 1D form of the identities above on scalar_tanh, N = 2e4, for the
    bump f = exp(-((x - centre) / width)^2): mean(f' K) = Cov(f, h) and
    mean(f' a) = -Cov(f, h^2) / 2, each within 5% of its Cauchy-Schwarz
    scale std(f) std(h) or std(f) std(h^2) / 2 (at most 2.8% over 300
    drawn clouds and bumps), since a bump can make either side near 0."""
    model = MODEL_REGISTRY["scalar_tanh"]({})
    x = mean + spread * CounterStream(seed, label=0).normals(0, (20000, 1))
    cs = assemble_filter_coefficients(label, x, model, "integral_1d")
    f = np.exp(-((x[:, 0] - centre) / width) ** 2)
    f_prime = -2 * (x[:, 0] - centre) / width ** 2 * f
    h = model.obs(x)

    def cov(u, v):
        return np.mean(u * v) - u.mean() * v.mean()

    for field, rhs, scale in (
            (cs.K, cov(f, h), np.std(f) * np.std(h)),
            (cs.a, -0.5 * cov(f, h * h), 0.5 * np.std(f) * np.std(h * h))):
        assert abs(np.mean(f_prime * field[:, 0]) - rhs) <= 0.05 * scale


# ---------------------------------------------------------------------------
# assembly

def test_assemble_exact_gives_enkbf_coefficients():
    rng = np.random.default_rng(16)
    x = rng.normal(size=(200, 1))
    ens = x
    model = make_linear_gaussian([[-0.5]], [1.0])
    for label in ("delta_fpf", "crisan_xiong", "delta_reich(cov_inverse)",
                  "enkbf"):
        cs = assemble_filter_coefficients(label, ens, model, "exact_gaussian")
        m = compute_moments(ens, model)
        K_expect = float(m.cov[0, 0] * 1.0)
        h = model.obs(x)
        np.testing.assert_allclose(cs.K[:, 0], K_expect, rtol=1e-14)
        np.testing.assert_allclose(cs.a[:, 0],
                                   -0.5 * K_expect * (h + h.mean()),
                                   rtol=0, atol=1e-13)


def test_assemble_constant_h_all_kinds_zero():
    rng = np.random.default_rng(17)
    ens = rng.standard_normal((150, 1))
    model = SystemModel(dim=1, drift=lambda v: np.zeros_like(v),
                        obs=lambda v: np.full(v.shape[0], 2.0),
                        obs_grad=lambda v: np.zeros_like(v))
    for label in ("delta_fpf", "crisan_xiong", "delta_reich(identity)"):
        cs = assemble_filter_coefficients(label, ens, model, "integral_1d")
        assert np.max(np.abs(cs.K)) <= 1e-10
        assert np.max(np.abs(cs.a)) <= 1e-10


def test_assemble_refuses_the_bare_delta_reich_tag():
    # the table keys delta_reich by its mass matrix, as FilterKind does: the
    # bare tag names no row, and no mass matrix is picked for it
    x = np.random.default_rng(16).normal(size=(200, 1))
    model = make_linear_gaussian([[-0.5]], [1.0])
    with pytest.raises(ValueError, match="'delta_reich'"):
        assemble_filter_coefficients("delta_reich", x, model, "exact_gaussian")


def test_twins_is_one_consistent_table():
    assert set(TWINS) <= set(ASSEMBLERS)
    assert set(TWINS.values()) <= set(ASSEMBLERS) - set(TWINS)
    # a kind reads the slope of the smoothed path exactly when it has a twin
    for label in ASSEMBLERS:
        tag, _, mass = label[:-1].partition("(") if "(" in label else (label, "", None)
        assert FilterKind(tag, mass).consumes_slope == (label in TWINS), label


def test_labels_that_share_one_row_table_share_one_twin():
    # crisan_xiong and delta_reich(rho_identity) run one table, by the
    # paper's identity, so a sweep twins them alike
    twins = {}
    for label, twin in TWINS.items():
        twins.setdefault(id(ASSEMBLERS[label]), set()).add(twin)
    assert all(len(found) == 1 for found in twins.values()), twins
    assert TWINS["delta_reich(rho_identity)"] == TWINS["crisan_xiong"]


def test_shipped_configs_keep_their_twins():
    # the twin of each filter of a shipped config, as the map keyed by kind
    # tag that TWINS replaced gave it
    expected = {
        "delta_sweep.json": {"enkbf/exact_gaussian": "fpf_continuous"},
        "linear_gaussian.json": {
            "delta_fpf/exact_gaussian": "fpf_continuous",
            "delta_reich(cov_inverse)/exact_gaussian": "fpf_continuous",
            "crisan_xiong/exact_gaussian": "crisan_continuous",
            "enkbf/exact_gaussian": "fpf_continuous",
            "fpf_continuous/exact_gaussian": None,
            "crisan_continuous/exact_gaussian": None},
        "nonlinear_tanh.json": {
            "delta_fpf/integral_1d": "fpf_continuous",
            "crisan_xiong/integral_1d": "crisan_continuous",
            "delta_fpf/galerkin": "fpf_continuous"},
        "ou_theory.json": {},
    }
    configs = Path(__file__).resolve().parents[1] / "configs"
    assert sorted(p.name for p in configs.glob("*.json")) == sorted(expected)
    for name, twins in expected.items():
        config = load_config(str(configs / name))
        d = config.build_model().dim
        assert {spec.label(): _twin(spec, d) for spec in config.filters} == twins


def test_assemble_1d_fpf_equals_crisan_pointwise():
    rng = np.random.default_rng(18)
    ens = rng.standard_normal((300, 1))
    model = SystemModel(dim=1, drift=lambda v: -v,
                        obs=lambda v: np.tanh(v[:, 0]),
                        obs_grad=lambda v: (1 / np.cosh(v[:, 0]) ** 2)[:, None])
    fpf = assemble_filter_coefficients("delta_fpf", ens, model, "integral_1d")
    cx = assemble_filter_coefficients("crisan_xiong", ens, model, "integral_1d")
    assert np.max(np.abs(fpf.K - cx.K)) <= 1e-12
    assert np.max(np.abs(fpf.a - cx.a)) <= 1e-12


# the closed-form rows: every row built on solve_exact_gaussian or
# solve_constant_gain, in 1D and, where the row applies, in 2D
CLOSED_FORM_ROWS = [(label, gain, d) for label, rows in sorted(ASSEMBLERS.items())
                    for gain in rows if gain in ("exact_gaussian", "constant",
                                                 "galerkin")
                    for d in (1, 2) if in_dimension(label, gain, d)]


@pytest.mark.parametrize("label, gain, d", CLOSED_FORM_ROWS)
def test_closed_form_rows_give_one_gain_row(label, gain, d):
    # K is constant over the cloud: one (1, d) row that broadcasts, and a
    # drift for every particle
    x = np.random.default_rng(20).standard_normal((200, d))
    model = make_linear_gaussian(-0.5 * np.eye(d), [1.0, -0.5][:d])
    cs = ASSEMBLERS[label][gain](x, model)
    assert cs.K.shape == (1, d)
    assert cs.a.shape == (200, d)


def test_rows_take_only_the_cloud_the_model_and_their_gain_options():
    # a row computes what it reads from x, so its parameters beyond x and
    # the model are the options a config may give its gain
    for label, rows in ASSEMBLERS.items():
        for gain, row in rows.items():
            params = list(inspect.signature(row).parameters)
            allowed = set(GAIN_OPTS.get(gain, {}))
            assert params[:2] == ["x", "model"], (label, gain)
            assert set(params[2:]) <= allowed, (label, gain, params)


# ---------------------------------------------------------------------------
# typed refusals on the clouds that data can produce

MODELS_1D = {"scalar_tanh": MODEL_REGISTRY["scalar_tanh"]({}),
             "linear_gaussian": make_linear_gaussian([[-0.5]], [1.0])}
# each row function of the table once, with a (kind label, gain) it serves
ROWS_1D = {row: (label, gain) for label, rows in sorted(ASSEMBLERS.items())
           for gain, row in rows.items() if in_dimension(label, gain, 1)}


def test_cloud_past_the_kde_grid_range_is_degenerate():
    # linspace over +-inf made a NaN grid, and int() of it raised ValueError
    x = 1e300 * np.random.default_rng(30).standard_normal((50, 1))
    with np.errstate(over="ignore"):
        with pytest.raises(DegenerateCloud):
            kde_density_1d(x)
        for label, rows in ASSEMBLERS.items():
            if "integral_1d" in rows:
                with pytest.raises(DegenerateCloud):
                    rows["integral_1d"](x, MODELS_1D["scalar_tanh"])


@pytest.mark.parametrize("scale", [1e150, 1e300])
def test_galerkin_stiffness_past_the_float_range_is_ill_conditioned(scale):
    # the SVD behind its condition number raised LinAlgError
    x = scale * np.random.default_rng(31).standard_normal((50, 1))
    row = ASSEMBLERS["delta_reich(cov_inverse)"]["galerkin"]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IllConditioned):
            row(x, MODELS_1D["scalar_tanh"])


@pytest.mark.parametrize("d", [1, 2])
def test_galerkin_drift_solve_needs_more_particles_than_functions(d):
    model = make_linear_gaussian(-np.eye(d), [1.0, 0.5][:d])
    x = np.random.default_rng(32).standard_normal((galerkin_basis_size(d), d))
    with pytest.raises(DegenerateCloud):
        solve_galerkin(x, model, "reich_omega")
    solve_galerkin(np.vstack([x, x[:1] + 0.5]), model, "reich_omega")


@st.composite
def edge_clouds(draw, d=1):
    """(n, d) clouds of scale 1e-300 to 1e300, from n = 2, with a run of
    ties and an outlier drawn in, and in 2D collinear points."""
    n = draw(st.integers(2, 60))
    z = CounterStream(draw(st.integers(0, 10_000)), label=0).normals(0, (n, d))
    z[:draw(st.integers(0, n))] = z[0]
    if d == 2 and draw(st.booleans()):
        z[:, 1] = draw(st.sampled_from([0.0, 1.0, -2.5])) * z[:, 0]
    z[-1] *= draw(st.sampled_from([1.0, 1.0, 1e3, 1e12, 1e150]))
    with np.errstate(over="ignore"):
        x = z * 10.0 ** draw(st.integers(-300, 300)) + draw(
            st.sampled_from([0.0, 0.0, 1.0, -3.0, 1e8]))
    assume(np.all(np.isfinite(x)))
    return x


@settings(max_examples=300, derandomize=True, deadline=None)
@given(x=edge_clouds())
def test_every_1d_row_gives_finite_coefficients_or_a_typed_error(x):
    for name, model in MODELS_1D.items():
        for label, gain in ROWS_1D.values():
            try:
                with np.errstate(all="ignore"):
                    cs = assemble_filter_coefficients(label, x, model, gain)
            except FlowFilterError:
                continue
            assert np.all(np.isfinite(cs.a)) and np.all(np.isfinite(cs.K)), \
                (name, label, gain)


MODEL_2D = make_linear_gaussian([[-0.5, 0.2], [0.0, -1.0]], [1.0, 0.5])
ROWS_2D = {row: (label, gain) for label, rows in sorted(ASSEMBLERS.items())
           for gain, row in rows.items() if in_dimension(label, gain, 2)}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(x=edge_clouds(d=2))
def test_every_2d_row_gives_finite_coefficients_or_a_typed_error(x):
    # fundamental_mc returned non-finite (a, K) on a 1e-300 pair and a
    # non-finite a at 1e300, with no error
    for label, gain in ROWS_2D.values():
        try:
            with np.errstate(all="ignore"):
                cs = assemble_filter_coefficients(label, x, MODEL_2D, gain)
        except FlowFilterError:
            continue
        assert np.all(np.isfinite(cs.a)) and np.all(np.isfinite(cs.K)), \
            (label, gain)


@pytest.mark.parametrize("seed, n, scale", [(2, 2, 1e-300), (12, 12, 1e300)])
def test_fundamental_mc_refuses_non_finite_fields(seed, n, scale):
    x = np.random.default_rng(seed).standard_normal((n, 2)) * scale
    for label in ("crisan_xiong", "delta_reich(rho_identity)"):
        with pytest.raises(NonFiniteState):
            assemble_filter_coefficients(label, x, MODEL_2D, "fundamental_mc")


def _refuses_quietly(capfd, error, row, *args):
    """row(*args) raises error with no RuntimeWarning and nothing printed
    to the process's stdout or stderr, LAPACK's included."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(error):
            row(*args)
    assert capfd.readouterr() == ("", "")


def test_kde_variance_past_the_float_range_refuses_quietly(capfd):
    # printed "overflow encountered in square" before DegenerateCloud
    x = 1e300 * np.random.default_rng(30).standard_normal((50, 1))
    _refuses_quietly(capfd, DegenerateCloud, kde_density_1d, x)


@pytest.mark.parametrize("label, gain_name", [("delta_fpf", "constant"),
                                              ("enkbf", "exact_gaussian")])
@pytest.mark.parametrize("scale", [1e150, 1e200])
def test_constant_gain_drift_past_the_float_range_refuses_quietly(
        capfd, label, gain_name, scale):
    # printed "overflow encountered in multiply" (the drift, at 1e150) or
    # "in matmul" (the moments, at 1e200) before NonFiniteState; the exact
    # row refuses the covariance that overflowed at 1e200 itself
    x = scale * np.random.default_rng(30).standard_normal((50, 1))
    error = SingularCovariance if (gain_name, scale) == ("exact_gaussian",
                                                         1e200) \
        else NonFiniteState
    _refuses_quietly(capfd, error, assemble_filter_coefficients, label,
                     x, MODELS_1D["linear_gaussian"], gain_name)


MODEL_3D = make_linear_gaussian(np.diag([-0.5, -1.0, -0.8]).tolist(),
                                [1.0, 0.5, -0.3])
EXACT_ROWS_3D = [label for label, rows in sorted(ASSEMBLERS.items())
                 if "exact_gaussian" in rows
                 and in_dimension(label, "exact_gaussian", 3)]


@pytest.mark.parametrize("label", EXACT_ROWS_3D)
def test_exact_gaussian_row_refuses_a_covariance_past_the_float_range(
        capfd, label):
    # eigvalsh raised an untyped LinAlgError on the cloud's covariance,
    # which filters.STEP_ERRORS does not catch
    assert len(EXACT_ROWS_3D) == 7
    x = 1e300 * np.random.default_rng(3).standard_normal((50, 3))
    _refuses_quietly(capfd, SingularCovariance, assemble_filter_coefficients,
                     label, x, MODEL_3D, "exact_gaussian")
    assert issubclass(SingularCovariance, FlowFilterError)


@pytest.mark.parametrize("label", ["delta_fpf", "crisan_xiong",
                                   "delta_reich(identity)"])
def test_delta_integral_row_on_a_grid_past_the_float_range_is_quiet(capfd,
                                                                     label):
    # the integral_1d row the delta kinds share printed "overflow encountered
    # in multiply" (cumulative_simpson) and "invalid value encountered in
    # accumulate" (its cumsum): unlike the other rows, it computed outside
    # np.errstate
    x = np.random.default_rng(40).standard_normal((2000, 1))
    for name, model in MODELS_1D.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                cs = assemble_filter_coefficients(
                    label, x, model, "integral_1d", eps_floor=1e-300,
                    kde_opts={"half_width": 1e150})
            except FlowFilterError:
                continue
        assert np.all(np.isfinite(cs.a)) and np.all(np.isfinite(cs.K)), name
    assert capfd.readouterr() == ("", "")


def test_non_finite_stiffness_refuses_before_lapack(capfd):
    # LAPACK printed "On entry to DLASCL parameter number 4 had an illegal
    # value" (and 5) to stderr, then the SVD's error became IllConditioned
    x = np.random.default_rng(12).standard_normal((12, 2)) * 1e150
    x[-1] *= 1e6
    _refuses_quietly(capfd, IllConditioned, assemble_filter_coefficients,
                     "delta_fpf", x, MODEL_2D, "galerkin")


def test_an_svd_that_does_not_converge_is_ill_conditioned(monkeypatch):
    # no finite stiffness matrix known makes LAPACK's SVD fail, so the
    # failure is forced: its LinAlgError must become IllConditioned(inf)
    def no_convergence(a, p=None):
        assert np.isfinite(a).all()
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "cond", no_convergence)
    ens = np.random.default_rng(11).standard_normal((100, 1))
    with pytest.raises(IllConditioned) as err:
        solve_galerkin(ens, _linear_model(), "reich_omega")
    assert err.value.cond == math.inf
