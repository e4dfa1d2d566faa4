import numpy as np
import pytest
from helpers import check_gradient
from scipy.special import ndtr

from flowfilter.errors import CertificateFailed, ConditionViolation
from flowfilter.models import (InitialDensity, LogConcaveOUSpec, SystemModel,
                               _ndtr, default_cloud, make_linear_gaussian,
                               make_log_concave_ou, validate_conditions)


def test_linear_gaussian_scalar_evaluation():
    m = make_linear_gaussian([[-0.5]], [1.0])
    assert m.drift(np.array([[2.0]]))[0, 0] == -1.0
    assert m.obs(np.array([[2.0]]))[0] == 2.0
    assert m.kind == "linear_gaussian"


def test_linear_gaussian_zero_case():
    m = make_linear_gaussian([[0.0]], [0.0])
    x = np.linspace(-3, 3, 7).reshape(-1, 1)
    assert np.all(m.drift(x) == 0.0)
    assert np.all(m.obs(x) == 0.0)


def test_linear_gaussian_constant_gradient_2d():
    m = make_linear_gaussian([[0.0, 1.0], [-1.0, 0.0]], [1.0, 0.0])
    pts = np.random.default_rng(0).normal(size=(20, 2))
    g = m.obs_grad(pts)
    assert np.all(g == np.array([1.0, 0.0]))


def test_linear_gaussian_rejects_nonfinite():
    with pytest.raises(ValueError):
        make_linear_gaussian([[np.nan]], [1.0])
    with pytest.raises(ValueError):
        make_linear_gaussian([[1.0]], [np.inf])


def test_gradient_consistency_sampled_models():
    rng = np.random.default_rng(42)
    models = [
        make_linear_gaussian([[-0.5]], [1.7]),
        make_linear_gaussian(rng.normal(size=(3, 3)), rng.normal(size=3)),
        SystemModel(dim=1, drift=lambda x: -x,
                    obs=lambda x: np.tanh(x[:, 0]),
                    obs_grad=lambda x: (1 / np.cosh(x[:, 0]) ** 2)[:, None]),
    ]
    for m in models:
        pts = rng.uniform(-5, 5, size=(100, m.dim))
        assert check_gradient(m, pts) <= 1e-5


def test_stored_lipschitz_constant_holds_on_sampled_pairs():
    rng = np.random.default_rng(13)
    m = make_linear_gaussian(rng.normal(size=(3, 3)), rng.normal(size=3))
    x = rng.uniform(-5, 5, size=(200, 3))
    y = rng.uniform(-5, 5, size=(200, 3))
    lhs = np.linalg.norm(m.drift(x) - m.drift(y), axis=1)
    rhs = m.drift_lipschitz * np.linalg.norm(x - y, axis=1)
    assert np.all(lhs <= rhs * (1 + 1e-12))


def test_linear_tag_soundness_additivity():
    rng = np.random.default_rng(3)
    m = make_linear_gaussian(rng.normal(size=(2, 2)), rng.normal(size=2))
    x = rng.normal(size=(50, 2))
    y = rng.normal(size=(50, 2))
    np.testing.assert_allclose(m.drift(x + y), m.drift(x) + m.drift(y),
                               rtol=0, atol=1e-12)


def _quadratic_spec(c=1.0, c_g=1.0, c_r=None, D=None):
    return LogConcaveOUSpec(
        potential=lambda x: -0.5 * c * np.sum(x * x, axis=1),
        grad=lambda x: -c * x,
        c_u=c, c_g=c_g, c_r=(2 * c * c if c_r is None else c_r),
        linear_growth_D=(c + 0.5 if D is None else D))


def test_log_concave_ou_quadratic_drift_and_R():
    # U = -x^2/2, H = 1: drift -x; R = x^2 - 1 + x^2 so R'' = 4 >= c_r
    spec = _quadratic_spec(c=1.0, c_r=4.0)
    m = make_log_concave_ou(spec, [1.0])
    x = np.array([[0.5], [-2.0]])
    np.testing.assert_allclose(m.drift(x), -x, atol=1e-12)
    report = validate_conditions(m, spec, default_cloud(1))
    assert all(chk.passed for chk in report.checks)


def test_ou_witness_check_at_origin():
    spec = _quadratic_spec(c=1.0)
    m = make_log_concave_ou(spec, [1.0])
    report = validate_conditions(m, spec, np.array([[0.0]]))
    c1 = report.checks[0]
    assert c1.name == "C1" and c1.passed
    # hess U = -1 <= -c_u exactly for c_u = 1: zero margin up to FD error
    assert abs(c1.margin) < 1e-6


def test_convex_potential_violates_c1():
    spec = LogConcaveOUSpec(potential=lambda x: 0.5 * np.sum(x * x, axis=1),
                            grad=lambda x: x, c_u=1.0, c_g=1.0, c_r=2.0,
                            linear_growth_D=2.0)
    with pytest.raises(ConditionViolation) as err:
        make_log_concave_ou(spec, [1.0])
    assert err.value.condition == "C1"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("H", [1e154, 1e155])
def test_non_finite_c3_margin_certifies_nothing(H):
    # R = (Hx)^2 - 1 + x^2 overflows: at 1e155 its Hessian read NaN and C3
    # passed with margin inf, at 1e154 it read violated with margin -inf,
    # though hess R = 2 H^2 + 2 holds the bound
    with pytest.raises(CertificateFailed, match="condition C3") as err:
        make_log_concave_ou(_quadratic_spec(c=1.0, c_r=2.0), [H])
    assert "at [-3.]" in str(err.value)


def test_quadratic_family_certifies_cr_2c2():
    # R(x) = |Hx|^2 - d c + c^2 |x|^2 so hess R = 2 H^T H + 2 c^2 I >= 2 c^2 I
    for c, H in [(1.0, [1.0]), (0.7, [1.3]), (1.2, [1.0, 0.0])]:
        spec = _quadratic_spec(c=c, c_r=2 * c * c, c_g=1.0, D=c * 10 + 1)
        m = make_log_concave_ou(spec, H)
        report = validate_conditions(m, spec, default_cloud(m.dim))
        assert {c.name: c.passed for c in report.checks}["C3"]


def test_cubic_drift_fails_linear_growth():
    spec = LogConcaveOUSpec(potential=lambda x: -0.25 * np.sum(x**4, axis=1),
                            grad=lambda x: -x**3,
                            c_u=0.1, c_g=1.0, c_r=0.1, linear_growth_D=2.0)
    m = SystemModel(dim=1, drift=spec.grad_potential,
                    obs=lambda x: x[:, 0],
                    obs_grad=lambda x: np.ones_like(x),
                    kind="log_concave_ou", H=np.array([[1.0]]))
    cloud = np.array([[0.0], [1.0], [10.0]])
    report = validate_conditions(m, spec, cloud)
    assert not {c.name: c.passed for c in report.checks}["C4"]


def test_empty_cloud_is_vacuous():
    spec = _quadratic_spec()
    m = make_log_concave_ou(spec, [1.0])
    report = validate_conditions(m, spec, np.empty((0, 1)))
    assert report.vacuous and report.checks == []


def test_initial_density_gaussian_validation():
    with pytest.raises(ValueError):
        InitialDensity(kind="gaussian", mean=[0.0], cov=[[-1.0]])
    density = InitialDensity(kind="gaussian", mean=[1.0], cov=[[0.5]])
    draws = density.sample(5000, np.random.default_rng(0).normal(size=(5000, 1)))
    assert abs(draws.mean() - 1.0) < 0.05
    assert abs(draws.var(ddof=1) - 0.5) < 0.05


def test_initial_density_grid_table_mass():
    g = np.linspace(-5, 5, 801)
    v = np.exp(-g**2 / 2) / np.sqrt(2 * np.pi)
    with pytest.raises(ValueError):
        InitialDensity(kind="grid_table", grid=g, values=2 * v)
    v = v / np.trapezoid(v, g)
    d = InitialDensity(kind="grid_table", grid=g, values=v)
    draws = d.sample(4000, np.random.default_rng(1).normal(size=(4000, 1)))
    assert abs(draws.mean()) < 0.06


def test_ndtr_matches_scipy_to_last_bits():
    # math.erf and erfc in cephes' branches; libm and cephes differ in the
    # last bits, so the match is relative, not bitwise
    a = np.random.default_rng(7).standard_normal(200000)
    assert np.all(np.abs(_ndtr(a) - ndtr(a)) <= 1e-14 * ndtr(a))
    edges = np.array([-np.inf, -40.0, -0.0, 0.0, 40.0, np.inf])
    assert np.array_equal(_ndtr(edges), ndtr(edges))
    assert np.isnan(_ndtr(np.array([np.nan]))[0])


def test_initial_density_grid_table_from_lists():
    # a config hands the table over as JSON lists
    g = np.linspace(-5, 5, 801)
    v = np.exp(-g**2 / 2)
    v = v / np.trapezoid(v, g)
    d = InitialDensity(kind="grid_table", grid=g.tolist(), values=v.tolist())
    assert d.grid.dtype == d.values.dtype == np.float64
    draws = d.sample(4000, np.random.default_rng(1).normal(size=(4000, 1)))
    assert abs(draws.mean()) < 0.06
    uneven = g.copy()
    uneven[400] += 1e-3
    negative = v.copy()
    negative[400] = -negative[400]
    for grid, values in [(uneven, v), (g[::-1], v), (g, negative), (g, v[1:])]:
        with pytest.raises(ValueError):
            InitialDensity(kind="grid_table", grid=grid.tolist(),
                           values=values.tolist())
