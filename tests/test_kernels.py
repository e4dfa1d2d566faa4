"""Backend equivalence: every numba kernel must match its numpy fallback."""

import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from flowfilter import _kernels

needs_numba = pytest.mark.skipif(not _kernels.NUMBA_ENABLED,
                                 reason="numba backend disabled")


def test_backend_flag_is_exposed():
    assert _kernels.BACKEND in ("numba", "numpy")


def test_deposit_linear_conserves_mass():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=5000)
    out = _kernels.deposit_linear_numpy(xs, -6.0, 12.0 / 400, 401)
    assert np.sum(out) == pytest.approx(5000.0, rel=1e-12)


@needs_numba
def test_deposit_linear_backends_agree():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=20000)
    a = _kernels.deposit_linear_numpy(xs, -7.0, 14.0 / 800, 801)
    b = _kernels.deposit_linear_numba(xs, -7.0, 14.0 / 800, 801)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@needs_numba
def test_pairwise_field_backends_agree():
    rng = np.random.default_rng(2)
    src = rng.normal(size=(500, 2))
    pts = rng.normal(size=(200, 2))
    mc = rng.normal(size=500)
    a = _kernels.pairwise_grad_field_numpy(pts, src, mc, 0.05)
    b = _kernels.pairwise_grad_field_numba(pts, src, mc, 0.05)
    np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-13)


def test_pairwise_field_skips_exact_self_interaction():
    src = np.array([[0.0, 0.0], [1.0, 1.0]])
    mc = np.array([1.0, -1.0])
    out = _kernels.pairwise_grad_field_numpy(src, src, mc, 0.1)
    assert np.all(np.isfinite(out))


@needs_numba
def test_kde_eval_backends_agree():
    rng = np.random.default_rng(3)
    src = rng.normal(size=(400, 3))
    pts = rng.normal(size=(100, 3))
    bw = np.array([0.4, 0.3, 0.5])
    a = _kernels.kde_eval_points_numpy(pts, src, bw)
    b = _kernels.kde_eval_points_numba(pts, src, bw)
    np.testing.assert_allclose(a, b, rtol=1e-12)


# Each kernel's loop, the body numba compiles, run as plain Python against
# its numpy kernel at the tolerance of its backend test, on inputs small
# enough for the interpreter; the Kushner loop is held the same way by
# test_kushner_numpy_matches_flux_form_loop below.

def test_deposit_linear_loop_matches_numpy():
    rng = np.random.default_rng(1)
    xs = 3.0 * rng.normal(size=3000)            # some past both grid ends
    a = _kernels.deposit_linear_numpy(xs, -7.0, 14.0 / 800, 801)
    b = _kernels._deposit_linear_impl(xs, -7.0, 14.0 / 800, 801)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


def test_pairwise_field_loop_matches_numpy():
    rng = np.random.default_rng(2)
    src = rng.normal(size=(200, 2))
    # exact self-interactions, and pairs closer than the cutoff
    pts = np.vstack([src[:5], src[5:10] + 0.01, rng.normal(size=(40, 2))])
    mc = rng.normal(size=200)
    a = _kernels.pairwise_grad_field_numpy(pts, src, mc, 0.05)
    b = _kernels._pairwise_grad_field_impl(pts, src, mc, 0.05)
    np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-13)


def test_kde_eval_loop_matches_numpy():
    rng = np.random.default_rng(3)
    src = rng.normal(size=(100, 3))
    pts = rng.normal(size=(30, 3))
    bw = np.array([0.4, 0.3, 0.5])
    a = _kernels.kde_eval_points_numpy(pts, src, bw)
    b = _kernels._kde_eval_points_impl(pts, src, bw)
    np.testing.assert_allclose(a, b, rtol=1e-12)


@needs_numba
def test_kushner_substeps_backends_agree():
    G = 401
    g = np.linspace(-6, 6, G)
    theta = np.exp(-g**2 / 2)
    theta /= np.trapezoid(theta, g)
    w = np.full(G, g[1] - g[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    drift = -g
    h = np.tanh(g)
    args = (theta, drift, h, w, g[1] - g[0], 1e-5, 50, 0.7)
    a, ca = _kernels.kushner_substeps_numpy(*args)
    b, cb = _kernels.kushner_substeps_numba(*args)
    np.testing.assert_allclose(a, b, rtol=1e-11, atol=1e-14)
    assert ca == cb


@pytest.mark.parametrize("dt_cfl, nsub, slope, clips", [
    (None, 50, 0.7, 0),        # smooth: dt 1e-5
    (0.4, 20, 3000.0, 577),    # forced clipping at the CFL bound
    (0.4, 20, -3000.0, 577),
])
def test_kushner_numpy_matches_flux_form_loop(dt_cfl, nsub, slope, clips):
    """The numpy kernel's tridiagonal operator against the flux-form loop
    run as plain Python: equal clip counts, and at most 1e-12 of max|theta|
    apart (the sums are grouped differently, so not bitwise)."""
    G = 401
    g = np.linspace(-6, 6, G)
    dx = g[1] - g[0]
    theta = np.exp(-g**2 / 2)
    theta /= np.trapezoid(theta, g)
    w = np.full(G, dx)
    w[0] *= 0.5
    w[-1] *= 0.5
    dt = 1e-5 if dt_cfl is None else dt_cfl * dx * dx
    args = (theta, -g, np.tanh(g), w, dx, dt, nsub, slope)
    a, ca = _kernels.kushner_substeps_numpy(*args)
    b, cb = _kernels._kushner_substeps_impl(*args)
    assert ca == cb == clips
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_kushner_numpy_mass_is_one_after_each_call():
    G = 301
    g = np.linspace(-5, 5, G)
    theta = np.exp(-g**2 / 2)
    theta /= np.trapezoid(theta, g)
    w = np.full(G, g[1] - g[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    out, _ = _kernels.kushner_substeps_numpy(theta, -g, np.tanh(g), w,
                                             g[1] - g[0], 1e-5, 25, 0.0)
    assert np.dot(w, out) == pytest.approx(1.0, rel=1e-12)


def _weights(g):
    w = np.full(g.size, g[1] - g[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


@st.composite
def kushner_calls(draw):
    """Arguments of one Kushner call on a grid of 21 to 201 points: a drift
    line whose ends may pass +-1/dx (where a band turns negative), a
    tanh-shaped h, a Gaussian bump (possibly off-centre) on a floor that
    may be 0, dt up to the CFL bound, and a slope with dt |slope| max|h|
    from 0 to 1.2.  Calls fall on both sides of the no-clip certificate,
    and some clip only through the shift dt (h2bar/2 - slope hbar): a floor
    far from an off-centre bump, where slope (h - hbar) is most negative."""
    G = draw(st.integers(21, 201))
    half = draw(st.floats(1.0, 8.0))
    g = np.linspace(-half, half, G)
    dx = g[1] - g[0]
    dt = draw(st.floats(0.05, 1.0)) * 0.4 * dx * dx
    a, b = draw(st.floats(-1.5, 1.5)), draw(st.floats(-1.5, 1.5))
    drift = (a + b * g / half) / dx
    h = draw(st.floats(0.1, 5.0)) * np.tanh(draw(st.floats(0.1, 3.0)) * g
                                            + draw(st.floats(-1.0, 1.0)))
    mu = draw(st.floats(-half, half))
    sigma = draw(st.floats(0.05, 1.0)) * half
    theta = np.exp(-0.5 * ((g - mu) / sigma) ** 2) \
        + draw(st.sampled_from([0.0, 1e-6, 1e-3, 0.1]))
    theta /= np.dot(_weights(g), theta)
    slope = draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.0, 1.2)) \
        / (dt * np.max(np.abs(h)))
    return theta, drift, h, _weights(g), dx, dt, draw(st.integers(1, 20)), slope


def _certified(theta, drift, h, w, dx, dt, nsub, slope):
    """The no-clip certificate: nonnegative bands and theta, and every
    diagonal entry above 2 dt |slope| max|h|."""
    P, Q = 0.5 * drift[:-1] + 0.5 / dx, 0.5 * drift[1:] - 0.5 / dx
    diag = np.concatenate([[-P[0]], Q[:-1] - P[1:], [Q[-1]]])
    diag = 1.0 + dt * (diag / dx + (slope - 0.5 * h) * h)
    return bool(P.min() >= 0.0 and Q.max() <= 0.0 and theta.min() >= 0.0
                and diag.min() > 2.0 * dt * abs(slope) * np.max(np.abs(h)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kushner_calls())
def test_kushner_numpy_matches_flux_form_loop_on_drawn_calls(args):
    """The ratio-form kernel, which skips the clip test where the
    certificate holds, against the flux-form loop that renormalises and
    tests every cell each substep: equal clip counts, and at most 1e-12 of
    max|theta| apart."""
    a, ca = _kernels.kushner_substeps_numpy(*args)
    b, cb = _kernels._kushner_substeps_impl(*args)
    event("certified" if _certified(*args) else "not certified")
    event("clips" if cb else "no clips")
    assert ca == cb
    assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


def test_kushner_numpy_zero_mass_leaves_a_non_finite_state():
    # m0 = 0 from the first substep: no ZeroDivisionError and no warning;
    # run_grid_kushner turns the state into NonFiniteState
    g = np.linspace(-3.0, 3.0, 61)
    dx = g[1] - g[0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, nclip = _kernels.kushner_substeps_numpy(
            np.zeros(g.size), -g, np.tanh(g), _weights(g), dx,
            0.4 * dx * dx, 5, 0.7)
    assert out.shape == g.shape and not np.isfinite(out).any()
    assert nclip == 0
