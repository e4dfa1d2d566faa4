"""Backend equivalence: every numba kernel must match its numpy fallback."""

import numpy as np
import pytest

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
