"""Backend equivalence: every numba kernel must match its numpy fallback."""

import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from flowfilter import _kernels
from flowfilter.ensemble import Density1D
from flowfilter.models import make_linear_gaussian
from flowfilter.reference import run_grid_kushner

needs_numba = pytest.mark.skipif(not _kernels.NUMBA_ENABLED,
                                 reason="numba backend disabled")


def test_backend_flag_is_exposed():
    assert _kernels.BACKEND in ("numba", "numpy")


def test_deposit_linear_conserves_mass():
    rng = np.random.default_rng(0)
    xs = rng.normal(size=5000)
    out, cells = _kernels.deposit_linear_numpy(xs, -6.0, 12.0 / 400, 401)
    assert np.sum(out) == pytest.approx(5000.0, rel=1e-12)
    assert cells.dtype == np.int64 and cells.shape == xs.shape


@needs_numba
def test_deposit_linear_backends_agree():
    rng = np.random.default_rng(1)
    xs = rng.normal(size=20000)
    a, a_cells = _kernels.deposit_linear_numpy(xs, -7.0, 14.0 / 800, 801)
    b, b_cells = _kernels.deposit_linear_numba(xs, -7.0, 14.0 / 800, 801)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    assert a_cells.tobytes() == b_cells.tobytes()


def _pass_args(targets, src, rng):
    """fundamental_pass arguments from targets to src: two source weights,
    a cutoff of 0.05 and a bandwidth per axis."""
    m_beta, m_alpha = rng.normal(size=(2, src.shape[0]))
    return targets, src, m_beta, m_alpha, 0.05, np.linspace(0.3, 0.5,
                                                            src.shape[1])


def _assert_pass_close(a, b):
    for field_a, field_b in zip(a[:2], b[:2]):
        np.testing.assert_allclose(field_a, field_b, rtol=1e-11, atol=1e-13)
    np.testing.assert_allclose(a[2], b[2], rtol=1e-12)


@needs_numba
@pytest.mark.parametrize("d", [2, 3])
def test_fundamental_pass_backends_agree(d):
    rng = np.random.default_rng(2)
    args = _pass_args(rng.normal(size=(200, d)), rng.normal(size=(500, d)), rng)
    _assert_pass_close(_kernels.fundamental_pass_numpy(*args),
                       _kernels.fundamental_pass_numba(*args))


def test_fundamental_pass_skips_exact_self_interaction():
    src = np.array([[0.0, 0.0], [1.0, 1.0]])
    mc = np.array([1.0, -1.0])
    beta, alpha, kde = _kernels.fundamental_pass_numpy(src, src, mc, -mc, 0.1,
                                                       np.array([1.0, 1.0]))
    # each target sees only the other particle (|diff|^2 = 2 after the
    # square root and the power), and its own Gaussian tap
    np.testing.assert_allclose(beta, [[-0.5, -0.5], [-0.5, -0.5]], rtol=1e-15)
    np.testing.assert_array_equal(alpha, -beta)
    np.testing.assert_array_equal(kde, 1.0 + np.exp(-1.0))


# Each kernel's loop, the body numba compiles, run as plain Python against
# its numpy kernel at the tolerance of its backend test, on inputs small
# enough for the interpreter; the Kushner loop is held the same way by
# test_kushner_numpy_matches_flux_form_loop below.

def test_deposit_linear_loop_matches_numpy():
    rng = np.random.default_rng(1)
    xs = 3.0 * rng.normal(size=3000)            # some past both grid ends
    a, a_cells = _kernels.deposit_linear_numpy(xs, -7.0, 14.0 / 800, 801)
    b, b_cells = _kernels._deposit_linear_impl(xs, -7.0, 14.0 / 800, 801)
    np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    # the same cell index, which gain.GridIntervals starts from
    assert a_cells.dtype == b_cells.dtype == np.int64
    assert a_cells.tobytes() == b_cells.tobytes()


@pytest.mark.parametrize("d", [2, 3])
def test_fundamental_pass_loop_matches_numpy(d):
    rng = np.random.default_rng(2)
    src = rng.normal(size=(200, d))
    # exact self-interactions, and pairs closer than the cutoff
    pts = np.vstack([src[:5], src[5:10] + 0.01, rng.normal(size=(40, d))])
    args = _pass_args(pts, src, rng)
    _assert_pass_close(_kernels.fundamental_pass_numpy(*args),
                       _kernels._fundamental_pass_impl(*args))


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


def _read_only(*arrays):
    out = [a.copy() for a in arrays]
    for a in out:
        a.flags.writeable = False
    return out


def _fine_steps(kernel_args, slopes, steps_per_mesh):
    """kushner_substeps over steps_per_mesh fine steps per slope, as
    run_grid_kushner calls it: (every returned density, clip counts)."""
    theta, drift, h, w, dx, dt, nsub = kernel_args
    thetas, clips = [], []
    for slope in slopes:
        for _ in range(steps_per_mesh):
            theta, nclip = _kernels.kushner_substeps_numpy(
                theta, drift, h, w, dx, dt, nsub, slope)
            thetas.append(theta)
            clips.append(nclip)
    return thetas, clips


def _kushner_grid(G=401):
    g = np.linspace(-6, 6, G)
    dx = g[1] - g[0]
    theta = np.exp(-g**2 / 2)
    theta /= np.trapezoid(theta, g)
    return theta, -g, np.tanh(g), _weights(g), dx, 0.4 * dx * dx, 5


def test_kushner_prepared_operator_matches_a_build_every_call(monkeypatch):
    # a mesh boundary every 3 fine steps; the middle slope clips
    theta, drift, h, w, dx, dt, nsub = _kushner_grid()
    slopes = [0.7, -3000.0, 2.0]
    builds = []
    build = _kernels._build_operator
    monkeypatch.setattr(_kernels, "_build_operator",
                        lambda *args: builds.append(args) or build(*args))
    cached = _fine_steps((theta, *_read_only(drift, h, w), dx, dt, nsub),
                         slopes, 3)
    assert len(builds) == len(slopes)
    fresh = _fine_steps((theta, drift.copy(), h.copy(), w.copy(), dx, dt,
                         nsub), slopes, 3)
    assert len(builds) == len(slopes) + 3 * len(slopes)
    assert cached[1] == fresh[1] and sum(cached[1]) > 0
    assert [a.tobytes() for a in cached[0]] == [a.tobytes() for a in fresh[0]]


def test_kushner_writeable_drift_edited_in_place_is_rebuilt():
    theta, drift, h, w, dx, dt, nsub = _kushner_grid()
    h, w = _read_only(h, w)
    first, _ = _kernels.kushner_substeps_numpy(theta, drift, h, w, dx, dt,
                                               nsub, 0.7)
    drift *= 1.5
    edited, _ = _kernels.kushner_substeps_numpy(theta, drift, h, w, dx, dt,
                                                nsub, 0.7)
    fresh, _ = _kernels.kushner_substeps_numpy(theta, drift.copy(), h, w, dx,
                                               dt, nsub, 0.7)
    assert edited.tobytes() == fresh.tobytes() != first.tobytes()


def test_kushner_returns_fresh_arrays_and_snapshots_stay():
    theta, drift, h, w, dx, dt, nsub = _kushner_grid()
    thetas, _ = _fine_steps((theta, *_read_only(drift, h, w), dx, dt, nsub),
                            [0.7], 2)
    assert not np.shares_memory(thetas[0], thetas[1])
    assert all(a.flags.owndata for a in thetas)    # not a view of a work row
    model = make_linear_gaussian([[-0.5]], [1.0])
    g = np.linspace(-5.0, 5.0, 201)
    dens = Density1D(grid=g, values=np.exp(-g**2 / 2) / np.sqrt(2 * np.pi))
    slopes = np.array([0.5, -1.0, 2.0])
    _, _, snaps, _ = run_grid_kushner(dens, model, slopes, 1e-3, 4,
                                      snapshot_slots=(1, 3))
    _, _, alone, _ = run_grid_kushner(dens, model, slopes[:1], 1e-3, 4,
                                      snapshot_slots=(1,))
    assert snaps[1].values.tobytes() == alone[1].values.tobytes()
    assert not np.shares_memory(snaps[1].values, snaps[3].values)


def test_kushner_rows_start_on_cache_lines_and_operators_are_read_only(
        monkeypatch):
    rows = []
    aligned_rows = _kernels._aligned_rows
    monkeypatch.setattr(_kernels, "_aligned_rows",
                        lambda *args: rows.append(aligned_rows(*args))
                        or rows[-1])
    theta, drift, h, w, dx, dt, nsub = _kushner_grid(G=2001)
    _kernels.kushner_substeps_numpy(theta, drift, h, w, dx, dt, nsub, 0.7)
    # the operator's three rows, the moment block, the four work rows
    assert [r.shape for r in rows] == [(3, 2001), (1, 3 * 2001), (4, 2001)]
    assert all(row.ctypes.data % 64 == 0 for r in rows for row in r)
    lo, up, diag, moments, _ = _kernels._build_operator(drift, h, w, dx, dt,
                                                        0.7)
    assert moments.shape == (3, 2001) and moments.flags.c_contiguous
    for a in (lo, up, diag, moments):
        assert a.ctypes.data % 64 == 0 and not a.flags.writeable
