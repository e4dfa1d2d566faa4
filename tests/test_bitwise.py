"""The array forms of the 1D filter step against oracles in the per-call
numpy form they replace, bit for bit, on drawn clouds, models and options.

Each oracle below keeps the earlier arithmetic of its function: the
Galerkin solve with one closure call per monomial, a matmul by M^{-1}
(the identity when M = I) and one reduction per stiffness entry and load
component; the kernel density estimate with np.var, np.std and np.mean;
the 1D integral solve with np.trapezoid and np.gradient.  The rewrites
must give the same bytes, diagnostics included, or raise the same error.
The integral oracle also keeps the 1D FPF drift solve fpf_psi, by
integration by parts, which the library does not have: in 1D its field is
the crisan_alpha field, and tests/test_identities.py holds the library's
integral_1d row to oracle_fpf.
The Kushner oracle keeps the substep loop of the numpy grid Kushner
kernel as it was written with `np.<ufunc>(..., out=)` calls and tuple
swaps, on an operator built afresh; the kernel must give the same theta
and clip count on drawn calls, with and without clipping, and on the
shapes the shipped reference runs.
The d >= 2 Crisan & Xiong oracle keeps that row's three passes over the
particle pairs (the beta field, the alpha field, the KDE of rho), which
the library makes in one.
The Galerkin oracle also solves for the gain on the linear monomials,
which the library takes from the constant gain instead
(tests/test_identities.py holds the two together).  The drawn clouds are
small; fixed clouds at the ensemble sizes the shipped configs run (1e4 to
4e4, above numpy's 8192-element reduction buffer) are checked too.
"""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from test_kernels import _certified, kushner_calls

from flowfilter import _kernels
from flowfilter.ensemble import Density1D, compute_moments, kde_density_1d
from flowfilter.errors import DegenerateCloud, IllConditioned, UnresolvedTail
from flowfilter.gain import (ASSEMBLERS, EPS_RHO, RIDGE, GainField,
                             assemble_filter_coefficients,
                             cumulative_simpson, solve_1d_integral,
                             solve_constant_gain, solve_galerkin,
                             unit_sphere_area)
from flowfilter.models import SystemModel, make_linear_gaussian
from flowfilter.reference import substeps_per_fine_step

RHS_KINDS = ("fpf_phi", "crisan_alpha")
# the rhs kinds solve_galerkin serves
DRIFT_KINDS = ("fpf_psi", "reich_omega")
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)


# ---------------------------------------------------------------------------
# oracles

def _monomials(d, quadratic):
    """(value, grad) closures of x_1..x_d, then of x_j x_k (j <= k) when
    quadratic."""
    basis = []
    for j in range(d):
        def grad(x, j=j):
            out = np.zeros_like(x)
            out[:, j] = 1.0
            return out
        basis.append((lambda x, j=j: x[:, j], grad))
    if quadratic:
        for j in range(d):
            for k in range(j, d):
                def grad(x, j=j, k=k):
                    out = np.zeros_like(x)
                    out[:, j] += x[:, k]
                    out[:, k] += x[:, j]
                    return out
                basis.append((lambda x, j=j, k=k: x[:, j] * x[:, k], grad))
    return basis


def oracle_galerkin(x, model, rhs_kind, m_inv=None, prior_gain=None, h=None):
    """The Galerkin solve of rhs_kind: fpf_phi (the gain) on the linear
    monomials, fpf_psi and reich_omega on the quadratic ones."""
    n, d = x.shape
    basis = _monomials(d, quadratic=rhs_kind != "fpf_phi")
    nb = len(basis)
    if n <= nb:
        raise DegenerateCloud("need more particles than basis functions")
    grads = [grad(x) for _, grad in basis]
    vals = [value(x) for value, _ in basis]
    Minv = np.eye(d) if m_inv is None else np.atleast_2d(np.asarray(m_inv, dtype=float))
    A = np.empty((nb, nb))
    mg = [g @ Minv.T for g in grads]
    for j in range(nb):
        for k in range(j, nb):
            A[j, k] = A[k, j] = np.mean(np.sum(grads[j] * mg[k], axis=1))
    try:
        cond = float(np.linalg.cond(A))
    except np.linalg.LinAlgError:
        raise IllConditioned(np.inf) from None
    if cond > 1e12:
        raise IllConditioned(cond)
    if rhs_kind != "fpf_psi" and h is None:
        h = model.obs(x)
    if rhs_kind == "fpf_phi":
        h_bar = h.mean()
        load = np.array([np.mean((h - h_bar) * v) for v in vals])
    elif rhs_kind == "fpf_psi":
        r = np.sum(model.obs_grad(x) * prior_gain, axis=1)
        r_bar = r.mean()
        load = np.array([-np.mean((r - r_bar) * v) for v in vals])
    else:
        h2_bar = (h * h).mean()
        load = np.array([-0.5 * np.mean((h * h - h2_bar) * v) for v in vals])
    damped = A + RIDGE * np.eye(nb)
    c = np.linalg.solve(damped, load)
    for _ in range(2):
        c = c + np.linalg.solve(damped, load - A @ c)
    residual = float(np.max(np.abs(A @ c - load)))
    K = np.zeros((n, d))
    for j in range(nb):
        K += c[j] * mg[j]
    return GainField(at_particles=K, coefficients=c,
                     diagnostics={"residual": residual, "condition_number": cond})


def oracle_kde(x, grid_points=801, half_width=None, bandwidth=None,
               pad_sigmas=8.0):
    xs = x[:, 0]
    var = float(np.var(xs, ddof=1))
    if var < 1e-14:
        raise DegenerateCloud(f"sample variance {var:.3e} below 1e-14")
    if bandwidth is None or bandwidth == "silverman":
        bw = 1.06 * float(np.std(xs, ddof=1)) * xs.size ** (-0.2)
    else:
        bw = float(bandwidth)
    sigma = np.sqrt(var)
    auto_l = abs(float(np.mean(xs))) + pad_sigmas * sigma + 4.0 * bw
    half = max(auto_l, half_width) if half_width is not None else auto_l
    grid = np.linspace(-half, half, grid_points)
    dx = grid[1] - grid[0]
    counts, _ = _kernels.deposit_linear(xs, grid[0], dx, grid_points)
    half_k = int(np.ceil(8.0 * bw / dx))
    u = np.arange(-half_k, half_k + 1) * dx
    kernel = np.exp(-0.5 * (u / bw) ** 2)
    values = np.convolve(counts, kernel)[half_k:half_k + grid_points]
    return Density1D(grid=grid, values=np.maximum(values, 0.0))


def oracle_integral(density, model, rhs_kind, particles=None,
                    eps_floor=EPS_RHO):
    g, rho, dx = density.grid, density.values, density.dx
    x2 = g.reshape(-1, 1)
    rho_f = np.maximum(rho, eps_floor)
    floor_frac = float(np.sum(rho[rho < eps_floor]) * dx)
    diagnostics = {"epsilon": eps_floor, "floor_frac": floor_frac}
    h = model.obs(x2)
    if rhs_kind != "crisan_alpha":      # the gain's integral, which fpf_psi reads
        hb = float(np.trapezoid(h * rho, g))
        I = cumulative_simpson((h - hb) * rho, dx)
    if rhs_kind == "fpf_phi":
        gain_grid = -I / rho_f
        resid = float(np.max(np.abs(np.gradient(-I, dx) + (h - hb) * rho)))
        potential = cumulative_simpson(gain_grid, dx)
        potential -= np.trapezoid(potential * rho, g)
        diagnostics["centring"] = float(abs(np.trapezoid(potential * rho, g)))
    elif rhs_kind == "fpf_psi":
        # integrate by parts with rbar = h2bar - hbar^2 (the weak-form
        # value): rho psi' = S - (h + hbar) I, S = int (h^2 - h2bar) rho,
        # I = int (h - hbar) rho; the residual checks it against the direct
        # rhs (r - rbar) rho with r = h' K
        h2b = float(np.trapezoid(h * h * rho, g))
        S = cumulative_simpson((h * h - h2b) * rho, dx)
        rho_psi_p = S - (h + hb) * I
        gain_grid = rho_psi_p / rho_f
        r = model.obs_grad(x2)[:, 0] * (-I / rho_f)
        rb = h2b - hb * hb
        resid = float(np.max(np.abs(np.gradient(rho_psi_p, dx) - (r - rb) * rho)))
    else:
        h2b = float(np.trapezoid(h * h * rho, g))
        I = cumulative_simpson(0.5 * (h * h - h2b) * rho, dx)
        gain_grid = I / rho_f
        resid = float(np.max(np.abs(np.gradient(I, dx) - 0.5 * (h * h - h2b) * rho)))
    if abs(I[-1]) > 1e-6:
        raise UnresolvedTail(f"residual rhs integral {I[-1]:.3e}")
    at = None
    if particles is not None:
        xs = np.asarray(particles, dtype=float).reshape(-1)
        at = np.interp(xs, g, gain_grid).reshape(-1, 1)
    return GainField(at_particles=at, gain_grid=gain_grid,
                     diagnostics={"residual": resid, **diagnostics})


def oracle_fpf(x, model, kde_opts=None, eps_floor=EPS_RHO):
    """The 1D FPF coefficients (a, K) at the particles x (n, 1) from the
    FPF's own two solves: K = grad phi and a = -(h + hbar) K / 2 +
    grad psi / 2, formed on the grid with the grid hbar."""
    density = oracle_kde(x, **(kde_opts or {}))
    phi = oracle_integral(density, model, "fpf_phi", eps_floor=eps_floor)
    psi = oracle_integral(density, model, "fpf_psi", eps_floor=eps_floor)
    g = density.grid
    h = model.obs(g.reshape(-1, 1))
    hb = float(np.trapezoid(h * density.values, g))
    a_grid = -0.5 * phi.gain_grid * (h + hb) + 0.5 * psi.gain_grid
    return (np.interp(x[:, 0], g, a_grid).reshape(-1, 1),
            np.interp(x[:, 0], g, phi.gain_grid).reshape(-1, 1))


def oracle_kushner(theta, drift_g, h_g, w, dx, dt_sub, nsub, slope):
    lo, up, diag, moments, operator_ok = _kernels._build_operator(
        drift_g, h_g, w, dx, dt_sub, slope)
    clip = not (operator_ok and theta.min() >= 0.0)
    G = theta.shape[0]
    work = _kernels._aligned_rows(4, G)
    u, new, scale, band = work[0], work[1], work[2], work[3, :-1]
    u[:] = theta
    cur, nxt = (u, u[:-1], u[1:]), (new, new[:-1], new[1:])
    neg = np.empty(G, dtype=bool)
    nclip = 0
    for _ in range(nsub):
        (u, u_head, u_tail), (new, new_head, new_tail) = cur, nxt
        m0, m1, m2 = moments.dot(u).tolist()
        if not 0.0 < m0 < math.inf:     # no mass left: a non-finite state
            return np.full_like(u, math.nan), nclip
        np.add(diag, dt_sub * (0.5 * m2 - slope * m1) / m0, out=scale)
        np.multiply(u, scale, out=new)
        np.multiply(lo, u_head, out=band)        # new_i += lo_i u_{i-1}
        new_tail += band
        np.multiply(up, u_tail, out=band)        # new_i += up_i u_{i+1}
        new_head += band
        if clip:
            np.less(new, 0.0, out=neg)
            c = np.count_nonzero(neg)
            if c:
                nclip += c
                new[neg] = 0.0
        cur, nxt = nxt, cur
    u = cur[0]
    mass = float(np.dot(w, u))
    if not 0.0 < mass < math.inf:
        return np.full_like(u, math.nan), nclip
    # a fresh array, never a work row: callers keep what is returned
    return np.divide(u, mass), nclip


def oracle_pairwise_grad_field(targets, sources, mc, eps):
    T, d = targets.shape
    out = np.zeros((T, d))
    chunk = max(1, int(4e6) // max(1, sources.shape[0]))
    for s in range(0, T, chunk):
        e = min(T, s + chunk)
        diff = sources[None, :, :] - targets[s:e, None, :]   # (c, N, d)
        r = np.sqrt(np.sum(diff * diff, axis=2))             # (c, N)
        mask = r > 0.0
        rc = np.maximum(r, eps)
        w = np.where(mask, mc[None, :] / rc**d, 0.0)
        out[s:e] = np.einsum("cn,cnd->cd", w, diff)
    return out


def oracle_kde_eval_points(points, sources, bw):
    T, d = points.shape
    N = sources.shape[0]
    norm = 1.0 / (N * np.prod(bw * np.sqrt(2.0 * np.pi)))
    out = np.empty(T)
    chunk = max(1, int(4e6) // max(1, N))
    for s in range(0, T, chunk):
        e = min(T, s + chunk)
        z = (points[s:e, None, :] - sources[None, :, :]) / bw[None, None, :]
        out[s:e] = np.sum(np.exp(-0.5 * np.sum(z * z, axis=2)), axis=1)
    return out * norm


def oracle_fundamental_mc(x, model, eps_floor=EPS_RHO):
    """The d >= 2 Crisan & Xiong row as three passes over the pairs: the
    beta field, the alpha field (each centred and scaled by 1/(N omega_d))
    and the product-Gaussian KDE at the particles."""
    def field(m_values):
        n, d = x.shape
        m = np.asarray(m_values, dtype=float).reshape(-1)
        raw = oracle_pairwise_grad_field(x, x, m - m.mean(),
                                         float(n ** (-1.0 / d)))
        return raw / (n * unit_sphere_area(d))

    n, d = x.shape
    h = model.obs(x)
    sig = np.std(x, axis=0, ddof=1)
    bw = sig * (4.0 / ((d + 2.0) * n)) ** (1.0 / (d + 4.0))
    vals = oracle_kde_eval_points(x, x, bw)
    rho_f = np.maximum(vals, eps_floor)
    return ((field(-0.5 * h * h) / rho_f[:, None],
             field(h) / rho_f[:, None]),
            {"epsilon": float(n ** (-1.0 / d)),
             "floor_frac": float(np.mean(vals < eps_floor))})


# ---------------------------------------------------------------------------
# drawn inputs

@st.composite
def clouds(draw, d, n_min=8, n_max=400):
    """An (n, d) cloud from a seeded draw: normal, heavy-tailed or uniform,
    scaled and shifted."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(n_min, n_max))
    shape = draw(st.sampled_from(["normal", "student", "uniform"]))
    z = {"normal": lambda: rng.standard_normal((n, d)),
         "student": lambda: rng.standard_t(3.0, (n, d)),
         "uniform": lambda: rng.uniform(-1.0, 1.0, (n, d))}[shape]()
    return z * draw(st.floats(0.05, 3.0)) + draw(st.floats(-2.0, 2.0))


def tanh_model(a, b):
    return SystemModel(dim=1, drift=lambda x: -x,
                       obs=lambda x: np.tanh(a * x[:, 0]) + b * x[:, 0],
                       obs_grad=lambda x: a / np.cosh(a * x) ** 2 + b)


@st.composite
def models(draw, d):
    if d == 2:
        return make_linear_gaussian(np.zeros((2, 2)),
                                    [draw(st.floats(0.2, 2.0)),
                                     draw(st.floats(-1.0, 1.0))])
    if draw(st.booleans()):
        return make_linear_gaussian([[-0.5]], [draw(st.floats(0.2, 2.0))])
    return tanh_model(draw(st.floats(0.3, 2.0)), draw(st.floats(0.0, 0.5)))


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:        # the rewrite must raise the same error
        return exc


def _same(a, b) -> bool:
    if a is None or b is None:
        return a is b
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_diagnostics(new: dict, old: dict):
    assert list(new) == list(old)
    for key, value in old.items():
        assert type(new[key]) is type(value), key
        assert _same(new[key], value), (key, new[key], value)


def _assert_same_field(new, old):
    if isinstance(old, Exception) or isinstance(new, Exception):
        assert type(new) is type(old), (new, old)
        return
    assert _same(new.at_particles, old.at_particles)
    assert _same(new.coefficients, old.coefficients)
    assert _same(new.gain_grid, old.gain_grid)
    _assert_same_diagnostics(new.diagnostics, old.diagnostics)


# ---------------------------------------------------------------------------
# properties

def _prior_gain(x, model):
    """The gain a delta_fpf/galerkin row hands its fpf_psi solve."""
    return solve_constant_gain(compute_moments(x, model)).at_particles


@SETTINGS
@given(data=st.data(), d=st.sampled_from([1, 2]),
       rhs_kind=st.sampled_from(DRIFT_KINDS),
       mass=st.sampled_from(["identity", "cov_inverse", "drawn"]))
def test_solve_galerkin_matches_oracle_bitwise(data, d, rhs_kind, mass):
    x = data.draw(clouds(d))
    model = data.draw(models(d))
    m_inv = {"identity": None,
             "cov_inverse": np.atleast_2d(np.cov(x.T)),
             "drawn": np.array([[data.draw(st.floats(0.2, 3.0))]]) if d == 1 else
             np.array([[2.0, data.draw(st.floats(-0.9, 0.9))],
                       [data.draw(st.floats(-0.9, 0.9)), 1.5]])}[mass]
    opts = {"m_inv": m_inv}
    if rhs_kind == "fpf_psi":
        opts["prior_gain"] = _prior_gain(x, model)
    elif data.draw(st.booleans()):
        opts["h"] = model.obs(x)
    new = _outcome(solve_galerkin, x, model, rhs_kind, **opts)
    old = _outcome(oracle_galerkin, x, model, rhs_kind, **opts)
    _assert_same_field(new, old)


@st.composite
def kde_opts(draw):
    opts = {}
    if draw(st.booleans()):
        opts["grid_points"] = draw(st.integers(3, 1200))
    if draw(st.booleans()):
        opts["half_width"] = draw(st.floats(0.5, 12.0))
    if draw(st.booleans()):
        opts["bandwidth"] = draw(st.one_of(st.just("silverman"),
                                           st.floats(0.02, 2.0)))
    if draw(st.booleans()):
        opts["pad_sigmas"] = draw(st.floats(2.0, 10.0))
    return opts


@SETTINGS
@given(x=clouds(1, n_min=2, n_max=3000), opts=kde_opts())
def test_kde_density_1d_matches_oracle_bitwise(x, opts):
    new = _outcome(kde_density_1d, x, **opts)
    old = _outcome(oracle_kde, x, **opts)
    if isinstance(old, Exception) or isinstance(new, Exception):
        assert type(new) is type(old), (new, old)
        return
    new, _ = new
    assert _same(new.grid, old.grid) and _same(new.values, old.values)


@SETTINGS
@given(data=st.data(), x=clouds(1, n_min=50, n_max=3000), opts=kde_opts(),
       rhs_kind=st.sampled_from(RHS_KINDS))
def test_solve_1d_integral_matches_oracle_bitwise(data, x, opts, rhs_kind):
    model = data.draw(models(1))
    density = _outcome(oracle_kde, x, **opts)
    if isinstance(density, Exception):
        return
    kw = {"eps_floor": data.draw(st.sampled_from([EPS_RHO, 1e-12, 1e-4])),
          "particles": x if data.draw(st.booleans()) else None}
    new = _outcome(solve_1d_integral, density, model, rhs_kind, **kw)
    old = _outcome(oracle_integral, density, model, rhs_kind, **kw)
    _assert_same_field(new, old)
    if rhs_kind == "fpf_phi" and not isinstance(old, Exception):
        # the continuous-time row, on the density of its own cloud,
        # differentiates the gain on the grid
        row = ASSEMBLERS["fpf_continuous"]["integral_1d"]
        cs = row(x, model, kde_opts=opts, eps_floor=kw["eps_floor"])
        old = oracle_integral(density, model, "fpf_phi", eps_floor=kw["eps_floor"])
        K = np.interp(x[:, 0], density.grid, old.gain_grid).reshape(-1, 1)
        ito = 0.5 * np.interp(x[:, 0], density.grid,
                              np.gradient(old.gain_grid, density.dx)
                              * old.gain_grid).reshape(-1, 1)
        h = model.obs(x)
        assert _same(cs.K, K)
        assert _same(cs.a, ito + -0.5 * K * (h + h.mean())[:, None])


@pytest.mark.parametrize("n", [10000, 40000])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("mass", ["identity", "cov_inverse"])
@pytest.mark.parametrize("rhs_kind", DRIFT_KINDS)
def test_solve_galerkin_matches_oracle_bitwise_at_run_sizes(n, d, mass, rhs_kind):
    rng = np.random.default_rng(n + 7 * d)
    x = 1.3 * rng.standard_normal((n, d)) + 0.4
    model = (make_linear_gaussian(np.zeros((2, 2)), [1.1, -0.3]) if d == 2
             else tanh_model(1.5, 0.2))
    opts = {"m_inv": None if mass == "identity"
            else np.linalg.inv(np.atleast_2d(np.cov(x.T)))}
    if rhs_kind == "fpf_psi":
        opts["prior_gain"] = _prior_gain(x, model)
    new = _outcome(solve_galerkin, x, model, rhs_kind, **opts)
    old = _outcome(oracle_galerkin, x, model, rhs_kind, **opts)
    assert not isinstance(old, Exception)
    _assert_same_field(new, old)


@pytest.mark.parametrize("n", [10000, 40000])
def test_kde_and_integral_match_oracle_bitwise_at_run_sizes(n):
    rng = np.random.default_rng(n)
    x = 0.8 * rng.standard_t(4.0, (n, 1)) - 0.3
    (new, _), old = kde_density_1d(x), oracle_kde(x)
    assert _same(new.grid, old.grid) and _same(new.values, old.values)
    model = tanh_model(1.5, 0.2)
    for rhs_kind in RHS_KINDS:
        _assert_same_field(
            _outcome(solve_1d_integral, old, model, rhs_kind, particles=x),
            _outcome(oracle_integral, old, model, rhs_kind, particles=x))


def _assert_same_kushner(args):
    (new, new_clips), (old, old_clips) = (_kernels.kushner_substeps_numpy(*args),
                                          oracle_kushner(*args))
    assert np.array_equal(new, old, equal_nan=True)
    assert new_clips == old_clips
    return old, old_clips


@SETTINGS
@given(kushner_calls())
def test_kushner_numpy_matches_oracle_bitwise_on_drawn_calls(args):
    event("certified" if _certified(*args) else "not certified")
    _, clips = _assert_same_kushner(args)
    event("clips" if clips else "no clips")


def test_kushner_numpy_matches_oracle_bitwise_at_zero_mass():
    g = np.linspace(-3.0, 3.0, 61)
    w = np.full(g.size, g[1] - g[0])
    w[[0, -1]] *= 0.5
    out, clips = _assert_same_kushner((np.zeros(g.size), -g, np.tanh(g), w,
                                       g[1] - g[0], 0.4 * w[1] ** 2, 5, 0.7))
    assert np.isnan(out).all() and clips == 0


@pytest.mark.parametrize("points, obs", [(2001, lambda g: g), (1201, np.tanh)])
def test_kushner_numpy_matches_oracle_bitwise_at_run_sizes(points, obs):
    """Three fine steps per slope on the ou_theory (2001 points, 70
    substeps) and nonlinear_tanh (1201 points, 26 substeps) grids, with
    read-only drift, h and w as the reference passes them, so that the
    kernel reuses its operator; the last slope clips."""
    g = np.linspace(-6.0, 6.0, points)
    dx = g[1] - g[0]
    nsub = substeps_per_fine_step(Density1D(g, np.ones(points)), 1e-3)
    assert nsub == {2001: 70, 1201: 26}[points]
    w = np.full(points, dx)
    w[[0, -1]] *= 0.5
    drift, h = -g, obs(g)
    for a in (drift, h, w):
        a.flags.writeable = False
    theta = np.exp(-g ** 2 / 2)
    theta /= np.dot(w, theta)
    clips = []
    for slope in (0.5, -2.0, 3e4):
        for _ in range(3):
            theta, nclip = _assert_same_kushner((theta, drift, h, w, dx,
                                                 1e-3 / nsub, nsub, slope))
            clips.append(nclip)
    assert clips[:6] == [0] * 6 and min(clips[6:]) > 0


def _tanh_nd(d):
    """h = tanh(x_1) + x_2 / 2 on R^d."""
    return SystemModel(dim=d, drift=lambda x: -x,
                       obs=lambda x: np.tanh(x[:, 0]) + 0.5 * x[:, 1],
                       obs_grad=None)


def _fundamental_cloud(kind, d):
    rng = np.random.default_rng(40 + d)
    x = rng.standard_normal((300, d)) * np.linspace(1.5, 0.4, d) + 0.2
    if kind == "duplicates":        # exact self-interactions between particles
        x[200:260] = x[:60]
    elif kind == "small_scale":
        x *= 1e-3
    return x


@pytest.mark.parametrize("block", ["PAIR_BLOCK", 7])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("kind, eps_floor", [("anisotropic", 0.02),
                                             ("duplicates", EPS_RHO),
                                             ("small_scale", EPS_RHO)])
def test_fundamental_mc_matches_three_pass_oracle_bitwise(monkeypatch, block,
                                                          d, kind, eps_floor):
    """The one-pass row against the three passes, at the kernel's block
    (several blocks of rows here) and at a block smaller than one row of
    pairs (one target per block); the floor of 0.02 lifts some of the
    anisotropic cloud's tail."""
    if block != "PAIR_BLOCK":
        monkeypatch.setattr(_kernels, "PAIR_BLOCK", block)
    assert _kernels.PAIR_BLOCK < 300 * 300
    x, model = _fundamental_cloud(kind, d), _tanh_nd(d)
    cs = assemble_filter_coefficients("crisan_xiong", x, model,
                                      "fundamental_mc", eps_floor=eps_floor)
    (a, K), diagnostics = oracle_fundamental_mc(x, model, eps_floor)
    assert _same(cs.a, a) and _same(cs.K, K)
    _assert_same_diagnostics(cs.diagnostics, diagnostics)
    if kind == "anisotropic":
        assert 0.0 < diagnostics["floor_frac"] < 1.0
