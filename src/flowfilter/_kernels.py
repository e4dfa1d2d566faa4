"""Hot numeric kernels, numba-compiled with a pure-numpy fallback.

Backend selection: numba is used when importable unless the environment
variable ``FLOWFILTER_NUMBA`` is set to 0/false/off, in which case the
numpy implementations are bound instead.  Both backends are always
importable under their ``*_numpy`` / ``*_numba`` names so they can be
compared directly (see tests/test_kernels.py and benchmarks/).

Summation order is fixed within each backend, so results are independent
of thread count; switching backends may change the last bits (documented
in the README).
"""

import math
import os

import numpy as np


def _want_numba() -> bool:
    flag = os.environ.get("FLOWFILTER_NUMBA", "1").strip().lower()
    return flag not in ("0", "false", "off", "no")


try:
    from numba import njit, prange

    _HAVE_NUMBA = True
except ImportError:  # numba is the optional extra `numba`
    _HAVE_NUMBA = False
    prange = range      # so the loops below also run as plain Python

NUMBA_ENABLED = _HAVE_NUMBA and _want_numba()
BACKEND = "numba" if NUMBA_ENABLED else "numpy"


# ---------------------------------------------------------------------------
# linear binning (1D KDE deposition)

def deposit_linear_numpy(positions, lo, dx, nbins):
    """Deposit unit mass per position onto a uniform grid with linear weights."""
    pos = (positions - lo) / dx
    idx = np.floor(pos).astype(np.int64)
    np.clip(idx, 0, nbins - 2, out=idx)
    frac = np.clip(pos - idx, 0.0, 1.0)
    out = np.bincount(idx, weights=1.0 - frac, minlength=nbins)
    out += np.bincount(idx + 1, weights=frac, minlength=nbins)
    return out


def _deposit_linear_impl(positions, lo, dx, nbins):
    out = np.zeros(nbins)
    for k in range(positions.shape[0]):
        pos = (positions[k] - lo) / dx
        i = int(np.floor(pos))
        if i < 0:
            i = 0
        elif i > nbins - 2:
            i = nbins - 2
        frac = pos - i
        if frac < 0.0:
            frac = 0.0
        elif frac > 1.0:
            frac = 1.0
        out[i] += 1.0 - frac
        out[i + 1] += frac
    return out


# ---------------------------------------------------------------------------
# pairwise fundamental-solution field (Crisan & Xiong, d >= 2)
#
# out[t] = sum_i (y_i - x_t) * mc_i / max(|y_i - x_t|, eps)^d, skipping
# exact self-interactions (|y_i - x_t| == 0).  Scaling by 1/(N * omega_d)
# is applied by the caller.

def pairwise_grad_field_numpy(targets, sources, mc, eps):
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


def _pairwise_grad_field_impl(targets, sources, mc, eps):
    T, d = targets.shape
    N = sources.shape[0]
    out = np.zeros((T, d))
    for t in prange(T):
        for i in range(N):
            r2 = 0.0
            for j in range(d):
                dj = sources[i, j] - targets[t, j]
                r2 += dj * dj
            if r2 == 0.0:
                continue
            r = np.sqrt(r2)
            if r < eps:
                r = eps
            w = mc[i] / r**d
            for j in range(d):
                out[t, j] += (sources[i, j] - targets[t, j]) * w
    return out


# ---------------------------------------------------------------------------
# product-Gaussian KDE evaluated at points (d >= 2 Crisan 1/rho factor)

def kde_eval_points_numpy(points, sources, bw):
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


def _kde_eval_points_impl(points, sources, bw):
    T, d = points.shape
    N = sources.shape[0]
    norm = 1.0
    for j in range(d):
        norm *= bw[j] * np.sqrt(2.0 * np.pi)
    norm = 1.0 / (N * norm)
    out = np.empty(T)
    for t in prange(T):
        acc = 0.0
        for i in range(N):
            q = 0.0
            for j in range(d):
                z = (points[t, j] - sources[i, j]) / bw[j]
                q += z * z
            acc += np.exp(-0.5 * q)
        out[t] = acc * norm
    return out


# ---------------------------------------------------------------------------
# explicit Kushner-Stratonovich substeps on a uniform 1D grid
#
# d theta = (-(M theta)' + theta''/2 - (h^2 - h2bar) theta / 2
#            + (h - hbar) theta * slope) dt
# conservative flux form with zero-flux boundaries; negatives clipped and
# the density renormalised (trapezoid) after every substep.
#
# The numba loop below keeps the flux form
# F_i = (M_i theta_i + M_{i+1} theta_{i+1}) / 2 - (theta_{i+1} - theta_i) / (2 dx)
# and divides by the mass after every substep.  The numpy kernel writes the
# same scheme as F_i = P_i theta_i + Q_i theta_{i+1} and applies one
# tridiagonal operator per substep, built once per call because drift, h,
# dt and slope are fixed within it:
#   new = u (diag + dt (m2/2 - slope m1) / m0) + lo u_{i-1} + up u_{i+1}
# to an unnormalised u, with (m0, m1, m2) = (w.u, w.h u, w.h^2 u) from one
# (3, G) matvec.  The shift reads only the ratios hbar = m1/m0 and
# h2bar = m2/m0, the operator is linear and clipping commutes with a
# positive scale, so this is the renormalised scheme in exact arithmetic;
# u is divided by its mass once, when the call returns.  Where the bands,
# theta and diag - 2 dt |slope| max|h| are nonnegative every new cell is a
# sum of products of nonnegatives (|hbar| <= max|h|, h2bar >= 0), so the
# clip test is skipped.  The grouping of the sums differs from the flux
# form, so the two agree to a few ulps of max|theta| (tests/test_kernels.py
# holds them to 1e-12), not bitwise.

def kushner_substeps_numpy(theta, drift_g, h_g, w, dx, dt_sub, nsub, slope):
    P = 0.5 * drift_g[:-1] + 0.5 / dx
    Q = 0.5 * drift_g[1:] - 0.5 / dx
    lo = (dt_sub / dx) * P
    up = (-dt_sub / dx) * Q
    diag = np.empty_like(theta)
    diag[0] = -P[0]
    diag[1:-1] = Q[:-1] - P[1:]
    diag[-1] = Q[-1]
    diag = 1.0 + dt_sub * (diag / dx + (slope - 0.5 * h_g) * h_g)
    moments = np.empty((3, theta.shape[0]))       # rows w, w h, w h^2
    moments[0] = w
    np.multiply(w, h_g, out=moments[1])
    np.multiply(moments[1], h_g, out=moments[2])
    # the no-clip certificate; a nan input makes its min or max nan, and
    # the comparison False
    clip = not (lo.min() >= 0.0 and up.min() >= 0.0 and theta.min() >= 0.0
                and diag.min() > 2.0 * dt_sub * abs(slope) * np.abs(h_g).max())
    u = theta.copy()
    new = np.empty_like(u)
    cur, nxt = (u, u[:-1], u[1:]), (new, new[:-1], new[1:])
    scale = np.empty_like(u)
    band = np.empty(u.shape[0] - 1)
    neg = np.empty(u.shape[0], dtype=bool)
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
    return np.divide(u, mass, out=u), nclip


def _kushner_substeps_impl(theta, drift_g, h_g, w, dx, dt_sub, nsub, slope):
    G = theta.shape[0]
    th = theta.copy()
    flux = np.empty(G - 1)
    nclip = 0
    for _ in range(nsub):
        hbar = 0.0
        h2bar = 0.0
        for i in range(G):
            hbar += w[i] * th[i] * h_g[i]
            h2bar += w[i] * th[i] * h_g[i] * h_g[i]
        for i in range(G - 1):
            flux[i] = 0.5 * (drift_g[i] * th[i] + drift_g[i + 1] * th[i + 1]) \
                - 0.5 * (th[i + 1] - th[i]) / dx
        new = np.empty(G)
        for i in range(G):
            if i == 0:
                adv = -flux[0] / dx
            elif i == G - 1:
                adv = flux[G - 2] / dx
            else:
                adv = -(flux[i] - flux[i - 1]) / dx
            react = (-0.5 * (h_g[i] * h_g[i] - h2bar) + (h_g[i] - hbar) * slope) * th[i]
            v = th[i] + dt_sub * (adv + react)
            if v < 0.0:
                nclip += 1
                v = 0.0
            new[i] = v
        mass = 0.0
        for i in range(G):
            mass += w[i] * new[i]
        for i in range(G):
            th[i] = new[i] / mass
    return th, nclip


# ---------------------------------------------------------------------------
# backend binding

if NUMBA_ENABLED:
    deposit_linear_numba = njit(cache=True)(_deposit_linear_impl)
    pairwise_grad_field_numba = njit(parallel=True, cache=True)(_pairwise_grad_field_impl)
    kde_eval_points_numba = njit(parallel=True, cache=True)(_kde_eval_points_impl)
    kushner_substeps_numba = njit(cache=True)(_kushner_substeps_impl)

    deposit_linear = deposit_linear_numba
    pairwise_grad_field = pairwise_grad_field_numba
    kde_eval_points = kde_eval_points_numba
    kushner_substeps = kushner_substeps_numba
else:
    deposit_linear = deposit_linear_numpy
    pairwise_grad_field = pairwise_grad_field_numpy
    kde_eval_points = kde_eval_points_numpy
    kushner_substeps = kushner_substeps_numpy
