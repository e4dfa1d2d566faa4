"""Hot numeric kernels, numba-compiled with a pure-numpy fallback.

Backend selection: numba is used when importable unless the environment
variable ``FLOWFILTER_NUMBA`` is set to 0/false/off, in which case the
numpy implementations are bound instead.  Both backends are always
importable under their ``*_numpy`` / ``*_numba`` names so they can be
compared directly (see tests/test_kernels.py and benchmarks/).

Summation order is fixed within each backend, so results are independent
of thread count; switching backends may change the last bits (documented
in the README).

The linear deposit returns (counts, cells) from both backends: the
binned counts and the int64 cell index each position was binned by, which
the KDE hands on so that the particles' grid intervals start from it
(gain.GridIntervals).  The fundamental pass returns (beta, alpha, kde),
the d >= 2 Crisan & Xiong row's two field sums and its KDE sum from one
pass over the particle pairs.
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
    """Deposit unit mass per position onto a uniform grid with linear
    weights: (counts, cells), cells the cell index floor((x - lo) / dx)
    held to [0, nbins - 2] that each position was binned by."""
    pos = np.subtract(positions, lo)
    pos /= dx
    # the index clipped as floats, so that pos - index subtracts two float
    # arrays (an int64 operand would be cast on the way); same values
    cell = np.floor(pos)
    np.clip(cell, 0, nbins - 2, out=cell)
    idx = cell.astype(np.int64)
    frac = np.clip(np.subtract(pos, cell, out=pos), 0.0, 1.0, out=pos)
    out = np.bincount(idx, weights=1.0 - frac, minlength=nbins)
    # the upper weights binned by idx, one bin up: the sums of binning them
    # by idx + 1, without that index array (idx <= nbins - 2, so the last
    # bin of this count is empty)
    out[1:] += np.bincount(idx, weights=frac, minlength=nbins)[:-1]
    return out, idx


def _deposit_linear_impl(positions, lo, dx, nbins):
    out = np.zeros(nbins)
    cells = np.empty(positions.shape[0], dtype=np.int64)
    for k in range(positions.shape[0]):
        pos = (positions[k] - lo) / dx
        i = int(np.floor(pos))
        if i < 0:
            i = 0
        elif i > nbins - 2:
            i = nbins - 2
        cells[k] = i
        frac = pos - i
        if frac < 0.0:
            frac = 0.0
        elif frac > 1.0:
            frac = 1.0
        out[i] += 1.0 - frac
        out[i + 1] += frac
    return out, cells


# ---------------------------------------------------------------------------
# one pass over the particle pairs of the Crisan & Xiong row (d >= 2)
#
# For each target x_t, over the sources y_i, with diff = y_i - x_t:
#   beta[t]  = sum_i diff * m_beta_i / max(|diff|, eps)^d
#   alpha[t] = sum_i diff * m_alpha_i / max(|diff|, eps)^d
#   kde[t]   = sum_i exp(-|diff / bw|^2 / 2)
# the two fields skipping exact self-interactions (|diff| == 0).  The caller
# scales the fields by 1/(N omega_d) and the sum by the Gaussian norm.  The
# numpy kernel takes the targets in blocks of about PAIR_BLOCK pairs and
# builds each block's differences, distances, self-interaction mask and
# max(|diff|, eps)^d once for all three sums; each sum keeps the arithmetic
# of its own pass (the Gaussian's x_t - y_i is -diff, the same square), so
# tests/test_bitwise.py holds the kernel bit for bit to three passes.  A
# block of 3e4 pairs (480 KB of differences at d = 2) fits a 2 MB L2: on
# 2D and 3D clouds of 1000 and 4000 (numpy, one core of a Xeon host) the
# Crisan & Xiong row took 11-23% less time than with blocks of 2.5e5 or
# 1e6 pairs, and blocks of 1e4 were no faster.

PAIR_BLOCK = 30_000


def fundamental_pass_numpy(targets, sources, m_beta, m_alpha, eps, bw):
    """(beta, alpha, kde): the two (T, d) fields and the (T,) Gaussian
    sum at the targets, from one pass over the pairs."""
    T, d = targets.shape
    beta, alpha, kde = np.empty((T, d)), np.empty((T, d)), np.empty(T)
    chunk = max(1, PAIR_BLOCK // max(1, sources.shape[0]))
    for s in range(0, T, chunk):
        e = min(T, s + chunk)
        diff = sources[None, :, :] - targets[s:e, None, :]   # (c, N, d)
        r = np.sqrt(np.sum(diff * diff, axis=2))             # (c, N)
        mask = r > 0.0
        rcd = np.maximum(r, eps) ** d
        w = np.where(mask, m_beta[None, :] / rcd, 0.0)
        beta[s:e] = np.einsum("cn,cnd->cd", w, diff)
        w = np.where(mask, m_alpha[None, :] / rcd, 0.0)
        alpha[s:e] = np.einsum("cn,cnd->cd", w, diff)
        z = diff / bw
        kde[s:e] = np.sum(np.exp(-0.5 * np.sum(z * z, axis=2)), axis=1)
    return beta, alpha, kde


def _fundamental_pass_impl(targets, sources, m_beta, m_alpha, eps, bw):
    T, d = targets.shape
    N = sources.shape[0]
    beta = np.zeros((T, d))
    alpha = np.zeros((T, d))
    kde = np.empty(T)
    for t in prange(T):
        acc = 0.0
        for i in range(N):
            r2 = 0.0
            q = 0.0
            for j in range(d):
                dj = sources[i, j] - targets[t, j]
                r2 += dj * dj
                z = dj / bw[j]
                q += z * z
            acc += np.exp(-0.5 * q)
            if r2 == 0.0:
                continue
            r = np.sqrt(r2)
            if r < eps:
                r = eps
            rd = r**d
            wb = m_beta[i] / rd
            wa = m_alpha[i] / rd
            for j in range(d):
                dj = sources[i, j] - targets[t, j]
                beta[t, j] += dj * wb
                alpha[t, j] += dj * wa
        kde[t] = acc
    return beta, alpha, kde


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
# same scheme as F_i = P_i theta_i + Q_i theta_{i+1}, one tridiagonal
# operator per substep that depends only on drift, h, w, dx, dt and slope:
#   new = u (diag + dt (m2/2 - slope m1) / m0) + lo u_{i-1} + up u_{i+1}
# to an unnormalised u, with (m0, m1, m2) = (w.u, w.h u, w.h^2 u) from one
# (3, G) matvec.  The shift reads only the ratios hbar = m1/m0 and
# h2bar = m2/m0, the operator is linear and clipping commutes with a
# positive scale, so this is the renormalised scheme in exact arithmetic;
# u is divided by its mass once, when the call returns.  Where the bands,
# theta and diag - 2 dt |slope| max|h| are nonnegative every new cell is a
# sum of products of nonnegatives (|hbar| <= max|h|, h2bar >= 0), so the
# clip test is skipped.  The sums are grouped unlike the flux form's, so
# the two agree to a few ulps of max|theta| (within 1e-12 in
# tests/test_kernels.py), not bitwise.
#
# The operator (bands, moment rows, the operator half of the no-clip
# certificate) is built once per (drift, h, w, dx, dt, slope) when the three
# arrays are read-only: a one-slot cache keeps the last build and its arrays,
# compared by identity, so a mesh interval's fine steps share it; a writeable
# array may have changed, so it is rebuilt every call.  A substep is seven
# numpy calls on names bound once per call, `out` passed positionally, u and
# new swapped by rebinding names: about 6.8 us at G = 2001, nearly all of it
# numpy's per-call cost.  Work rows are allocated per call on 64-byte
# boundaries (numpy aligns to 16 bytes; rows 8 or 16 bytes past one ran a
# substep about 30% slower: "rows at +N B" in benchmarks/bench_kernels.py),
# and the cached operator is read-only, so concurrent calls share no state.

_ALIGN = 64 // 8          # doubles per cache line


def _aligned_rows(n, length):
    """An (n, length) float64 array, uninitialised, whose rows each start
    on a 64-byte boundary: one allocation with slack, sliced at the
    aligned offset.  With n = 1 and a reshape it gives one contiguous
    block with an aligned start."""
    stride = -(-length // _ALIGN) * _ALIGN
    buf = np.empty(n * stride + _ALIGN - 1)
    skip = (-buf.ctypes.data % (8 * _ALIGN)) // 8
    return buf[skip:skip + n * stride].reshape(n, stride)[:, :length]


def _build_operator(drift_g, h_g, w, dx, dt_sub, slope):
    """(lo, up, diag, moments, operator_ok): the bands, the diagonal, the
    (3, G) moment block and the operator half of the no-clip certificate,
    every array read-only."""
    G = drift_g.shape[0]
    P = 0.5 * drift_g[:-1] + 0.5 / dx
    Q = 0.5 * drift_g[1:] - 0.5 / dx
    rows = _aligned_rows(3, G)
    lo, up, diag = rows[0, :-1], rows[1, :-1], rows[2]
    np.multiply(dt_sub / dx, P, out=lo)
    np.multiply(-dt_sub / dx, Q, out=up)
    diag[0] = -P[0]
    diag[1:-1] = Q[:-1] - P[1:]
    diag[-1] = Q[-1]
    np.add(1.0, dt_sub * (diag / dx + (slope - 0.5 * h_g) * h_g), out=diag)
    moments = _aligned_rows(1, 3 * G)[0].reshape(3, G)   # rows w, w h, w h^2
    moments[0] = w
    np.multiply(w, h_g, out=moments[1])
    np.multiply(moments[1], h_g, out=moments[2])
    # a nan input makes a min or max nan, and the comparison False
    operator_ok = bool(lo.min() >= 0.0 and up.min() >= 0.0 and diag.min()
                       > 2.0 * dt_sub * abs(slope) * np.abs(h_g).max())
    for a in (lo, up, diag, moments):
        a.flags.writeable = False
    return lo, up, diag, moments, operator_ok


_prepared = None          # (drift_g, h_g, w, (dx, dt_sub, slope), operator)


def _operator(drift_g, h_g, w, dx, dt_sub, slope):
    """The operator of _build_operator, from the one-slot cache where the
    arrays are read-only and match the last build."""
    global _prepared
    if drift_g.flags.writeable or h_g.flags.writeable or w.flags.writeable:
        return _build_operator(drift_g, h_g, w, dx, dt_sub, slope)
    key = (dx, dt_sub, slope)
    last = _prepared
    if (last is not None and last[0] is drift_g and last[1] is h_g
            and last[2] is w and last[3] == key):
        return last[4]
    op = _build_operator(drift_g, h_g, w, dx, dt_sub, slope)
    _prepared = (drift_g, h_g, w, key, op)
    return op


def kushner_substeps_numpy(theta, drift_g, h_g, w, dx, dt_sub, nsub, slope):
    lo, up, diag, moments, operator_ok = _operator(drift_g, h_g, w, dx,
                                                   dt_sub, slope)
    clip = not (operator_ok and theta.min() >= 0.0)
    G = theta.shape[0]
    work = _aligned_rows(4, G)
    u, new, scale, band = work[0], work[1], work[2], work[3, :-1]
    u[:] = theta
    u_head, u_tail, new_head, new_tail = u[:-1], u[1:], new[:-1], new[1:]
    neg = np.empty(G, dtype=bool) if clip else None
    m = np.empty(3)
    add, multiply, dot, inf = np.add, np.multiply, moments.dot, math.inf
    nclip = 0
    for _ in range(nsub):
        m0, m1, m2 = dot(u, m).tolist()
        if not 0.0 < m0 < inf:          # no mass left: a non-finite state
            return np.full_like(u, math.nan), nclip
        add(diag, dt_sub * (0.5 * m2 - slope * m1) / m0, scale)
        multiply(u, scale, new)
        multiply(lo, u_head, band)               # new_i += lo_i u_{i-1}
        add(new_tail, band, new_tail)
        multiply(up, u_tail, band)               # new_i += up_i u_{i+1}
        add(new_head, band, new_head)
        if clip:
            np.less(new, 0.0, neg)
            c = np.count_nonzero(neg)
            if c:
                nclip += c
                new[neg] = 0.0
        u, new = new, u
        u_head, new_head = new_head, u_head
        u_tail, new_tail = new_tail, u_tail
    mass = float(np.dot(w, u))
    if not 0.0 < mass < math.inf:
        return np.full_like(u, math.nan), nclip
    # a fresh array, never a work row: callers keep what is returned
    return np.divide(u, mass), nclip


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
    fundamental_pass_numba = njit(parallel=True, cache=True)(_fundamental_pass_impl)
    kushner_substeps_numba = njit(cache=True)(_kushner_substeps_impl)

    deposit_linear = deposit_linear_numba
    fundamental_pass = fundamental_pass_numba
    kushner_substeps = kushner_substeps_numba
else:
    deposit_linear = deposit_linear_numpy
    fundamental_pass = fundamental_pass_numpy
    kushner_substeps = kushner_substeps_numpy
