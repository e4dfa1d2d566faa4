#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks, and the
1D integral-gain grid work against the scipy/numpy calls it replaces.

Run:  python benchmarks/bench_kernels.py
The numba path is what FLOWFILTER_NUMBA=1 (default) binds; the numpy
column is the FLOWFILTER_NUMBA=0 fallback.  Times are best-of-repeat
seconds per call; first numba call compiles, so kernels are warmed first.
"""

import timeit

import numpy as np
from scipy.integrate import cumulative_simpson

from flowfilter import _kernels, gain


def best(fn, args, number, repeat):
    return min(timeit.repeat(lambda: fn(*args), number=number,
                             repeat=repeat)) / number


def bench(name, fn_numpy, fn_numba, args, number=5, repeat=3):
    t_np = best(fn_numpy, args, number, repeat)
    if fn_numba is None:
        print(f"{name:28s} numpy {t_np * 1e3:9.3f} ms   numba    (disabled)")
        return
    fn_numba(*args)                      # warm the JIT cache
    t_nb = best(fn_numba, args, number, repeat)
    print(f"{name:28s} numpy {t_np * 1e3:9.3f} ms   numba {t_nb * 1e3:9.3f} ms"
          f"   speedup {t_np / t_nb:6.1f}x")


def bench_replacement(name, fn, fn_replaced, args, number=200, repeat=5):
    t_new = best(fn, args, number, repeat)
    t_old = best(fn_replaced, args, number, repeat)
    print(f"{name:28s} flowfilter {t_new * 1e3:7.3f} ms   replaced "
          f"{t_old * 1e3:7.3f} ms   speedup {t_old / t_new:6.1f}x")


def main():
    rng = np.random.default_rng(7)
    print(f"active backend: {_kernels.BACKEND}\n")

    xs = rng.standard_normal(100_000)
    bench("deposit_linear (1e5 -> 801)",
          _kernels.deposit_linear_numpy,
          getattr(_kernels, "deposit_linear_numba", None),
          (xs, -6.0, 12.0 / 800, 801))

    pts = rng.standard_normal((2000, 2))
    src = rng.standard_normal((2000, 2))
    mc = rng.standard_normal(2000)
    bench("pairwise_grad_field (2k^2)",
          _kernels.pairwise_grad_field_numpy,
          getattr(_kernels, "pairwise_grad_field_numba", None),
          (pts, src, mc, 0.02))

    bw = np.array([0.3, 0.3])
    bench("kde_eval_points (2k^2)",
          _kernels.kde_eval_points_numpy,
          getattr(_kernels, "kde_eval_points_numba", None),
          (pts, src, bw))

    G = 1201
    grid = np.linspace(-6, 6, G)
    theta = np.exp(-grid**2 / 2)
    theta /= np.trapezoid(theta, grid)
    w = np.full(G, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    drift = -grid
    h = np.tanh(grid)
    bench("kushner_substeps (1201x200)",
          _kernels.kushner_substeps_numpy,
          getattr(_kernels, "kushner_substeps_numba", None),
          (theta, drift, h, w, grid[1] - grid[0], 2e-5, 200, 0.5),
          number=2)

    # one integral_1d step's grid work: N = 1e4 particles, an 801-point grid
    grid = np.linspace(-6.0, 6.0, 801)
    xs = rng.standard_normal(10_000)
    K, a = np.sin(grid), np.cos(grid)
    bench_replacement("cumulative_simpson (801)",
                      gain.cumulative_simpson,
                      lambda y, dx: cumulative_simpson(y, dx=dx, initial=0.0),
                      (K, grid[1] - grid[0]))
    bench_replacement("interval gather K, a (1e4)",
                      lambda x, g: [gain.GridIntervals(g, x).interp(f)
                                    for f in (K, a)],
                      lambda x, g: [np.interp(x, g, f) for f in (K, a)],
                      (xs, grid))


if __name__ == "__main__":
    main()
