#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks, and the
1D integral-gain grid work against the scipy/numpy calls it replaces.

Run:  python benchmarks/bench_kernels.py [--out PATH]
The numba path is what FLOWFILTER_NUMBA=1 (default) binds; the numpy
column is the FLOWFILTER_NUMBA=0 fallback.  Times are best-of-repeat
seconds per call; first numba call compiles, so kernels are warmed first.
The Kushner rows also give microseconds per substep.  With --out, the rows
and an environment block (backend, Python, numpy and scipy versions,
nproc) are written to PATH as JSON.  To compare two versions of the
library, run this same script with each one first on PYTHONPATH.
"""

import argparse
import json
import math
import os
import platform
import timeit

import numpy as np
import scipy
from scipy.integrate import cumulative_simpson

from flowfilter import _kernels, gain


def best(fn, args, number, repeat):
    return min(timeit.repeat(lambda: fn(*args), number=number,
                             repeat=repeat)) / number


def bench(name, fn_numpy, fn_numba, args, number=5, repeat=3, substeps=None):
    row = {"name": name, "numpy_s": best(fn_numpy, args, number, repeat),
           "numba_s": None}
    if fn_numba is not None:
        fn_numba(*args)                  # warm the JIT cache
        row["numba_s"] = best(fn_numba, args, number, repeat)
    line = f"{name:28s} numpy {row['numpy_s'] * 1e3:9.3f} ms"
    if row["numba_s"] is None:
        line += "   numba    (disabled)"
    else:
        line += (f"   numba {row['numba_s'] * 1e3:9.3f} ms"
                 f"   speedup {row['numpy_s'] / row['numba_s']:6.1f}x")
    if substeps is not None:
        row["numpy_us_per_substep"] = row["numpy_s"] / substeps * 1e6
        line += f"   {row['numpy_us_per_substep']:7.2f} us/substep (numpy)"
        if row["numba_s"] is not None:
            row["numba_us_per_substep"] = row["numba_s"] / substeps * 1e6
    print(line)
    return row


def bench_replacement(name, fn, fn_replaced, args, number=200, repeat=5):
    row = {"name": name, "flowfilter_s": best(fn, args, number, repeat),
           "replaced_s": best(fn_replaced, args, number, repeat)}
    print(f"{name:28s} flowfilter {row['flowfilter_s'] * 1e3:7.3f} ms   replaced "
          f"{row['replaced_s'] * 1e3:7.3f} ms   speedup "
          f"{row['replaced_s'] / row['flowfilter_s']:6.1f}x")
    return row


def kushner_args(points, half_width, drift, obs, dt_sub, nsub, slope):
    """Arguments of one kushner_substeps call from a standard normal
    density on a uniform grid, with the trapezoid weights."""
    grid = np.linspace(-half_width, half_width, points)
    theta = np.exp(-grid**2 / 2)
    theta /= np.trapezoid(theta, grid)
    w = np.full(points, grid[1] - grid[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return (theta, drift(grid), obs(grid), w, grid[1] - grid[0], dt_sub, nsub,
            slope)


def environment() -> dict:
    """The kernel backend, library versions and usable core count."""
    return {"backend": _kernels.BACKEND, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the rows and environment as JSON")
    args = parser.parse_args()
    rng = np.random.default_rng(7)
    print(f"active backend: {_kernels.BACKEND}\n")
    rows = []

    xs = rng.standard_normal(100_000)
    rows.append(bench("deposit_linear (1e5 -> 801)",
                      _kernels.deposit_linear_numpy,
                      getattr(_kernels, "deposit_linear_numba", None),
                      (xs, -6.0, 12.0 / 800, 801)))

    pts = rng.standard_normal((2000, 2))
    src = rng.standard_normal((2000, 2))
    mc = rng.standard_normal(2000)
    rows.append(bench("pairwise_grad_field (2k^2)",
                      _kernels.pairwise_grad_field_numpy,
                      getattr(_kernels, "pairwise_grad_field_numba", None),
                      (pts, src, mc, 0.02)))

    bw = np.array([0.3, 0.3])
    rows.append(bench("kde_eval_points (2k^2)",
                      _kernels.kde_eval_points_numpy,
                      getattr(_kernels, "kde_eval_points_numba", None),
                      (pts, src, bw)))

    rows.append(bench("kushner_substeps (1201x200)",
                      _kernels.kushner_substeps_numpy,
                      getattr(_kernels, "kushner_substeps_numba", None),
                      kushner_args(1201, 6.0, lambda g: -g, np.tanh, 2e-5, 200,
                                   0.5),
                      number=2, substeps=200))
    # the theory_ou shape: configs/ou_theory.json's 2001-point grid, an OU
    # drift and h(x) = x, one fine step of 1e-3 under the CFL bound
    dx = 12.0 / 2000
    nsub = math.ceil(1e-3 / (0.4 * dx * dx))
    rows.append(bench(f"kushner_substeps (2001x{nsub})",
                      _kernels.kushner_substeps_numpy,
                      getattr(_kernels, "kushner_substeps_numba", None),
                      kushner_args(2001, 6.0, lambda g: -g, lambda g: g,
                                   1e-3 / nsub, nsub, 0.5),
                      number=20, repeat=5, substeps=nsub))

    # one integral_1d step's grid work: N = 1e4 particles, an 801-point grid
    grid = np.linspace(-6.0, 6.0, 801)
    xs = rng.standard_normal(10_000)
    K, a = np.sin(grid), np.cos(grid)
    rows.append(bench_replacement(
        "cumulative_simpson (801)", gain.cumulative_simpson,
        lambda y, dx: cumulative_simpson(y, dx=dx, initial=0.0),
        (K, grid[1] - grid[0])))
    rows.append(bench_replacement(
        "interval gather K, a (1e4)",
        lambda x, g: [gain.GridIntervals(g, x).interp(f) for f in (K, a)],
        lambda x, g: [np.interp(x, g, f) for f in (K, a)],
        (xs, grid)))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": environment(), "rows": rows}, fh, indent=2)


if __name__ == "__main__":
    main()
