#!/usr/bin/env python3
"""Benchmark the numba kernels against their pure-numpy fallbacks, and the
1D integral-gain grid work against the scipy/numpy calls it replaces.

Run:  PYTHONPATH=src python benchmarks/bench_kernels.py [--out PATH]
      PYTHONPATH=src python benchmarks/bench_kernels.py --base REV
          [--pairs N] [--cpu K] [--out PATH]

The numba path is what FLOWFILTER_NUMBA=1 (default) binds; the numpy
column is the FLOWFILTER_NUMBA=0 fallback.  Times are best-of-repeat
seconds per call; first numba call compiles, so kernels are warmed first.
The Kushner rows also give microseconds per substep; the "fine steps"
rows make one mesh interval's consecutive calls on read-only drift, h and
w, as the grid Kushner reference does, and the "rows at +N B" rows
repeat the 2001-point call with every kernel row N bytes past a 64-byte
boundary.  The "intervals seeded by the deposit" row times
GridIntervals started from the deposit's cell index against the
searchsorted it stands in for.  With --out, the rows and an
environment block (backend, Python, numpy and scipy versions, nproc) are
written to PATH as JSON.

With --base REV, only the rows of base_rows() are timed against REV: the
numpy Kushner rows of kushner_rows(), as microseconds per substep, the
d >= 2 Crisan & Xiong row (assemble_filter_coefficients("crisan_xiong",
x, model, "fundamental_mc") on 2D clouds of 1000 and 4000), as
milliseconds per call, and the checked construction Density1D(grid,
values) of a KDE's unnormalised values on 801 and 2001 points, as
microseconds per call, through the harness of ab.py, which sets the
versions, the pinning and the pair order: one child per version (CHILD)
times a row, and the two take turns on it, N pairs (default 10) per row.
With --out, each row's samples, quartiles and wins follow the record
header of ab.py.
"""

import json
import math
import timeit

import numpy as np
from scipy.integrate import cumulative_simpson

import ab
from flowfilter import _kernels, gain
from flowfilter.ensemble import Density1D
from flowfilter.models import make_linear_gaussian
from flowfilter.reference import substeps_per_fine_step


def best(fn, args, number, repeat):
    return min(timeit.repeat(lambda: fn(*args), number=number,
                             repeat=repeat)) / number


def bench(name, fn_numpy, fn_numba, args, number=5, repeat=3, substeps=None):
    row = {"name": name, "numpy_s": best(fn_numpy, args, number, repeat),
           "numba_s": None}
    if fn_numba is not None:
        fn_numba(*args)                  # warm the JIT cache
        row["numba_s"] = best(fn_numba, args, number, repeat)
    line = f"{name:36s} numpy {row['numpy_s'] * 1e3:9.3f} ms"
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


def mesh_interval(kernel, steps):
    """steps consecutive one-fine-step kernel calls, each from the density
    the last one returned, as run_grid_kushner makes them in one mesh
    interval."""
    def run(theta, *rest):
        for _ in range(steps):
            theta, _ = kernel(theta, *rest)
        return theta
    return run


def read_only(args):
    """kushner_args with drift, h and w read-only, as run_grid_kushner
    passes them (the numpy kernel then builds its operator once)."""
    for a in args[1:4]:
        a.flags.writeable = False
    return args


def offset_rows(offset):
    """A stand-in for the numpy Kushner kernel's row allocator
    (_kernels._aligned_rows) whose rows all start offset bytes past a
    64-byte boundary."""
    def rows(n, length):
        stride = -(-length // 8) * 8
        buf = np.empty(n * stride + 16)
        skip = (-buf.ctypes.data % 64 + offset) // 8
        return buf[skip:skip + n * stride].reshape(n, stride)[:, :length]
    return rows


# the substeps of one fine step of 1e-3 under the CFL bound on
# configs/ou_theory.json's 2001-point grid over +-6
OU_NSUB = math.ceil(1e-3 / (0.4 * (12.0 / 2000) ** 2))


def kushner_rows() -> dict:
    """The Kushner rows, {name: (wrap, args, number, repeat, substeps)}:
    wrap(kernel) is the function timed on args for a backend's kernel, best
    of repeat loops of number calls, each call substeps substeps."""
    rows = {"kushner_substeps (1201x200)": (
        lambda kernel: kernel,
        kushner_args(1201, 6.0, lambda g: -g, np.tanh, 2e-5, 200, 0.5),
        2, 3, 200)}
    # the theory_ou shape: an OU drift and h(x) = x
    rows[f"kushner_substeps (2001x{OU_NSUB})"] = (
        lambda kernel: kernel,
        kushner_args(2001, 6.0, lambda g: -g, lambda g: g, 1e-3 / OU_NSUB,
                     OU_NSUB, 0.5),
        20, 5, OU_NSUB)
    # one mesh interval of run_grid_kushner: steps_per_mesh = delta /
    # fine_dt = 10 one-fine-step calls on the nonlinear_tanh and ou_theory
    # grids (1201 and 2001 points over +-6, fine step 1e-3)
    steps = 10
    for points, obs in ((1201, np.tanh), (2001, lambda g: g)):
        grid = np.linspace(-6.0, 6.0, points)
        nsub = substeps_per_fine_step(Density1D(grid, np.ones(points)), 1e-3)
        rows[f"kushner {steps} fine steps ({points}x{nsub})"] = (
            lambda kernel: mesh_interval(kernel, steps),
            read_only(kushner_args(points, 6.0, lambda g: -g, obs,
                                   1e-3 / nsub, nsub, 0.5)),
            5, 5, steps * nsub)
    return rows


def base_rows() -> dict:
    """The rows --base times, {name: (fn, args, number, repeat, scale,
    metric)}: best of repeat loops of number calls of fn(*args), in seconds
    times scale, recorded as metric."""
    rows = {name: (wrap(_kernels.kushner_substeps_numpy), args, number, repeat,
                   1e6 / substeps, "numpy_us_per_substep")
            for name, (wrap, args, number, repeat, substeps)
            in kushner_rows().items()}
    model = make_linear_gaussian([[-0.5, 0.2], [0.0, -1.0]], [1.0, 0.5])
    for n in (1000, 4000):
        x = np.random.default_rng(n).standard_normal((n, 2)) * [1.0, 0.5]
        rows[f"crisan_xiong/fundamental_mc (2D, N = {n})"] = (
            gain.assemble_filter_coefficients,
            ("crisan_xiong", x, model, "fundamental_mc"), 1, 3, 1e3,
            "numpy_ms_per_call")
    # the KDE builds one Density1D a step, from values of mass != 1
    for points in (801, 2001):
        grid = np.linspace(-6.0, 6.0, points)
        rows[f"Density1D(grid, values) ({points})"] = (
            Density1D, (grid, np.exp(-0.5 * grid**2)), 2000, 5, 1e6,
            "numpy_us_per_call")
    return rows


# one version: import it and this script, print the rows of base_rows(),
# then time the row named on each line of standard input, in its metric's
# unit.  argv[1] is the directory of this script.
CHILD = r"""
import json, sys
sys.path.insert(0, sys.argv[1])
import bench_kernels
from flowfilter import _kernels
rows = bench_kernels.base_rows()
print(json.dumps({"rows": list(rows), "module": _kernels.__file__}), flush=True)
for line in sys.stdin:
    fn, args, number, repeat, scale, _ = rows[line.strip()]
    print(bench_kernels.best(fn, args, number, repeat) * scale, flush=True)
"""


def base_child(src, cpu: int) -> ab.Child:
    """A CHILD timing the rows of base_rows() on the src version."""
    return ab.Child(src, cpu, "-c", CHILD, ab.ROOT / "benchmarks")


def compare_versions(args):
    """Time the rows of base_rows() (this script's, so the same for both
    versions), the two children taking turns on each row, and write the
    comparison."""
    with ab.checkouts(args.base) as (srcs, parent_commit):
        children = {v: base_child(src, args.cpu) for v, src in srcs.items()}
        record = {}
        for row, (*_, metric) in base_rows().items():
            samples = ab.collect(args.pairs, lambda version, _: {
                metric: float(children[version].ask(row))})
            record[row] = ab.compare(samples, metric)
            ab.show(f"{row}: {metric}", record[row])
        for child in children.values():
            child.close()
    ab.write(args, __file__, parent_commit,
             "microseconds per substep of the numpy Kushner kernel, "
             "milliseconds per call of the d >= 2 Crisan & Xiong row and "
             "microseconds per Density1D construction, best of repeated "
             "loops per sample, in one pinned child per version",
             rows=record)


def main():
    args = ab.parse_args(__doc__, pairs=10, base=None)
    if args.base:
        return compare_versions(args)
    rng = np.random.default_rng(7)
    print(f"active backend: {_kernels.BACKEND}\n")
    rows = []

    # both backends return (counts, cells), the counts and the cell index
    # each position was binned by
    xs = rng.standard_normal(100_000)
    rows.append(bench("deposit_linear (1e5 -> 801)",
                      _kernels.deposit_linear_numpy,
                      getattr(_kernels, "deposit_linear_numba", None),
                      (xs, -6.0, 12.0 / 800, 801)))

    # the d >= 2 Crisan & Xiong row's one pass: both fields and the KDE sum
    pts = rng.standard_normal((2000, 2))
    src = rng.standard_normal((2000, 2))
    m_beta, m_alpha = rng.standard_normal((2, 2000))
    rows.append(bench("fundamental_pass (2k^2)",
                      _kernels.fundamental_pass_numpy,
                      getattr(_kernels, "fundamental_pass_numba", None),
                      (pts, src, m_beta, m_alpha, 0.02, np.array([0.3, 0.3]))))

    numba_kernel = getattr(_kernels, "kushner_substeps_numba", None)
    for name, (wrap, kernel_args, number, repeat, substeps) in \
            kushner_rows().items():
        rows.append(bench(name, wrap(_kernels.kushner_substeps_numpy),
                          numba_kernel and wrap(numba_kernel), kernel_args,
                          number=number, repeat=repeat, substeps=substeps))

    # the same 2001x70 call with every row of the kernel at a fixed offset
    # from a cache line (versions whose kernel has no row allocator skip it)
    aligned_rows = getattr(_kernels, "_aligned_rows", None)
    try:
        for offset in (0, 8, 16, 32) if aligned_rows else ():
            _kernels._aligned_rows = offset_rows(offset)
            rows.append(bench(
                f"kushner (2001x{OU_NSUB}) rows at +{offset} B",
                _kernels.kushner_substeps_numpy, None,
                read_only(kushner_args(2001, 6.0, lambda g: -g, lambda g: g,
                                       1e-3 / OU_NSUB, OU_NSUB, 0.5)),
                number=20, repeat=5, substeps=OU_NSUB))
    finally:
        _kernels._aligned_rows = aligned_rows

    # one integral_1d step's grid work: N = 1e4 particles, an 801-point grid
    grid = np.linspace(-6.0, 6.0, 801)
    xs = rng.standard_normal(10_000)
    K, a = np.sin(grid), np.cos(grid)
    rows.append(bench_replacement(
        "cumulative_simpson (801)", gain.cumulative_simpson,
        lambda y, dx: cumulative_simpson(y, dx=dx, initial=0.0),
        (K, grid[1] - grid[0])))
    # the intervals start from the cell index the KDE deposit binned the
    # particles by; each call corrects a fresh copy of the index, as a step
    # corrects its own
    _, cells = _kernels.deposit_linear_numpy(xs, grid[0], grid[1] - grid[0],
                                             grid.size)
    rows.append(bench_replacement(
        "interval gather K, a (1e4)",
        lambda x, g, c: [gain.GridIntervals(g, x, c.copy()).interp(f)
                         for f in (K, a)],
        lambda x, g, c: [np.interp(x, g, f) for f in (K, a)],
        (xs, grid, cells)))
    rows.append(bench_replacement(
        "intervals seeded by the deposit (1e4)",
        lambda x, g, c: gain.GridIntervals(g, x, c.copy()),
        lambda x, g, c: np.searchsorted(g, x, "right"),
        (xs, grid, cells)))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"environment": ab.environment(), "rows": rows}, fh,
                      indent=2)


if __name__ == "__main__":
    main()
