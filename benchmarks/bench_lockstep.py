#!/usr/bin/env python3
"""Time the run driver end to end against an earlier commit.

Run:  PYTHONPATH=src python benchmarks/bench_lockstep.py [--base REV]
          [--pairs N] [--cpu K] [--out PATH]

Two workloads: `run_experiment` on configs/nonlinear_tanh.json, and
`run_delta_sweep` on configs/delta_sweep.json restricted to its first
sweep seed.  The base commit (default HEAD~1) is taken from a `git clone`
of this repository into a temporary directory; the change is this
checkout's src.  Each execution is a fresh process pinned to one CPU (the
last usable one unless --cpu is given) with BLAS threads at 1, importing
one version's src, and the two versions take turns, N pairs per workload.
The time is the wall time of the library call alone, without CSV
emission.  Each execution also hashes its CSV outputs, so the record
shows whether both versions wrote the same bytes.  With --out, the times,
medians, digests and the environment block of bench_kernels.py are
written to PATH as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_kernels import environment

ROOT = Path(__file__).resolve().parent.parent

# one execution, pinned by child(): import the version under test, time
# the call, hash its outputs
CHILD = r"""
import hashlib, json, os, sys, tempfile, time
import flowfilter.cli as cli
config = cli.load_config(sys.argv[1])
out = tempfile.mkdtemp()
t0 = time.perf_counter()
if sys.argv[2] == "run":
    report = cli.run_experiment(config)
    wall = time.perf_counter() - t0
    cli.emit_plot_data(report, out)
    names = ["series.csv", "gain_log.csv"]
else:
    report = cli.run_delta_sweep(config)
    wall = time.perf_counter() - t0
    cli.emit_sweep_csv(report, out)
    names = ["sweep.csv", "sweep_trends.csv"]
digests = {n: hashlib.sha256(open(os.path.join(out, n), "rb").read()).hexdigest()
           for n in names}
print(json.dumps({"wall_s": wall, "sha256": digests, "module": cli.__file__}))
"""

THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def clone_base(rev: str, into: Path) -> str:
    """Check rev out in a fresh `git clone` of this repository at into;
    return its commit."""
    git("clone", "--quiet", "--no-checkout", str(ROOT), str(into))
    git("checkout", "--quiet", rev, cwd=into)
    return git("rev-parse", "HEAD", cwd=into)


def child(code: str, src: Path, cpu: int, *args) -> tuple[list, dict]:
    """Command and environment of a Python process that runs code pinned
    to cpu, with BLAS threads at 1 and flowfilter imported from src; code
    reads args as sys.argv[1:]."""
    pin = f"import os\nos.sched_setaffinity(0, {{{cpu}}})\n"
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src)}
    return [sys.executable, "-c", pin + code, *map(str, args)], env


def check_imported(module: str, src: Path):
    """Raise unless the module a child imported lies under src."""
    if not Path(module).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {module}, not {src}")


def execute(src: Path, cpu: int, config: Path, command: str) -> dict:
    argv, env = child(CHILD, src, cpu, config, command)
    out = subprocess.run(argv, env=env, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.splitlines()[-1])
    check_imported(result["module"], src)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="the commit to compare with (default HEAD~1)")
    parser.add_argument("--pairs", type=int, default=3)
    parser.add_argument("--cpu", type=int,
                        default=max(os.sched_getaffinity(0)))
    parser.add_argument("--out", help="write the record as JSON")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base_commit = clone_base(args.base, base)
        sweep = json.loads((ROOT / "configs" / "delta_sweep.json").read_text())
        sweep["sweep"]["seeds"] = sweep["sweep"]["seeds"][:1]
        (tmp / "sweep.json").write_text(json.dumps(sweep))
        workloads = {"run nonlinear_tanh": ("run",
                                            ROOT / "configs" / "nonlinear_tanh.json"),
                     "sweep delta_sweep, one seed": ("sweep", tmp / "sweep.json")}
        versions = {"parent": base / "src", "change": ROOT / "src"}
        record = {}
        for name, (command, config) in workloads.items():
            runs = {version: [] for version in versions}
            for _ in range(args.pairs):
                for version, src in versions.items():
                    runs[version].append(execute(src, args.cpu, config, command))
            walls = {v: [r["wall_s"] for r in rs] for v, rs in runs.items()}
            medians = {v: statistics.median(w) for v, w in walls.items()}
            record[name] = {
                "wall_s": walls, "median_s": medians,
                "change_vs_parent": medians["change"] / medians["parent"] - 1,
                "outputs_identical": all(
                    r["sha256"] == runs["parent"][0]["sha256"]
                    for rs in runs.values() for r in rs)}
            print(f"{name:28s} parent {medians['parent']:7.3f} s   change "
                  f"{medians['change']:7.3f} s   "
                  f"{record[name]['change_vs_parent']:+.1%}   outputs "
                  f"{'identical' if record[name]['outputs_identical'] else 'DIFFER'}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "what": "wall time of run_experiment and of one delta-sweep "
                        "seed, before and after the lockstep run driver",
                "script": "benchmarks/bench_lockstep.py",
                "parent_commit": base_commit,
                "change": f"working tree on {git('rev-parse', 'HEAD')}",
                "pinned_cpu": args.cpu, "pairs": args.pairs,
                "environment": environment(), "workloads": record},
                fh, indent=2)


if __name__ == "__main__":
    main()
