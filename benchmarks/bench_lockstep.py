#!/usr/bin/env python3
"""Time the CLI end to end against an earlier commit, with its page faults.

Run:  PYTHONPATH=src python benchmarks/bench_lockstep.py [--base REV]
          [--pairs N] [--cpu K] [--out PATH]

Three workloads: `flowfilter run configs/nonlinear_tanh.json`, the same
run at N = 4e4 with T = 0.3, and `flowfilter sweep
configs/delta_sweep.json` restricted to its first sweep seed.  The base
commit (default HEAD~1) is taken from a `git clone` of this repository
into a temporary directory; the change is this checkout's src.  Each
execution is a fresh process pinned to one CPU (the last usable one unless
--cpu is given) with BLAS threads at 1, importing one version's src, and
the two versions take turns, N pairs per workload.  Each execution enters
through `cli.main`, as the `flowfilter` command does, in a fresh working
directory, and records the wall time, the minor page faults
(`ru_minflt`) and the system time (`ru_stime`) of that call, CSV emission
included.  Pair i writes to an --out-dir of OUT_DIR_LENGTHS[i % 8]
characters in both versions: the heap layout, and with it how often
glibc hands freed temporaries back to the kernel, depends on such
lengths.  Each execution also hashes its CSV outputs, so the record shows
whether both versions wrote the same bytes.  With --out, the samples,
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

# --out-dir lengths, in characters, that the pairs cycle through
OUT_DIR_LENGTHS = (1, 6, 11, 17, 23, 28, 34, 40)
OUTPUTS = {"run": ["series.csv", "gain_log.csv"],
           "sweep": ["sweep.csv", "sweep_trends.csv"]}

# one execution, pinned by child(): import the version under test, run the
# subcommand through cli.main in a fresh working directory, measure the
# call, hash its outputs
CHILD = r"""
import hashlib, json, os, resource, sys, tempfile, time
import flowfilter.cli as cli
config, command, out_dir = sys.argv[1], sys.argv[2], sys.argv[3]
os.chdir(tempfile.mkdtemp())
before = resource.getrusage(resource.RUSAGE_SELF)
t0 = time.perf_counter()
rc = cli.main([command, config, "--out-dir", out_dir])
wall = time.perf_counter() - t0
after = resource.getrusage(resource.RUSAGE_SELF)
digests = {n: hashlib.sha256(open(os.path.join(out_dir, n), "rb").read()).hexdigest()
           for n in json.loads(sys.argv[4])}
print(json.dumps({"rc": rc, "wall_s": wall,
                  "minflt": after.ru_minflt - before.ru_minflt,
                  "stime_s": after.ru_stime - before.ru_stime,
                  "sha256": digests, "module": cli.__file__}))
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


def execute(src: Path, cpu: int, config: Path, command: str,
            out_dir: str) -> dict:
    argv, env = child(CHILD, src, cpu, config, command, out_dir,
                      json.dumps(OUTPUTS[command]))
    out = subprocess.run(argv, env=env, check=True, capture_output=True,
                         text=True).stdout
    result = json.loads(out.splitlines()[-1])
    check_imported(result["module"], src)
    if result["rc"] != 0:
        raise RuntimeError(f"{command} {config} exited {result['rc']}")
    return result


def _medians(runs: dict, key: str) -> dict:
    return {v: statistics.median(r[key] for r in rs) for v, rs in runs.items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="the commit to compare with (default HEAD~1)")
    parser.add_argument("--pairs", type=int, default=len(OUT_DIR_LENGTHS))
    parser.add_argument("--cpu", type=int,
                        default=max(os.sched_getaffinity(0)))
    parser.add_argument("--out", help="write the record as JSON")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        base = tmp / "base"
        base_commit = clone_base(args.base, base)
        tanh = json.loads((ROOT / "configs" / "nonlinear_tanh.json").read_text())
        tanh["ensemble_size"] = 40000
        tanh["grid"]["T"] = 0.3
        (tmp / "tanh_4e4.json").write_text(json.dumps(tanh))
        sweep = json.loads((ROOT / "configs" / "delta_sweep.json").read_text())
        sweep["sweep"]["seeds"] = sweep["sweep"]["seeds"][:1]
        (tmp / "sweep.json").write_text(json.dumps(sweep))
        workloads = {"run nonlinear_tanh": ("run",
                                            ROOT / "configs" / "nonlinear_tanh.json"),
                     "run nonlinear_tanh, N = 4e4, T = 0.3": ("run",
                                                              tmp / "tanh_4e4.json"),
                     "sweep delta_sweep, one seed": ("sweep", tmp / "sweep.json")}
        versions = {"parent": base / "src", "change": ROOT / "src"}
        record = {}
        for name, (command, config) in workloads.items():
            runs = {version: [] for version in versions}
            for i in range(args.pairs):
                out_dir = "o" * OUT_DIR_LENGTHS[i % len(OUT_DIR_LENGTHS)]
                for version, src in versions.items():
                    runs[version].append(execute(src, args.cpu, config, command,
                                                 out_dir))
            medians = {key: _medians(runs, key)
                       for key in ("wall_s", "minflt", "stime_s")}
            record[name] = {
                **{key: {v: [r[key] for r in rs] for v, rs in runs.items()}
                   for key in medians},
                "median": medians,
                "wall_change_vs_parent":
                    medians["wall_s"]["change"] / medians["wall_s"]["parent"] - 1,
                "outputs_identical": all(
                    r["sha256"] == runs["parent"][0]["sha256"]
                    for rs in runs.values() for r in rs)}
            print(f"{name:38s} parent {medians['wall_s']['parent']:6.3f} s "
                  f"{medians['minflt']['parent']:8.0f} faults   change "
                  f"{medians['wall_s']['change']:6.3f} s "
                  f"{medians['minflt']['change']:8.0f} faults   "
                  f"{record[name]['wall_change_vs_parent']:+.1%}   outputs "
                  f"{'identical' if record[name]['outputs_identical'] else 'DIFFER'}")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "what": "wall time, minor page faults and system time of "
                        "cli.main on two run workloads and one delta-sweep "
                        "seed, parent against change, --out-dir lengths "
                        f"cycled over {list(OUT_DIR_LENGTHS)}",
                "script": "benchmarks/bench_lockstep.py",
                "parent_commit": base_commit,
                "change": f"working tree on {git('rev-parse', 'HEAD')}",
                "pinned_cpu": args.cpu, "pairs": args.pairs,
                "environment": environment(), "workloads": record},
                fh, indent=2)


if __name__ == "__main__":
    main()
