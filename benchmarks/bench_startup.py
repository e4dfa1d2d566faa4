#!/usr/bin/env python3
"""Time the start-up of flowfilter against an earlier commit.

Run:  PYTHONPATH=src python benchmarks/bench_startup.py [--base REV]
          [--pairs N] [--cpu K] [--out PATH]

Start-up is what every `flowfilter run|sweep|theory` pays before its
work: `import flowfilter.cli` plus `load_config` of
configs/nonlinear_tanh.json.  Each sample is a fresh process, pinned to
one CPU from before it starts (the last usable one unless --cpu is given)
with BLAS threads at 1, importing one version's src; its time runs from
just before the spawn to just after the config is parsed, as perfbench
measures `setup_s`, and its peak RSS is `ru_maxrss` at that point (a
small launcher starts it, see LAUNCH).  The base commit (default HEAD~1)
is taken from a `git clone` of this repository into a temporary
directory; the change is this checkout's src.  The two versions take
turns, which one goes first alternating, N pairs (default 10).  A pair
is won by the faster side.  Each version's top `-X importtime` entries by
cumulative time are recorded from one more start-up.  With --out, the
samples, medians, quartiles, wins, import entries and the environment
block of bench_kernels.py are written to PATH as JSON.
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
from bench_lockstep import ROOT, THREAD_ENV, check_imported, clone_base, git

CONFIG = ROOT / "configs" / "nonlinear_tanh.json"

# one start-up: argv[1] is the parent's time.monotonic() just before the
# spawn (CLOCK_MONOTONIC is system-wide), argv[2] the config
CHILD = r"""
import sys, time
import flowfilter.cli as cli
cli.load_config(sys.argv[2])
setup_s = time.monotonic() - float(sys.argv[1])
import json, resource
print(json.dumps({"setup_s": setup_s, "module": cli.__file__,
                  "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                  / 1024}))
"""

# a small process that starts CHILD (argv[1]) on the config (argv[2]).  On
# Linux a process's ru_maxrss starts from the resident size of the process
# that forked it, so the start-ups are forked from this one, as perfbench's
# stdlib-only driver forks its children, not from the bench, which holds
# numpy and scipy
LAUNCH = r"""
import subprocess, sys, time
code, config = sys.argv[1:]
print(subprocess.run([sys.executable, "-c", code, repr(time.monotonic()), config],
                     check=True, capture_output=True, text=True).stdout, end="")
"""


def spawn(src: Path, cpu: int, *args) -> subprocess.CompletedProcess:
    """Run a Python process pinned to cpu from its start, with BLAS threads
    at 1 and flowfilter imported from src."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src)}
    return subprocess.run([sys.executable, *map(str, args)], env=env,
                          check=True, capture_output=True, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))


def startup(src: Path, cpu: int) -> dict:
    out = spawn(src, cpu, "-c", LAUNCH, CHILD, CONFIG).stdout
    result = json.loads(out.splitlines()[-1])
    check_imported(result.pop("module"), src)
    return result


def import_entries(src: Path, cpu: int, top: int = 12) -> list:
    """The top entries of `-X importtime` for `import flowfilter.cli`, by
    cumulative microseconds."""
    err = spawn(src, cpu, "-X", "importtime", "-c", "import flowfilter.cli").stderr
    rows = []
    for line in err.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        rows.append({"module": name.strip(), "self_us": int(own),
                     "cumulative_us": int(cumulative)})
    return sorted(rows, key=lambda r: -r["cumulative_us"])[:top]


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD~1",
                        help="the commit to compare with (default HEAD~1)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--cpu", type=int,
                        default=max(os.sched_getaffinity(0)))
    parser.add_argument("--out", help="write the record as JSON")
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        base = Path(tmp) / "base"
        base_commit = clone_base(args.base, base)
        versions = {"parent": base / "src", "change": ROOT / "src"}
        samples = {version: [] for version in versions}
        for i in range(args.pairs):
            order = list(versions) if i % 2 == 0 else list(versions)[::-1]
            for version in order:
                samples[version].append(startup(versions[version], args.cpu))
        imports = {v: import_entries(src, args.cpu) for v, src in versions.items()}

    record = {}
    for metric in ("setup_s", "rss_mb"):
        values = {v: [s[metric] for s in ss] for v, ss in samples.items()}
        stats = {v: summary(x) for v, x in values.items()}
        record[metric] = {
            "samples": values, **{f"{v}_stats": s for v, s in stats.items()},
            "change_vs_parent": stats["change"]["median"]
            / stats["parent"]["median"] - 1,
            "change_wins": sum(c < p for p, c in zip(values["parent"],
                                                     values["change"]))}
        print(f"{metric:8s} parent {stats['parent']['median']:8.3f} "
              f"(IQR {stats['parent']['iqr']:.3f})   change "
              f"{stats['change']['median']:8.3f} "
              f"(IQR {stats['change']['iqr']:.3f})   "
              f"{record[metric]['change_vs_parent']:+.1%}   change lower in "
              f"{record[metric]['change_wins']} of {args.pairs} pairs")
    for version, rows in imports.items():
        print(f"{version}: " + ", ".join(
            f"{r['module']} {r['cumulative_us'] / 1e3:.0f} ms" for r in rows[:4]))

    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "what": "start-up of flowfilter: import flowfilter.cli plus "
                        "load_config of configs/nonlinear_tanh.json, from "
                        "spawn, in fresh pinned processes",
                "script": "benchmarks/bench_startup.py",
                "parent_commit": base_commit,
                "change": f"working tree on {git('rev-parse', 'HEAD')}",
                "pinned_cpu": args.cpu, "pairs": args.pairs,
                "environment": environment(), "metrics": record,
                "importtime_top": imports}, fh, indent=2)


if __name__ == "__main__":
    main()
