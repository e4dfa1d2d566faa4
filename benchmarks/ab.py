"""The A/B harness of the bench scripts: an earlier commit (the parent,
--base REV, default HEAD~1) against this checkout's src (the change), N
pairs of fresh processes (--pairs N), pinned to one CPU (--cpu K, default
the last usable one), the record written to --out PATH as JSON.

Both versions start on an equal footing:
* the parent is a `git clone` at <tmp>/parent, the change a copy of src/
  at <tmp>/change/src: the two src paths have one length (the heap
  layout, and with it the peak RSS, moves with such lengths), and neither
  holds bytecode caches (a clone checks out tracked files only, the copy
  leaves out __pycache__);
* every process is pinned from before it starts, with BLAS threads at 1,
  and must import flowfilter from its version's src (check_imported);
* the parent goes first in even pairs, the change in odd ones.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import scipy

from flowfilter import _kernels

ROOT = Path(__file__).resolve().parent.parent

# names of equal length, so the two src paths have one length too
VERSIONS = ("parent", "change")

THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}


def parse_args(doc: str, pairs: int, base="HEAD~1") -> argparse.Namespace:
    """The flags every A/B script takes; pairs and base are the --pairs and
    --base defaults."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--base", default=base,
                        help="the commit to compare with"
                        + (f" (default {base})" if base else ""))
    parser.add_argument("--pairs", type=int, default=pairs)
    parser.add_argument("--cpu", type=int,
                        default=max(os.sched_getaffinity(0)))
    parser.add_argument("--out", help="write the record as JSON")
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs takes at least 2, for the quartiles")
    return args


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def copy_src(into: Path, src: Path = ROOT / "src") -> Path:
    """Copy src to into/src without its bytecode caches; return the copy."""
    return Path(shutil.copytree(src, into / "src",
                                ignore=shutil.ignore_patterns("__pycache__")))


@contextmanager
def checkouts(rev: str):
    """Yield ({version: its src}, the parent's commit): rev cloned at
    <tmp>/parent and this checkout's src copied to <tmp>/change/src."""
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = (Path(tmp) / version for version in VERSIONS)
        git("clone", "--quiet", "--no-checkout", str(ROOT), str(parent))
        git("checkout", "--quiet", rev, cwd=parent)
        srcs = {"parent": parent / "src", "change": copy_src(change)}
        yield srcs, git("rev-parse", "HEAD", cwd=parent)


def launch(src: Path, cpu: int, *args, start=subprocess.run, **kwargs):
    """start (subprocess.run or Popen) a Python process on args, pinned to
    cpu from its start, with BLAS threads at 1 and flowfilter imported from
    src."""
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(src)}
    return start([sys.executable, *map(str, args)], env=env, text=True,
                 preexec_fn=lambda: os.sched_setaffinity(0, {cpu}), **kwargs)


def environment() -> dict:
    """The kernel backend, library versions and usable core count."""
    return {"backend": _kernels.BACKEND, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def check_imported(module: str, src: Path):
    """Raise unless the module a child imported lies under src."""
    if not Path(module).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"imported {module}, not {src}")


def result(src: Path, cpu: int, *args) -> dict:
    """The JSON object a launched child prints on its last line, once its
    `module` is checked to lie under src."""
    out = launch(src, cpu, *args, check=True, capture_output=True).stdout
    record = json.loads(out.splitlines()[-1])
    check_imported(record["module"], src)
    return record


class Child:
    """A launched child that first prints a JSON head naming its
    `module`, checked to lie under src, and then answers each line written
    to it with one line."""

    def __init__(self, src: Path, cpu: int, *args):
        self.proc = launch(src, cpu, *args, start=subprocess.Popen,
                           stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.head = json.loads(self.proc.stdout.readline())
        check_imported(self.head["module"], src)

    def ask(self, line: str) -> str:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        return self.proc.stdout.readline()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def orders(pairs: int):
    """The order of the two versions in each pair: the parent first in
    even pairs, the change first in odd ones."""
    for i in range(pairs):
        yield VERSIONS if i % 2 == 0 else VERSIONS[::-1]


def collect(pairs: int, measure) -> dict:
    """{version: [measure(version, i) for each pair i]}, the versions of
    a pair measured back to back in the order orders() gives."""
    samples = {version: [] for version in VERSIONS}
    for i, order in enumerate(orders(pairs)):
        for version in order:
            samples[version].append(measure(version, i))
    return samples


def summary(values: list) -> dict:
    """The median and quartiles of values."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def compare(samples: dict, metric: str) -> dict:
    """The metric of each sample of collect(), in pair order, with each
    version's quartiles, the change's median over the parent's less 1 and
    the count of pairs in which the change is lower."""
    values = {v: [sample[metric] for sample in ss] for v, ss in samples.items()}
    stats = {v: summary(x) for v, x in values.items()}
    return {"samples": values, **{f"{v}_stats": s for v, s in stats.items()},
            "change_vs_parent": stats["change"]["median"]
            / stats["parent"]["median"] - 1,
            "change_wins": sum(c < p for p, c in zip(values["parent"],
                                                     values["change"]))}


def show(name: str, comparison: dict):
    """Print one line of a compare() result."""
    parent, change = comparison["parent_stats"], comparison["change_stats"]
    print(f"{name:48s} parent {parent['median']:9.3f} (IQR {parent['iqr']:.3f})"
          f"   change {change['median']:9.3f} (IQR {change['iqr']:.3f})   "
          f"{comparison['change_vs_parent']:+.1%}   change lower in "
          f"{comparison['change_wins']} of {len(comparison['samples']['parent'])}"
          " pairs")


def write(args: argparse.Namespace, script: str, parent_commit: str,
          what: str, **body):
    """Write the header and then body to args.out as JSON, if given."""
    if not args.out:
        return
    with open(args.out, "w") as fh:
        json.dump({
            "what": what,
            "script": Path(script).resolve().relative_to(ROOT).as_posix(),
            "parent_commit": parent_commit,
            "change": f"working tree on {git('rev-parse', 'HEAD')}",
            "pinned_cpu": args.cpu, "pairs": args.pairs,
            "environment": environment(), **body}, fh, indent=2)
