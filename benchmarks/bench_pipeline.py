#!/usr/bin/env python3
"""Time one filter step of every row the shipped configs use, against an
earlier commit.

Run:  PYTHONPATH=src python benchmarks/bench_pipeline.py [--base REV]
          [--pairs N] [--cpu K] [--out PATH]

A row is a (filter kind, gain, gain_opts) of a config in configs/, with
the model of that config; a delta sweep also runs each filter's
continuous-time twin, so the twin's row counts too.  For each row and each
ensemble size N in 1e3, 1e4 and 4e4, one `filters.step` is timed from that
config's initial cloud of N particles, with its h and moments computed
inside the step as a run computes them at a mesh point.  A time is the
best of 5 repeats of a loop of about 20 ms.

One process per version, started through the harness of ab.py, which
sets the versions, the pinning and the pair order, imports that version.
The two processes take turns on each (row, N), N pairs (default 7, about
a minute in all).  A row's change is the median over pairs of change /
parent - 1, each pair timed back to back, so a slow phase of a shared host
hits both sides of a pair alike.  The rows whose code a change leaves
alone show how far the remaining noise moves it.  With --out, the sizes,
per-row microseconds and medians follow the record header of ab.py.
"""

import json
import statistics
from pathlib import Path

import ab

SIZES = (1000, 10000, 40000)

# one version: import it, list every (config, row, N) case, then time the
# case named on each line of standard input.  A case's cloud is built when
# it is timed and dropped after, so both versions time each case from the
# same heap state, not one shaped by every other case's arrays.
CHILD = r"""
import json, sys, timeit
from pathlib import Path
import numpy as np
import flowfilter.cli as cli
from flowfilter.filters import FilterKind, step
from flowfilter.rng import CounterStream

cases = {}
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    config = cli.load_config(str(path))
    model = config.build_model()
    rows = [(spec.kind, spec.gain, spec.gain_opts) for spec in config.filters]
    if config.sweep.get("delta"):
        for spec in config.filters:
            # the twin's tag; an earlier _twin returned (tag, gain, gain_opts)
            # with the filter's own gain and gain_opts
            twin = cli._twin(spec, model.dim)
            tag = twin if isinstance(twin, str) else twin[0]
            rows.append((FilterKind(tag), spec.gain, spec.gain_opts))
    for kind, gain, opts in rows:
        label = f"{kind.label()}/{gain}"
        shown = {key: value for key, value in opts.items() if value != {}}
        if shown:
            label += " " + json.dumps(shown, sort_keys=True)
        for n in json.loads(sys.argv[2]):
            cases[json.dumps([path.name, label, n])] = (config, model, kind,
                                                        gain, opts, n)
# glibc raises its mmap threshold to the size of the largest block freed
# so far, so which arrays come fresh from the kernel (and fault their
# pages in) would depend on what a version happened to free first; freeing
# one 8 MiB block puts both versions in the same state
np.ones(1 << 20)
print(json.dumps({"cases": list(cases), "module": cli.__file__}), flush=True)


def best_us(config, model, kind, gain, opts, n):
    x = cli._initial_cloud(config, model.dim, n=n)
    dt = config.grid.fine_dt
    dv = np.sqrt(dt) * CounterStream(1, label=1).normals(0, x.shape)
    run = lambda: step(kind, gain, model, x, 0.5, dt, dv, **opts)
    run()
    number = max(1, int(0.02 / min(timeit.repeat(run, number=1, repeat=3))))
    return min(timeit.repeat(run, number=number, repeat=5)) / number * 1e6


for line in sys.stdin:
    print(best_us(*cases[line.strip()]), flush=True)
"""


class Version(ab.Child):
    """A child process that times the cases of one version's src."""

    def __init__(self, src: Path, cpu: int):
        super().__init__(src, cpu, "-c", CHILD, ab.ROOT / "configs",
                         json.dumps(SIZES))
        self.cases = self.head["cases"]

    def time(self, case: str) -> float:
        return float(self.ask(case))


def main():
    args = ab.parse_args(__doc__, pairs=7)
    with ab.checkouts(args.base) as (srcs, parent_commit):
        versions = {v: Version(src, args.cpu) for v, src in srcs.items()}
        cases = [c for c in versions["parent"].cases
                 if c in versions["change"].cases]
        times = {c: {v: [] for v in versions} for c in cases}
        for order in ab.orders(args.pairs):
            for case in cases:
                for name in order:
                    times[case][name].append(versions[name].time(case))
        for version in versions.values():
            version.close()

    rows = []
    for case, us in times.items():
        config, row, n = json.loads(case)
        medians = {v: statistics.median(t) for v, t in us.items()}
        change = statistics.median(c / p - 1 for p, c in zip(us["parent"],
                                                              us["change"]))
        rows.append({"config": config, "row": row, "n": n, "us": us,
                     "median_us": medians, "change_vs_parent": change})
        print(f"{config:22s} {row:40s} N={n:<6d} parent "
              f"{medians['parent']:8.1f} us   change {medians['change']:8.1f} us"
              f"   {change:+.1%}")
    ab.write(args, __file__, parent_commit,
             "microseconds per filters.step of every row of the shipped "
             "configs, best of 5 repeats, before and after the change; "
             "change_vs_parent is the median over pairs of change / parent "
             "- 1; both processes first free one 8 MiB block, which lifts "
             "glibc's mmap threshold above the step's temporaries, so the "
             "page faults a fresh process pays on them at N = 4e4 are left "
             "out", sizes=SIZES, rows=rows)


if __name__ == "__main__":
    main()
