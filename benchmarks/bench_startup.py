#!/usr/bin/env python3
"""Time the start-up of flowfilter against an earlier commit.

Run:  PYTHONPATH=src python benchmarks/bench_startup.py [--base REV]
          [--pairs N] [--cpu K] [--out PATH]

Start-up is what every `flowfilter run|sweep|theory` pays before its
work: `import flowfilter.cli` plus `load_config` of
configs/nonlinear_tanh.json.  Each sample is a fresh process started
through the harness of ab.py, which sets the versions, the pinning and
the pair order; its time runs from just before the spawn to just after
the config is parsed, as perfbench measures `setup_s`, and its peak RSS
is `ru_maxrss` at that point (a small launcher starts it, see LAUNCH).
N pairs (default 10).  A pair is won by the lower side.  Each version's
top `-X importtime` entries by cumulative time are recorded from one more
start-up.  With --out, the samples, quartiles, wins and import entries
follow the record header of ab.py.
"""

import ab

CONFIG = ab.ROOT / "configs" / "nonlinear_tanh.json"

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


def startup(src, cpu: int) -> dict:
    return ab.result(src, cpu, "-c", LAUNCH, CHILD, CONFIG)


def import_entries(src, cpu: int, top: int = 12) -> list:
    """The top entries of `-X importtime` for `import flowfilter.cli`, by
    cumulative microseconds."""
    err = ab.launch(src, cpu, "-X", "importtime", "-c", "import flowfilter.cli",
                    check=True, capture_output=True).stderr
    rows = []
    for line in err.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, cumulative, name = line[len("import time:"):].split("|")
        rows.append({"module": name.strip(), "self_us": int(own),
                     "cumulative_us": int(cumulative)})
    return sorted(rows, key=lambda r: -r["cumulative_us"])[:top]


def main():
    args = ab.parse_args(__doc__, pairs=10)
    with ab.checkouts(args.base) as (srcs, parent_commit):
        samples = ab.collect(args.pairs,
                             lambda version, _: startup(srcs[version], args.cpu))
        imports = {v: import_entries(src, args.cpu) for v, src in srcs.items()}

    record = {metric: ab.compare(samples, metric)
              for metric in ("setup_s", "rss_mb")}
    for metric, comparison in record.items():
        ab.show(metric, comparison)
    for version, rows in imports.items():
        print(f"{version}: " + ", ".join(
            f"{r['module']} {r['cumulative_us'] / 1e3:.0f} ms" for r in rows[:4]))

    ab.write(args, __file__, parent_commit,
             "start-up of flowfilter: import flowfilter.cli plus load_config "
             "of configs/nonlinear_tanh.json, from spawn, in fresh pinned "
             "processes", metrics=record, importtime_top=imports)


if __name__ == "__main__":
    main()
