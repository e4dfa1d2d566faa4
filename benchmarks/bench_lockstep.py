#!/usr/bin/env python3
"""Time the CLI end to end against an earlier commit, with its page faults.

Run:  PYTHONPATH=src python benchmarks/bench_lockstep.py [--base REV]
          [--pairs N] [--cpu K] [--out PATH]

Three workloads: `flowfilter run configs/nonlinear_tanh.json`, the same
run at N = 4e4 with T = 0.3, and `flowfilter sweep
configs/delta_sweep.json` restricted to its first sweep seed.  Each
execution is a fresh process started through the harness of ab.py, which
sets the versions, the pinning and the pair order, N pairs per workload
(default 8).  Each execution enters through `cli.main`, as the
`flowfilter` command does, in a fresh working directory, and records the
wall time, the minor page faults (`ru_minflt`) and the system time
(`ru_stime`) of that call, CSV emission included.  Pair i writes to an
--out-dir of OUT_DIR_LENGTHS[i % 8] characters in both versions: the
heap layout, and with it how often glibc hands freed temporaries back to
the kernel, depends on such lengths.  Each execution also hashes its CSV
outputs, so the record shows whether both versions wrote the same bytes.
With --out, the samples, quartiles, wins and whether the digests agree
follow the record header of ab.py.
"""

import json
import tempfile
from pathlib import Path

import ab

CONFIGS = ab.ROOT / "configs"

# --out-dir lengths, in characters, that the pairs cycle through
OUT_DIR_LENGTHS = (1, 6, 11, 17, 23, 28, 34, 40)
OUTPUTS = {"run": ["series.csv", "gain_log.csv"],
           "sweep": ["sweep.csv", "sweep_trends.csv"]}

# one execution: import the version under test, run the subcommand through
# cli.main in a fresh working directory, measure the call, hash its outputs
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


def execute(src: Path, cpu: int, config: Path, command: str,
            out_dir: str) -> dict:
    result = ab.result(src, cpu, "-c", CHILD, config, command, out_dir,
                       json.dumps(OUTPUTS[command]))
    if result["rc"] != 0:
        raise RuntimeError(f"{command} {config} exited {result['rc']}")
    return result


def main():
    args = ab.parse_args(__doc__, pairs=len(OUT_DIR_LENGTHS))
    with ab.checkouts(args.base) as (srcs, parent_commit), \
            tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        tanh = json.loads((CONFIGS / "nonlinear_tanh.json").read_text())
        tanh["ensemble_size"] = 40000
        tanh["grid"]["T"] = 0.3
        (tmp / "tanh_4e4.json").write_text(json.dumps(tanh))
        sweep = json.loads((CONFIGS / "delta_sweep.json").read_text())
        sweep["sweep"]["seeds"] = sweep["sweep"]["seeds"][:1]
        (tmp / "sweep.json").write_text(json.dumps(sweep))
        workloads = {"run nonlinear_tanh": ("run",
                                            CONFIGS / "nonlinear_tanh.json"),
                     "run nonlinear_tanh, N = 4e4, T = 0.3": ("run",
                                                              tmp / "tanh_4e4.json"),
                     "sweep delta_sweep, one seed": ("sweep", tmp / "sweep.json")}
        record = {}
        for name, (command, config) in workloads.items():
            runs = ab.collect(args.pairs, lambda version, i: execute(
                srcs[version], args.cpu, config, command,
                "o" * OUT_DIR_LENGTHS[i % len(OUT_DIR_LENGTHS)]))
            record[name] = {key: ab.compare(runs, key)
                            for key in ("wall_s", "minflt", "stime_s")}
            for key, comparison in record[name].items():
                ab.show(f"{name}: {key}", comparison)
            same = record[name]["outputs_identical"] = all(
                r["sha256"] == runs["parent"][0]["sha256"]
                for rs in runs.values() for r in rs)
            print(f"{name}: outputs {'identical' if same else 'DIFFER'}")

    ab.write(args, __file__, parent_commit,
             "wall time, minor page faults and system time of cli.main on two "
             "run workloads and one delta-sweep seed, parent against change, "
             f"--out-dir lengths cycled over {list(OUT_DIR_LENGTHS)}",
             workloads=record)


if __name__ == "__main__":
    main()
