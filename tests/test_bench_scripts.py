"""The bench scripts under benchmarks/ start against the current src: the
timing child of bench_pipeline.py builds its case list from the shipped
configs, and is stopped before it times anything.  No earlier commit is
cloned."""

import importlib
import json
import os
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_pipeline_child_lists_the_shipped_rows(monkeypatch):
    # the scripts import each other by module name
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    bench = importlib.import_module("bench_pipeline")
    version = bench.Version(ROOT / "src", max(os.sched_getaffinity(0)))
    try:
        cases = [tuple(json.loads(case)) for case in version.cases]
    finally:
        version.close()
    assert version.proc.returncode == 0
    rows = {}
    for config, row, n in cases:
        rows.setdefault(config, set()).add(row)
    # every size of every row
    assert sorted(cases) == sorted((config, row, n) for config in rows
                                   for row in rows[config] for n in bench.SIZES)
    assert rows == {
        # a delta sweep also runs each filter's continuous-time twin
        "delta_sweep.json": {"enkbf/exact_gaussian",
                             "fpf_continuous/exact_gaussian"},
        "linear_gaussian.json": {
            f"{kind}/exact_gaussian" for kind in (
                "delta_fpf", "delta_reich(cov_inverse)", "crisan_xiong",
                "enkbf", "fpf_continuous", "crisan_continuous")},
        "nonlinear_tanh.json": {"delta_fpf/integral_1d",
                                "crisan_xiong/integral_1d",
                                "delta_fpf/galerkin"},
    }
