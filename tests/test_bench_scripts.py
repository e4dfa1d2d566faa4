"""The bench scripts under benchmarks/ start against the current src: the
harness of ab.py lays out its two copies on an equal footing and
alternates the pair order, the start-up child of bench_startup.py and the
timing child of bench_kernels.py run from a copy of src, and the timing
child of bench_pipeline.py builds its case list from the shipped configs,
and is stopped before it times anything.  No earlier commit is cloned."""

import importlib
import json
import os
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CPU = max(os.sched_getaffinity(0))


@pytest.fixture
def bench(monkeypatch):
    """import_module for the bench scripts, which import each other by
    module name."""
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    return importlib.import_module


def test_harness_copies_have_src_paths_of_one_length_and_no_bytecode(
        bench, monkeypatch, tmp_path):
    ab = bench("ab")
    # the src copy leaves out every __pycache__, at any depth
    tree = tmp_path / "tree"
    for cache in (tree / "__pycache__", tree / "pkg" / "__pycache__"):
        cache.mkdir(parents=True)
        (cache / "m.cpython-311.pyc").write_bytes(b"")
    (tree / "pkg" / "m.py").write_text("")
    copy = ab.copy_src(tmp_path / "copy", tree)
    assert (copy / "pkg" / "m.py").is_file()
    assert not list(copy.rglob("__pycache__"))

    # a clone checks out tracked files only; here it checks out nothing
    def git(*args, cwd=ab.ROOT):
        if args[0] == "clone":
            (Path(args[-1]) / "src").mkdir(parents=True)
        return "0" * 40

    monkeypatch.setattr(ab, "git", git)
    with ab.checkouts("HEAD") as (srcs, parent_commit):
        assert parent_commit == "0" * 40
        assert len(str(srcs["parent"])) == len(str(srcs["change"]))
        assert srcs["parent"].parent.parent == srcs["change"].parent.parent
        assert (srcs["change"] / "flowfilter" / "cli.py").is_file()
        for src in srcs.values():
            assert not list(src.rglob("__pycache__"))


def test_harness_alternates_which_version_goes_first(bench):
    ab = bench("ab")
    assert list(ab.orders(4)) == [("parent", "change"), ("change", "parent")] * 2
    calls = []
    samples = ab.collect(5, lambda version, i: calls.append((i, version)) or i)
    assert calls == [(i, v) for i, order in enumerate(ab.orders(5))
                     for v in order]
    assert samples == {"parent": list(range(5)), "change": list(range(5))}


def test_bench_startup_child_runs_from_the_change_copy(bench, tmp_path):
    ab, startup = bench("ab"), bench("bench_startup")
    src = ab.copy_src(tmp_path / "change")
    result = startup.startup(src, CPU)
    assert result["setup_s"] > 0 and result["rss_mb"] > 0
    assert Path(result["module"]).is_relative_to(src)


def test_bench_kernels_child_times_its_rows_from_the_change_copy(
        bench, tmp_path):
    ab, kernels = bench("ab"), bench("bench_kernels")
    src = ab.copy_src(tmp_path / "change")
    child = kernels.base_child(src, CPU)
    try:
        rows = child.head["rows"]
        us = float(child.ask("kushner 10 fine steps (1201x26)"))
        ms = float(child.ask("crisan_xiong/fundamental_mc (2D, N = 1000)"))
    finally:
        child.close()
    assert child.proc.returncode == 0
    assert Path(child.head["module"]).is_relative_to(src)
    assert rows == list(kernels.base_rows())
    assert {"kushner_substeps (2001x70)", "kushner 10 fine steps (2001x70)",
            "crisan_xiong/fundamental_mc (2D, N = 4000)"} <= set(rows)
    assert 0 < us < 1e3 and 0 < ms < 1e4


def test_bench_pipeline_child_lists_the_shipped_rows(bench):
    pipeline = bench("bench_pipeline")
    version = pipeline.Version(ROOT / "src", CPU)
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
                                   for row in rows[config]
                                   for n in pipeline.SIZES)
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
