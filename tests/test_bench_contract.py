"""The benchmark reaches into the library by name: the tracer
(perfbench/layers.py) rebinds module attributes, and the child harness
(perfbench/child.py) imports names from flowfilter.  Every such name must
exist where the benchmark looks for it, or `perfbench/run.py` breaks on a
rename in src/."""

import ast
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np

from flowfilter import _kernels, cli, gain
from flowfilter.ensemble import Density1D
from flowfilter.errors import IllConditioned
from flowfilter.models import make_linear_gaussian
from flowfilter.reference import run_grid_kushner, substeps_per_fine_step

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _layers():
    return _perfbench("layers")


def test_traced_names_resolve():
    layers = _layers()
    missing = [(module, attr) for module, attr, _ in layers.TRACED
               if attr not in importlib.import_module(module).__dict__]
    assert missing == []


def test_child_imports_resolve():
    tree = ast.parse((PERFBENCH / "child.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("flowfilter"):
            imported += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names
                         if alias.name.startswith("flowfilter")]
    assert ("flowfilter.reference", "GridDensity") in imported
    missing = []
    for module, name in imported:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            try:            # `from package import submodule`
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append((module, name))
    assert missing == []


def test_kushner_kernels_take_nsub_seventh():
    # the tracer reads a kernel call's substeps as args[6]
    for fn in (_kernels.kushner_substeps, _kernels._kushner_substeps_impl):
        params = list(inspect.signature(getattr(fn, "py_func", fn)).parameters)
        assert params[6] == "nsub"
    theta = np.ones(11)
    args = (theta, np.zeros(11), np.zeros(11), np.full(11, 0.1), 0.1,
            1e-3, 7, 0.0)
    info = _layers().INFO["kernels.kushner_substeps"]
    assert info(args, {}, (theta, 0)) == (11 * 7, 7)


def test_grid_kushner_makes_one_kernel_call_per_fine_step(monkeypatch):
    # perfbench's reference.substeps_per_fine_step averages nsub per call
    calls = []
    kernel = _kernels.kushner_substeps

    def counted(*args):
        calls.append(args[6])
        return kernel(*args)

    monkeypatch.setattr(_kernels, "kushner_substeps", counted)
    g = np.linspace(-4.0, 4.0, 81)
    dens = Density1D(grid=g, values=np.exp(-0.5 * g * g))
    fine_dt, steps_per_mesh, n_mesh = 0.01, 3, 4
    run_grid_kushner(dens, make_linear_gaussian([[-0.5]], [1.0]),
                     np.zeros(n_mesh), fine_dt, steps_per_mesh)
    nsub = substeps_per_fine_step(dens, fine_dt)
    assert nsub > 1
    assert calls == [nsub] * (n_mesh * steps_per_mesh)


def test_check_run_reads_the_cli_outputs(tmp_path, monkeypatch):
    # perfbench's correctness gate against real output of cli.main: a healthy
    # run passes, and an aborted filter is one failed operation named by label
    bench = _perfbench("run")
    raw = json.loads((PERFBENCH.parent / "configs" / "nonlinear_tanh.json")
                     .read_text())
    raw["ensemble_size"], raw["grid"]["T"] = 2000, 0.1
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    ops = bench.expected_ops("run", raw)
    assert ops == 3
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path / "ok")]) == 0
    failed, worst, problems, note = bench.check_run(tmp_path / "ok", raw, ops)
    assert (failed, problems, note) == (0, [], None)
    assert 0 < worst <= bench.RMSE_LIMIT

    def ill_conditioned(x, model, **opts):
        raise IllConditioned(1e13)

    monkeypatch.setitem(gain.ASSEMBLERS["delta_fpf"], "galerkin",
                        ill_conditioned)
    assert cli.main(["run", str(config), "--out-dir", str(tmp_path / "bad")]) == 3
    failed, worst, problems, note = bench.check_run(tmp_path / "bad", raw, ops)
    assert failed == 1 and note is None
    assert problems == ["delta_fpf/galerkin: FilterAborted: aborted at fine "
                        "step 0: IllConditioned: stiffness matrix condition "
                        "number 1.000e+13 exceeds 1e12"]
    assert 0 < worst <= bench.RMSE_LIMIT
