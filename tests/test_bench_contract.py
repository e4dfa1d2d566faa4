"""The benchmark reaches into the library by name: the tracer
(perfbench/layers.py) rebinds module attributes, and the child harness
(perfbench/child.py) imports names from flowfilter.  Every such name must
exist where the benchmark looks for it, or `perfbench/run.py` breaks on a
rename in src/."""

import ast
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
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
