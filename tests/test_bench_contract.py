"""The benchmark tracer (perfbench/layers.py) rebinds module attributes by
name; every (module, attribute) it lists must exist where it is listed, or
`perfbench/run.py --trace 1` breaks on a rename in src/."""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    missing = [(module, attr) for module, attr, _ in layers.TRACED
               if attr not in importlib.import_module(module).__dict__]
    assert missing == []
