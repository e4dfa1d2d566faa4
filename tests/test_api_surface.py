"""No library code that only tests call: every top-level function and class
of src/flowfilter is referenced by the library itself, by the benchmark
(perfbench/) or by the bench scripts (benchmarks/), or is listed below with
the reason it stays."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flowfilter"

# name -> why it stays without a caller outside the tests
KEPT = {
    "riccati_fixed_point": "the scalar Kalman-Bucy fixed point that the "
                           "reference tests compare the Riccati flow with",
    "check_gradient": "the finite-difference check that the model tests "
                      "hold every obs_grad to",
    "density_from_function": "builds the reference densities the gain and "
                             "acceptance tests solve on",
    "affine_pushforward": "the paper's affine push-forward of a Poincare "
                          "constant (theory API)",
    "lipschitz_transfer": "the paper's Lipschitz transfer of a Poincare "
                          "constant (theory API)",
    "brascamp_lieb_check": "the paper's Brascamp-Lieb bound (theory API), "
                           "held by acceptance criterion 5",
}


def _defined():
    """(module file, name) of every top-level def and class in src."""
    return [(path.name, node.name)
            for path in sorted(SRC.glob("*.py"))
            for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def _referenced():
    """Every identifier that src (but its __init__.py re-exports), perfbench/
    and benchmarks/ use: names, attributes and imported names, plus the
    string constants of perfbench/ and benchmarks/, through which the
    tracer looks names up.  A def or class statement's own name is not a
    reference."""
    bench = sorted((ROOT / "perfbench").glob("*.py")) \
        + sorted((ROOT / "benchmarks").glob("*.py"))
    names = set()
    for path in sorted(SRC.glob("*.py")) + bench:
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and path in bench:
                names.add(node.value)
    return names


def test_every_library_name_has_a_caller_or_a_reason():
    used = _referenced()
    unused = sorted(f"{module}:{name}" for module, name in _defined()
                    if name not in used and name not in KEPT)
    assert unused == []


def test_every_kept_name_exists_and_is_still_unused():
    defined = {name for _, name in _defined()}
    assert set(KEPT) <= defined
    assert not set(KEPT) & _referenced()
