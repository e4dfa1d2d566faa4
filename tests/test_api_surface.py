"""No library code that only tests call: every top-level function and class
of src/flowfilter is referenced by the library itself, by the benchmark
(perfbench/) or by the bench scripts (benchmarks/), or is listed below with
the reason it stays.  The same holds for the defaulted parameters of the
top-level functions: a program sets each one, or a config does through a
row's gain options, or it is listed below with its reason.  And for the
fields of the dataclasses: a program reads each one, or it is listed below
with the acceptance criterion that reads it."""

import ast
from pathlib import Path

from flowfilter.gain import ASSEMBLERS, GAIN_OPTS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "flowfilter"
PROGRAMS = sorted(SRC.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")) \
    + sorted((ROOT / "benchmarks").glob("*.py"))

# name -> why it stays without a caller outside the tests
KEPT = {
    "affine_pushforward": "the paper's affine push-forward of a Poincare "
                          "constant (theory API)",
    "lipschitz_transfer": "the paper's Lipschitz transfer of a Poincare "
                          "constant (theory API)",
    "brascamp_lieb_check": "the paper's Brascamp-Lieb bound (theory API), "
                           "held by acceptance criterion 5",
}

# "function.parameter" -> why the defaulted parameter stays though no
# program sets it
KEPT_PARAMS = {
    "affine_pushforward.b": "the shift of the paper's affine push-forward "
                            "(theory API)",
    "brascamp_lieb_check.f_prime": "the derivative of the test function of "
                                   "the Brascamp-Lieb bound (theory API)",
    "brascamp_lieb_check.tol": "the tolerance of the Brascamp-Lieb bound "
                               "(theory API)",
    "run_filter.gain_opts": "the gain options of the one-run driver, as a "
                            "lockstep Run carries them",
    "solve_1d_integral.particles": "the gain at given points, read by "
                                   "acceptance criterion 3",
    "solve_1d_integral.eps_floor": "the density floor the bitwise oracle "
                                   "varies",
}

# "Class.field" -> the acceptance criterion that reads the dataclass field
# though no program does
KEPT_FIELDS = {
    "RunReport.ref_covs": "criterion 1: the Kalman-Bucy covariances the "
                          "filter covariances are held to",
    "FilterRun.final_particles": "criterion 2: the terminal clouds of the "
                                 "filters it holds equal",
    "GainField.gain_grid": "criterion 3: the integral gain on its grid, in "
                           "the rbar identity",
    "GainField.coefficients": "criterion 3: the Galerkin psi coefficients, "
                              "which vanish for a linear h",
    "BrascampLiebReport.variance": "criterion 5: the variance side of the "
                                   "Brascamp-Lieb equality",
    "BrascampLiebReport.bound": "criterion 5: the bound side of the "
                                "Brascamp-Lieb equality",
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
    for path in PROGRAMS:
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



def _signatures():
    """function -> (positional parameter names, count of the required ones,
    defaulted parameter names) of each top-level function of src."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = [a.arg for a in args.posonlyargs + args.args]
                required = len(positional) - len(args.defaults)
                keyword = [a.arg for a, d in zip(args.kwonlyargs,
                                                 args.kw_defaults)
                           if d is not None]
                out[node.name] = (positional, required,
                                  positional[required:] + keyword)
    return out


def _defaulted(signatures):
    """"function.parameter" of each defaulted parameter."""
    return {f"{name}.{param}" for name, (_, _, params) in signatures.items()
            for param in params}


def _set_by_programs(signatures):
    """The "function.parameter" entries that a call in src, perfbench/ or
    benchmarks/ sets: by keyword, by position past the required
    parameters, or by a ** mapping, which may hold any of them.  A call
    names the function bare or as an attribute (cli.main)."""
    found = set()
    for path in PROGRAMS:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name not in signatures:
                continue
            positional, required, params = signatures[name]
            if any(kw.arg is None for kw in node.keywords):
                given = params
            else:
                given = positional[required:len(node.args)] \
                    + [kw.arg for kw in node.keywords]
            found |= {f"{name}.{param}" for param in given if param in params}
    return found


def _row_options():
    """"function.parameter" of each option a row of gain.ASSEMBLERS takes
    from a config's gain_opts: the GAIN_OPTS keys of each gain it serves."""
    return {f"{row.__name__}.{key}" for table in ASSEMBLERS.values()
            for gain, row in table.items() for key in GAIN_OPTS.get(gain, {})}


def test_every_defaulted_parameter_is_set_or_has_a_reason():
    signatures = _signatures()
    unset = sorted(_defaulted(signatures) - _set_by_programs(signatures)
                   - _row_options() - set(KEPT_PARAMS))
    assert unset == []


def test_every_kept_parameter_exists_and_is_still_unset():
    signatures = _signatures()
    assert set(KEPT_PARAMS) <= _defaulted(signatures)
    assert not set(KEPT_PARAMS) & _set_by_programs(signatures)



def _fields():
    """"Class.field" of each field of each dataclass of src: the annotated
    names in the body of a class decorated with @dataclass."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and any(
                    "dataclass" in ast.unparse(d) for d in node.decorator_list):
                out |= {f"{node.name}.{stmt.target.id}" for stmt in node.body
                        if isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)}
    return out


def _read_by_programs():
    """Every name through which src, perfbench/ or benchmarks/ may read a
    field: an attribute it loads, or a string constant, as cli reads a
    FilterResult's report fields with getattr(res, key)."""
    names = set()
    for path in PROGRAMS:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_field_is_read_or_has_a_criterion():
    read = _read_by_programs()
    unread = sorted(f for f in _fields() - set(KEPT_FIELDS)
                    if f.split(".")[1] not in read)
    assert unread == []


def test_every_kept_field_exists_and_is_still_unread():
    assert set(KEPT_FIELDS) <= _fields()
    assert not {f.split(".")[1] for f in KEPT_FIELDS} & _read_by_programs()
