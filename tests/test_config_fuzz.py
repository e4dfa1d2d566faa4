"""Fuzzed experiment configs: `flowfilter run|sweep|theory` exits 2 on a
config error, 0 or 3 after running, and never raises out of `main`.  Besides
random filters, initial laws and sizes, each config perturbs paths of the
schema `cli.CONFIG`, every one of them (each built-in model's parameters and
each gain's options included) in the course of the run: a path takes a
value from a pool shared by all paths (wrong JSON types, or left out), its
table default, or a hand list of edge values.  Each edge value also runs
once under every command on a fixed base config, and one shaped to the
model's dimension (a scale of the identity) on that of each linear
model, in 1D, 2D and 3D.  No config makes a line
of the library raise a RuntimeWarning (an overflow or an invalid value):
an edge case is a typed error or a checked result."""

import copy
import itertools
import json
import os
import tempfile
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import flowfilter
from flowfilter import gain
from flowfilter.cli import CONFIG, REQUIRED, FilterSpec, _Pick, _twin, main
from flowfilter.filters import FilterKind
from flowfilter.gain import ASSEMBLERS

COMMANDS = ("run", "sweep", "theory")
MODELS = {
    "linear_1d": {"name": "linear_gaussian", "A": [[-0.5]], "H": [1.0]},
    "tanh_1d": {"name": "scalar_tanh"},
    "linear_2d": {"name": "linear_gaussian", "A": [[-0.5, 0.2], [0.0, -1.0]],
                  "H": [1.0, 0.5]},
    "linear_3d": {"name": "linear_gaussian",
                  "A": [[-0.5, 0.2, 0.0], [0.0, -1.0, 0.1], [0.0, 0.0, -0.8]],
                  "H": [1.0, 0.5, -0.3]},
}
KINDS = sorted({label.split("(")[0] for label in ASSEMBLERS}) + ["nosuch"]
GAINS = sorted({gain for row in ASSEMBLERS.values() for gain in row}) + ["nosuch"]
MASS_MATRICES = [None, "identity", "cov_inverse", "rho_identity", "nosuch"]
# every (kind, mass_matrix, gain) of the table, so most filters get past parsing
TABLE = [(label.split("(")[0], label[:-1].split("(")[1] if "(" in label else None,
          gain) for label, row in sorted(ASSEMBLERS.items()) for gain in row]

KDE_OPTS = st.fixed_dictionaries({}, optional={
    "grid_points": st.sampled_from([3, 201, 2, 1.5, True]),
    "half_width": st.sampled_from([4.0, 0.5, 0.0, "wide"]),
    "bandwidth": st.sampled_from(["silverman", 0.3, 5.0, -0.1, "scott"]),
    "pad_sigmas": st.sampled_from([8.0, 1.0, float("inf")]),
})
GAIN_OPTS = st.fixed_dictionaries({}, optional={
    "eps_floor": st.sampled_from([1e-8, 0.5, 0, -1.0, None]),
    "kde_opts": KDE_OPTS,
    "bogus": st.just(1),
})

ABSENT = object()       # the perturbed key is left out


class Eye:
    """An edge value scale * I, shaped to the dimension of the config's
    model where it is put in place."""

    def __init__(self, scale):
        self.scale = scale

    def __repr__(self):
        return f"Eye({self.scale:g})"

    def shaped(self, dim):
        return (self.scale * np.eye(dim)).tolist()


def _model_dim(raw) -> int:
    """The dimension of raw's model: the length of its H, 1 without one."""
    model = raw.get("model")
    H = model.get("H") if isinstance(model, dict) else None
    return len(H) if isinstance(H, list) else 1


# wrong JSON types for any field, shared by every path
POOL = [ABSENT, [1], "abc", 2.5, True, None, {"k": 1}, 7]
# edge values of some paths, on top of the pool and the table default
FIELD_VALUES = {
    "sweep.delta": [[0.01], "abc", [0], [], [-0.01], [0.0075], [1e308],
                    ["x"], [0.04, 0.01]],
    "sweep.seeds": [[11], ["a"], [-1], 5, [True], [], [0, 7]],
    "sweep.n": [[1], [0], [True], [2.5], 16, [16], [10**12]],
    "seeds.truth": ["x", -1, 2.5, None, True, 0, 7],
    "seeds.observation": ["x", -1, [2], 9],
    "seeds.filter": ["x", -3, 1e3, 4],
    "reference.grid_kushner": [[1], {"points": "x"}, {"points": 1},
                               {"points": 3}, {"points": 2.5},
                               {"half_width": 0}, {"half_width": 0.5},
                               {"half_width": 1e308}, {"bogus": 1},
                               {"points": 31, "half_width": 8.0},
                               {"half_width": 1e-300}, {"half_width": 1e200},
                               {"points": 10**12}],
    "reference.kalman_bucy": [False, "no", True],
    "model.name": [[], 3, None, "nosuch", "scalar_tanh"],
    # 700 I: an unstable drift that keeps short paths finite
    "model.A": ["x", [[1.0, 0.0]], [[-0.5]], [[-0.5, 0.0], [0.0, -1.0]],
                [[1.0, 2.0], [3.0]], Eye(700.0)],
    "model.H": ["x", [1.0, 0.5], [1.0], {"a": 1}, [float("inf")]],
    "model.c": ["2.0", 0, 1e-200, 2.0, 1e200],
    "grid.T": [0.0, -0.01, "0.02", 0.015, 1e308, 10**12],
    "grid.t0": [0.01, -1e308],
    "grid.fine_dt": [0.0025, 0.003, 1e-300],
    "filters[].kind": KINDS,
    "filters[].gain": GAINS,
    "filters[].mass_matrix": MASS_MATRICES,
    # 1e290 I: a law whose Kalman-Bucy P H^T H P overflows
    "init.cov": [[[-1.0]], [[1.0, 2.0], [3.0]], [[0.5]], Eye(1e290)],
    # a bandwidth far below the KDE grid spacing; a floor far below the
    # density, on which the Ito term of the continuous-time twin that a
    # sweep runs overflows on the grid
    "filters": [[], [{"kind": "delta_fpf", "gain": "integral_1d",
                      "gain_opts": {"kde_opts": {"bandwidth": 1e-200}}}],
                [{"kind": "delta_fpf", "gain": "integral_1d",
                  "gain_opts": {"eps_floor": 1e-300}}]],
    "ensemble_size": [10**12],
}


def _nodes(spec, path="", picks=()):
    """(path, picks, spec) of every field below spec, where picks are the
    (object path, key, value) choices under which the field exists; the
    items of a list of objects are at path[]."""
    if isinstance(spec, tuple):
        if isinstance(spec[1], list) and not isinstance(spec[1][0], tuple):
            yield path + "[]", picks, spec[1][0]
            yield from _nodes(spec[1][0], path + "[]", picks)
    elif isinstance(spec, _Pick):
        yield f"{path}.{spec.key}", picks, spec.leaf
        for choice, table in spec.tables.items():
            yield from _nodes(table or {}, path, picks + ((path, spec.key, choice),))
    else:
        for key, sub in spec.items():
            where = f"{path}.{key}".lstrip(".")
            yield where, picks, sub
            yield from _nodes(sub, where, picks)


NODES = {}
for _path, _picks, _spec in _nodes(CONFIG):
    NODES.setdefault(_path, []).append((_picks, _spec))
PATHS = sorted(NODES)
FUZZED = set()


def _inits(dim):
    g = np.linspace(-4.0, 4.0, 81)
    v = np.exp(-0.5 * g * g)
    v /= np.trapezoid(v, g)
    return {"gaussian": {"kind": "gaussian", "mean": [0.5] * dim,
                         "cov": np.eye(dim).tolist()},
            "grid_table": {"kind": "grid_table", "grid": g.tolist(),
                           "values": v.tolist()}}


def _malformed_inits(dim):
    good = _inits(dim)["grid_table"]
    negative = copy.deepcopy(good)
    negative["values"][40] = -negative["values"][40]
    uneven = copy.deepcopy(good)
    uneven["grid"][40] += 0.05
    return [{"kind": "gaussian", "mean": [0.0] * dim, "cov": (-np.eye(dim)).tolist()},
            {"kind": "gaussian", "mean": [0.0] * (dim + 1), "cov": np.eye(dim).tolist()},
            negative, uneven, {**good, "values": good["values"][:-1]},
            {**good, "grid": good["grid"][::-1]}]


def _filter_base(gain_name):
    """The first TABLE row of gain_name that has a continuous-time twin in
    1D, which every command asks of each filter when sweep.delta is set,
    as it is in every fuzzed config; the first row when none has one
    (fundamental_mc, which runs only in d >= 2)."""
    rows = [row for row in TABLE if row[2] == gain_name]
    kind, mm, _ = next((row for row in rows if _twin(
        FilterSpec(FilterKind(row[0], row[1]), gain_name, {}), 1)), rows[0])
    return {"kind": kind, "gain": gain_name, **({"mass_matrix": mm} if mm else {})}


# the object a pick puts in place, by (object path, value of its key)
BASES = {
    **{("model", name): {"name": name} for name in ("log_concave_ou", "scalar_tanh")},
    ("model", "linear_gaussian"): MODELS["linear_1d"],
    **{("init", kind): law for kind, law in _inits(1).items()},
    **{("filters[]", gain_name): _filter_base(gain_name)
       for gain_name in sorted({row[2] for row in TABLE})},
}


def _owner(raw, path):
    """The object holding the last key of path, and that key, with the
    objects on the way added where absent; None when a field on the way is
    not an object (or a list of objects)."""
    *names, last = path.split(".")
    owner = raw
    for name in names:
        item = name.endswith("[]")
        owner = owner.setdefault(name[:-2] if item else name, [] if item else {}) \
            if isinstance(owner, dict) else None
        if item:
            owner = owner[0] if isinstance(owner, list) and owner else None
    if last.endswith("[]"):
        owner = owner.get(last[:-2]) if isinstance(owner, dict) else None
        return (owner, 0) if isinstance(owner, list) and owner else (None, None)
    return (owner, last) if isinstance(owner, dict) else (None, None)


def _perturb(raw, path, picks, value) -> bool:
    """Put each pick's object in place, then the value at path."""
    for where, _, choice in picks:
        owner, key = _owner(raw, where)
        if owner is None:
            return False
        owner[key] = copy.deepcopy(BASES[(where, choice)])
    owner, key = _owner(raw, path)
    if owner is None:
        return False
    if isinstance(value, Eye):
        value = value.shaped(_model_dim(raw))
    if value is ABSENT:
        if isinstance(owner, dict):
            owner.pop(key, None)
        else:
            owner.pop(key)
    else:
        owner[key] = copy.deepcopy(value)
    return True


def _values(path, spec):
    """The values a path is perturbed by: the pool, its default, its edges."""
    default = [spec[2]] if isinstance(spec, tuple) and spec[2:] \
        and spec[2] is not REQUIRED else []
    return POOL + default + FIELD_VALUES.get(path, [])


def _raw(model, init, filters, n_mesh=2, ensemble_size=16, delta=(0.01,), n=()):
    return copy.deepcopy({
        "model": MODELS[model],
        "grid": {"t0": 0.0, "T": 0.01 * n_mesh, "delta": 0.01, "fine_dt": 0.005},
        "init": init,
        "ensemble_size": ensemble_size,
        "filters": filters,
        "seeds": {"truth": 1, "observation": 2, "filter": 3},
        "reference": {"grid_kushner": {"half_width": 5.0, "points": 201}},
        "sweep": {"delta": list(delta), "seeds": [11], "n": list(n)},
    })


@st.composite
def configs(draw):
    model = draw(st.sampled_from(sorted(MODELS)))
    listed = st.builds(lambda row, opts: {
        "kind": row[0], "gain": row[2], **({"mass_matrix": row[1]} if row[1] else {}),
        **({"gain_opts": opts} if opts else {})},
        st.sampled_from(TABLE), st.one_of(st.just({}), st.just({}), GAIN_OPTS))
    anything = st.fixed_dictionaries(
        {"kind": st.sampled_from(KINDS), "gain": st.sampled_from(GAINS)},
        optional={"mass_matrix": st.sampled_from(MASS_MATRICES),
                  "gain_opts": GAIN_OPTS})
    filters = draw(st.lists(st.one_of(listed, listed, listed, anything),
                            max_size=2))
    # about one config in two perturbs a path, one in four a second one
    perturbed = [draw(st.sampled_from(PATHS)) for share in (2, 4)
                 if draw(st.integers(1, share)) == share]
    if any(path.startswith("model.") for path in perturbed):
        model = "linear_1d"         # the 1D laws fit every built-in model
    dim = _model_dim({"model": MODELS[model]})
    raw = _raw(model, draw(st.sampled_from(3 * list(_inits(dim).values())
                                           + _malformed_inits(dim))),
               filters, n_mesh=draw(st.integers(1, 5)),
               ensemble_size=draw(st.sampled_from([16, 64, 2, 5, 40, 0, 1])),
               delta=draw(st.sampled_from([[0.01], [0.01], [0.02, 0.01]])),
               n=draw(st.sampled_from([[], [16]])))
    applied = []
    for path in perturbed:
        picks, spec = draw(st.sampled_from(NODES[path]))
        if _perturb(raw, path, picks, draw(st.sampled_from(_values(path, spec)))):
            applied.append(path)
    return draw(st.sampled_from(COMMANDS)), raw, applied


def _base(model="linear_1d"):
    """A config on model from a Gaussian law, with a filter that runs in
    its dimension and has a continuous-time twin there."""
    dim = _model_dim({"model": MODELS[model]})
    return _raw(model, _inits(dim)["gaussian"],
                [{"kind": "delta_fpf", "gain": "integral_1d"} if dim == 1
                 else {"kind": "enkbf", "gain": "exact_gaussian"}])


def _one_per_path():
    """One config per path of the table, perturbing that path by one of its
    values, so that every path is fuzzed whatever hypothesis draws."""
    for i, path in enumerate(PATHS):
        picks, spec = NODES[path][i % len(NODES[path])]
        values = _values(path, spec)
        raw = _base()
        applied = _perturb(raw, path, picks, values[i % len(values)])
        yield COMMANDS[i % len(COMMANDS)], raw, [path] if applied else []


def _every_edge_value():
    """One config per listed edge value and command, so that every edge
    value runs whatever hypothesis draws; an Eye value runs on each linear
    model, in place on its base config (the picks would put the 1D
    linear model and law in place)."""
    linear = [model for model in sorted(MODELS)
              if MODELS[model]["name"] == "linear_gaussian"]
    for path, values in FIELD_VALUES.items():
        picks, _ = NODES[path][0]
        for value in values:
            bases = [(_base(model), ()) for model in linear] \
                if isinstance(value, Eye) else [(_base(), picks)]
            for (base, base_picks), command in itertools.product(bases,
                                                                 COMMANDS):
                raw = copy.deepcopy(base)
                applied = _perturb(raw, path, base_picks, value)
                yield command, raw, [path] if applied else []


SRC = os.path.dirname(flowfilter.__file__) + os.sep


def _exits_0_2_or_3(case):
    command, raw, applied = case
    with tempfile.TemporaryDirectory() as tmp, \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RuntimeWarning)
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        assert main([command, path, "--out-dir", os.path.join(tmp, "out")]) \
            in (0, 2, 3)
    ours = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
            if issubclass(w.category, RuntimeWarning)
            and w.filename.startswith(SRC)]
    assert not ours, (command, raw, ours)
    FUZZED.update(applied)


def test_fuzzed_configs_exit_0_2_or_3():
    FUZZED.clear()
    for case in itertools.chain(_one_per_path(), _every_edge_value()):
        _exits_0_2_or_3(case)
    settings(max_examples=300, derandomize=True, deadline=None)(
        given(configs())(_exits_0_2_or_3))()
    assert FUZZED == set(PATHS)


# a valid value of each kde_opts leaf, other than its default
KDE_VALUES = {"grid_points": 201, "half_width": 4.0, "bandwidth": 0.3,
              "pad_sigmas": 6.0}


def test_fuzzed_kde_opts_reach_the_kde(monkeypatch):
    # a pick of integral_1d puts in place a row that a delta sweep accepts,
    # so a perturbed kde_opts leaf passes parse and reaches the estimate
    seen = []

    def spy(x, **opts):
        seen.append(opts)
        return original(x, **opts)

    original = gain.kde_density_1d
    monkeypatch.setattr(gain, "kde_density_1d", spy)
    prefix = "filters[].gain_opts.kde_opts."
    leaves = [path for path in PATHS if path.startswith(prefix)]
    assert sorted(path[len(prefix):] for path in leaves) == sorted(KDE_VALUES)
    for path, command in itertools.product(leaves, ("run", "sweep")):
        leaf = path[len(prefix):]
        [(picks, _)] = NODES[path]
        raw = _raw("linear_1d", _inits(1)["gaussian"],
                   [{"kind": "delta_fpf", "gain": "constant"}])
        assert _perturb(raw, path, picks, KDE_VALUES[leaf])
        seen.clear()
        with tempfile.TemporaryDirectory() as tmp:
            config = os.path.join(tmp, "config.json")
            with open(config, "w") as fh:
                json.dump(raw, fh)
            assert main([command, config, "--out-dir",
                         os.path.join(tmp, "out")]) == 0, (path, command)
        assert seen and all(opts == {leaf: KDE_VALUES[leaf]} for opts in seen), \
            (path, command, seen[:1])
