"""Fuzzed experiment configs: `flowfilter run|sweep` exits 2 on a config
error, 0 or 3 after running, and never raises out of `main`."""

import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfilter.cli import main
from flowfilter.gain import ASSEMBLERS

MODELS = {
    "linear_1d": {"name": "linear_gaussian", "A": [[-0.5]], "H": [1.0]},
    "tanh_1d": {"name": "scalar_tanh"},
    "linear_2d": {"name": "linear_gaussian", "A": [[-0.5, 0.2], [0.0, -1.0]],
                  "H": [1.0, 0.5]},
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
# a JSON value of the wrong type for any of the top-level fields below
WRONG_TYPE = st.sampled_from([[1], "abc", 2.5, True, None, {"k": 1}, 7])
TYPED_FIELDS = ["model", "grid", "init", "seeds", "sweep", "reference",
                "filters", "ensemble_size"]
GAIN_OPTS = st.fixed_dictionaries({}, optional={
    "eps_floor": st.sampled_from([1e-8, 0.5, 0, -1.0, None]),
    "kde_opts": KDE_OPTS,
    "bogus": st.just(1),
})


def _table(grid, values):
    return {"kind": "grid_table", "grid": list(grid), "values": list(values)}


def _inits(dim):
    """As many good initial laws as malformed ones."""
    g = np.linspace(-4.0, 4.0, 81)
    v = np.exp(-0.5 * g * g)
    v /= np.trapezoid(v, g)
    negative = v.copy()
    negative[40] = -negative[40]
    good = [{"kind": "gaussian", "mean": [0.5] * dim, "cov": np.eye(dim).tolist()},
            _table(g, v)]
    return st.sampled_from(3 * good + [
        {"kind": "gaussian", "mean": [0.0] * dim, "cov": (-np.eye(dim)).tolist()},
        {"kind": "gaussian", "mean": [0.0] * (dim + 1), "cov": np.eye(dim).tolist()},
        _table(g, negative),
        _table(g + np.where(np.arange(81) == 40, 0.05, 0.0), v),
        _table(g, v[:-1]),
        _table(g[::-1], v)])


@st.composite
def configs(draw):
    model = draw(st.sampled_from(sorted(MODELS)))
    dim = 2 if model.endswith("2d") else 1
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
    n_mesh = draw(st.integers(1, 5))
    raw = {
        "model": MODELS[model],
        "grid": {"t0": 0.0, "T": 0.01 * n_mesh, "delta": 0.01, "fine_dt": 0.005},
        "init": draw(_inits(dim)),
        "ensemble_size": draw(st.sampled_from([16, 64, 2, 5, 40, 0, 1])),
        "filters": filters,
        "seeds": {"truth": 1, "observation": 2, "filter": 3},
        "reference": {"grid_kushner": {"half_width": 5.0, "points": 201}},
        "sweep": {"delta": draw(st.sampled_from([[0.01], [0.01], [0.02, 0.01]])),
                  "seeds": [11], "n": draw(st.sampled_from([[], [16]]))},
    }
    if draw(st.integers(0, 7)) == 0:        # one config in eight
        field = draw(st.sampled_from(TYPED_FIELDS + ["sweep.n"]))
        if field == "sweep.n":
            raw["sweep"]["n"] = draw(st.sampled_from([[1], [0], [True], [2.5], 16]))
        else:
            raw[field] = draw(WRONG_TYPE)
    return draw(st.sampled_from(["run", "sweep"])), raw


@settings(max_examples=300, derandomize=True, deadline=None)
@given(configs())
def test_fuzzed_configs_exit_0_2_or_3(case):
    command, raw = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w") as fh:
            json.dump(raw, fh)
        assert main([command, path, "--out-dir", os.path.join(tmp, "out")]) \
            in (0, 2, 3)
