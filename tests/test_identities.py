"""The paper's exact identities as properties of one step: on drawn clouds,
slopes, step sizes, models and gain options, the rows of gain.ASSEMBLERS
that the theory makes equal give the same step.  The tolerances are those
of the example tests (tests/test_filters.py and criterion 2):

* the exact-Gaussian row of every kind is the EnKBF step, within 1e-14;
* delta_reich(rho_identity) is Crisan & Xiong, bitwise;
* in 1D every delta kind takes one integral_1d row, the Crisan & Xiong
  row, and its field (a, K) is the FPF field of the FPF's own two solves
  (tests/test_bitwise.py's oracle), within 1e-12;
* in 1D fpf_continuous and crisan_continuous agree, within 1e-12;
* every galerkin row's gain is the Galerkin gain on the linear monomials
  (tests/test_bitwise.py's oracle), within 1e-12 of max|K|;
* the continuous-time galerkin rows are their constant rows, bitwise."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_bitwise import oracle_fpf, oracle_galerkin

from flowfilter.ensemble import compute_moments
from flowfilter.filters import STEP_ERRORS, FilterKind, step
from flowfilter.gain import ASSEMBLERS, assemble_filter_coefficients
from flowfilter.models import SystemModel, make_linear_gaussian
from flowfilter.rng import CounterStream


def _tanh(draw):
    return SystemModel(dim=1, drift=lambda x: -x,
                       obs=lambda x: np.tanh(x[:, 0]),
                       obs_grad=lambda x: (1 / np.cosh(x[:, 0]) ** 2)[:, None],
                       drift_lipschitz=1.0, obs_sup=1.0, obs_sq_sup=1.0)


def _linear_1d(draw):
    return make_linear_gaussian([[-draw(st.floats(0.1, 2.0))]],
                                [draw(st.floats(0.5, 2.0))])


def _linear_2d(draw):
    a, b, c = (draw(st.floats(lo, hi)) for lo, hi in
               ((0.1, 2.0), (-0.5, 0.5), (0.1, 2.0)))
    return make_linear_gaussian([[-a, b], [0.0, -c]],
                                [draw(st.floats(0.5, 2.0)), draw(st.floats(-1.0, 1.0))])


SHAPES = {"linear_1d": _linear_1d, "tanh_1d": _tanh, "linear_2d": _linear_2d}
INTEGRAL_OPTS = st.fixed_dictionaries({}, optional={
    "eps_floor": st.sampled_from([1e-8, 1e-6, 1e-3]),
    "kde_opts": st.fixed_dictionaries({}, optional={
        "grid_points": st.integers(3, 801),
        "half_width": st.floats(0.5, 12.0),
        "bandwidth": st.one_of(st.just("silverman"), st.floats(0.05, 2.0)),
        "pad_sigmas": st.floats(1.0, 10.0),
    }),
})


def _kind(label):
    tag, _, mass = label[:-1].partition("(") if "(" in label else (label, "", None)
    return FilterKind(tag, mass)


@st.composite
def cases(draw):
    model = SHAPES[draw(st.sampled_from(sorted(SHAPES)))](draw)
    n = draw(st.integers(3, 300))
    seed = draw(st.integers(0, 10_000))
    dt = draw(st.floats(1e-4, 1e-2))
    x = draw(st.floats(-2.0, 2.0)) + draw(st.floats(0.2, 2.0)) * \
        CounterStream(seed, label=0).normals(0, (n, model.dim))
    dv = np.sqrt(dt) * CounterStream(seed, label=1).normals(0, (n, model.dim))
    return model, x, dv, draw(st.floats(-5.0, 5.0)), dt, draw(INTEGRAL_OPTS)


def _outcome(label, gain, case, opts):
    """The step of the row, or the type of the error it raised."""
    model, x, dv, slope, dt, _ = case
    try:
        return step(_kind(label), gain, model, x, slope, dt, dv, **opts)
    except STEP_ERRORS as exc:      # the rows compared must refuse alike
        return type(exc)


def _gap(a, b) -> float:
    if not isinstance(a, tuple) or not isinstance(b, tuple):
        assert a is b, (a, b)
        return 0.0
    return float(np.max(np.abs(a[0] - b[0])))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cases())
def test_identities_hold_at_the_step(case):
    model, x, dv, slope, dt, integral_opts = case
    d = model.dim

    def opts(gain):
        return integral_opts if gain == "integral_1d" else {}

    if model.H is not None:     # the exact gain needs a linear model
        enkbf = _outcome("enkbf", "exact_gaussian", case, {})
        assert isinstance(enkbf, tuple)
        for label, row in ASSEMBLERS.items():
            if "exact_gaussian" in row and (d == 1 or label != "crisan_continuous"):
                assert _gap(_outcome(label, "exact_gaussian", case, {}),
                            enkbf) <= 1e-14, label

    for gain in ASSEMBLERS["crisan_xiong"]:
        reich = _outcome("delta_reich(rho_identity)", gain, case, opts(gain))
        crisan = _outcome("crisan_xiong", gain, case, opts(gain))
        if isinstance(crisan, tuple):
            assert reich[0].tobytes() == crisan[0].tobytes(), gain
            assert repr(reich[1]) == repr(crisan[1]), gain
        else:
            assert reich is crisan, gain

    if d != 1:
        return
    try:
        row = assemble_filter_coefficients("delta_fpf", x, model,
                                           "integral_1d", **integral_opts)
    except STEP_ERRORS as exc:
        row = type(exc)
    try:
        a, K = oracle_fpf(x, model, **integral_opts)
    except STEP_ERRORS as exc:      # the row must refuse as the oracle does
        assert row is type(exc), (row, exc)
    else:
        assert not isinstance(row, type), row
        assert np.max(np.abs(row.K - K)) <= 1e-12
        assert np.max(np.abs(row.a - a)) <= 1e-12

    for gain in ASSEMBLERS["fpf_continuous"]:
        assert _gap(_outcome("fpf_continuous", gain, case, opts(gain)),
                    _outcome("crisan_continuous", gain, case, opts(gain))) <= 1e-12, gain


DELTA_KINDS = ("delta_fpf", "delta_reich(identity)", "delta_reich(cov_inverse)",
               "delta_reich(rho_identity)", "crisan_xiong")


def test_delta_kinds_share_one_integral_row():
    # in 1D the FPF, Reich (M = I, P^{-1} or rho I) and Crisan & Xiong
    # coefficient fields are one field
    rows = {ASSEMBLERS[label]["integral_1d"] for label in DELTA_KINDS}
    assert rows == {ASSEMBLERS["crisan_xiong"]["integral_1d"]}
    assert set(DELTA_KINDS) == {label for label in ASSEMBLERS
                                if label not in ("enkbf", "fpf_continuous",
                                                 "crisan_continuous")}


# the drift solve of each galerkin row, None for the continuous-time rows,
# which have none
GALERKIN_DRIFTS = {"delta_fpf": "fpf_psi", "delta_reich(identity)": "reich_omega",
                   "delta_reich(cov_inverse)": "reich_omega",
                   "fpf_continuous": None, "crisan_continuous": None}


def _assert_linear_galerkin_gain(label, model, x):
    if label == "crisan_continuous" and model.dim != 1:
        return                      # a 1D-only kind
    moments = compute_moments(x, model)
    drift_kind = GALERKIN_DRIFTS[label]
    # M = P^{-1} for delta_reich(cov_inverse), M = I for the others
    m_inv = moments.cov if label == "delta_reich(cov_inverse)" else None
    try:
        K = oracle_galerkin(x, model, "fpf_phi", m_inv=m_inv).at_particles
    except STEP_ERRORS:
        return                      # no gain to compare: the case is skipped
    try:
        row = ASSEMBLERS[label]["galerkin"](x, model)
    except STEP_ERRORS as exc:
        # only a delta row's drift solve may refuse, and as its oracle does
        assert drift_kind is not None, (label, exc)
        with pytest.raises(type(exc)):
            oracle_galerkin(x, model, drift_kind, m_inv=m_inv, prior_gain=K)
        return
    assert np.max(np.abs(row.K - K)) <= 1e-12 * np.max(np.abs(K)), label


@pytest.mark.parametrize("label", sorted(GALERKIN_DRIFTS))
@settings(max_examples=200, derandomize=True, deadline=None)
@given(case=cases())
def test_galerkin_rows_take_the_linear_galerkin_gain(label, case):
    _assert_linear_galerkin_gain(label, *case[:2])


@pytest.mark.parametrize("n", [10000, 40000])
@pytest.mark.parametrize("shape, label", [
    (shape, label) for shape in ("tanh_1d", "linear_2d")
    for label in sorted(GALERKIN_DRIFTS)
    if shape == "tanh_1d" or label != "crisan_continuous"])
def test_galerkin_rows_take_the_linear_galerkin_gain_at_run_sizes(shape, label, n):
    # the ensemble sizes the shipped configs run, above numpy's
    # 8192-element reduction buffer
    model = _tanh(None) if shape == "tanh_1d" else make_linear_gaussian(
        [[-1.0, 0.3], [0.0, -0.5]], [1.1, -0.3])
    x = 0.4 + 1.3 * CounterStream(n, label=0).normals(0, (n, model.dim))
    _assert_linear_galerkin_gain(label, model, x)


@pytest.mark.parametrize("label", ["fpf_continuous", "crisan_continuous"])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(case=cases())
def test_continuous_galerkin_rows_are_the_constant_rows(label, case):
    """The config name galerkin stays accepted for the continuous-time
    kinds and gives their constant step, bitwise, or the same refusal."""
    if label == "crisan_continuous" and case[0].dim != 1:
        return
    galerkin = _outcome(label, "galerkin", case, {})
    constant = _outcome(label, "constant", case, {})
    if isinstance(constant, tuple):
        assert galerkin[0].tobytes() == constant[0].tobytes()
        assert repr(galerkin[1]) == repr(constant[1])
    else:
        assert galerkin is constant
