import copy
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from flowfilter.cli import (SCHEMA_VERSION, emit_plot_data, emit_sweep_csv,
                            emit_theory_csv, main, parse_config,
                            run_delta_sweep, run_experiment,
                            theory_certificates)
from flowfilter import gain
from flowfilter.errors import ConfigError, NonNestedMeshes

BASE = {
    "schema_version": SCHEMA_VERSION,
    "model": {"name": "linear_gaussian", "A": [[-0.5]], "H": [1.0]},
    "grid": {"t0": 0.0, "T": 0.1, "delta": 0.01, "fine_dt": 0.001},
    "init": {"kind": "gaussian", "mean": [1.0], "cov": [[0.5]]},
    "ensemble_size": 200,
    "filters": [{"kind": "enkbf", "gain": "exact_gaussian"},
                {"kind": "delta_fpf", "gain": "exact_gaussian"}],
    "seeds": {"truth": 1, "observation": 2, "filter": 3},
    "output_dir": "out",
}


def _cfg(**overrides):
    raw = copy.deepcopy(BASE)
    raw.update(overrides)
    return parse_config(raw)


def test_parse_config_requires_explicit_seeds():
    raw = copy.deepcopy(BASE)
    del raw["seeds"]["filter"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "seeds.filter" in str(err.value)


def test_parse_config_rejects_bad_filter_kind():
    cases = [
        ({"kind": "bogus"}, {}, "filters[0]"),
        ({"kind": "enkbf", "gain": "nosuch"}, {}, "filters[0].gain"),
        ({"kind": "crisan_xiong", "gain": "galerkin"}, {}, "filters[0].gain"),
        ({"kind": "enkbf", "gain": "constant"}, {}, "filters[0].gain"),
        ({"kind": "delta_fpf", "gain": "fundamental_mc"}, {},
         "filters[0].gain"),
        ({"kind": "enkbf", "gain": "exact_gaussian",
          "gain_opts": {"bogus": 1}}, {}, "filters[0].gain_opts.bogus"),
        ({"kind": "fpf_continuous", "gain": "exact_gaussian"},
         {"delta": [0.01]}, "filters[0].kind"),
    ]
    for filt, sweep, field in cases:
        raw = copy.deepcopy(BASE)
        raw["filters"] = [filt]
        raw["sweep"] = sweep
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == field
        assert field in str(err.value)


def test_parse_config_rejects_bad_gain_opts_values():
    kde = "filters[0].gain_opts.kde_opts"
    cases = [
        ({"kde_opts": {"grid_points": 1.5}}, f"{kde}.grid_points"),
        ({"kde_opts": {"grid_points": 2}}, f"{kde}.grid_points"),
        ({"kde_opts": {"grid_points": True}}, f"{kde}.grid_points"),
        ({"kde_opts": {"half_width": 0.0}}, f"{kde}.half_width"),
        ({"kde_opts": {"half_width": "wide"}}, f"{kde}.half_width"),
        ({"kde_opts": {"pad_sigmas": float("inf")}}, f"{kde}.pad_sigmas"),
        ({"kde_opts": {"bandwidth": "scott"}}, f"{kde}.bandwidth"),
        ({"kde_opts": {"bandwidth": -0.1}}, f"{kde}.bandwidth"),
        ({"kde_opts": {"bandwidth": float("nan")}}, f"{kde}.bandwidth"),
        ({"eps_floor": -1.0}, "filters[0].gain_opts.eps_floor"),
        ({"eps_floor": 0}, "filters[0].gain_opts.eps_floor"),
    ]
    for opts, field in cases:
        raw = copy.deepcopy(BASE)
        raw["filters"] = [{"kind": "delta_fpf", "gain": "integral_1d",
                           "gain_opts": opts}]
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert err.value.field == field, opts
    good = copy.deepcopy(BASE)
    good["filters"] = [{"kind": "delta_fpf", "gain": "integral_1d",
                        "gain_opts": {"eps_floor": 1e-6, "kde_opts": {
                            "grid_points": 3, "half_width": 4,
                            "bandwidth": "silverman", "pad_sigmas": 6.0}}}]
    parse_config(good)


def test_main_bad_gain_opts_values_exit_2(tmp_path):
    # a float grid_points used to pass parsing and exit 1 from np.linspace;
    # a negative eps_floor used to run on NaN grid tails and exit 0
    for i, opts in enumerate([{"kde_opts": {"grid_points": 1.5}},
                              {"eps_floor": -1.0}]):
        raw = copy.deepcopy(BASE)
        raw["filters"] = [{"kind": "delta_fpf", "gain": "integral_1d",
                           "gain_opts": opts},
                          {"kind": "enkbf", "gain": "exact_gaussian"}]
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(raw))
        assert main(["run", str(path), "--out-dir", str(tmp_path / f"o{i}")]) == 2


def test_parse_config_rejects_nondividing_sweep_delta():
    raw = copy.deepcopy(BASE)
    raw["sweep"] = {"delta": [0.03]}
    with pytest.raises(ConfigError):
        parse_config(raw)


@pytest.mark.parametrize("key, value, field", [
    ("model", [1], "model"),
    ("grid", "0.1", "grid"),
    ("init", [1], "init"),
    ("seeds", [1, 2, 3], "seeds"),
    ("sweep", 5, "sweep"),
    ("reference", "grid_kushner", "reference"),
    ("filters", {"kind": "enkbf"}, "filters"),
    ("filters", [1], "filters[0]"),
    ("ensemble_size", "abc", "ensemble_size"),
    ("ensemble_size", 2.5, "ensemble_size"),
    ("ensemble_size", True, "ensemble_size"),
    ("sweep", {"n": [1]}, "sweep.n"),
    ("sweep", {"n": [0]}, "sweep.n"),
    ("sweep", {"n": 16}, "sweep.n"),
])
def test_wrong_json_types_exit_2_naming_the_field(tmp_path, capsys, key,
                                                   value, field):
    # each used to raise out of main (exit 1), or, for ensemble_size 2.5
    # and sweep.n [0], to run at another size than the config says
    raw = copy.deepcopy(BASE)
    raw[key] = value
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == field
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    command = "sweep" if key == "sweep" else "run"
    assert main([command, str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert f"config error: config.{field}:" in capsys.readouterr().err


def test_run_experiment_empty_filter_list_references_only():
    cfg = _cfg(filters=[])
    report = run_experiment(cfg)
    assert report.results == []
    assert report.reference_kind == "kalman_bucy"
    assert report.ref_means.shape == (11, 1)


def test_run_experiment_every_filter_appears_once():
    report = run_experiment(_cfg())
    labels = [r.label for r in report.results]
    assert labels == ["enkbf/exact_gaussian", "delta_fpf/exact_gaussian"]
    for r in report.results:
        assert r.error is None
        assert np.isfinite(r.rmse_mean)


def test_emit_plot_data_schema(tmp_path):
    report = run_experiment(_cfg())
    emit_plot_data(report, str(tmp_path))
    head = open(tmp_path / "series.csv").readline().strip().split(",")
    assert head == ["t", "filter", "mean_1", "cov_11", "h_bar",
                    "err_mean", "err_cov"]
    ghead = open(tmp_path / "gain_log.csv").readline().strip().split(",")
    assert ghead == ["filter", "step", "method", "residual", "centring",
                     "condition_number", "epsilon"]
    summary = json.load(open(tmp_path / "report.json"))
    assert set(summary["filters"]) == {"enkbf/exact_gaussian",
                                       "delta_fpf/exact_gaussian"}
    assert summary["slope_checksum"] == report.slope_checksum


def test_report_json_reference_clip_count(tmp_path):
    emit_plot_data(run_experiment(_cfg(filters=[])), str(tmp_path / "kb"))
    summary = json.load(open(tmp_path / "kb" / "report.json"))
    assert summary["reference"] == "kalman_bucy"
    assert summary["reference_clip_count"] is None
    cfg = _cfg(model={"name": "scalar_tanh"}, filters=[],
               reference={"grid_kushner": {"half_width": 5.0, "points": 201}})
    emit_plot_data(run_experiment(cfg), str(tmp_path / "grid"))
    summary = json.load(open(tmp_path / "grid" / "report.json"))
    assert summary["reference"] == "grid_kushner"
    assert summary["reference_clip_count"] == 0


def test_emit_plot_data_empty_report_header_only(tmp_path):
    report = run_experiment(_cfg(filters=[]))
    emit_plot_data(report, str(tmp_path))
    lines = open(tmp_path / "series.csv").read().splitlines()
    assert len(lines) == 1


def test_run_experiment_bitwise_deterministic(tmp_path):
    r1 = run_experiment(_cfg())
    r2 = run_experiment(_cfg(), threads=2)
    emit_plot_data(r1, str(tmp_path / "a"))
    emit_plot_data(r2, str(tmp_path / "b"))
    for name in ("series.csv", "gain_log.csv"):
        assert open(tmp_path / "a" / name, "rb").read() == \
            open(tmp_path / "b" / name, "rb").read()


def test_crash_isolation_one_filter_cannot_abort_siblings():
    cfg = _cfg(filters=[
        {"kind": "crisan_xiong", "gain": "fundamental_mc"},   # d=1: fails
        {"kind": "enkbf", "gain": "exact_gaussian"},
    ])
    report = run_experiment(cfg)
    assert report.results[0].error is not None
    assert report.results[1].error is None


def test_numerical_error_in_a_step_spares_siblings(tmp_path, monkeypatch):
    def singular(x, model, moments):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setitem(gain.ASSEMBLERS["delta_fpf"], "constant", singular)
    raw = copy.deepcopy(BASE)
    raw["filters"] = [{"kind": "delta_fpf", "gain": "constant"},
                      {"kind": "enkbf", "gain": "exact_gaussian"}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 3
    series = open(tmp_path / "o" / "series.csv").read()
    assert ",enkbf/exact_gaussian," in series
    assert "delta_fpf/constant" not in series
    report = json.loads(open(tmp_path / "o" / "report.json").read())
    assert "LinAlgError" in report["filters"]["delta_fpf/constant"]["error"]


def test_sweep_seed_flag_overrides_listed_seeds(tmp_path):
    raw = copy.deepcopy(BASE)
    raw["sweep"] = {"delta": [0.02, 0.01], "seeds": [11, 12]}
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(raw))
    raw["sweep"]["seeds"] = [5]
    only = tmp_path / "only.json"
    only.write_text(json.dumps(raw))
    assert main(["sweep", str(listed), "--seed", "5",
                 "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["sweep", str(only), "--out-dir", str(tmp_path / "b")]) == 0
    rows = open(tmp_path / "a" / "sweep.csv").read().splitlines()[1:]
    assert rows and all(row.split(",")[2] == "5" for row in rows)
    for name in ("sweep.csv", "sweep_trends.csv"):
        assert open(tmp_path / "a" / name, "rb").read() == \
            open(tmp_path / "b" / name, "rb").read()


def test_cli_import_leaves_out_scipy_integrate():
    src = os.path.dirname(os.path.dirname(gain.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    out = subprocess.run(
        [sys.executable, "-c", "import sys, flowfilter.cli; "
         "print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_sweep_single_delta_trend_na(tmp_path):
    cfg = _cfg()
    cfg.sweep = {"delta": [0.01], "seeds": [11]}
    report = run_delta_sweep(cfg)
    assert len(report.rows) == len(cfg.filters)
    assert all(np.isnan(v) for v in report.trends.values())
    emit_sweep_csv(report, str(tmp_path))
    assert open(tmp_path / "sweep.csv").readline().startswith("axis,")


def test_sweep_without_delta_list_needs_twins(tmp_path):
    # with sweep.delta left to default, a continuous-time filter used to
    # raise KeyError out of main (exit 1)
    raw = copy.deepcopy(BASE)
    raw["filters"] = [{"kind": "fpf_continuous", "gain": "exact_gaussian"}]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["sweep", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 0


def test_sweep_rejects_non_nested_meshes():
    cfg = _cfg()
    cfg.sweep = {"delta": [0.05, 0.02], "seeds": [1]}
    with pytest.raises(NonNestedMeshes):
        run_delta_sweep(cfg)


def test_sweep_n_axis_scaling():
    # moment-error std over seeds shrinks ~ 1/sqrt(N) within a factor of 2
    cfg = _cfg(filters=[{"kind": "enkbf", "gain": "exact_gaussian"}])
    cfg.sweep = {"n": [64, 1024], "seeds": [101 + 7 * k for k in range(16)]}
    report = run_delta_sweep(cfg)
    by_n = {}
    for row in report.rows:
        if row.axis == "n":
            by_n.setdefault(row.value, []).append(row.rmse)
    stds = {n: np.std(v) for n, v in by_n.items()}
    compensated = {n: stds[n] * np.sqrt(n) for n in stds}
    vals = list(compensated.values())
    assert max(vals) / min(vals) <= 2.0


def test_theory_certificates_rows(tmp_path):
    cfg = _cfg(model={"name": "log_concave_ou", "c": 1.0, "c_g": 1.0,
                      "H": [1.0]},
               init={"kind": "gaussian", "mean": [0.0], "cov": [[0.5]]},
               reference={"grid_kushner": {"half_width": 6.0, "points": 1201}})
    rows = theory_certificates(cfg)
    provs = [r.provenance for r in rows]
    assert provs.count("lemma42") == 3          # t in {0, T/2, T}
    assert "gamma_recursion" in provs
    emit_theory_csv(rows, str(tmp_path))
    head = open(tmp_path / "theory.csv").readline().strip().split(",")
    assert head == ["provenance", "inputs", "kappa", "kappa_emp", "margin"]


def test_theory_rows_at_shifted_start(tmp_path):
    # snapshots counted from t = 0 used to drop the t0 and midpoint rows
    # of a grid starting at t0 = 1
    cfg = _cfg(model={"name": "log_concave_ou", "c": 1.0, "c_g": 1.0,
                      "H": [1.0]},
               grid={"t0": 1.0, "T": 2.0, "delta": 0.05, "fine_dt": 0.001},
               init={"kind": "gaussian", "mean": [0.0], "cov": [[0.5]]},
               reference={"grid_kushner": {"half_width": 6.0, "points": 201}})
    rows = theory_certificates(cfg)
    assert len(rows) == 4
    assert [r.inputs.split(";t=")[1] for r in rows
            if r.provenance == "lemma42"] == ["1", "1.5", "2"]


def _grid_table(points=81, half=4.0):
    g = np.linspace(-half, half, points)
    v = np.exp(-0.5 * g * g)
    return {"kind": "grid_table", "grid": g.tolist(),
            "values": (v / np.trapezoid(v, g)).tolist()}


def test_grid_table_init_run_and_theory_exit_0(tmp_path):
    # the JSON lists used to reach InitialDensity.sample: TypeError, exit 1
    raw = copy.deepcopy(BASE)
    raw["model"] = {"name": "log_concave_ou", "c": 1.0, "H": [1.0]}
    raw["init"] = _grid_table()
    raw["filters"] = [{"kind": "delta_fpf", "gain": "exact_gaussian"},
                      {"kind": "delta_fpf", "gain": "integral_1d"}]
    path = tmp_path / "table.json"
    path.write_text(json.dumps(raw))
    for command in ("run", "theory"):
        assert main([command, str(path), "--out-dir", str(tmp_path / command)]) == 0
    # a linear-Gaussian model from a grid table has no Kalman-Bucy reference
    report = run_experiment(_cfg(init=_grid_table()))
    assert report.reference_kind == "grid_kushner"
    assert all(np.isfinite(r.rmse_mean) for r in report.results)


def test_grid_table_init_malformed_exit_2(tmp_path):
    negative = _grid_table()
    negative["values"][40] = -negative["values"][40]
    uneven = _grid_table()
    uneven["grid"][40] += 0.05
    short = _grid_table()
    short["values"].pop()
    for i, init in enumerate([negative, uneven, short]):
        with pytest.raises(ConfigError) as err:
            _cfg(init=init)
        assert err.value.field == "init"
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps({**BASE, "init": init}))
        assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2


def test_main_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(BASE))
    bad = tmp_path / "bad.json"
    raw = copy.deepcopy(BASE)
    del raw["seeds"]
    bad.write_text(json.dumps(raw))

    assert main(["run", str(good), "--out-dir", str(tmp_path / "o1")]) == 0
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "o2")]) == 2
    assert os.path.exists(tmp_path / "o1" / "series.csv")

    failing = copy.deepcopy(BASE)
    failing["filters"] = [{"kind": "crisan_xiong", "gain": "fundamental_mc"}]
    fail_path = tmp_path / "fail.json"
    fail_path.write_text(json.dumps(failing))
    assert main(["run", str(fail_path), "--out-dir", str(tmp_path / "o3")]) == 3

    invalid = copy.deepcopy(BASE)
    invalid["filters"] = [{"kind": "enkbf", "gain": "galerkin",
                           "gain_opts": {"bogus": 1}}]
    invalid_path = tmp_path / "invalid.json"
    invalid_path.write_text(json.dumps(invalid))
    assert main(["run", str(invalid_path), "--out-dir", str(tmp_path / "o4")]) == 2


def test_main_threads_flag_bitwise_identical(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE))
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "t1"),
                 "--threads", "1"]) == 0
    assert main(["run", str(cfg_path), "--out-dir", str(tmp_path / "t4"),
                 "--threads", "4"]) == 0
    assert open(tmp_path / "t1" / "series.csv", "rb").read() == \
        open(tmp_path / "t4" / "series.csv", "rb").read()


def test_register_custom_model():
    from flowfilter.cli import register_model, MODEL_REGISTRY
    from flowfilter.models import SystemModel

    def builder(params):
        c = float(params.get("rate", 1.0))
        return SystemModel(dim=1, drift=lambda x: -c * x**3,
                           obs=lambda x: x[:, 0],
                           obs_grad=lambda x: np.ones_like(x))

    register_model("cubic_well", builder)
    try:
        cfg = _cfg(model={"name": "cubic_well", "rate": 2.0},
                   filters=[{"kind": "delta_fpf", "gain": "integral_1d"}],
                   reference={"grid_kushner": {"half_width": 5.0,
                                               "points": 601}})
        report = run_experiment(cfg)
        assert report.results[0].error is None
        assert report.reference_kind == "grid_kushner"
    finally:
        del MODEL_REGISTRY["cubic_well"]


def _exit_and_field(tmp_path, capsys, raw, command="run"):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = main([command, str(path), "--out-dir", str(tmp_path / "o")])
    return code, capsys.readouterr().err


TANH_GRID = {"model": {"name": "scalar_tanh"}, "filters": [],
             "reference": {"grid_kushner": {"half_width": 5.0, "points": 201}}}


@pytest.mark.parametrize("opts, field", [
    ([1], "reference.grid_kushner"),
    ({"points": "x"}, "reference.grid_kushner.points"),
    ({"points": 1}, "reference.grid_kushner.points"),
    ({"points": 2.5}, "reference.grid_kushner.points"),
    ({"half_width": 0}, "reference.grid_kushner.half_width"),
    ({"half_width": "wide"}, "reference.grid_kushner.half_width"),
    ({"pionts": 201}, "reference.grid_kushner.pionts"),
])
def test_grid_kushner_options_checked_at_parse(tmp_path, capsys, opts, field):
    # each used to raise out of main (exit 1) when the reference was built
    raw = {**copy.deepcopy(BASE), **TANH_GRID,
           "reference": {"grid_kushner": opts}}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == field
    for command in ("run", "theory"):
        code, err_text = _exit_and_field(tmp_path, capsys, raw, command)
        assert code == 2
        assert f"config.{field}:" in err_text


def test_initial_law_without_mass_on_the_reference_grid_exit_2(tmp_path, capsys):
    raw = {**copy.deepcopy(BASE), **TANH_GRID,
           "init": {"kind": "gaussian", "mean": [50.0], "cov": [[0.01]]}}
    for command in ("run", "theory"):
        code, err_text = _exit_and_field(tmp_path, capsys, raw, command)
        assert code == 2
        assert "config.reference.grid_kushner:" in err_text


@pytest.mark.parametrize("key, value, field", [
    ("sweep", {"delta": "abc"}, "sweep.delta"),
    ("sweep", {"delta": [0]}, "sweep.delta"),
    ("sweep", {"delta": []}, "sweep.delta"),
    ("sweep", {"delta": [0.0015]}, "sweep.delta"),   # not a fine_dt multiple
    ("sweep", {"delta": [1e308]}, "sweep.delta"),
    ("sweep", {"seeds": ["a"]}, "sweep.seeds"),
    ("sweep", {"seeds": [-1]}, "sweep.seeds"),
    ("sweep", {"seeds": 5}, "sweep.seeds"),
    ("sweep", {"deltas": [0.01]}, "sweep.deltas"),
    ("seeds", {"truth": "x", "observation": 2, "filter": 3}, "seeds.truth"),
    ("seeds", {"truth": 1, "observation": 2.5, "filter": 3},
     "seeds.observation"),
    ("seeds", {"truth": 1, "observation": 2, "filter": -3}, "seeds.filter"),
])
def test_sweep_and_seed_values_checked(tmp_path, capsys, key, value, field):
    # the string and list cases used to raise ValueError or
    # ZeroDivisionError out of main (exit 1)
    raw = copy.deepcopy(BASE)
    raw[key] = value
    if key == "sweep" and value == {"delta": [0.0015]}:
        raw["grid"] = {"t0": 0.0, "T": 0.003, "delta": 0.001, "fine_dt": 0.001}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == field
    for command in ("run", "sweep"):
        code, err_text = _exit_and_field(tmp_path, capsys, raw, command)
        assert code == 2
        assert f"config.{field}:" in err_text


def test_negative_seed_flag_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    assert main(["run", str(path), "--seed", "-4",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "config.--seed:" in capsys.readouterr().err


@pytest.mark.parametrize("model, field", [
    ({"name": []}, "model.name"),
    ({"name": 3}, "model.name"),
    ({"name": "linear_gaussian", "A": "x", "H": [1.0]}, "model"),
    ({"name": "linear_gaussian", "A": [[-0.5]], "H": [1.0, 0.5]}, "model"),
    ({"name": "linear_gaussian", "A": [[-0.5]], "H": {"a": 1}}, "model"),
    ({"name": "log_concave_ou", "c": "x", "H": [1.0]}, "model"),
    ({"name": "log_concave_ou", "c": 0, "H": [1.0]}, "model"),   # was exit 3
])
def test_model_parameters_checked(tmp_path, capsys, model, field):
    # each used to raise TypeError or ValueError out of main (exit 1)
    raw = {**copy.deepcopy(BASE), "model": model}
    code, err_text = _exit_and_field(tmp_path, capsys, raw)
    assert code == 2
    assert f"config.{field}:" in err_text
