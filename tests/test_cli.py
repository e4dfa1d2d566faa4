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
