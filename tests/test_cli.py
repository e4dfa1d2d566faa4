import copy
import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import spearmanr

from flowfilter.cli import (SCHEMA_VERSION, emit_plot_data, emit_sweep_csv,
                            emit_theory_csv, main, parse_config,
                            run_delta_sweep, run_experiment,
                            theory_certificates)
from flowfilter import cli, filters, gain, theory
from flowfilter.filters import run_lockstep
from flowfilter.errors import ConfigError, IllConditioned

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
        ({"kind": "bogus"}, {}, "filters[0].kind"),
        ({"kind": "delta_fpf", "mass_matrix": "identity"}, {},
         "filters[0].mass_matrix"),
        ({"kind": "delta_reich"}, {}, "filters[0].mass_matrix"),
        ({"kind": "delta_reich", "mass_matrix": "nosuch"}, {},
         "filters[0].mass_matrix"),
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
    ("filters", [{"kind": []}], "filters[0].kind"),
    ("filters", [{"kind": "enkbf", "gain": []}], "filters[0].gain"),
    ("filters", [{"kind": "enkbf", "gain": {}}], "filters[0].gain"),
    ("grid", {"t0": 0.0, "T": [], "delta": 0.01, "fine_dt": 0.001}, "grid.T"),
    ("grid", {"t0": None, "T": 0.1, "delta": 0.01, "fine_dt": 0.001}, "grid.t0"),
    ("grid", {"t0": 0.0, "T": 0.1, "delta": 0.01, "fine_dt": {}}, "grid.fine_dt"),
    ("output_dir", 5, "output_dir"),
    ("filters", [{"kind": "delta_fpf", "gain": "integral_1d",
                  "gain_opt": {"eps_floor": 1e-6}}], "filters[0].gain_opt"),
    ("refrence", {"kalman_bucy": False}, "refrence"),
    ("grid", {"t_0": 0.0, "T": 0.1, "delta": 0.01, "fine_dt": 0.001}, "grid.t_0"),
    ("init", {"kind": "gaussian", "mean": [1.0], "cov": [[0.5]],
              "covariance": [[0.5]]}, "init.covariance"),
    ("grid", {"t0": 0.0, "T": "0.02", "delta": 0.01, "fine_dt": 0.001}, "grid.T"),
    ("filters", [{"kind": "delta_reich(identity)"}], "filters[0].kind"),
    ("model", {"name": "log_concave_ou", "D": 2.0}, "model.D"),
])
def test_wrong_json_types_exit_2_naming_the_field(tmp_path, capsys, key,
                                                   value, field):
    # each used to raise out of main (exit 1), or, for ensemble_size 2.5
    # and sweep.n [0], to run at another size than the config says; the
    # unknown keys and the string T were silently dropped or accepted
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


@pytest.mark.parametrize("name, reference, nsub", [
    # 1201 points over +-6: the grid step 0.009999999999999787 makes
    # 1e-3 / (0.4 dx^2) = 25.000000000001066, so 26 substeps
    ("nonlinear_tanh", "grid_kushner", 26),
    ("linear_gaussian", "kalman_bucy", None),
])
def test_report_json_environment_and_reference_substeps(tmp_path, name,
                                                        reference, nsub):
    # the shipped config, shortened to two mesh intervals with no filters:
    # the substeps depend only on the reference grid and fine_dt
    raw = json.loads(open(os.path.join(CONFIGS, f"{name}.json")).read())
    raw["grid"]["T"], raw["filters"] = 0.02, []
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw, indent=4))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 0
    summary = json.load(open(tmp_path / "o" / "report.json"))
    assert summary["reference"] == reference
    assert summary["reference_substeps_per_fine_step"] == nsub
    env = summary["environment"]
    assert env == {"backend": cli._kernels.BACKEND,
                   "python": sys.version.split()[0],
                   "numpy": np.__version__, "nproc": env["nproc"],
                   "config_sha256": hashlib.sha256(json.dumps(
                       raw, sort_keys=True, separators=(",", ":")).encode()
                   ).hexdigest()}
    assert isinstance(env["nproc"], int) and env["nproc"] >= 1


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
        # a 3-point KDE grid leaves the tail unresolved: fails at step 0
        {"kind": "crisan_xiong", "gain": "integral_1d",
         "gain_opts": {"kde_opts": {"grid_points": 3}}},
        {"kind": "enkbf", "gain": "exact_gaussian"},
    ])
    report = run_experiment(cfg)
    assert report.results[0].error is not None
    assert report.results[1].error is None


def test_numerical_error_in_a_step_spares_siblings(tmp_path, monkeypatch):
    def singular(x, model):
        raise IllConditioned(1e13)

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
    assert "IllConditioned" in report["filters"]["delta_fpf/constant"]["error"]


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
    out = _run_src(["-c", "import sys, flowfilter.cli; "
                    "print('scipy.integrate' in sys.modules)"], check=True)
    assert out.stdout.strip() == "False"


SCIPY_FREE = r"""
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
from flowfilter import cli
jobs, out = json.loads(sys.argv[1]), sys.argv[2]
for _, _, cfg in jobs:
    cli.load_config(cfg)
seen = {"import": scipy_modules()}
codes = {}
for name, command, cfg in jobs:
    codes[name] = cli.main([command, cfg, "--out-dir", out + "/" + name])
    seen[name] = scipy_modules()
print(json.dumps({"codes": codes, "scipy": seen}))
"""


def _run_src(args, **kwargs):
    """python args in a fresh process that imports flowfilter from this tree."""
    src = os.path.dirname(os.path.dirname(gain.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run([sys.executable] + args, env=env,
                          capture_output=True, text=True, **kwargs)


def test_run_and_theory_load_no_scipy(tmp_path):
    # nor do sweep, whose Spearman trend took scipy.stats, and a grid_table
    # run, whose sampling took scipy.special.ndtr
    raw = {**copy.deepcopy(BASE), **TANH_GRID, "ensemble_size": 300,
           "filters": [{"kind": "delta_fpf", "gain": "integral_1d"},
                       {"kind": "crisan_xiong", "gain": "integral_1d"},
                       {"kind": "delta_fpf", "gain": "galerkin"}]}
    configs = {"run": raw, "table": {**raw, "init": _grid_table()},
               "sweep": {**copy.deepcopy(BASE), "sweep": {
                   "delta": [0.02, 0.01], "seeds": [11]}}}
    for name, cfg in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    jobs = [["run", "run", str(tmp_path / "run.json")],
            ["table", "run", str(tmp_path / "table.json")],
            ["sweep", "sweep", str(tmp_path / "sweep.json")],
            ["theory", "theory", os.path.join(CONFIGS, "ou_theory.json")]]
    out = _run_src(["-c", SCIPY_FREE, json.dumps(jobs), str(tmp_path)],
                   check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["codes"] == {"run": 0, "table": 0, "sweep": 0, "theory": 0}
    assert result["scipy"] == {"import": [], "run": [], "table": [],
                               "sweep": [], "theory": []}


TIED = st.sampled_from([0.0, 1.0, 1.0, 2.5, -3.0]) | st.floats(-10, 10)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(TIED, min_size=n, max_size=n), st.lists(TIED, min_size=n, max_size=n))))
def test_spearman_is_scipys_bitwise(xy):
    x, y = (np.array(v) for v in xy)
    with warnings.catch_warnings():     # scipy and numpy warn on constant input
        warnings.simplefilter("ignore")
        ours, ref = cli._spearman(x, y), float(spearmanr(x, y).statistic)
    if len(set(y)) <= 1:
        assert np.isnan(ours) and np.isnan(ref)
    elif np.isnan(ref):
        assert np.isnan(ours)
    else:
        assert np.float64(ours).tobytes() == np.float64(ref).tobytes()


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


def test_sweep_runs_each_continuous_twin_once(monkeypatch, tmp_path):
    # three filters twinned with fpf_continuous/exact_gaussian on the same
    # cloud, grid and options used to run that twin three times per seed;
    # crisan_continuous/exact_gaussian is the same row, and the four delta
    # filters are one row too, so the group computes 1 twin and 2 deltas
    groups, steps, step = [], [], filters.step

    def recording(runs, model, seed):
        groups.append([f"{run.kind.label()}/{run.gain_method}" for run in runs])
        return run_lockstep(runs, model, seed)

    def counting(kind, gain_method, *args, **opts):
        steps.append(f"{kind.label()}/{gain_method}")
        return step(kind, gain_method, *args, **opts)

    monkeypatch.setattr(cli, "run_lockstep", recording)
    monkeypatch.setattr(filters, "step", counting)
    cfg = _cfg(filters=[{"kind": "delta_fpf", "gain": "exact_gaussian"},
                        {"kind": "delta_reich", "mass_matrix": "identity",
                         "gain": "exact_gaussian"},
                        {"kind": "enkbf", "gain": "exact_gaussian"},
                        {"kind": "crisan_xiong", "gain": "exact_gaussian"}],
               sweep={"delta": [0.02, 0.01], "seeds": [4]})
    report = run_delta_sweep(cfg)
    assert len(groups) == 1 and len(groups[0]) == 4 + 4 * 2
    n_fine = cfg.grid.n_fine
    assert steps.count("fpf_continuous/exact_gaussian") == n_fine
    assert len(steps) == 3 * n_fine
    assert len(report.rows) == 4 * 2 and all(np.isfinite(r.rmse)
                                             for r in report.rows)


def test_sweep_n_axis_takes_each_seed_path_and_reference_once(monkeypatch):
    # neither the path nor the reference of a seed depends on n: the n axis
    # takes the path of the delta axis and solves each seed's reference once
    # (8 path simulations and 6 references before)
    calls = {"paths": 0, "references": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cli, "_simulate_paths",
                        counted("paths", cli._simulate_paths))
    monkeypatch.setattr(cli, "_reference_solution",
                        counted("references", cli._reference_solution))
    cfg = _cfg(filters=[{"kind": "enkbf", "gain": "exact_gaussian"}],
               sweep={"n": [20, 40, 80], "seeds": [5, 6]})
    report = run_delta_sweep(cfg)
    assert calls == {"paths": 2, "references": 2}
    rows = [(r.value, r.seed) for r in report.rows if r.axis == "n"]
    assert rows == [(n, s) for n in (20.0, 40.0, 80.0) for s in (5, 6)]


@pytest.mark.parametrize("sweep", [{"delta": [0.02, 0.01]}, {}])
def test_sweep_without_filters_exit_2(tmp_path, capsys, sweep):
    # printed "sweep complete: 0 rows" and wrote header-only CSVs; run and
    # theory still take an empty filter list
    raw = {**copy.deepcopy(BASE), "sweep": sweep, "filters": []}
    code, err_text = _exit_and_field(tmp_path, capsys, raw, "sweep")
    assert code == 2
    assert "config.filters:" in err_text
    assert not os.path.exists(tmp_path / "o" / "sweep.csv")


def test_sweep_rejects_non_nested_meshes():
    cfg = _cfg()
    cfg.sweep = {"delta": [0.05, 0.02], "seeds": [1]}
    with pytest.raises(ConfigError) as err:
        run_delta_sweep(cfg)
    assert err.value.field == "sweep.delta"


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


@pytest.mark.parametrize("step, monotone", [(-1e-12, 1), (0.0, 1),
                                            (1e-12, 0)])
def test_sweep_monotone_count_drops_for_a_rise_of_1e_12(monkeypatch, step,
                                                       monotone):
    # a seed is monotone where no RMSE rises from one delta to the next
    rmses = iter([1.0, 1.0 + step])
    monkeypatch.setattr(cli, "_rmse", lambda means, ref:
                        float("nan") if ref is None else next(rmses))
    cfg = _cfg(model={"name": "scalar_tanh"}, ensemble_size=50,
               grid={"t0": 0.0, "T": 0.04, "delta": 0.02, "fine_dt": 0.001},
               filters=[{"kind": "delta_fpf", "gain": "constant"}])
    cfg.sweep = {"delta": [0.02, 0.01], "seeds": [1]}
    assert run_delta_sweep(cfg).monotone_counts == {
        "delta_fpf/constant": monotone}


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


def test_theory_margins_are_kappa_minus_kappa_emp(monkeypatch):
    # each lemma42 row against the kappa_emp of its own snapshot, and the
    # lemma51 row against the largest of the three
    seen = []

    def recording(dens):
        seen.append(theory.empirical_poincare_1d(dens))
        return seen[-1]

    monkeypatch.setattr(cli, "empirical_poincare_1d", recording)
    grid = {"t0": 0.0, "T": 0.2, "delta": 0.01, "fine_dt": 0.001}
    reference = {"grid_kushner": {"half_width": 6.0, "points": 201}}
    rows = theory_certificates(_cfg(
        model={"name": "log_concave_ou", "c": 1.0, "c_g": 1.0, "H": [1.0]},
        grid=grid, reference=reference, filters=[]))
    lemma42 = [r for r in rows if r.provenance == "lemma42"]
    assert [r.kappa_emp for r in lemma42] == seen and len(set(seen)) == 3
    seen.clear()
    [lemma51] = theory_certificates(_cfg(model={"name": "scalar_tanh"},
                                         grid=grid, reference=reference,
                                         filters=[]))
    assert lemma51.provenance == "lemma51" and len(set(seen)) == 3
    assert lemma51.kappa_emp == max(seen)
    for r in lemma42 + [lemma51]:
        assert r.margin == r.kappa - r.kappa_emp, r.provenance


def test_density_past_the_flux_steps_range_exit_3_naming_it(tmp_path, capsys,
                                                            recwarn):
    # the snapshots of A = 700 span 1e-300 to 211, past what the flux step
    # dx / rh of the inverse iteration can carry: the cause named used to
    # be NonPositiveDensity, "spectral gap nan not positive"
    raw = {**BASE, "model": {"name": "linear_gaussian", "A": [[700.0]],
                             "H": [1.0]},
           "grid": {"t0": 0.0, "T": 0.02, "delta": 0.01, "fine_dt": 0.001},
           "init": {"kind": "gaussian", "mean": [0.0], "cov": [[0.5]]}}
    code, err = _exit_and_field(tmp_path, capsys, raw, "theory")
    assert code == 3
    [line] = err.splitlines()
    assert line.startswith("numerical failure: CertificateFailed: ")
    assert "[1e-300, 211]" in line
    assert len(recwarn) == 0


def test_theory_without_a_certificate_says_what_each_lemma_lacked(tmp_path,
                                                                   capsys):
    # a linear-Gaussian model is not log-concave OU and has no obs_sup: the
    # header-only theory.csv used to come with no word on why
    out = tmp_path / "o"
    assert main(["theory", os.path.join(CONFIGS, "linear_gaussian.json"),
                 "--out-dir", str(out)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "lemma42 needs the log_concave_ou model" in err[0]
    assert "lemma51 a model with obs_sup and obs_sq_sup" in err[0]
    assert (out / "theory.csv").read_text() == \
        "provenance,inputs,kappa,kappa_emp,margin\n"
    main(["theory", os.path.join(CONFIGS, "ou_theory.json"),
          "--out-dir", str(tmp_path / "ou")])
    assert capsys.readouterr().err == ""


def _grid_table(points=81, half=4.0):
    g = np.linspace(-half, half, points)
    v = np.exp(-0.5 * g * g)
    return {"kind": "grid_table", "grid": g.tolist(),
            "values": (v / np.trapezoid(v, g)).tolist()}


def test_grid_table_init_run_and_theory_exit_0(tmp_path):
    # the JSON lists used to reach the table's sample: TypeError, exit 1
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


@pytest.mark.parametrize("mass", [2.0, 1.0 + 1e-7])
def test_grid_table_init_off_unit_mass_exit_2(tmp_path, mass):
    # a Density1D renormalises; a table from the config is held to 1e-10
    init = _grid_table()
    init["values"] = [mass * v for v in init["values"]]
    with pytest.raises(ConfigError, match="mass") as err:
        _cfg(init=init)
    assert err.value.field == "init"
    path = tmp_path / "mass.json"
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
    failing["filters"] = [{"kind": "crisan_xiong", "gain": "integral_1d",
                           "gain_opts": {"kde_opts": {"grid_points": 3}}}]
    fail_path = tmp_path / "fail.json"
    fail_path.write_text(json.dumps(failing))
    assert main(["run", str(fail_path), "--out-dir", str(tmp_path / "o3")]) == 3

    invalid = copy.deepcopy(BASE)
    invalid["filters"] = [{"kind": "enkbf", "gain": "galerkin",
                           "gain_opts": {"bogus": 1}}]
    invalid_path = tmp_path / "invalid.json"
    invalid_path.write_text(json.dumps(invalid))
    assert main(["run", str(invalid_path), "--out-dir", str(tmp_path / "o4")]) == 2


OVERFLOWING_OU = {"model": {"name": "log_concave_ou", "c": 1.0, "c_g": 1.0,
                             "H": [1e308]},
                  "grid": {"t0": 0.0, "T": 0.05, "delta": 0.01, "fine_dt": 0.001},
                  "init": {"kind": "gaussian", "mean": [0.0], "cov": [[0.5]]},
                  "filters": [],
                  "reference": {"grid_kushner": {"half_width": 6.0,
                                                 "points": 201}}}


@pytest.mark.parametrize("command", ["run", "theory"])
def test_non_finite_reference_density_exit_3(tmp_path, capsys, recwarn,
                                             command):
    # h = 1e308 x overflows the grid Kushner density: run used to exit 0
    # with NaN reference means and theory exit 1 inside scipy.  The linear
    # model reaches the reference; the log-concave OU one stops at its C3
    # check (below)
    raw = {**BASE, **OVERFLOWING_OU,
           "model": {"name": "linear_gaussian", "A": [[-1.0]], "H": [1e308]},
           "reference": {**OVERFLOWING_OU["reference"], "kalman_bucy": False}}
    code, err = _exit_and_field(tmp_path, capsys, raw, command)
    assert code == 3
    assert "NonFiniteState" in err and "grid Kushner" in err


@pytest.mark.parametrize("command", ["run", "theory"])
def test_overflowing_condition_check_certifies_nothing_exit_3(
        tmp_path, capsys, recwarn, command):
    # R = (Hx)^2 + ... overflows, so (C3) cannot be checked: the cause named
    # used to be the grid Kushner reference's NonFiniteState
    code, err = _exit_and_field(tmp_path, capsys, {**BASE, **OVERFLOWING_OU},
                                command)
    assert code == 3
    assert "CertificateFailed: condition C3" in err


def test_clipping_reference_writes_its_count(tmp_path, capsys, recwarn):
    # h = 1000 x drives grid cells negative: the clip count, a numpy integer
    # from the kernel, used to stop report.json with a TypeError (exit 1)
    raw = {**BASE, **OVERFLOWING_OU, "model": {"name": "log_concave_ou",
                                              "c": 1.0, "c_g": 1.0, "H": [1e3]}}
    code, _ = _exit_and_field(tmp_path, capsys, raw, "run")
    assert code == 0
    summary = json.load(open(tmp_path / "o" / "report.json"))
    assert summary["reference_clip_count"] > 0


def test_failed_certificate_exit_3(tmp_path, capsys, monkeypatch):
    # a Rayleigh certificate that fails is a numerical failure, not a crash
    monkeypatch.setattr(theory, "CERTIFY_TOL", -1e-3)
    raw = {**BASE, **OVERFLOWING_OU, "model": {"name": "log_concave_ou",
                                              "c": 1.0, "c_g": 1.0, "H": [1.0]}}
    code, err = _exit_and_field(tmp_path, capsys, raw, "theory")
    assert code == 3
    assert "CertificateFailed" in err


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


def _table(spacing):
    return {"kind": "grid_table", "grid": [-spacing, 0.0, spacing],
            "values": [0.0, 1.0 / spacing, 0.0]}


@pytest.mark.parametrize("overrides, field", [
    *[({"reference": {"grid_kushner": {"half_width": half_width, "points": 5}}},
       "reference.grid_kushner") for half_width in (1e-300, 1e-170, 1e-156,
                                                    1e155, 1e200)],
    *[({"init": _table(spacing)}, "init") for spacing in (1e-200, 1e200)],
], ids=["half_width_1e-300", "half_width_1e-170", "half_width_1e-156",
        "half_width_1e155", "half_width_1e200", "table_1e-200", "table_1e200"])
def test_reference_grid_spacing_out_of_range_exit_2(tmp_path, capsys, recwarn,
                                                    overrides, field):
    # 0.4 dx^2 underflowed to 0, split a fine step into an infinite count,
    # or overflowed: ZeroDivisionError or OverflowError out of main (exit 1)
    raw = {**copy.deepcopy(BASE), **TANH_GRID, **overrides}
    for command in ("run", "theory"):
        code, err_text = _exit_and_field(tmp_path, capsys, raw, command)
        assert code == 2
        assert f"config.{field}:" in err_text


@pytest.mark.parametrize("overrides, commands", [
    ({"ensemble_size": 10**12}, ("run", "sweep")),
    ({**TANH_GRID, "reference": {"grid_kushner": {"points": 10**12}}},
     ("run", "theory")),
    ({"sweep": {"n": [10**12]}}, ("sweep",)),
    ({"grid": {"t0": 0.0, "T": 1e12, "delta": 0.01, "fine_dt": 0.001}},
     ("run", "sweep", "theory")),
], ids=["ensemble_size", "reference_points", "sweep_n", "grid_T"])
def test_unallocatable_sizes_exit_3(tmp_path, capsys, overrides, commands):
    # numpy refuses each array at once, allocating nothing; the MemoryError
    # used to leave main (exit 1)
    raw = {**copy.deepcopy(BASE), **copy.deepcopy(overrides)}
    for command in commands:
        code, err_text = _exit_and_field(tmp_path, capsys, raw, command)
        assert code == 3
        assert "allocation failure:" in err_text


def test_unallocatable_kde_aborts_its_filter_only(tmp_path, capsys):
    raw = copy.deepcopy(BASE)
    raw["filters"] = [{"kind": "delta_fpf", "gain": "integral_1d",
                       "gain_opts": {"kde_opts": {"grid_points": 10**12}}},
                      {"kind": "enkbf", "gain": "exact_gaussian"}]
    code, _ = _exit_and_field(tmp_path, capsys, raw)
    assert code == 3
    series = open(tmp_path / "o" / "series.csv").read()
    assert ",enkbf/exact_gaussian," in series
    assert "delta_fpf/integral_1d" not in series
    report = json.loads(open(tmp_path / "o" / "report.json").read())
    assert "MemoryError" in report["filters"]["delta_fpf/integral_1d"]["error"]
    assert report["filters"]["enkbf/exact_gaussian"]["error"] is None


@pytest.mark.parametrize("key, value, field", [
    ("sweep", {"delta": "abc"}, "sweep.delta"),
    ("sweep", {"delta": [0]}, "sweep.delta"),
    ("sweep", {"delta": []}, "sweep.delta"),
    ("sweep", {"delta": [0.0015]}, "sweep.delta"),   # not a fine_dt multiple
    ("sweep", {"delta": [1e308]}, "sweep.delta"),
    ("sweep", {"seeds": ["a"]}, "sweep.seeds"),
    ("sweep", {"seeds": [-1]}, "sweep.seeds"),
    ("sweep", {"seeds": 5}, "sweep.seeds"),
    ("sweep", {"seeds": []}, "sweep.seeds"),     # swept nothing, exit 0
    ("sweep", {"deltas": [0.01]}, "sweep.deltas"),
    ("seeds", {"truth": "x", "observation": 2, "filter": 3}, "seeds.truth"),
    ("seeds", {"truth": 1, "observation": 2.5, "filter": 3},
     "seeds.observation"),
    ("seeds", {"truth": 1, "observation": 2, "filter": -3}, "seeds.filter"),
    ("grid", {"t0": 0.0, "T": -0.1, "delta": 0.01, "fine_dt": 0.001}, "grid.T"),     # was exit 1
    ("grid", {"t0": 0.1, "T": 0.1, "delta": 0.01, "fine_dt": 0.001}, "grid.T"),      # theory: exit 1
    # numpy's "Maximum allowed dimension exceeded" ValueError: exit 1
    ("grid", {"t0": 0.0, "T": 0.1, "delta": 0.01, "fine_dt": 1e-300}, "grid"),
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


@pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000])
def test_unreadable_config_file_exit_2(tmp_path, capsys, text):
    # undecodable UTF-8 and JSON nested past the recursion limit used to
    # raise UnicodeDecodeError and RecursionError out of main (exit 1)
    path = tmp_path / "cfg.json"
    path.write_bytes(text)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "o")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_negative_seed_flag_exit_2(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(BASE))
    assert main(["run", str(path), "--seed", "-4",
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "config.--seed:" in capsys.readouterr().err


@pytest.mark.parametrize("model, field", [
    ({"name": []}, "model.name"),
    ({"name": 3}, "model.name"),
    ({"name": "linear_gaussian", "A": "x", "H": [1.0]}, "model.A"),
    ({"name": "linear_gaussian", "A": [[-0.5]], "H": [1.0, 0.5]}, "model"),
    ({"name": "linear_gaussian", "A": [[-0.5]], "H": {"a": 1}}, "model.H"),
    ({"name": "log_concave_ou", "c": "x", "H": [1.0]}, "model.c"),
    ({"name": "log_concave_ou", "c": 0, "H": [1.0]}, "model.c"),   # was exit 3
    ({"name": "linear_gaussian", "A": [[-0.5]], "H": [1.0], "Q": [[1.0]]},
     "model.Q"),
    ({"name": "log_concave_ou", "c": "2.0", "H": [1.0]}, "model.c"),
    ({"name": "log_concave_ou", "c": True, "H": [1.0]}, "model.c"),
])
def test_model_parameters_checked(tmp_path, capsys, model, field):
    # each used to raise TypeError or ValueError out of main (exit 1); Q
    # was ignored, and c as a string or a bool was read as a number
    raw = {**copy.deepcopy(BASE), "model": model}
    code, err_text = _exit_and_field(tmp_path, capsys, raw)
    assert code == 2
    assert f"config.{field}:" in err_text


def test_fine_path_too_big_for_the_model_dimension_exit_2(tmp_path, capsys):
    # 2^59 fine steps of one float fit numpy's size limit, of two do not:
    # numpy's "array is too big" ValueError left main (exit 1)
    raw = {**copy.deepcopy(BASE),
           "grid": {"t0": 0.0, "T": 1.0, "delta": 1.0, "fine_dt": 2.0**-59},
           "model": {"name": "linear_gaussian", "A": [[-0.5, 0.2], [0.0, -1.0]],
                     "H": [1.0, 0.5]},
           "init": {"kind": "gaussian", "mean": [1.0, 0.0],
                    "cov": [[0.5, 0.0], [0.0, 0.5]]}}
    for command in ("run", "sweep"):
        code, err_text = _exit_and_field(tmp_path, capsys, raw, command)
        assert code == 2
        assert "config.grid:" in err_text


@pytest.mark.parametrize("overrides, field", [
    ({"reference": {"grid_kushner": {"half_width": 1e-3, "points": 1201}}},
     "reference.grid_kushner"),
    ({"reference": {"grid_kushner": {"half_width": 1e-155, "points": 5}}},
     "reference.grid_kushner"),
    ({"init": _grid_table(points=1201, half=1e-3)}, "init"),
], ids=["reference_grid", "substeps_1e308", "table"])
def test_reference_past_its_cell_update_budget_exit_2(tmp_path, overrides,
                                                      field):
    # 9e8 or 1e308 CFL substeps per fine step: the solve ran for hours
    # without a word
    raw = {**copy.deepcopy(BASE), **TANH_GRID, **overrides}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    for command in ("run", "theory"):
        out = _run_src(["-m", "flowfilter.cli", command, str(path),
                        "--out-dir", str(tmp_path / "o")], timeout=60)
        assert out.returncode == 2
        assert f"config.{field}:" in out.stderr


@pytest.mark.parametrize("overrides, field", [
    ({**TANH_GRID, "reference": {"grid_kushner": {"half_width": 1e-3,
                                                  "points": 1201}}},
     "reference.grid_kushner"),
    ({"model": {"name": "linear_gaussian", "A": [[-0.5, 0.2], [0.0, -1.0]],
                "H": [1.0, 0.5]},
      "init": {"kind": "gaussian", "mean": [1.0, 0.0],
               "cov": [[0.5, 0.0], [0.0, 0.5]]},
      "reference": {"kalman_bucy": False}}, "reference"),
], ids=["past_budget", "none"])
def test_sweep_n_axis_reference_checked_before_the_delta_axis(
        tmp_path, capsys, monkeypatch, overrides, field):
    # the n axis built its reference only after the whole delta axis had run
    # (2.4 s for this config) and threw those results away
    groups = []
    monkeypatch.setattr(cli, "run_lockstep",
                        lambda *args: groups.append(args) or [])
    raw = {**copy.deepcopy(BASE), **overrides,
           "filters": [{"kind": "delta_fpf", "gain": "constant"}],
           "sweep": {"n": [300], "seeds": [4, 5]}}
    code, err_text = _exit_and_field(tmp_path, capsys, raw, "sweep")
    assert code == 2
    assert f"config.{field}:" in err_text
    assert groups == []


LINEAR_2D = {"model": {"name": "linear_gaussian", "A": [[-0.5, 0.2], [0.0, -1.0]],
                       "H": [1.0, 0.5]},
             "init": {"kind": "gaussian", "mean": [1.0, 0.0],
                      "cov": [[0.5, 0.0], [0.0, 0.5]]}}


@pytest.mark.parametrize("command, overrides, kind, gain_name, field", [
    ("run", LINEAR_2D, "delta_fpf", "integral_1d", "filters[0].gain"),
    ("run", LINEAR_2D, "crisan_continuous", "exact_gaussian", "filters[0].kind"),
    ("run", TANH_GRID, "crisan_xiong", "fundamental_mc", "filters[0].gain"),
    ("run", TANH_GRID, "enkbf", "exact_gaussian", "filters[0].gain"),
    ("run", TANH_GRID, "delta_fpf", "exact_gaussian", "filters[0].gain"),
    # the filter runs in 2D, but its twin, crisan_continuous, does not
    ("sweep", LINEAR_2D, "crisan_xiong", "exact_gaussian", "filters[0].kind"),
    # Reich with M = rho I is Crisan & Xiong, and has its twin
    ("sweep", LINEAR_2D, "delta_reich(rho_identity)", "exact_gaussian",
     "filters[0].kind"),
], ids=["integral_1d_in_2d", "crisan_continuous_in_2d", "fundamental_mc_in_1d",
        "enkbf_without_h", "exact_without_h", "twin_in_2d",
        "rho_identity_twin_in_2d"])
def test_filter_that_cannot_run_on_the_model_exit_2_before_any_path(
        tmp_path, capsys, monkeypatch, command, overrides, kind, gain_name,
        field):
    # a row outside its dimensions, or an exact gain without an H row, used
    # to simulate the paths and the reference, then exit 3 at fine step 0
    simulated = []
    monkeypatch.setattr(cli, "_simulate_paths",
                        lambda *args: simulated.append(args))
    # a label delta_reich(mass) names the kind delta_reich and its mass matrix
    tag, _, mass = kind.rstrip(")").partition("(")
    raw = {**copy.deepcopy(BASE), **overrides,
           "filters": [{"kind": tag, "gain": gain_name,
                        **({"mass_matrix": mass} if mass else {})}]}
    code, err_text = _exit_and_field(tmp_path, capsys, raw, command)
    assert code == 2
    assert f"config.{field}:" in err_text
    assert simulated == []


def test_enkbf_on_log_concave_ou_is_the_delta_fpf_exact_filter(tmp_path,
                                                                capsys):
    # enkbf needs an H row, not a linear-Gaussian model: under a linear
    # observation its update is the exact-Gaussian row for any drift
    raw = {**copy.deepcopy(BASE), "model": {"name": "log_concave_ou"},
           "filters": [{"kind": "enkbf", "gain": "exact_gaussian"},
                       {"kind": "delta_fpf", "gain": "exact_gaussian"}]}
    assert _exit_and_field(tmp_path, capsys, raw)[0] == 0
    with open(tmp_path / "o" / "series.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    enkbf = [row[:1] + row[2:] for row in rows if row[1] == "enkbf/exact_gaussian"]
    fpf = [row[:1] + row[2:] for row in rows
           if row[1] == "delta_fpf/exact_gaussian"]
    assert enkbf and enkbf == fpf


def test_theory_on_a_2d_model_exit_2(tmp_path, capsys):
    # the grid Kushner snapshots are 1D: a 2D model raised a numpy matmul
    # ValueError out of main (exit 1) after simulating the paths
    raw = {**copy.deepcopy(BASE), "filters": [],
           "model": {"name": "linear_gaussian", "A": [[-0.5, 0.2], [0.0, -1.0]],
                     "H": [1.0, 0.5]},
           "init": {"kind": "gaussian", "mean": [1.0, 0.0],
                    "cov": [[0.5, 0.0], [0.0, 0.5]]}}
    code, err_text = _exit_and_field(tmp_path, capsys, raw, "theory")
    assert code == 2
    assert "config.model:" in err_text
    assert _exit_and_field(tmp_path, capsys, raw, "run")[0] == 0


CONFIGS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "configs")


@pytest.mark.parametrize("name, digest", [
    ("nonlinear_tanh",
     "b7b747ab4810354a1e6330f78d17e09b645a0a99a7668f19725a2345b1ae29da"),
    ("linear_gaussian",
     "8141f9ce758f9dc82fbabb1e96160f576e7ff14ef4f81de4e89bbf2eb3c3e243"),
    ("ou_theory",
     "bde1b3a5530f0002551ac22c85dd542ebb5ce2e9dd2baa23a209b9a5fc86d8dc"),
    ("delta_sweep",
     "ce2f22bce4255708fffd2066979a0bb8e477f2100ba7b3f5860a199280633c56"),
])
def test_shipped_observation_paths_are_pinned(name, digest):
    # the sha256 of each shipped config's fine observation path: a change
    # in how the increments are drawn or summed moves every output
    config = cli.load_config(os.path.join(CONFIGS, f"{name}.json"))
    z = cli._simulate_paths(config, config.build_model()).z
    assert hashlib.sha256(z.tobytes()).hexdigest() == digest


def _theory_rows(tmp_path, capsys, raw):
    code, err = _exit_and_field(tmp_path, capsys, raw, "theory")
    assert code == 0, err
    with open(tmp_path / "o" / "theory.csv") as fh:
        return list(csv.DictReader(fh))


def test_compact_support_initial_table_certifies_kappa0(tmp_path, capsys):
    # the zeros of max(0, 1 - (x/2)^2) at the ends of [-3, 3] are cut
    # before the certificate, which needs a positive density
    with open(os.path.join(CONFIGS, "nonlinear_tanh.json")) as fh:
        raw = json.load(fh)
    x = np.linspace(-3.0, 3.0, 61)
    v = np.maximum(0.0, 1.0 - (x / 2) ** 2)
    raw.update(filters=[], grid={**raw["grid"], "T": 0.1},
               init={"kind": "grid_table", "grid": x.tolist(),
                     "values": (v / np.trapezoid(v, x)).tolist()})
    [row] = _theory_rows(tmp_path, capsys, raw)
    assert row["provenance"] == "lemma51"
    assert row["inputs"].startswith("kappa0=0.856178;")


def test_narrow_posterior_certified_above_its_underflowed_tails(tmp_path,
                                                                 capsys):
    # with H = 300 the snapshots underflow over most of [-6, 6]; floored
    # there instead of cut, their tail modes fail the Sturm count
    with open(os.path.join(CONFIGS, "ou_theory.json")) as fh:
        raw = json.load(fh)
    raw["model"]["H"] = [300]
    rows = _theory_rows(tmp_path, capsys, raw)
    kappa = {r["inputs"].rsplit("t=", 1)[1]: float(r["kappa_emp"])
             for r in rows if r["provenance"] == "lemma42"}
    assert kappa["0.5"] == pytest.approx(0.0033200, abs=5e-8)
    assert kappa["1"] == pytest.approx(0.0033199, abs=5e-8)


def test_initial_table_on_one_point_is_a_numerical_failure(tmp_path, capsys):
    # a unit spike has no gap to certify once its zero ends are cut
    raw = {**BASE, **TANH_GRID,
           "init": {"kind": "grid_table", "grid": [-1.0, 0.0, 1.0],
                    "values": [0.0, 1.0, 0.0]}}
    code, err = _exit_and_field(tmp_path, capsys, raw, "theory")
    assert code == 3
    assert "NonPositiveDensity" in err and "1 grid point" in err


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


ALLOCATOR_FAULTS = r"""
import resource
import numpy as np
from flowfilter import cli
cli._keep_freed_heap()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    temporaries = [np.ones(40000) for _ in range(3)]    # 320 KiB each
    del temporaries
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _glibc(), reason="the policy is glibc's mallopt")
def test_allocator_policy_reuses_freed_temporaries():
    # an N = 4e4 filter step's temporaries: with glibc's defaults each one
    # is trimmed or mapped afresh and faults its 80 pages in again
    out = _run_src(["-c", ALLOCATOR_FAULTS], check=True)
    assert int(out.stdout) < 500


def _no_handle(name):
    raise OSError("no C library handle")


@pytest.mark.parametrize("libc", [lambda name: object(), _no_handle],
                         ids=["no_mallopt", "no_handle"])
def test_allocator_policy_without_mallopt_is_a_silent_no_op(
        monkeypatch, capsys, libc):
    import ctypes

    monkeypatch.setattr(ctypes, "CDLL", libc)
    assert cli._keep_freed_heap() is None
    assert capsys.readouterr() == ("", "")


LINEAR_2D = {"model": {"name": "linear_gaussian", "A": [[-0.5, 0.0], [0.0, -1.0]],
                       "H": [1.0, 0.5]},
             "init": {"kind": "gaussian", "mean": [1.0, 0.0],
                      "cov": [[0.5, 0.0], [0.0, 0.5]]},
             "filters": [{"kind": "delta_reich", "mass_matrix": "cov_inverse",
                          "gain": "galerkin"}],
             "reference": {"kalman_bucy": False}}


@pytest.mark.parametrize("overrides, field", [
    ({"ensemble_size": 2}, "ensemble_size"),
    ({**LINEAR_2D, "ensemble_size": 5}, "ensemble_size"),
    ({**LINEAR_2D, "sweep": {"n": [300, 5], "seeds": [4]}}, "sweep.n"),
], ids=["nonlinear_tanh", "2d", "2d_sweep_n"])
def test_too_few_particles_for_a_galerkin_filter_exit_2(tmp_path, capsys,
                                                        overrides, field):
    # nonlinear_tanh at ensemble_size 2 used to abort delta_fpf/galerkin at
    # fine step 0 and exit 3; its drift basis has d + d(d+1)/2 functions
    with open(os.path.join(CONFIGS, "nonlinear_tanh.json")) as fh:
        raw = {**json.load(fh), **overrides}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.field == field
    for command in ("run", "sweep"):
        if command == "sweep" and "sweep" not in raw:
            continue
        code, err_text = _exit_and_field(tmp_path, capsys, raw, command)
        assert code == 2
        assert f"config.{field}:" in err_text


def test_continuous_galerkin_filter_runs_on_two_particles():
    # the continuous-time galerkin rows are constant rows: no basis to fit
    cfg = _cfg(ensemble_size=2, filters=[{"kind": "fpf_continuous",
                                          "gain": "galerkin"}])
    assert cfg.ensemble_size == 2


def _tanh_sweep(filters, sweep):
    """nonlinear_tanh cut to four mesh steps of 200 particles."""
    with open(os.path.join(CONFIGS, "nonlinear_tanh.json")) as fh:
        raw = json.load(fh)
    return {**raw, "ensemble_size": 200, "filters": filters, "sweep": sweep,
            "grid": {"t0": 0.0, "T": 0.04, "delta": 0.01, "fine_dt": 0.001}}


def test_sweep_keeps_the_siblings_of_a_failed_filter_exit_3(tmp_path, capsys):
    # the sweep used to raise the first abort of a seed's group, exit 3 and
    # write no file; run keeps the siblings, and so does the sweep now
    raw = _tanh_sweep([
        {"kind": "delta_fpf", "gain": "constant"},
        # a 3-point KDE grid leaves the tail unresolved at fine step 0, for
        # this filter and for its twin, which shares the options
        {"kind": "crisan_xiong", "gain": "integral_1d",
         "gain_opts": {"kde_opts": {"grid_points": 3}}}],
        {"delta": [0.02, 0.01], "seeds": [1, 2]})
    code, err_text = _exit_and_field(tmp_path, capsys, raw, "sweep")
    assert code == 3
    assert err_text == "filters failed: crisan_xiong/integral_1d\n"
    with open(tmp_path / "o" / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    for row in rows:
        rmse = float(row["rmse"])
        assert np.isfinite(rmse) == (row["filter"] == "delta_fpf/constant")
        assert np.isnan(float(row["rmse_exact"]))      # no exact reference
    with open(tmp_path / "o" / "sweep_trends.csv") as fh:
        trends = list(csv.DictReader(fh))
    assert len(trends) == 4
    for trend in trends:
        failed = trend["filter"] == "crisan_xiong/integral_1d"
        assert (trend["spearman_rho"] == "") == failed
        if failed:
            assert trend["monotone_seeds"] == "0"


def test_delta_integral_row_past_the_float_range_exit_3_quietly(tmp_path,
                                                                 capsys):
    # a 1e150 KDE grid overflows the row at fine step 0, which printed five
    # numpy warnings before "filters failed"
    raw = _tanh_sweep([{"kind": "delta_fpf", "gain": "integral_1d",
                        "gain_opts": {"eps_floor": 1e-300,
                                      "kde_opts": {"half_width": 1e150}}}], {})
    code, err_text = _exit_and_field(tmp_path, capsys, raw)
    assert code == 3
    assert err_text == "filters failed: delta_fpf/integral_1d\n"


@pytest.mark.parametrize("label, gain_name, twin_only", [
    ("delta_fpf", "constant", False),
    # the twin of delta_fpf/constant is the continuous constant-gain row
    ("fpf_continuous", "constant", True),
])
def test_sweep_rows_of_an_aborted_run_read_nan(monkeypatch, label, gain_name,
                                               twin_only):
    def fails(x, model):
        raise IllConditioned(1e13)

    cfg = _cfg(filters=[{"kind": "delta_fpf", "gain": "constant"},
                        {"kind": "enkbf", "gain": "exact_gaussian"}])
    cfg.sweep = {"delta": [0.02, 0.01], "n": [50], "seeds": [1]}
    monkeypatch.setitem(gain.ASSEMBLERS[label], gain_name, fails)
    report = run_delta_sweep(cfg)
    for row in report.rows:
        if row.filter_label == "enkbf/exact_gaussian":
            assert np.isfinite([row.rmse, row.rmse_exact]).all()
        elif row.axis == "n":       # the n axis runs no twin
            assert np.isfinite(row.rmse_exact) == twin_only
        else:                       # the twin's failure leaves the exact rmse
            assert np.isnan(row.rmse)
            assert np.isfinite(row.rmse_exact) == twin_only
    assert np.isnan(report.trends[("delta_fpf/constant", 1)])
    assert report.monotone_counts["delta_fpf/constant"] == 0


def test_non_nested_sweep_deltas_exit_2_before_any_path(tmp_path, capsys,
                                                        monkeypatch):
    # exited 3 as a numerical failure (NonNestedMeshes) after parsing
    simulated = []
    monkeypatch.setattr(cli, "_simulate_paths",
                        lambda *args: simulated.append(args))
    raw = _tanh_sweep([{"kind": "delta_fpf", "gain": "constant"}],
                      {"delta": [0.02, 0.01, 0.004], "seeds": [1, 2]})
    code, err_text = _exit_and_field(tmp_path, capsys, raw, "sweep")
    assert code == 2
    assert "config.sweep.delta:" in err_text
    assert simulated == []


def test_gain_log_gives_a_shared_copy_its_own_method(tmp_path, monkeypatch):
    # in 1D the two rows are one computation: its copy logs its own method
    steps, original = [], filters.step

    def counting(*args, **opts):
        steps.append(1)
        return original(*args, **opts)

    monkeypatch.setattr(filters, "step", counting)
    cfg = _cfg(grid={**BASE["grid"], "T": 0.05},
               filters=[{"kind": "fpf_continuous", "gain": "constant"},
                        {"kind": "crisan_continuous", "gain": "galerkin"}])
    emit_plot_data(run_experiment(cfg), str(tmp_path))
    assert len(steps) == cfg.grid.n_fine == 50
    with open(tmp_path / "gain_log.csv") as fh:
        rows = list(csv.DictReader(fh))
    fpf, crisan = ([r for r in rows if r["filter"] == label] for label in
                   ("fpf_continuous/constant", "crisan_continuous/galerkin"))
    assert [r["method"] for r in fpf] == ["constant"] * 50
    assert [r["method"] for r in crisan] == ["galerkin"] * 50
    assert [r["step"] for r in fpf] == [r["step"] for r in crisan] == \
        [str(k) for k in range(50)]
    keys = ["residual", "centring", "condition_number", "epsilon"]
    assert [[r[k] for k in keys] for r in fpf] == \
        [[r[k] for k in keys] for r in crisan]


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_filters_that_share_a_label_exit_2_before_any_path(tmp_path, capsys,
                                                           monkeypatch, command):
    # run exited 3 naming one of them, while report.json kept one entry per
    # label, reading no error, and series.csv mixed the two under one label
    simulated = []
    monkeypatch.setattr(cli, "_simulate_paths",
                        lambda *args: simulated.append(args))
    raw = {**copy.deepcopy(BASE), "ensemble_size": 300,
           "grid": {**BASE["grid"], "T": 0.2},
           "filters": [{"kind": "delta_fpf", "gain": "constant"},
                       {"kind": "delta_fpf", "gain": "constant"},
                       {"kind": "delta_fpf", "gain": "integral_1d",
                        "gain_opts": {"kde_opts": {"grid_points": 3}}},
                       {"kind": "delta_fpf", "gain": "integral_1d"}]}
    code, err_text = _exit_and_field(tmp_path, capsys, raw, command)
    assert code == 2
    assert "config.filters[1]: delta_fpf/constant is the label of filters[0]" \
        in err_text
    raw["filters"] = raw["filters"][1:]     # other gain_opts share it too
    code, err_text = _exit_and_field(tmp_path, capsys, raw, command)
    assert code == 2
    assert "config.filters[2]: delta_fpf/integral_1d is the label of " \
        "filters[1]" in err_text
    assert simulated == []


OUTPUT_CASES = [("run", "series.csv"), ("sweep", "sweep.csv"),
                ("theory", "theory.csv")]


def _small_raw():
    """BASE, runnable under every command in well under a second."""
    return {**copy.deepcopy(BASE), "sweep": {"delta": [0.02, 0.01], "seeds": [1]},
            "reference": {"grid_kushner": {"half_width": 5.0, "points": 201}}}


@pytest.mark.parametrize("command, output", OUTPUT_CASES)
def test_output_dir_that_cannot_be_made_exit_2_before_any_path(
        tmp_path, capsys, monkeypatch, command, output):
    # ended in a NotADirectoryError traceback (exit 1) after the computation
    simulated = []
    monkeypatch.setattr(cli, "_simulate_paths",
                        lambda *args: simulated.append(args))
    blocker = tmp_path / "file"
    blocker.write_text("")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_small_raw(), "output_dir": str(blocker / "sub")}))
    assert main([command, str(path)]) == 2
    assert "config.output_dir:" in capsys.readouterr().err
    for out_dir in (blocker / "sub", blocker):
        assert main([command, str(path), "--out-dir", str(out_dir)]) == 2
        assert "config.--out-dir:" in capsys.readouterr().err
    path.write_text(json.dumps({**_small_raw(), "output_dir": ""}))
    assert main([command, str(path)]) == 2     # was exit 3, after the computation
    assert "config.output_dir: must be a non-empty string" in capsys.readouterr().err
    assert simulated == []
    assert blocker.read_text() == ""
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "file"]


@pytest.mark.parametrize("command", ["run", "sweep", "theory"])
def test_empty_out_dir_flag_exit_2_before_any_path(tmp_path, capsys,
                                                   monkeypatch, command):
    # an empty --out-dir used to fall back to the config's output_dir
    simulated = []
    monkeypatch.setattr(cli, "_simulate_paths",
                        lambda *args: simulated.append(args))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_small_raw(),
                                "output_dir": str(tmp_path / "o")}))
    assert main([command, str(path), "--out-dir", ""]) == 2
    assert "config.--out-dir: must be a non-empty string" \
        in capsys.readouterr().err
    assert simulated == []
    assert sorted(os.listdir(tmp_path)) == ["cfg.json"]


@pytest.mark.parametrize("command, output", OUTPUT_CASES)
def test_output_that_cannot_be_written_exit_3(tmp_path, capsys, command,
                                              output):
    (tmp_path / "o" / output).mkdir(parents=True)
    code, err_text = _exit_and_field(tmp_path, capsys, _small_raw(), command)
    assert code == 3
    assert err_text.startswith("output failure: ") and output in err_text
    assert "Traceback" not in err_text


def _ou_theory_raw(c):
    with open(os.path.join(CONFIGS, "ou_theory.json")) as fh:
        raw = json.load(fh)
    raw["model"]["c"] = c
    return raw


@pytest.mark.parametrize("c", [2000, 3000, 10000])
def test_stiff_log_concave_ou_exit_2_naming_c(tmp_path, capsys, c):
    # c fine_dt >= 2: the explicit Euler step of the drift -c x grows |x|;
    # c = 1e4 overflowed the truth path (exit 3 at step 321) and c = 3000
    # the grid Kushner reference (exit 3 at step 60)
    for command in ("run", "theory"):
        code, err = _exit_and_field(tmp_path, capsys, _ou_theory_raw(c),
                                    command)
        assert code == 2
        assert "config.model.c:" in err


def test_log_concave_ou_below_the_euler_bound_certifies(tmp_path, capsys):
    # c = 1900: the gamma fixed point failed its absolute 1e-12 check (exit 3)
    rows = _theory_rows(tmp_path, capsys, _ou_theory_raw(1900))
    assert [r["provenance"] for r in rows] == ["lemma42"] * 3 \
        + ["gamma_recursion"]


def _linear_gaussian_run(tmp_path, **edits):
    """run, in a fresh process, on configs/linear_gaussian.json with the
    top-level fields of edits replaced."""
    with open(os.path.join(CONFIGS, "linear_gaussian.json")) as fh:
        raw = {**json.load(fh), **edits}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    return _run_src(["-m", "flowfilter.cli", "run", str(path),
                     "--out-dir", str(tmp_path / "o")])


def test_diverging_truth_path_exit_3_with_one_stderr_line(tmp_path):
    # the overflow warning of the drift's matmul came before the error line
    out = _linear_gaussian_run(tmp_path, model={
        "name": "linear_gaussian", "A": [[10000.0]], "H": [1.0]})
    assert out.returncode == 3
    assert out.stderr.splitlines() == ["numerical failure: NonFiniteState: "
                                       "non-finite state at step 293: "
                                       "truth trajectory"]


def test_observation_path_past_the_float_range_exit_3_with_one_stderr_line(
        tmp_path):
    # a finite truth path under h = 1e10 x: the overflow warning of the
    # observation's matmul came before the error line
    out = _linear_gaussian_run(tmp_path, model={
        "name": "linear_gaussian", "A": [[1000.0]], "H": [1e10]})
    assert out.returncode == 3
    assert out.stderr.splitlines() == ["numerical failure: NonFiniteState: "
                                       "non-finite state at step 992: "
                                       "observation path"]


def test_kalman_bucy_past_the_float_range_exit_3_with_one_stderr_line(
        tmp_path):
    # P H^T H P overflows from cov = 1e290 I; eigvalsh then raised an
    # untyped LinAlgError on P (a traceback, exit 1) after two warnings
    eye = np.eye(3)
    out = _linear_gaussian_run(
        tmp_path, model={"name": "linear_gaussian",
                         "A": (700.0 * eye).tolist(), "H": [1.0] * 3},
        init={"kind": "gaussian", "mean": [1.0] * 3,
              "cov": (1e290 * eye).tolist()},
        ensemble_size=200, grid={"t0": 0.0, "T": 0.2, "delta": 0.01,
                                 "fine_dt": 0.001},
        filters=[{"kind": "enkbf", "gain": "exact_gaussian"}])
    assert out.returncode == 3
    assert out.stderr.splitlines() == ["numerical failure: NonFiniteState: "
                                       "non-finite state at step 1: "
                                       "Kalman-Bucy reference"]
