"""Acceptance suite: one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else.
"""

import copy

import numpy as np

from flowfilter.cli import (emit_plot_data, parse_config, run_delta_sweep,
                            run_experiment, theory_certificates)
from flowfilter.ensemble import Density1D, compute_moments, density_from_function
from flowfilter.filters import FilterKind, run_filter, step
from flowfilter.gain import solve_1d_integral, solve_constant_gain, solve_galerkin
from flowfilter.models import SystemModel, make_linear_gaussian
from flowfilter.paths import TimeGrid, simulate_observations, simulate_truth
from flowfilter.reference import run_grid_kushner
from flowfilter.rng import CounterStream
from flowfilter.theory import (brascamp_lieb_check, empirical_poincare_1d,
                               gamma_fixed_point, gamma_map, kappa_continuous,
                               kappa_delta)


def _path(model, grid, x0, truth_seed, obs_seed):
    """The truth and observation path driven by the increment streams
    (truth_seed, label 1) and (obs_seed, label 2)."""
    dv = CounterStream(truth_seed, label=1).increments(
        np.empty((grid.n_fine, 1, model.dim)), grid.fine_dt)
    dw = CounterStream(obs_seed, label=2).increments(
        np.empty((grid.n_fine, 1, 1)), grid.fine_dt)
    states = simulate_truth(model, grid, x0, dv[:, 0])
    return simulate_observations(model, states, grid, dw[:, 0, 0])


def _verdict(num: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print("\n" + line)
    assert ok, line


def _tanh_model():
    return SystemModel(dim=1, drift=lambda x: -x,
                       obs=lambda x: np.tanh(x[:, 0]),
                       obs_grad=lambda x: (1 / np.cosh(x[:, 0]) ** 2)[:, None],
                       drift_lipschitz=1.0, obs_sup=1.0, obs_sq_sup=1.0)


LG_CONFIG = {
    "schema_version": 1,
    "model": {"name": "linear_gaussian", "A": [[-0.5]], "H": [1.0]},
    "grid": {"t0": 0.0, "T": 1.0, "delta": 0.01, "fine_dt": 0.001},
    "init": {"kind": "gaussian", "mean": [1.0], "cov": [[0.5]]},
    "ensemble_size": 10_000,
    "filters": [
        {"kind": "delta_fpf", "gain": "exact_gaussian"},
        {"kind": "delta_reich", "mass_matrix": "cov_inverse",
         "gain": "exact_gaussian"},
        {"kind": "crisan_xiong", "gain": "exact_gaussian"},
        {"kind": "enkbf", "gain": "exact_gaussian"},
        {"kind": "fpf_continuous", "gain": "exact_gaussian"},
        {"kind": "crisan_continuous", "gain": "exact_gaussian"},
    ],
    "seeds": {"truth": 7001, "observation": 7002, "filter": 7003},
}


def test_criterion_1_linear_gaussian_consistency():
    config = parse_config(copy.deepcopy(LG_CONFIG))
    report = run_experiment(config)
    details = []
    ok = True
    for res in report.results:
        assert res.error is None, res.error
        run = res.run
        mean_err = float(np.mean(np.abs(run.means[:, 0]
                                        - report.ref_means[:, 0])))
        var_ratio_err = float(np.mean(np.abs(
            run.covs[:, 0, 0] / report.ref_covs[:, 0, 0] - 1.0)))
        this = (mean_err <= 0.05 and var_ratio_err <= 0.10
                and res.wall_clock <= 30.0)
        ok = ok and this
        details.append(f"{res.label}: mean {mean_err:.4f}, "
                       f"var-ratio {var_ratio_err:.4f}, {res.wall_clock:.1f}s")
    _verdict(1, ok, "; ".join(details))


def test_criterion_2_exact_equivalences():
    # (a) one delta-FPF step vs one EnKBF step, exact gain, psi = 0
    model = make_linear_gaussian([[-0.5]], [1.0])
    cloud = 1.0 + np.sqrt(0.5) * CounterStream(11, 0).normals(0, (2000, 1))
    dv = 0.01 * CounterStream(12, 0).normals(0, (2000, 1))
    s1, _ = step(FilterKind("delta_fpf"), "exact_gaussian", model, cloud,
                 0.4, 0.001, dv)
    s2, _ = step(FilterKind("enkbf"), "exact_gaussian", model, cloud,
                 0.4, 0.001, dv)
    step_gap = float(np.max(np.abs(s1 - s2)))

    # (b,c) trajectory equivalences on a 1D nonlinear model
    tanh = _tanh_model()
    grid = TimeGrid(0.0, 0.3, 0.001, 0.01)
    path = _path(tanh, grid, [0.4], 21, 22)
    cloud1 = CounterStream(23, 0).normals(0, (500, 1))
    reich = run_filter(FilterKind("delta_reich", "rho_identity"), tanh, path,
                       cloud1, grid, "integral_1d", seed=23)
    crisan = run_filter(FilterKind("crisan_xiong"), tanh, path, cloud1, grid,
                        "integral_1d", seed=23)
    traj_gap = float(np.max(np.abs(
        reich.final_particles - crisan.final_particles)))

    fc = run_filter(FilterKind("fpf_continuous"), tanh, path, cloud1, grid,
                    "integral_1d", seed=23)
    cc = run_filter(FilterKind("crisan_continuous"), tanh, path, cloud1, grid,
                    "integral_1d", seed=23)
    cont_gap = float(np.max(np.abs(
        fc.final_particles - cc.final_particles)))

    ok = step_gap <= 1e-14 and traj_gap <= 1e-12 and cont_gap <= 1e-12
    _verdict(2, ok, f"fpf-vs-enkbf step {step_gap:.2e} (<=1e-14); "
                    f"reich(rho)-vs-crisan {traj_gap:.2e} (<=1e-12); "
                    f"fpf_cont-vs-crisan_cont {cont_gap:.2e} (<=1e-12)")


def test_criterion_3_gain_solver_oracles():
    # (a) Gaussian grid, h = Hx: K = PH to 1e-6 (4001 points, L = 10 sigma)
    var, H = 0.64, 1.7
    s = np.sqrt(var)
    dens = density_from_function(
        lambda x: np.exp(-x**2 / (2 * var)) / np.sqrt(2 * np.pi * var),
        half_width=10 * s, grid_points=4001)
    lin = make_linear_gaussian([[0.0]], [H])
    pts = np.linspace(-5 * s, 5 * s, 2001)
    err_a = float(np.max(np.abs(
        solve_1d_integral(dens, lin, "fpf_phi", particles=pts).at_particles
        - var * H)))

    # (b) rho = N(0,1), h = x^2: K(x) = x to 1e-6
    sq = SystemModel(dim=1, drift=lambda x: np.zeros_like(x),
                     obs=lambda x: x[:, 0] ** 2, obs_grad=lambda x: 2 * x)
    dens1 = density_from_function(
        lambda x: np.exp(-x**2 / 2) / np.sqrt(2 * np.pi),
        half_width=10.0, grid_points=4001)
    pts1 = np.linspace(-5, 5, 2001)
    err_b = float(np.max(np.abs(
        solve_1d_integral(dens1, sq, "fpf_phi", particles=pts1)
        .at_particles[:, 0] - pts1)))

    # (c) Galerkin psi-coefficients vanish for linear h (psi = 0)
    rng_cloud = CounterStream(31, 0).normals(0, (4000, 1))
    ens = rng_cloud
    phi = solve_constant_gain(compute_moments(ens, lin))
    psi = solve_galerkin(ens, lin, "fpf_psi", prior_gain=phi.at_particles)
    err_c = float(np.max(np.abs(psi.coefficients)))

    # (d) rbar identity on grid densities
    errs_d = []
    for model, dd in ((lin, dens), (sq, dens1)):
        fld = solve_1d_integral(dd, model, "fpf_phi")
        g = dd.grid
        gradh = model.obs_grad(g.reshape(-1, 1))[:, 0]
        h = model.obs(g.reshape(-1, 1))
        hbar = np.trapezoid(h * dd.values, g)
        h2bar = np.trapezoid(h * h * dd.values, g)
        lhs = np.trapezoid(gradh * fld.gain_grid * dd.values, g)
        errs_d.append(abs(lhs - (h2bar - hbar**2)))
    err_d = float(max(errs_d))

    ok = err_a <= 1e-6 and err_b <= 1e-6 and err_c <= 1e-10 and err_d <= 1e-6
    _verdict(3, ok, f"(a) {err_a:.2e} (<=1e-6); (b) {err_b:.2e} (<=1e-6); "
                    f"(c) {err_c:.2e} (<=1e-10); (d) {err_d:.2e} (<=1e-6)")


def _nonlinear_rmse(seed: int, n: int) -> float:
    model = _tanh_model()
    grid = TimeGrid(0.0, 1.0, 0.001, 0.01)
    path = _path(model, grid, [0.0], seed, seed + 1)
    g = np.linspace(-6.0, 6.0, 1201)
    theta0 = np.exp(-g**2 / 2) / np.sqrt(2 * np.pi)
    means, _, _, _ = run_grid_kushner(Density1D(grid=g, values=theta0),
                                      model, path.slopes, grid.fine_dt,
                                      grid.steps_per_mesh)
    cloud = CounterStream(seed + 2, 0).normals(0, (n, 1))
    run = run_filter(FilterKind("delta_fpf"), model, path, cloud, grid,
                     "integral_1d", seed=seed + 2)
    return float(np.sqrt(np.mean((run.means[:, 0] - means) ** 2)))


def test_criterion_4_nonlinear_benchmark():
    seeds = [4101, 4201, 4301]
    rmse_small = [_nonlinear_rmse(s, 10_000) for s in seeds]
    rmse_large = [_nonlinear_rmse(s, 40_000) for s in seeds]
    ok = all(r <= 0.1 for r in rmse_small) \
        and np.mean(rmse_large) < np.mean(rmse_small)
    _verdict(4, ok, "RMSE(N=1e4) = "
             + ", ".join(f"{r:.4f}" for r in rmse_small)
             + f" (<=0.1); mean RMSE N=4e4 {np.mean(rmse_large):.4f} < "
               f"N=1e4 {np.mean(rmse_small):.4f}")


def test_criterion_5_theory_certificates():
    checks = []

    k = kappa_continuous(1.0, 1.0, 2.0).constant
    checks.append(("kappa(1,1,2)=0.5", k == 0.5))

    star = gamma_fixed_point(2.0, 1.0)
    target = (-2.0 + np.sqrt(20.0)) / 4.0
    checks.append(("gamma*", abs(star - target) <= 1e-12
                   and abs(gamma_map(star, 2.0, 1.0) - star) <= 1e-12))
    checks.append(("gamma* -> sqrt(c_r/2)",
                   abs(gamma_fixed_point(2.0, 1e-3) - 1.0) <= 1e-3))

    kd = kappa_delta(1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0).constant
    checks.append(("kappa_T=2e^3", abs(kd - 2 * np.e**3) <= 1e-12 * kd))

    sigma2 = 0.49
    dens = density_from_function(
        lambda x: np.exp(-x**2 / (2 * sigma2)) / np.sqrt(2 * np.pi * sigma2),
        half_width=10 * np.sqrt(sigma2), grid_points=4001)
    kemp = empirical_poincare_1d(dens)
    checks.append(("kappa_emp(N(0,s2))", abs(kemp - sigma2) / sigma2 <= 0.01))

    ou_cfg = parse_config({
        "schema_version": 1,
        "model": {"name": "log_concave_ou", "c": 1.0, "c_g": 1.0, "H": [1.0]},
        "grid": {"t0": 0.0, "T": 1.0, "delta": 0.01, "fine_dt": 0.001},
        "init": {"kind": "gaussian", "mean": [0.0], "cov": [[0.5]]},
        "ensemble_size": 100,
        "filters": [],
        "seeds": {"truth": 51, "observation": 52, "filter": 53},
        "reference": {"grid_kushner": {"half_width": 6.0, "points": 2001}},
    })
    rows = theory_certificates(ou_cfg)
    lemma42 = [r for r in rows if r.provenance == "lemma42"]
    dominated = all(r.kappa_emp <= r.kappa * 1.02 for r in lemma42)
    checks.append((f"posterior kappa_emp <= bound at {len(lemma42)} times",
                   len(lemma42) == 3 and dominated))

    rep = brascamp_lieb_check(
        density_from_function(lambda x: np.exp(-x**2 / 2) / np.sqrt(2 * np.pi),
                              half_width=10.0, grid_points=4001),
        lambda x: x, lambda x: np.ones_like(x))
    checks.append(("Brascamp-Lieb equality",
                   rep.passed and abs(rep.bound - rep.variance) <= 1e-6))

    ok = all(c[1] for c in checks)
    _verdict(5, ok, "; ".join(f"{name} {'ok' if val else 'FAIL'}"
                              for name, val in checks))


def test_criterion_6_delta_convergence_trend():
    # horizon 4: the pathwise RMSE averages over enough mesh points that the
    # per-path smoothing error dominates its fluctuations (at T=1 individual
    # paths show anomalous cancellations at coarse delta)
    cfg = parse_config({
        "schema_version": 1,
        "model": {"name": "linear_gaussian", "A": [[-0.5]], "H": [1.0]},
        "grid": {"t0": 0.0, "T": 4.0, "delta": 0.1, "fine_dt": 0.00125},
        "init": {"kind": "gaussian", "mean": [1.0], "cov": [[0.5]]},
        "ensemble_size": 4000,
        "filters": [{"kind": "enkbf", "gain": "exact_gaussian"}],
        "seeds": {"truth": 101, "observation": 102, "filter": 103},
        "sweep": {"delta": [0.1, 0.05, 0.025, 0.0125],
                  "seeds": [101, 202, 303, 404, 505]},
    })
    report = run_delta_sweep(cfg)
    count = report.monotone_counts.get("enkbf/exact_gaussian", 0)
    rhos = [v for (label, _), v in report.trends.items()
            if label == "enkbf/exact_gaussian"]
    ok = count >= 4
    _verdict(6, ok, f"monotone nonincreasing RMSE for {count}/5 seeds "
                    f"(need >=4); spearman rho: "
                    + ", ".join(f"{r:+.2f}" for r in rhos))


def test_criterion_7_determinism(tmp_path):
    raw = {
        "schema_version": 1,
        "model": {"name": "scalar_tanh"},
        "grid": {"t0": 0.0, "T": 0.2, "delta": 0.01, "fine_dt": 0.001},
        "init": {"kind": "gaussian", "mean": [0.0], "cov": [[1.0]]},
        "ensemble_size": 500,
        "filters": [{"kind": "delta_fpf", "gain": "integral_1d"},
                    {"kind": "crisan_xiong", "gain": "integral_1d"}],
        "seeds": {"truth": 71, "observation": 72, "filter": 73},
        "reference": {"grid_kushner": {"half_width": 6.0, "points": 801}},
    }
    outs = []
    for tag, threads in (("a", 1), ("b", 4), ("c", 1)):
        report = run_experiment(parse_config(copy.deepcopy(raw)),
                                threads=threads)
        out = tmp_path / tag
        emit_plot_data(report, str(out))
        outs.append(out)
    same = all(
        open(outs[0] / name, "rb").read() == open(o / name, "rb").read()
        for o in outs[1:] for name in ("series.csv", "gain_log.csv"))
    _verdict(7, same, "re-runs (threads 1, 4, 1) produced bitwise-identical "
                      "series.csv and gain_log.csv")
