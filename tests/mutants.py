"""One-term mutants of the rows and certificates, each with the tier-1
tests that kill it.

Each mutant replaces one term of src/flowfilter, once, in a scratch copy
of the checkout.  The runner then runs the mutant's tests in that copy and
reports the mutant killed if every one of them fails.  The first test
named is the first tier-1 test, in suite order, that fails under the
mutant; with --full the runner runs the whole suite with -x instead and
checks that the first failure is that test.

    python tests/mutants.py [--full] [mutant ...]

The copies go to a temporary directory (TMPDIR, if set).  It exits 1 if a
mutant survives or a term is no longer in its file.
pytest does not collect this file: its name does not start with test_.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_BITWISE_FUNDAMENTAL = ("tests/test_bitwise.py::"
                        "test_fundamental_mc_matches_three_pass_oracle_bitwise")
_WEAK_FORM_FUNDAMENTAL = ("tests/test_gain.py::"
                          "test_fundamental_mc_solves_the_weak_form_identities")

# name -> (file under src/flowfilter, term, its replacement, killing tests)
MUTANTS = {
    "fpf_galerkin_psi_weight": (
        "gain.py", "+ 0.5 * psif.at_particles", "+ 1.0 * psif.at_particles",
        ["tests/test_golden.py::test_shipped_outputs_are_the_golden_ones",
         "tests/test_identities.py::test_delta_fpf_galerkin_row_is_its_oracle"]),
    "reich_cov_inverse_as_identity": (
        "gain.py", "m_inv = moments.cov if cov_inverse else None",
        "m_inv = None",
        ["tests/test_identities.py::"
         "test_reich_galerkin_drift_is_its_mass_matrix_times_a_gradient"]),
    "fundamental_alpha_source": (
        "gain.py", "m_alpha = -0.5 * h * h", "m_alpha = -h * h",
        [_BITWISE_FUNDAMENTAL, _WEAK_FORM_FUNDAMENTAL]),
    "fundamental_K_without_rho": (
        "gain.py", "beta / scale / rho_f", "beta / scale",
        [_BITWISE_FUNDAMENTAL, _WEAK_FORM_FUNDAMENTAL]),
    "fundamental_a_without_rho": (
        "gain.py", "alpha / scale / rho_f", "alpha / scale",
        [_BITWISE_FUNDAMENTAL, _WEAK_FORM_FUNDAMENTAL]),
    "fundamental_cutoff": (
        "gain.py", "n ** (-1.0 / d)", "n ** (-1.0 / (2 * d))",
        [_BITWISE_FUNDAMENTAL, _WEAK_FORM_FUNDAMENTAL]),
    "kappa_delta_first_power": (
        "theory.py", "(T / delta) ** 2", "(T / delta)",
        ["tests/test_theory.py::test_kappa_delta_squares_T_over_delta"]),
    "lemma42_margin_at_t0": (
        "cli.py", "margin=bound.constant - kappas_emp[slot]",
        "margin=bound.constant - kappas_emp[0]",
        ["tests/test_cli.py::test_theory_margins_are_kappa_minus_kappa_emp",
         "tests/test_golden.py::test_shipped_outputs_are_the_golden_ones"]),
    "lemma51_smallest_kappa_emp": (
        "cli.py", "emp_max = max(kappas_emp.values())",
        "emp_max = min(kappas_emp.values())",
        ["tests/test_cli.py::test_theory_margins_are_kappa_minus_kappa_emp"]),
    "degenerate_density_above_half": (
        "filters.py", 'diags.get("floor_frac", 0.0) > 0.10',
        'diags.get("floor_frac", 0.0) > 0.50',
        ["tests/test_filters.py::test_degenerate_density_flagged_above_a_tenth"]),
    "density_uniform_to_1e-3": (
        "ensemble.py", "1e-9 * lo", "1e-3 * lo",
        ["tests/test_ensemble.py::test_density1d_refuses_a_non_uniform_grid"]),
    "density_values_above_minus_one": (
        "ensemble.py", "v.min() >= 0", "v.min() > -1",
        ["tests/test_ensemble.py::"
         "test_density1d_refuses_what_no_grid_solver_reads"]),
    "table_mass_to_1e-6": (
        "cli.py", "abs(mass - 1.0) > 1e-10", "abs(mass - 1.0) > 1e-6",
        ["tests/test_cli.py::test_grid_table_init_off_unit_mass_exit_2"]),
    "monotone_slack_1e-3": (
        "cli.py", "np.diff(arr) <= 1e-15", "np.diff(arr) <= 1e-3",
        ["tests/test_cli.py::"
         "test_sweep_monotone_count_drops_for_a_rise_of_1e_12"]),
}

_IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                  ".hypothesis", "out", "*.egg-info")


def _pytest(copy: Path, args: list) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(copy / "src")}
    return subprocess.run([sys.executable, "-m", "pytest", "-q",
                           "-p", "no:cacheprovider", *args],
                          cwd=copy, env=env, capture_output=True, text=True)


def _first_failure(out: str):
    """The node id of the first FAILED or ERROR line of pytest's summary."""
    found = re.search(r"^(?:FAILED|ERROR) (\S+?)(?:\[| - |$)", out, re.M)
    return found.group(1) if found else None


def run(name: str, workdir: Path, full: bool) -> bool:
    module, term, replacement, tests = MUTANTS[name]
    copy = workdir / name
    shutil.copytree(ROOT, copy, ignore=_IGNORED)
    target = copy / "src" / "flowfilter" / module
    text = target.read_text()
    if text.count(term) != 1:
        print(f"{name}: the term {term!r} is not once in {module}")
        return False
    target.write_text(text.replace(term, replacement))
    try:
        if full:
            first = _first_failure(_pytest(copy, ["-x", "-rfE"]).stdout)
            killed = first == tests[0]
            print(f"{name}: {'killed' if killed else 'NOT killed as named'} "
                  f"by {first}")
            return killed
        survivors = [t for t in tests if _pytest(copy, [t]).returncode == 0]
        print(f"{name}: " + (f"SURVIVES {', '.join(survivors)}" if survivors
                             else f"killed by {', '.join(tests)}"))
        return not survivors
    finally:
        shutil.rmtree(copy)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("mutants", nargs="*",
                        help=f"the mutants to run (default: all): "
                        f"{', '.join(MUTANTS)}")
    parser.add_argument("--full", action="store_true",
                        help="run the whole suite with -x for each mutant")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.mutants) - set(MUTANTS))
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    workdir = Path(tempfile.mkdtemp())
    try:
        results = [run(name, workdir, args.full)
                   for name in args.mutants or MUTANTS]
    finally:
        shutil.rmtree(workdir)
    print(f"{sum(results)} of {len(results)} mutants killed")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
