"""Outside-in tracing of the flowfilter layers, installed from the benchmark.

The program is not edited.  `install` rebinds each traced function in the
module namespace where the program looks it up (a `from .x import y`
copies the name, so every importing module is rebound separately), and
wraps the model callables through the public `register_model` hook.
Spans (name, start, end, parent) are kept in memory; `layer_metrics`
turns them into the per-layer numbers after the run.
"""

import dataclasses
import functools
import math
import time

# (module, attribute, span name).  The span name's prefix before the first
# dot is the layer; flowfilter._kernels is the layer "kernels", since a
# metric name must start with a letter or a digit.  A function copied into several modules is listed once
# per module that calls it.
TRACED = [
    ("flowfilter.cli", "main", "cli.main"),
    ("flowfilter.cli", "emit_plot_data", "cli.emit"),
    ("flowfilter.cli", "emit_sweep_csv", "cli.emit"),
    ("flowfilter.cli", "emit_theory_csv", "cli.emit"),
    ("flowfilter.cli", "run_filter", "filters.run_filter"),
    ("flowfilter.cli", "simulate_truth", "paths.simulate"),
    ("flowfilter.cli", "simulate_observations", "paths.simulate"),
    ("flowfilter.cli", "run_kalman_bucy", "reference.kalman_bucy"),
    ("flowfilter.cli", "run_grid_kushner", "reference.grid_kushner"),
    ("flowfilter.cli", "empirical_poincare_1d", "theory.empirical_poincare"),
    ("flowfilter.filters", "compute_moments", "ensemble.compute_moments"),
    ("flowfilter.filters", "assemble_filter_coefficients", "gain.assemble"),
    # the enkbf step assembles its coefficients through this private helper
    # instead of assemble_filter_coefficients
    ("flowfilter.filters", "_exact_coefficients", "gain.assemble"),
    ("flowfilter.filters", "continuous_gain", "gain.continuous_gain"),
    ("flowfilter.gain", "compute_moments", "ensemble.compute_moments"),
    ("flowfilter.gain", "kde_density_1d", "ensemble.kde_density_1d"),
    ("flowfilter.gain", "solve_1d_integral", "gain.solve_1d_integral"),
    ("flowfilter.gain", "solve_galerkin", "gain.solve_galerkin"),
    ("flowfilter.gain", "solve_exact_gaussian", "gain.solve_exact_gaussian"),
    ("flowfilter.gain", "cumulative_simpson", "gain.cumulative_simpson"),
    ("flowfilter._kernels", "kushner_substeps", "kernels.kushner_substeps"),
    ("flowfilter._kernels", "deposit_linear", "kernels.deposit_linear"),
]

LAYERS = ("cli", "paths", "rng", "models", "filters", "gain", "ensemble",
          "reference", "kernels", "theory")

# computed traffic model of one Kushner cell update: read theta, drift,
# h and the quadrature weight, write theta; 8-byte floats
KUSHNER_BYTES_PER_CELL_UPDATE = 5 * 8


class Span:
    __slots__ = ("name", "start", "end", "parent", "info", "error")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.info = None
        self.error = None


def _normals_info(args, kwargs, result):
    stream, step, shape = args[0], args[1], args[2]
    shape = tuple(shape) if isinstance(shape, (tuple, list)) else (shape,)
    return (stream.seed, stream.label, int(step), shape), result.nbytes


def _kushner_info(args, kwargs, result):
    theta, nsub = args[0], args[6]
    return theta.size * int(nsub), int(nsub)


def _grid_kushner_info(args, kwargs, result):
    return int(result[3])            # negative-clip count


INFO = {
    "rng.normals": _normals_info,
    "kernels.kushner_substeps": _kushner_info,
    "reference.grid_kushner": _grid_kushner_info,
}


class Tracer:
    """Records spans of wrapped calls; `install` / `restore` manage bindings."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._bindings = []       # (owner, attribute, original)
        self._models = {}         # registry name -> original builder

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        info = INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def _rebind(self, owner, attr, name):
        original = owner.__dict__[attr]
        setattr(owner, attr, self.wrap(original, name))
        self._bindings.append((owner, attr, original))

    def install(self):
        import importlib

        from flowfilter import cli, rng

        for module, attr, name in TRACED:
            self._rebind(importlib.import_module(module), attr, name)
        self._rebind(rng.CounterStream, "normals", "rng.normals")
        for key, builder in list(cli.MODEL_REGISTRY.items()):
            self._models[key] = builder
            cli.register_model(key, self._traced_builder(builder))

    def _traced_builder(self, builder):
        def build(params):
            model = builder(params)
            return dataclasses.replace(
                model, obs=self.wrap(model.obs, "models.obs"),
                drift=self.wrap(model.drift, "models.drift"))

        return build

    def restore(self):
        """Put every original binding back; returns True when all are back."""
        from flowfilter import cli

        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        for key, builder in self._models.items():
            cli.register_model(key, builder)
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._bindings) \
            and all(cli.MODEL_REGISTRY[k] is b for k, b in self._models.items())


def _percentile(sorted_vals, q):
    if not sorted_vals:
        return 0.0
    k = min(len(sorted_vals) - 1, max(0, math.ceil(q * len(sorted_vals)) - 1))
    return sorted_vals[k]


def _under(span, name):
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(spans, wall_s):
    """Per-layer metrics from the recorded spans of one traced run."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[id(s.parent)] = child_time.get(id(s.parent), 0.0) \
                + (s.end - s.start)
    incl, calls, self_by_name = {}, {}, {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        dur = s.end - s.start
        own = dur - child_time.get(id(s), 0.0)
        if not _under(s, s.name):      # recursion counts once
            incl[s.name] = incl.get(s.name, 0.0) + dur
        calls[s.name] = calls.get(s.name, 0) + 1
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own
        self_by_layer[s.name.split(".", 1)[0]] += own

    # fine steps: one particle-noise draw per step, made directly by
    # run_filter; the path simulation draws from the same label under a
    # paths.simulate parent, so the parent tells them apart
    draws = {}
    for s in spans:
        if s.name == "rng.normals" and s.parent is not None \
                and s.parent.name == "filters.run_filter":
            draws.setdefault(id(s.parent), []).append(s)
    step_us, first, last = [], 0.0, 0.0
    for run_draws in draws.values():
        starts = [d.start for d in run_draws]
        gaps = [(b - a) * 1e6 for a, b in zip(starts, starts[1:])]
        step_us.extend(gaps)
        tenth = max(1, len(gaps) // 10)
        first += sum(gaps[:tenth])
        last += sum(gaps[-tenth:])
    steps = sum(len(v) for v in draws.values())
    step_us.sort()

    obs_in_filter = sum(1 for s in spans if s.name == "models.obs"
                        and _under(s, "filters.run_filter"))

    normals = [s for s in spans if s.name == "rng.normals"]
    blocks = {s.info[0] for s in normals}
    kushner = [s for s in spans if s.name == "kernels.kushner_substeps"]
    cell_updates = sum(s.info[0] for s in kushner)
    per_step = (lambda n: n / steps) if steps else (lambda n: 0.0)
    solves = sum(calls.get(k, 0) for k in ("gain.solve_1d_integral",
                                           "gain.solve_galerkin",
                                           "gain.solve_exact_gaussian"))
    gain_errors = sum(1 for s in spans
                      if s.error is not None and s.name.startswith("gain."))
    m = {
        "gain.assemble_s": incl.get("gain.assemble", 0.0),
        "gain.assemble_calls": calls.get("gain.assemble", 0),
        "gain.continuous_gain_s": incl.get("gain.continuous_gain", 0.0),
        "gain.solve_1d_integral_s": incl.get("gain.solve_1d_integral", 0.0),
        "gain.solve_1d_integral_calls": calls.get("gain.solve_1d_integral", 0),
        "gain.solve_galerkin_s": incl.get("gain.solve_galerkin", 0.0),
        "gain.solve_galerkin_calls": calls.get("gain.solve_galerkin", 0),
        "gain.solve_exact_gaussian_s": incl.get("gain.solve_exact_gaussian", 0.0),
        "gain.cumulative_simpson_calls": calls.get("gain.cumulative_simpson", 0),
        "gain.solves_per_step": per_step(solves),
        "gain.errors": gain_errors,
        "filters.run_filter_s": incl.get("filters.run_filter", 0.0),
        "filters.self_s": self_by_name.get("filters.run_filter", 0.0),
        "filters.steps": steps,
        "filters.self_us_per_step":
            per_step(self_by_name.get("filters.run_filter", 0.0) * 1e6),
        "filters.step_us_p50": _percentile(step_us, 0.50),
        "filters.step_us_p99": _percentile(step_us, 0.99),
        "filters.step_cost_growth": last / first if first else 0.0,
        "filters.aborted": sum(1 for s in spans if s.name == "filters.run_filter"
                               and s.error is not None),
        "rng.normals_s": incl.get("rng.normals", 0.0),
        "rng.normals_calls": len(normals),
        "rng.normals_bytes": sum(s.info[1] for s in normals),
        "rng.unique_block_frac": len(blocks) / len(normals) if normals else 0.0,
        "ensemble.compute_moments_s": incl.get("ensemble.compute_moments", 0.0),
        "ensemble.compute_moments_calls": calls.get("ensemble.compute_moments", 0),
        "ensemble.moments_per_step":
            per_step(calls.get("ensemble.compute_moments", 0)),
        "ensemble.kde_density_1d_s": incl.get("ensemble.kde_density_1d", 0.0),
        "ensemble.kde_density_1d_calls": calls.get("ensemble.kde_density_1d", 0),
        "models.obs_s": incl.get("models.obs", 0.0),
        "models.obs_calls": calls.get("models.obs", 0),
        "models.obs_per_step": per_step(obs_in_filter),
        "models.drift_s": incl.get("models.drift", 0.0),
        "models.drift_calls": calls.get("models.drift", 0),
        "reference.kalman_bucy_s": incl.get("reference.kalman_bucy", 0.0),
        "reference.grid_kushner_s": incl.get("reference.grid_kushner", 0.0),
        "reference.clip_count": sum(s.info for s in spans
                                    if s.name == "reference.grid_kushner"),
        "reference.substeps_per_fine_step":
            sum(s.info[1] for s in kushner) / len(kushner) if kushner else 0.0,
        "kernels.kushner_substeps_s": incl.get("kernels.kushner_substeps", 0.0),
        "kernels.kushner_cell_updates": cell_updates,
        "kernels.kushner_bytes_computed":
            cell_updates * KUSHNER_BYTES_PER_CELL_UPDATE,
        "kernels.deposit_linear_s": incl.get("kernels.deposit_linear", 0.0),
        "kernels.deposit_linear_calls": calls.get("kernels.deposit_linear", 0),
        "paths.simulate_s": incl.get("paths.simulate", 0.0),
        "paths.simulate_calls": calls.get("paths.simulate", 0),
        "cli.self_s": self_by_layer["cli"],
        "cli.emit_s": incl.get("cli.emit", 0.0),
        "theory.empirical_poincare_s": incl.get("theory.empirical_poincare", 0.0),
        "theory.empirical_poincare_calls":
            calls.get("theory.empirical_poincare", 0),
        "trace.coverage": sum(self_by_layer.values()) / wall_s,
    }
    for layer in LAYERS:
        if layer != "cli":
            m[f"{layer}.self_s"] = self_by_layer[layer]
    return m
