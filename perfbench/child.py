"""One flowfilter CLI execution in a fresh process, timed from the inside.

    python3 perfbench/child.py JOB.json SPAWNED

run.py writes JOB.json and passes SPAWNED, its time.monotonic() reading
just before starting this process (CLOCK_MONOTONIC is system-wide, so the
two clocks agree).  The child imports flowfilter.cli and parses the config
(set-up), then, unless the job is set-up only, runs the subcommand through
`flowfilter.cli.main`, optionally under the layer tracer, and writes its
result as JSON to the job's `result` path.
"""

import json
import math
import os
import platform
import resource
import sys
import time


def work_count(command, config):
    """Work done by one execution at this input size, with its unit."""
    grid = config.grid
    if command == "run":
        return (len(config.filters) * config.ensemble_size * grid.n_fine,
                "particle-steps")
    if command == "sweep":
        from flowfilter.paths import TimeGrid

        deltas = config.sweep["delta"]
        finest = TimeGrid(t0=grid.t0, t_end=grid.t_end, fine_dt=grid.fine_dt,
                          delta=min(deltas))
        runs = len(config.sweep["seeds"]) * len(config.filters) * (len(deltas) + 1)
        return runs * config.ensemble_size * finest.n_fine, "particle-steps"
    import numpy as np
    from flowfilter.reference import GridDensity, cfl_bound

    opts = config.reference["grid_kushner"]
    half, points = float(opts["half_width"]), int(opts["points"])
    x = np.linspace(-half, half, points)
    nsub = max(1, math.ceil(grid.fine_dt / cfl_bound(GridDensity(x, np.ones(points)))))
    return points * nsub * grid.n_fine, "cell-updates"


def main(job_path, spawned):
    with open(job_path) as fh:
        job = json.load(fh)
    import flowfilter.cli as cli

    config = cli.load_config(job["config"])
    result = {"setup_s": time.monotonic() - spawned, "module": cli.__file__}
    if job["command"] != "setup":
        tracer = None
        if job["trace"]:
            import layers

            tracer = layers.Tracer()
            tracer.install()
        argv = [job["command"], job["config"], "--out-dir", job["out_dir"],
                "--threads", "1"]
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - t0
        import numpy
        import scipy
        from flowfilter import _kernels

        work, unit = work_count(job["command"], config)
        result.update(
            rc=rc, wall_s=wall_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            work=work, work_unit=unit,
            env={"backend": _kernels.BACKEND, "python": platform.python_version(),
                 "numpy": numpy.__version__, "scipy": scipy.__version__})
        if tracer is not None:
            result["restored"] = tracer.restore()
            result["layers"] = layers.layer_metrics(tracer.spans, wall_s)
            result["layers"]["cli.emit_bytes"] = sum(
                os.path.getsize(os.path.join(job["out_dir"], name))
                for name in os.listdir(job["out_dir"]))
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], float(sys.argv[2]))
