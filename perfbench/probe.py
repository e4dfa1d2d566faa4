"""Host-speed probe: a fixed kernel whose time tracks the machine's speed.

The reference machine is a share of a busy host, and its speed drifts by
a quarter and more over tens of seconds.  run.py times this kernel
between executions, on the same CPU, and scales a run's median times by
PROBE_REF_S / (the run's mean probe time), so that most of the drift
cancels and a change to the program shows in full.

The kernel mixes the kinds of work the flowfilter workloads do: numpy
calls on arrays of a few thousand floats (cumulative sums and
interpolation as in the gain layer, a flux stencil with a clip and a
renormalisation as in the grid Kushner kernel), Philox normal blocks as
in the noise layer, and interpreter work on frozen dataclasses as in the
step engine.  It uses no flowfilter code, so no change to the program
can move it.  The kernel and PROBE_REF_S must stay as they are: changing
either rescales every calibrated figure.
"""

import dataclasses
import time

import numpy as np

# the probe's time on the reference machine (2-vCPU Intel Xeon VM) in a
# quiet spell; calibrated figures are seconds at that speed
PROBE_REF_S = 0.5


@dataclasses.dataclass(frozen=True)
class _State:
    t: float
    shape: tuple
    info: dict


def _numpy_part(reps):
    """numpy calls on a few thousand floats: gain- and Kushner-like."""
    x = np.linspace(0.0, 1.0, 4000)
    g = np.linspace(-1.0, 1.0, 2001)
    th0 = np.exp(-g * g)
    acc = 0.0
    for _ in range(reps):
        y = np.cumsum(x * 1.0001)
        z = np.interp(x, x, y)
        acc += float((z - y).mean())
        th = th0.copy()
        for _ in range(2):
            hbar = np.dot(g, th * g)
            flux = 0.5 * (g[:-1] * th[:-1] + g[1:] * th[1:])
            flux -= 0.5 * (th[1:] - th[:-1])
            dth = np.empty_like(th)
            dth[1:-1] = -(flux[1:] - flux[:-1])
            dth[0] = -flux[0]
            dth[-1] = flux[-1]
            dth += (g - hbar) * th
            th = th + 1e-4 * dth
            th[th < 0.0] = 0.0
            th /= th.sum()
    return acc


def _noise_part(reps):
    """Counter-addressed Philox blocks of normals and their moments."""
    key = np.random.SeedSequence((1, 2)).generate_state(2, np.uint64)
    acc = 0.0
    for k in range(reps):
        gen = np.random.Generator(np.random.Philox(key=key, counter=[0, 0, 0, k]))
        a = gen.standard_normal((4000, 1))
        m = a.mean(axis=0)
        acc += float(((a - m).T @ (a - m))[0, 0])
    return acc


def _object_part(reps):
    """Interpreter work: frozen dataclass rebuilds and a growing log."""
    state = _State(0.0, (1, 2), {})
    log = []
    for i in range(reps):
        state = dataclasses.replace(state, t=state.t + 1.0, info={"step": i})
        log.append((i, state.t, state.info))
        if len(log) > 500:
            del log[:490]
    return len(log)


def probe_s():
    """Seconds taken by one run of the kernel, about equal thirds of
    numpy, noise and interpreter work."""
    t0 = time.perf_counter()
    _numpy_part(1000)
    _noise_part(1200)
    _object_part(55000)
    return time.perf_counter() - t0
