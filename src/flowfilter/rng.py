"""Counter-based noise streams for deterministic, parallel-safe simulation.

Every random draw is addressed by (seed, label, step, slot): Philox blocks
are keyed by (seed, label) and the 256-bit counter's top word carries the
step index, so blocks for different steps never overlap and the draw for
particle i at step k sits at a fixed slot regardless of how the work is
scheduled.  Re-running with the same seed reproduces every path bitwise.

Each stream keeps one Philox generator and sets its counter and buffer
state before every draw, so a draw is the one a freshly built generator
at that counter would make.  That state is shared by the stream's draws:
a CounterStream must not be shared between threads; give each thread its
own (streams with the same seed and label draw the same numbers).
"""

import numpy as np


class CounterStream:
    """Philox stream addressed by step index; blocks are non-overlapping."""

    def __init__(self, seed: int, label: int = 0):
        ss = np.random.SeedSequence((int(seed), int(label)))
        self._key = ss.generate_state(2, np.uint64)
        self.seed = int(seed)
        self.label = int(label)
        self._gen = None          # built on the first draw

    def normals(self, step: int, shape) -> np.ndarray:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox(key=self._key))
        # the state of a fresh Philox(key, counter=[0, 0, 0, step]): an
        # empty buffer, so nothing is left over from the previous draw
        self._gen.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, int(step)), "key": self._key},
            "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
            "uinteger": 0}
        return self._gen.standard_normal(shape)

    def increments(self, out: np.ndarray, dt: float, first: int = 0) -> np.ndarray:
        """Fill out (steps, *shape) with the N(0, dt I) increment blocks
        sqrt(dt) * normals(first + i, shape), one draw per step, and
        return it."""
        sqdt = np.sqrt(dt)
        for i, block in enumerate(out):
            np.multiply(sqdt, self.normals(first + i, block.shape), out=block)
        return out
