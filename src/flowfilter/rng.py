"""Counter-based noise streams for deterministic, parallel-safe simulation.

Every random draw is addressed by (seed, label, step, slot): Philox blocks
are keyed by (seed, label) and the 256-bit counter's top word carries the
step index, so blocks for different steps never overlap and the draw for
particle i at step k sits at a fixed slot regardless of how the work is
scheduled.  Re-running with the same seed reproduces every path bitwise.
"""

import numpy as np


class CounterStream:
    """Philox stream addressed by step index; blocks are non-overlapping."""

    def __init__(self, seed: int, label: int = 0):
        ss = np.random.SeedSequence((int(seed), int(label)))
        self._key = ss.generate_state(2, np.uint64)
        self.seed = int(seed)
        self.label = int(label)

    def normals(self, step: int, shape) -> np.ndarray:
        bg = np.random.Philox(key=self._key, counter=[0, 0, 0, int(step)])
        return np.random.Generator(bg).standard_normal(shape)

    def increments(self, out: np.ndarray, dt: float, first: int = 0) -> np.ndarray:
        """Fill out (steps, *shape) with the N(0, dt I) increment blocks
        sqrt(dt) * normals(first + i, shape), one draw per step, and
        return it."""
        sqdt = np.sqrt(dt)
        for i, block in enumerate(out):
            np.multiply(sqdt, self.normals(first + i, block.shape), out=block)
        return out
