"""Seeded random streams with platform-stable Gaussian draws."""

from __future__ import annotations

import math

import numpy as np

# stream ids let one experiment seed feed several independent consumers
STREAM_SYNTH = 0
STREAM_INIT = 1
STREAM_DROPOUT = 2
STREAM_NOISE = 3
STREAM_PARTITION = 4
STREAM_LOT = 5
STREAM_SUBSAMPLE = 6


class Prng:
    """Counter-based random stream (Philox) with Box-Muller normals.

    Gaussian samples are produced by the Box-Muller transform applied to
    64-bit uniforms, so a (seed, stream) pair yields bitwise-identical
    sequences on any platform with IEEE doubles.
    """

    def __init__(self, seed: int, stream: int = 0):
        seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
        self._gen = np.random.Generator(np.random.Philox(seq))

    def uniform(self, size=None):
        """Uniform doubles in [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None, std: float = 1.0):
        """Centered Gaussian draws with the given standard deviation."""
        shape = () if size is None else (
            (size,) if np.isscalar(size) else tuple(size))
        n = math.prod(shape)
        half = (n + 1) // 2
        # one draw of 2*half uniforms is the stream of two draws of half
        u = self._gen.random(2 * half)
        radius = np.sqrt(-2.0 * np.log(1.0 - u[:half]))  # 1 - u in (0, 1]
        angle = 2.0 * np.pi * u[half:]
        z = np.empty(2 * half)
        np.multiply(radius, np.cos(angle), out=z[:half])
        np.multiply(radius, np.sin(angle), out=z[half:])
        z = z[:n]
        z *= std
        return float(z[0]) if size is None else z.reshape(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(int(n))

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in sorted order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        return np.sort(self.permutation(n)[:k])
