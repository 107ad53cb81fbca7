"""Seeded SFC64 streams whose draws do not depend on numpy's SIMD dispatch."""

from __future__ import annotations

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
    """An SFC64 stream with numpy's ziggurat normals; (seed, stream) pairs
    are separated by ``SeedSequence(entropy=seed, spawn_key=(stream,))``.

    `uniform` and `normal` are numpy's `Generator.random` and
    `standard_normal`. They run no SIMD-dispatched math, so a (seed, stream)
    pair gives the same bits on any numpy CPU dispatch (other libms, used in
    the ziggurat's rare tail steps, are unchecked). Streams are pinned per
    numpy version (NEP 19; results.json records it). Trained bits still
    depend on the CPU, through the softmax's exp and log and the BLAS kernel.
    """

    def __init__(self, seed: int, stream: int = 0):
        seq = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(stream),))
        self._gen = np.random.Generator(np.random.SFC64(seq))

    def uniform(self, size=None):
        """Uniform doubles in [0, 1)."""
        return self._gen.random(size)

    def normal(self, size=None, std: float = 1.0):
        """Centered Gaussian draws with the given standard deviation."""
        z = self._gen.standard_normal(size)
        return float(z * std) if size is None else np.multiply(z, std, out=z)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(int(n))

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in sorted order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        return np.sort(self.permutation(n)[:k])
