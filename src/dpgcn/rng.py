"""Seeded SFC64 streams whose draws do not depend on numpy's SIMD dispatch."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from concurrent.futures import Executor

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
        # a subclass overrides _normal, so every stream's draws pass here
        return self._normal(size, std)

    def _normal(self, size, std: float):
        z = self._gen.standard_normal(size)
        return float(z * std) if size is None else np.multiply(z, std, out=z)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(int(n))

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), in sorted order."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        return np.sort(self.permutation(n)[:k])


class ReadAheadNormals(Prng):
    """A Prng stream that serves only ``normal(size, std)``, exactly
    ``chunks * rows`` times, each call's draws bit-identical to Prng's.

    The caller's ``worker``, an executor, draws the next chunk, a fresh
    (rows, size) array of standard normals, while the caller reads the
    current one; numpy's fill releases the GIL, so it runs on another core.
    ``normal`` returns a scaled copy of its row, and a row comes only from
    a chunk the worker has finished. While the worker draws, it owns the
    generator, so any other draw would make the stream depend on timing:
    uniform, permutation, another size and a draw past the total raise
    ValueError. A worker's exception is raised by every call that needs its
    chunk. The worker stays the caller's to stop: its shutdown with
    ``cancel_futures=True`` cancels a chunk not yet begun.
    """

    def __init__(self, seed: int, stream: int, size: int, rows: int,
                 chunks: int, worker: Executor):
        super().__init__(seed, stream)
        self._size, self._left = int(size), int(chunks)
        self._shape = (int(rows), self._size)
        self._rows = iter(())  # nothing to read before chunk 0
        self._worker = worker
        self._next = self._draw_chunk()

    def _draw_chunk(self):
        """The future of the next chunk, or None past the last one."""
        if not self._left:
            return None
        self._left -= 1
        return self._worker.submit(self._gen.standard_normal, self._shape)

    def _normal(self, size, std: float):
        if size != self._size:
            raise ValueError(f"this stream draws {self._size} normals a call, "
                             f"not {size}")
        row = next(self._rows, None)
        if row is None:
            if self._next is None:
                raise ValueError("read-ahead stream exhausted")
            self._rows = iter(self._next.result())  # raises the worker's error
            self._next = self._draw_chunk()
            row = next(self._rows)
        return np.multiply(row, std)

    def uniform(self, size=None):
        raise ValueError("a read-ahead stream draws only normals")

    def permutation(self, n: int) -> np.ndarray:
        raise ValueError("a read-ahead stream draws only normals")
