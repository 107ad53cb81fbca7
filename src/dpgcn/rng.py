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

    One worker thread fills the next chunk of rows * size standard normals
    while the caller reads the current one; numpy's fill releases the GIL,
    so it runs on another core. Chunks go into two fixed buffers, and
    ``normal`` returns a fresh scaled copy of its row. While the worker
    fills, it owns the generator, so any other draw would make the stream
    depend on timing: uniform, permutation, another size and a draw past
    the total raise ValueError. A worker's exception is raised by the call
    that needs its chunk, which never reads an unfilled buffer. ``close``
    stops the worker.
    """

    def __init__(self, seed: int, stream: int, size: int, rows: int,
                 chunks: int):
        # imported here: it costs about 9 ms, and most processes never need it
        from concurrent.futures import ThreadPoolExecutor

        super().__init__(seed, stream)
        self._size, self._left = int(size), int(chunks)
        self._bufs = [np.empty((int(rows), self._size)) for _ in range(2)]
        self._cur, self._row = 1, int(rows)  # nothing to read before chunk 0
        self._pool = ThreadPoolExecutor(1, thread_name_prefix="dpgcn-noise")
        self._pending = None
        self._fill_next()

    def _fill_next(self) -> None:
        """Start filling the buffer not being read with the next chunk."""
        if self._left:
            self._left -= 1
            self._pending = self._pool.submit(self._gen.standard_normal,
                                              out=self._bufs[1 - self._cur])

    def _normal(self, size, std: float):
        if size != self._size:
            raise ValueError(f"this stream draws {self._size} normals a call, "
                             f"not {size}")
        rows = self._bufs[self._cur]
        if self._row == len(rows):
            if self._pending is None:
                raise ValueError("read-ahead stream exhausted")
            self._pending.result()  # waits for the chunk; raises the worker's error
            self._pending, self._cur, self._row = None, 1 - self._cur, 0
            self._fill_next()
            rows = self._bufs[self._cur]
        self._row += 1
        return np.multiply(rows[self._row - 1], std)

    def uniform(self, size=None):
        raise ValueError("a read-ahead stream draws only normals")

    def permutation(self, n: int) -> np.ndarray:
        raise ValueError("a read-ahead stream draws only normals")

    def close(self) -> None:
        """Wait for the worker and stop it; later chunks are not drawn."""
        self._left, self._pending = 0, None
        self._pool.shutdown(wait=True, cancel_futures=True)
