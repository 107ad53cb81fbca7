"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is a few shared cores whose speed drifts by tens of
percent within seconds and up to a factor of two over minutes, because
other tenants use the same physical cores and caches. That drift hits an
operation and the kernel runs just before and after it alike, so the
ratio of the two is steady where the operation's wall time is not.

The kernel never calls ``dpgcn``, so no change to the program can move it;
only a change to this file can. It has two parts, and each workload picks
the ones that slow down with the host the way its operations do:

- ``small``: many numpy calls on tiny arrays and a small CSR product, as
  in split training and in the accountant's quadrature callbacks;
- ``wide``: BLAS and elementwise work on the reddit shape (410 x 602
  features, a 20,576-element Box-Muller draw).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

_GEN = np.random.default_rng(20240521)
_SMALL_X = _GEN.standard_normal((30, 16))
_SMALL_W = _GEN.standard_normal((16, 8))
_ROWS = np.repeat(np.arange(30), 4)
_COLS = _GEN.integers(0, 30, size=120)
_VALS = np.full(120, 0.25)
_WIDE_X = _GEN.standard_normal((410, 602))
_WIDE_W = _GEN.standard_normal((602, 32))
_U = _GEN.random(10_288) * 0.999 + 0.0005


def _small() -> float:
    total = 0.0
    for _ in range(200):
        adj = sp.csr_matrix((_VALS, (_ROWS, _COLS)), shape=(30, 30))
        h = np.maximum(adj @ (_SMALL_X @ _SMALL_W), 0.0)
        total += float(h.sum())
    return total


def _wide() -> float:
    total = 0.0
    for _ in range(20):
        h = _WIDE_X @ _WIDE_W
        r = np.sqrt(-2.0 * np.log(_U))
        z = np.concatenate([r * np.cos(2.0 * np.pi * _U),
                            r * np.sin(2.0 * np.pi * _U)])
        total += float(h[0, 0]) + float(np.dot(z, z))
    return total


PARTS = {"small": _small, "wide": _wide}  # about 20 ms each on a quiet host


def timed_kernel(parts) -> float:
    """Wall seconds of one run of the named parts."""
    start = time.perf_counter()
    for part in parts:
        PARTS[part]()
    return time.perf_counter() - start
