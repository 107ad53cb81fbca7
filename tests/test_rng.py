import os
import subprocess
import sys
import threading
from concurrent.futures import CancelledError, ThreadPoolExecutor

import numpy as np
import pytest

from dpgcn.rng import Prng, ReadAheadNormals

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def test_same_seed_same_stream_bitwise():
    a = Prng(123, 4)
    b = Prng(123, 4)
    assert np.array_equal(a.uniform(100), b.uniform(100))
    assert np.array_equal(a.normal(101), b.normal(101))
    assert np.array_equal(a.permutation(50), b.permutation(50))


def test_streams_are_distinct():
    assert not np.array_equal(Prng(123, 0).uniform(32), Prng(123, 1).uniform(32))
    assert not np.array_equal(Prng(123, 0).uniform(32), Prng(124, 0).uniform(32))


def test_normal_moments():
    # statistical oracle: mean within 3/sqrt(n), std within 3/sqrt(2(n-1))
    n = 100_000
    z = Prng(7).normal(n)
    assert abs(z.mean()) < 3.0 / np.sqrt(n)
    assert abs(z.std(ddof=1) - 1.0) < 3.0 / np.sqrt(2 * (n - 1))
    assert np.isfinite(z).all()


def test_normal_std_scaling():
    a = Prng(9).normal(1000)
    b = Prng(9).normal(1000, std=4.0)
    assert np.allclose(b, 4.0 * a, rtol=0, atol=0)


def test_normal_shapes():
    r = Prng(1)
    assert isinstance(r.normal(), float)
    assert r.normal(5).shape == (5,)
    assert r.normal((3, 4)).shape == (3, 4)
    assert r.normal(7).shape == (7,)
    with pytest.raises(ValueError):  # as uniform(-1) does
        r.normal(-1)


def test_permutation_is_a_permutation():
    p = Prng(3).permutation(1000)
    assert np.array_equal(np.sort(p), np.arange(1000))


def test_sample_without_replacement():
    r = Prng(11)
    ids = r.sample_without_replacement(10, 4)
    assert ids.shape == (4,)
    assert np.array_equal(ids, np.unique(ids))  # sorted and distinct
    assert ids.min() >= 0 and ids.max() < 10
    assert r.sample_without_replacement(5, 0).size == 0
    for k in (-1, 6):
        with pytest.raises(ValueError, match=f"cannot sample {k} of 5"):
            r.sample_without_replacement(5, k)


@pytest.mark.parametrize("size", [None, 0, 1, 7, 592, (3, 4)],
                         ids=["None", "0", "1", "7", "592", "3x4"])
def test_normal_bitwise_equals_generator_standard_normal(size):
    seed, stream = 29, 3
    prng = Prng(seed, stream)
    gen = np.random.Generator(np.random.SFC64(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))
    # three draws in a row: each must leave the stream where the reference does
    for std in (1.0, 2.5, 0.1):
        got, want = prng.normal(size, std=std), std * gen.standard_normal(size)
        if size is None:
            assert isinstance(got, float) and got == want
        else:
            assert got.shape == want.shape and np.array_equal(got, want)
    assert prng.uniform() == gen.random()


DRAW_DIGESTS = """
import hashlib
from dpgcn.data import SynthSpec, generate_synthetic
from dpgcn.rng import Prng
sbm500 = SynthSpec((100,) * 5, 0.10, 0.01, feature_dim=16, feature_shift=1.0,
                   seed=7)
for draws in (Prng(1, 3).normal(200000, std=2.0),
              generate_synthetic(sbm500).features):
    print(hashlib.sha256(draws.tobytes()).hexdigest())
"""


def test_draws_do_not_depend_on_numpy_simd_dispatch():
    # numpy picks a SIMD kernel per CPU at import time; a child with every
    # dispatched target this host enables turned off must draw the same bits
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    if not targets:
        pytest.skip("this host enables no dispatched numpy target")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    children = [subprocess.Popen([sys.executable, "-c", DRAW_DIGESTS], env=e,
                                 stdout=subprocess.PIPE, text=True)
                for e in (env, dict(env, NPY_DISABLE_CPU_FEATURES=" ".join(targets)))]
    default, reduced = (child.communicate(timeout=60)[0].split()
                        for child in children)
    assert all(child.returncode == 0 for child in children)
    assert len(default) == 2 and default == reduced, targets


@pytest.fixture
def pool():
    """A borrowed one-thread executor, as a trainer lends its worker."""
    worker = ThreadPoolExecutor(1, thread_name_prefix="dpgcn-borrowed")
    yield worker
    worker.shutdown(cancel_futures=True)


def read_ahead(pool, size=50, rows=3, chunks=4, seed=17, stream=3):
    return ReadAheadNormals(seed, stream, size, rows, chunks, pool)


def own_threads() -> set:
    return {t.name for t in threading.enumerate() if t.name.startswith("dpgcn-")}


def test_read_ahead_bitwise_equals_prng_across_chunks(pool):
    # every array is held to the end, so a returned view of a buffer that
    # a later refill overwrote would differ from the reference
    stream = read_ahead(pool)
    got = [stream.normal(50, std=0.5 + k) for k in range(12)]
    ref = Prng(17, 3)
    want = [ref.normal(50, std=0.5 + k) for k in range(12)]
    for k, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), k
    assert len({id(a) for a in got}) == 12
    assert not any(np.shares_memory(got[0], a) for a in got[1:])


@pytest.mark.parametrize("draw", [
    lambda r: r.uniform(),
    lambda r: r.uniform(50),
    lambda r: r.permutation(5),
    lambda r: r.sample_without_replacement(5, 2),
    lambda r: r.normal(),
    lambda r: r.normal(49),
    lambda r: r.normal((50,)),
], ids=["uniform", "uniform-50", "permutation", "sample", "scalar-normal",
        "wrong-size", "tuple-size"])
def test_read_ahead_refuses_every_other_draw(pool, draw):
    stream = read_ahead(pool)
    first = stream.normal(50)
    with pytest.raises(ValueError):
        draw(stream)
    # a refused draw consumes nothing
    ref = Prng(17, 3)
    assert np.array_equal(first, ref.normal(50))
    assert np.array_equal(stream.normal(50, std=2.0), ref.normal(50, std=2.0))


def test_read_ahead_refuses_a_draw_past_its_total(pool):
    stream = read_ahead(pool, rows=2, chunks=3)
    for _ in range(6):
        stream.normal(50)
    for _ in range(2):
        with pytest.raises(ValueError, match="exhausted"):
            stream.normal(50)


class FailingGenerator:
    """A Generator stand-in whose fill of the second chunk raises."""

    def __init__(self, gen):
        self.gen, self.fills = gen, 0

    def standard_normal(self, size):
        self.fills += 1
        if self.fills == 2:
            raise MemoryError("fill failed")
        return self.gen.standard_normal(size)


def test_read_ahead_raises_the_worker_error_on_the_caller(pool, monkeypatch):
    real_init = Prng.__init__

    def init(self, seed, stream=0):
        real_init(self, seed, stream)
        self._gen = FailingGenerator(self._gen)

    monkeypatch.setattr(Prng, "__init__", init)
    stream = read_ahead(pool, rows=2, chunks=3)
    want = Prng(17, 3)._gen.gen
    assert np.array_equal(stream.normal(50), want.standard_normal(50))
    assert np.array_equal(stream.normal(50), want.standard_normal(50))
    # the second chunk was never filled: no call may read its buffer
    for _ in range(2):
        with pytest.raises(MemoryError, match="fill failed"):
            stream.normal(50)
    # the stream started no thread of its own, and the error left the
    # borrowed one working
    assert own_threads() == {"dpgcn-borrowed_0"}
    assert pool.submit(int, "7").result() == 7


def test_read_ahead_stops_with_its_owners_worker(pool):
    # the stream borrows its worker: the owner's shutdown, as a trainer's
    # close does it, cancels the chunk not yet begun
    gate = threading.Event()
    try:
        stream = read_ahead(pool, chunks=100)
        pool.submit(gate.wait, 60)  # runs after chunk 0; chunk 1 waits behind it
        ref = Prng(17, 3)
        assert np.array_equal(stream.normal(50), ref.normal(50))
        pool.shutdown(wait=False, cancel_futures=True)  # cancels chunk 1
    finally:
        gate.set()  # a failed assertion must not leave the teardown waiting
    pool.shutdown()  # waits for the gate
    # the chunk being read stays readable; the next one is never drawn
    for _ in range(2):
        assert np.array_equal(stream.normal(50), ref.normal(50))
    for _ in range(2):
        with pytest.raises(CancelledError):
            stream.normal(50)
    # the generator stands where chunk 0 left it
    assert np.array_equal(stream._gen.standard_normal(8), ref._gen.standard_normal(8))
