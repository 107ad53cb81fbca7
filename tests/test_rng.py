import numpy as np
import pytest

from dpgcn.rng import Prng


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
    # odd sizes exercise the Box-Muller pair cropping
    assert r.normal(7).shape == (7,)


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


def two_call_box_muller(gen, size, std):
    """Box-Muller with u1 and u2 drawn by two calls, as the reference."""
    shape = () if size is None else (
        (size,) if np.isscalar(size) else tuple(size))
    n = int(np.prod(shape)) if shape else 1
    half = (n + 1) // 2
    u1 = 1.0 - gen.random(half)
    u2 = gen.random(half)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2),
                        radius * np.sin(2.0 * np.pi * u2)])[:n]
    z *= std
    return float(z[0]) if size is None else z.reshape(shape)


@pytest.mark.parametrize("size", [None, 0, 1, 7, 592, (3, 4)],
                         ids=["None", "0", "1", "7", "592", "3x4"])
def test_normal_bitwise_equals_two_call_box_muller(size):
    seed, stream = 29, 3
    prng = Prng(seed, stream)
    gen = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(stream,))))
    # three draws in a row: each must leave the stream where the reference does
    for std in (1.0, 2.5, 0.1):
        got, want = prng.normal(size, std=std), two_call_box_muller(gen, size, std)
        if size is None:
            assert isinstance(got, float) and got == want
        else:
            assert got.shape == want.shape and np.array_equal(got, want)
    assert prng.uniform() == gen.random()
