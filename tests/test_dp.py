import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgcn.dp as dp_mod
from dpgcn.dp import (AdamState, DpNoiseSpec, adam_step, clip_gradient,
                      noisy_lot_gradient, sample_lot, sgd_step)
from dpgcn.model import GcnParams
from dpgcn.rng import Prng, STREAM_NOISE


def params_from(w0, w1):
    return GcnParams(w0=np.asarray(w0, dtype=float), w1=np.asarray(w1, dtype=float))


# ---- clip_gradient ----

def test_clip_halves_oversized():
    g = np.array([3.0, 4.0])  # norm 5
    out = clip_gradient(g, 2.5)
    assert np.allclose(out, [1.5, 2.0], rtol=1e-15)
    assert np.linalg.norm(out) == pytest.approx(2.5, rel=1e-15)


def test_clip_leaves_small_untouched():
    g = np.array([0.3, 0.4])
    out = clip_gradient(g, 1.0)
    assert np.array_equal(out, g)


def test_clip_zero_vector():
    out = clip_gradient(np.zeros(4), 1.0)
    assert np.array_equal(out, np.zeros(4))


def test_clip_boundary_exact():
    g = np.array([1.0, 0.0])
    assert np.array_equal(clip_gradient(g, 1.0), g)


def test_clip_rejects_non_finite():
    with pytest.raises(ValueError):
        clip_gradient(np.array([np.inf, 0.0]), 1.0)
    with pytest.raises(ValueError):
        clip_gradient(np.array([np.nan]), 1.0)
    # finite entries whose squared norm overflows are not zeroed silently
    with pytest.raises(ValueError), np.errstate(over="ignore"):
        clip_gradient(np.array([1e200, 1e200]), 1.0)


@given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
       st.floats(0.01, 10.0))
@settings(max_examples=200, deadline=None)
def test_clip_norm_never_exceeds_bound(values, c):
    out = clip_gradient(np.array(values), c)
    assert np.linalg.norm(out) <= c * (1.0 + 1e-12)


@given(st.floats(0.1, 10.0))
@settings(max_examples=50, deadline=None)
def test_clip_direction_preserved(c):
    g = np.array([6.0, 8.0])  # norm 10
    out = clip_gradient(g, c)
    unit = g / 10.0
    scale = min(10.0, c)
    assert np.allclose(out, unit * scale, rtol=1e-12)


def test_clip_bitwise_equals_linalg_norm_formula():
    rng = np.random.default_rng(17)
    for dim in (1, 2, 7, 672, 20_576):
        for scale in (0.0, 1e-300, 1e-3, 1.0, 1e3, 1e150):
            g = rng.normal(size=dim) * scale
            for c in (1e-3, 0.5, 1.0, 4.0):
                want = g / max(1.0, np.linalg.norm(g) / c)
                assert np.array_equal(clip_gradient(g, c), want), (dim, scale, c)


# ---- noisy_lot_gradient ----

def test_noisy_sigma_zero_is_clipped_mean():
    grads = [np.array([3.0, 4.0]), np.array([0.0, 0.5])]
    spec = DpNoiseSpec(clip_norm=2.5, noise_multiplier=0.0)
    out = noisy_lot_gradient(grads, spec, Prng(0, stream=STREAM_NOISE))
    want = (np.array([1.5, 2.0]) + np.array([0.0, 0.5])) / 2.0
    assert np.array_equal(out, want)


def test_noisy_single_example_identity_when_small():
    grads = [np.array([0.1, -0.2])]
    spec = DpNoiseSpec(clip_norm=1.0, noise_multiplier=0.0)
    out = noisy_lot_gradient(grads, spec, Prng(0, stream=STREAM_NOISE))
    assert np.array_equal(out, grads[0])


def test_noisy_gradient_statistics():
    # zero inputs isolate the noise: mean ~ 0, std ~ sigma*C/L
    dim, draws, sigma, c, lot = 10, 10000, 4.0, 1.0, 1
    spec = DpNoiseSpec(clip_norm=c, noise_multiplier=sigma)
    rng = Prng(7, stream=STREAM_NOISE)
    samples = np.stack([
        noisy_lot_gradient([np.zeros(dim)] * lot, spec, rng)
        for _ in range(draws)
    ])
    flat = samples.ravel()
    n = flat.size
    se_mean = sigma / np.sqrt(n)
    assert abs(flat.mean()) <= 3.0 * se_mean
    se_std = sigma / np.sqrt(2.0 * (n - 1))
    assert abs(flat.std(ddof=1) - sigma) <= 3.0 * se_std


def test_noisy_one_draw_per_lot():
    # the lot adds a single noise vector: replaying the stream reproduces it
    grads = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    spec = DpNoiseSpec(clip_norm=1.0, noise_multiplier=2.0)
    out = noisy_lot_gradient(grads, spec, Prng(5, stream=STREAM_NOISE))
    noise = Prng(5, stream=STREAM_NOISE).normal(2, std=2.0)
    want = (grads[0] + grads[1] + noise) / 2.0
    assert np.array_equal(out, want)


def test_noisy_scales_noise_by_clip_norm():
    spec_a = DpNoiseSpec(clip_norm=1.0, noise_multiplier=3.0)
    spec_b = DpNoiseSpec(clip_norm=2.0, noise_multiplier=3.0)
    a = noisy_lot_gradient([np.zeros(3)], spec_a, Prng(1, stream=STREAM_NOISE))
    b = noisy_lot_gradient([np.zeros(3)], spec_b, Prng(1, stream=STREAM_NOISE))
    assert np.allclose(b, 2.0 * a, rtol=1e-15)


def test_noisy_lag_one_autocorrelation():
    spec = DpNoiseSpec(clip_norm=1.0, noise_multiplier=1.0)
    rng = Prng(3, stream=STREAM_NOISE)
    t = 10000
    xs = np.array([
        noisy_lot_gradient([np.zeros(1)], spec, rng)[0] for _ in range(t)
    ])
    x0 = xs - xs.mean()
    rho = (x0[:-1] * x0[1:]).sum() / (x0 * x0).sum()
    assert abs(rho) < 3.0 / np.sqrt(t)


def test_noisy_rejects_empty_and_mismatched():
    spec = DpNoiseSpec(clip_norm=1.0, noise_multiplier=1.0)
    with pytest.raises(ValueError):
        noisy_lot_gradient([], spec, Prng(0))
    with pytest.raises(ValueError):
        noisy_lot_gradient([np.zeros(2), np.zeros(3)], spec, Prng(0))


def test_spec_validation():
    with pytest.raises(ValueError):
        DpNoiseSpec(clip_norm=0.0, noise_multiplier=1.0)
    with pytest.raises(ValueError):
        DpNoiseSpec(clip_norm=1.0, noise_multiplier=-0.5)
    assert DpNoiseSpec(clip_norm=2.0, noise_multiplier=3.0).noise_std == 6.0


@pytest.mark.parametrize("kw", [
    dict(clip_norm=float("nan")),
    dict(clip_norm=float("inf")),
    dict(noise_multiplier=float("nan")),
    dict(noise_multiplier=float("inf")),
])
def test_spec_rejects_non_finite(kw):
    with pytest.raises(ValueError):
        DpNoiseSpec(**kw)


@pytest.mark.parametrize("clip_norm", [float("nan"), float("inf"), 0.0, -1.0])
def test_clip_rejects_bad_clip_norm(clip_norm):
    # a NaN bound compares false everywhere and used to return g unclipped
    with pytest.raises(ValueError):
        clip_gradient(np.array([30.0, 40.0]), clip_norm)


# ---- sgd_step (mutates params in place) ----

def test_sgd_zero_gradient_no_change():
    p = params_from([[1.0]], [[2.0, 3.0]])
    before = p.flat.copy()
    sgd_step(p.flat, np.zeros(3), 0.1)
    assert np.array_equal(p.flat, before)


def test_sgd_hand_value():
    p = params_from([[1.0]], [[0.0, 0.0]])
    sgd_step(p.flat, np.array([0.5, 0.0, 0.0]), 0.01)
    assert p.w0[0, 0] == pytest.approx(0.995, abs=0)


def test_sgd_linearity_in_lr():
    a = params_from([[1.0, -1.0]], [[2.0], [0.5]])
    b = a.copy()
    start = a.flat.copy()
    g = np.array([0.3, -0.2, 1.0, 0.1])
    sgd_step(a.flat, g, 0.01)
    sgd_step(b.flat, g, 0.02)
    assert np.allclose(b.flat - start, 2.0 * (a.flat - start),
                       rtol=1e-12)


def test_sgd_two_steps_accumulate():
    p = params_from([[1.0]], [[1.0]])
    sgd_step(p.flat, np.ones(2), 0.25)
    sgd_step(p.flat, np.ones(2), 0.25)
    assert np.array_equal(p.flat, [0.5, 0.5])


# ---- adam_step (mutates state and params in place) ----

def test_adam_zero_gradient_no_change():
    p = params_from([[1.0]], [[2.0]])
    before = p.flat.copy()
    state = AdamState.zeros(2)
    adam_step(state, p.flat, np.zeros(2), 0.01)
    assert np.array_equal(p.flat, before)
    assert state.t == 1


def test_adam_first_step_moves_by_lr():
    # bias correction makes m_hat = g, v_hat = g^2: step = lr * g/(|g|+eps)
    p = params_from([[0.0]], [[0.0]])
    state = AdamState.zeros(2)
    adam_step(state, p.flat, np.array([7.0, -0.001]), 0.1)
    flat = p.flat
    assert flat[0] == pytest.approx(-0.1, rel=1e-6)
    assert flat[1] == pytest.approx(0.1, rel=1e-4)
    assert state.t == 1


def test_adam_descends_along_sign():
    p = params_from([[1.0, 1.0]], [[1.0], [1.0]])
    start = p.flat.copy()
    state = AdamState.zeros(4)
    g = np.array([1.0, -1.0, 2.0, -0.5])
    adam_step(state, p.flat, g, 0.05)
    assert (np.sign(p.flat - start) == -np.sign(g)).all()


def test_adam_moment_recurrence():
    state = AdamState.zeros(2)
    p = params_from([[0.0]], [[0.0]])
    adam_step(state, p.flat, np.array([2.0, 0.0]), 0.01)
    assert state.m[0] == pytest.approx(0.1 * 2.0, rel=1e-15)
    assert state.v[0] == pytest.approx(0.001 * 4.0, rel=1e-12)
    adam_step(state, p.flat, np.array([-1.0, 0.0]), 0.01)
    assert state.m[0] == pytest.approx(0.9 * 0.2 + 0.1 * (-1.0), rel=1e-12)
    assert state.v[0] == pytest.approx(0.999 * 0.004 + 0.001 * 1.0, rel=1e-12)
    assert state.t == 2


def test_adam_bitwise_equals_out_of_place_formula():
    # the textbook update, one new array per operation, as the reference
    rng = np.random.default_rng(23)
    p = params_from(rng.normal(size=(6, 5)), rng.normal(size=(5, 3)))
    want_params = p.flat.copy()
    state = AdamState.zeros(p.flat.size)
    m, v = np.zeros(p.flat.size), np.zeros(p.flat.size)
    b1, b2, eps = 0.9, 0.999, 1e-8
    for t in range(1, 51):
        g = rng.normal(size=p.flat.size) * 10.0 ** rng.uniform(-6, 3)
        lr = float(rng.choice([1e-3, 0.01, 0.3]))
        adam_step(state, p.flat, g, lr)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1 ** t)
        v_hat = v / (1.0 - b2 ** t)
        want_params += -lr * m_hat / (np.sqrt(v_hat) + eps)
        assert state.t == t
        assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
        assert np.array_equal(p.flat, want_params), t


def test_steps_on_flat_move_both_weights():
    for step in (lambda p, g: sgd_step(p.flat, g, 0.1),
                 lambda p, g: adam_step(AdamState.zeros(4), p.flat, g, 0.1)):
        p = params_from([[1.0, 2.0]], [[3.0], [4.0]])
        step(p, np.ones(4))
        assert (p.w0 < [[1.0, 2.0]]).all() and (p.w1 < [[3.0], [4.0]]).all()


def test_dp_imports_nothing_from_model():
    # the optimizers take the flat vector, so dp needs no parameter type
    imported = set()
    for node in ast.walk(ast.parse(inspect.getsource(dp_mod))):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            if node.module is None:  # from . import x
                imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
    assert not imported & {"model", "dpgcn", "dpgcn.model"}


# ---- sample_lot ----

def test_lot_full_population():
    ids = sample_lot(4, 4, Prng(0, stream=5))
    assert np.array_equal(ids, [0, 1, 2, 3])


def test_lot_single_example():
    ids = sample_lot(10, 1, Prng(2, stream=5))
    assert ids.size == 1
    assert 0 <= ids[0] < 10


def test_lot_ids_sorted_distinct():
    ids = sample_lot(50, 20, Prng(9, stream=5))
    assert (np.diff(ids) > 0).all()
    assert ids.min() >= 0 and ids.max() < 50


def test_lot_errors():
    with pytest.raises(ValueError):
        sample_lot(5, 0, Prng(0))
    with pytest.raises(ValueError):
        sample_lot(5, 6, Prng(0))


def test_lot_inclusion_frequency():
    # each example included with probability L/n = 0.1
    draws, n = 20000, 10
    rng = Prng(11, stream=5)
    hits = np.zeros(n)
    for _ in range(draws):
        hits[sample_lot(n, 1, rng)] += 1
    p_hat = hits / draws
    se = np.sqrt(0.1 * 0.9 / draws)
    assert (np.abs(p_hat - 0.1) <= 3.0 * se).all()
