import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpgcn.accounting as accounting
from dpgcn.accounting import (DEFAULT_MOMENT_ORDERS, AccountantLedger,
                              LedgerRecord, calibrate_noise, compose,
                              delta_from_eps, eps_from_delta, log_moment,
                              privacy_spent, subsampled_log_moment)


def ledger(q, sigma, steps, orders=DEFAULT_MOMENT_ORDERS):
    led = AccountantLedger(moment_orders=orders)
    led.append(q=q, sigma=sigma, steps=steps)
    return led


# ---- log_moment ----

def test_log_moment_closed_form_example():
    got = log_moment(1.0, 112.0, 12)
    assert got == pytest.approx(12 * 13 / (2.0 * 112.0**2), rel=1e-15)
    assert got == pytest.approx(0.0062182, abs=1e-7)


def test_log_moment_q_to_zero_limit():
    a = log_moment(1e-2, 4.0, 8)
    b = log_moment(1e-4, 4.0, 8)
    c = log_moment(1e-6, 4.0, 8)
    assert a > b > c >= 0.0
    assert c < 1e-9


def test_log_moment_subsampled_bounded_by_full_batch():
    got = log_moment(0.01, 4.0, 8)
    assert 0.0 <= got <= log_moment(1.0, 4.0, 8)
    assert log_moment(1.0, 4.0, 8) == pytest.approx(2.25, rel=1e-15)


# frozen against a 40-digit arbitrary-precision quadrature of the same
# mixture integrals, independent of the scipy pipeline under test
MP_ORACLE = {
    (0.01, 4.0, 8): 2.332451876142e-04,
    (0.1, 2.0, 4): 3.094787395918e-02,
    (0.5, 6.0, 16): 1.065569645352e0,
    (0.01, 4.0, 32): 3.476043839881e-03,
}


@pytest.mark.parametrize("key", sorted(MP_ORACLE))
def test_log_moment_against_frozen_oracle(key):
    q, sigma, lam = key
    assert log_moment(q, sigma, lam) == pytest.approx(MP_ORACLE[key], rel=1e-9)


def test_log_moment_against_live_mpmath_oracle():
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        for (q, sigma, lam) in ((0.01, 4.0, 8), (0.1, 2.0, 4)):
            s2 = mp.mpf(sigma) ** 2

            def mu(z):
                return mp.e ** (-z * z / (2 * s2)) / mp.sqrt(2 * mp.pi * s2)

            def nu(z):
                return (1 - q) * mu(z) + q * mp.e ** (
                    -(z - 1) ** 2 / (2 * s2)) / mp.sqrt(2 * mp.pi * s2)

            span = lam + 1 + 20 * sigma
            i1 = mp.quad(lambda z: nu(z) * (nu(z) / mu(z)) ** lam,
                         [-span, 0, 1, span + 1])
            i2 = mp.quad(lambda z: mu(z) * (mu(z) / nu(z)) ** lam,
                         [-span, 0, 1, span + 1])
            want = float(mp.log(max(i1, i2)))
            assert log_moment(q, sigma, lam) == pytest.approx(want, rel=1e-9)


def test_log_moment_validation():
    with pytest.raises(ValueError):
        log_moment(0.0, 4.0, 8)
    with pytest.raises(ValueError):
        log_moment(1.5, 4.0, 8)
    with pytest.raises(ValueError):
        log_moment(0.5, 0.0, 8)
    with pytest.raises(ValueError):
        log_moment(0.5, 4.0, 0)
    for lam in (0, -3):
        with pytest.raises(ValueError, match="moment order must be at least 1"):
            subsampled_log_moment(0.5, 2.0, lam)
    # the expansion holds at integer orders only; below q = 1 a fractional
    # order would be truncated while the tail bound divides by it
    for lam in (2.5, np.array([1.0, 2.5]), math.nan):
        with pytest.raises(ValueError):
            log_moment(0.5, 1.0, lam)
    # q = 1 refuses them too, as the ledger does: every q takes integer orders
    with pytest.raises(ValueError, match="integers"):
        log_moment(1.0, 1.0, 2.5)
    with pytest.raises(ValueError, match="integers"):
        log_moment(1.0, 1.0, [1.0, 2.5])
    for sigma in (math.nan, math.inf, -math.inf):
        for q in (0.5, 1.0):
            with pytest.raises(ValueError):
                log_moment(q, sigma, 4)
        with pytest.raises(ValueError):
            subsampled_log_moment(0.5, sigma, 4)


@pytest.mark.parametrize("q", [1e-6, 0.1, 0.5, 0.999])
@pytest.mark.parametrize("sigma", [0.05, 1.0, 34.7, 1e6])
def test_log_moment_array_matches_scalar_rows(q, sigma):
    orders = np.arange(1, 65)
    got = log_moment(q, sigma, orders)
    assert got.shape == orders.shape
    want = [subsampled_log_moment(q, sigma, int(lam)) for lam in orders]
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_log_moment_array_at_full_sampling_is_the_closed_form():
    for sigma in (0.05, 1.0, 34.7, 1e6):
        got = log_moment(1.0, sigma, np.asarray(DEFAULT_MOMENT_ORDERS))
        want = [lam * (lam + 1.0) / (2.0 * sigma * sigma)
                for lam in DEFAULT_MOMENT_ORDERS]
        assert np.array_equal(got, want)


def test_quadrature_matches_closed_form_at_full_sampling():
    # q = 1 returns the closed form itself, so approach it from below: the
    # expansion's k < a terms then carry (1 - q)^(a - k) <= 1.1e-16 and
    # vanish, and what is left must be the closed form
    q = np.nextafter(1.0, 0.0)
    for lam in (1, 2, 5, 17, 32):
        for sigma in (1.0, 4.0, 56.0, 200.0):
            got = log_moment(q, sigma, lam)
            want = log_moment(1.0, sigma, lam)
            assert got == pytest.approx(want, rel=1e-6), (lam, sigma)


def test_memo_is_a_cache_of_log_moment():
    # one copy of the expansion: the memo wraps log_moment itself
    assert subsampled_log_moment.__wrapped__ is log_moment


def test_amplification_at_sample_points():
    for q in (0.05, 0.25, 0.9):
        for sigma in (1.0, 4.0, 26.0):
            for lam in (1, 4, 16):
                assert log_moment(q, sigma, lam) <= log_moment(
                    1.0, sigma, lam) * (1 + 1e-12)


# the closed form at points where the old scipy quadrature was least
# accurate; mpmath evaluates the same binomial expansion at 50 digits
EXPANSION_POINTS = [(1e-3, 76.24, 1), (1e-6, 68.9, 1), (0.5, 6.0, 64),
                    (0.999, 0.8, 32)]


@pytest.mark.parametrize("q,sigma,lam", EXPANSION_POINTS)
def test_closed_form_against_50_digit_expansion(q, sigma, lam):
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(50):
        q_, s2, a = mp.mpf(q), mp.mpf(sigma) ** 2, lam + 1
        total = mp.fsum(mp.binomial(a, k) * (1 - q_) ** (a - k) * q_ ** k
                        * mp.expm1(mp.mpf(k * k - k) / (2 * s2))
                        for k in range(2, a + 1))
        want = float(mp.log1p(total))
    assert want > 0.0
    assert subsampled_log_moment(q, sigma, lam) == pytest.approx(
        want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("sigma", [0.01, 1e6])
def test_closed_form_finite_at_extreme_sigma(sigma):
    got = subsampled_log_moment(0.3, sigma, 64)
    assert math.isfinite(got) and got >= 0.0


@pytest.mark.filterwarnings("error")
def test_closed_form_infinite_not_nan_past_the_float_range():
    # at sigma = 1e-154 the k = 2 term is finite (x = 1e308) and every
    # k >= 3 term is +inf, so order 1 stays finite and every other order is
    # +inf, where shifting by the largest term used to give inf - inf = nan
    alpha = log_moment(0.1, 1e-154, np.arange(1, 65))
    assert math.isfinite(alpha[0])
    assert np.isposinf(alpha[1:]).all()


@given(q=st.floats(1e-6, 1.0), sigma=st.floats(0.5, 200.0),
       lam=st.integers(1, 63), q_factor=st.floats(1.0, 10.0),
       sigma_factor=st.floats(1.0, 10.0))
@settings(max_examples=200, deadline=None)
def test_closed_form_monotone_and_amplified(q, sigma, lam, q_factor,
                                            sigma_factor):
    tol = 1e-12
    got = subsampled_log_moment(q, sigma, lam)
    assert subsampled_log_moment(min(q * q_factor, 1.0), sigma, lam) >= got * (1 - tol)
    assert subsampled_log_moment(q, sigma, lam + 1) >= got * (1 - tol)
    assert subsampled_log_moment(q, sigma * sigma_factor, lam) <= got * (1 + tol)
    assert got <= log_moment(1.0, sigma, lam) * (1 + tol)


def test_import_loads_no_quadrature_or_special_functions():
    # scipy adds import time and memory to every process, and the accountant
    # needs none of it: the graph build imports scipy.sparse when it runs.
    # concurrent.futures costs about 9 ms; only a run that builds the
    # trainer's worker thread imports it
    code = ("import sys, dpgcn, dpgcn.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('scipy', 'concurrent')))")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


# ---- ledger / compose ----

def test_ledger_validation():
    led = AccountantLedger()
    with pytest.raises(ValueError):
        led.append(q=0.0, sigma=1.0)
    with pytest.raises(ValueError):
        led.append(q=1.1, sigma=1.0)
    with pytest.raises(ValueError):
        led.append(q=0.5, sigma=0.0)
    with pytest.raises(ValueError):
        led.append(q=0.5, sigma=1.0, steps=0)
    for q, sigma in ((0.5, math.nan), (0.5, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            led.append(q=q, sigma=sigma)
    assert led.records == []
    with pytest.raises(ValueError):
        AccountantLedger(moment_orders=())
    with pytest.raises(ValueError):
        AccountantLedger(moment_orders=(3, 2))
    # fractional orders under-reported epsilon: 10.06 at (1.5, 2.5, 3.5) for
    # one record (0.5, 1.0, 10), where the integer grid (1, 2, 3) gives 12.73
    with pytest.raises(ValueError):
        AccountantLedger(moment_orders=(1.5, 2.5, 3.5))
    assert AccountantLedger(moment_orders=(1.0, 2.0)).moment_orders == (1.0, 2.0)


@pytest.mark.parametrize("orders", [
    [2, 4, 8], (2, 4, 8), np.array([2, 4, 8]), np.array([2.0, 4.0, 8.0]),
    (np.int64(2), np.int32(4), np.uint8(8)), (2.0, 4, 8),
])
def test_ledger_grid_forms_give_the_same_bits(orders):
    led = ledger(0.1, 1.3, 500, orders)
    assert led.moment_orders == (2, 4, 8)
    assert all(type(o) is int for o in led.moment_orders)
    want = privacy_spent(ledger(0.1, 1.3, 500, (2, 4, 8)), 1e-5)
    got = privacy_spent(led, 1e-5)
    assert got[0].hex() == want[0].hex() and got[1] == want[1]
    assert type(got[1]) is int
    with pytest.raises(ValueError, match="read-only"):  # shared by every query
        accounting._grid_tables(led.moment_orders).log_binom[0, 0] = 0.0


def test_ledger_grid_errors_keep_their_messages():
    for bad in ((), [], np.array([], dtype=np.int64), (0, 1), (1.5, 2.5),
                np.array([1.0, math.nan])):
        with pytest.raises(ValueError, match="nonempty positive integers"):
            AccountantLedger(moment_orders=bad)
    for bad in ((3, 2), (2, 2), np.array([4, 8, 6]), np.array([[1, 2], [3, 4]])):
        with pytest.raises(ValueError, match="strictly increasing"):
            AccountantLedger(moment_orders=bad)


def test_log_moment_keeps_every_order_shape():
    orders = np.arange(1, 13)
    table = orders.reshape(3, 4)
    for q in (0.1, 1.0):
        got = log_moment(q, 1.3, orders)
        assert got.shape == (12,)
        assert np.array_equal(got, log_moment(q, 1.3, orders.tolist()))
        assert np.array_equal(got, log_moment(q, 1.3, tuple(orders.tolist())))
        assert np.ndim(log_moment(q, 1.3, 5)) == 0
        assert log_moment(q, 1.3, 5) == pytest.approx(got[4], rel=1e-13)
        # one order or a 1-D sequence of them: a table of orders is refused
        for bad in (table, table.tolist(), table[None], np.array([[5]])):
            with pytest.raises(ValueError, match="1-D sequence"):
                log_moment(q, 1.3, bad)


def test_ledger_coalesces_repeats():
    led = AccountantLedger()
    for _ in range(5):
        led.append(q=1.0, sigma=2.0)
    assert led.records == [LedgerRecord(1.0, 2.0, 5)]


def test_compose_empty_ledger_all_zeros():
    led = AccountantLedger()
    assert np.array_equal(compose(led), np.zeros(len(DEFAULT_MOMENT_ORDERS)))


def test_compose_single_record_value():
    led = ledger(1.0, 112.0, 2000)
    totals = compose(led)
    idx = DEFAULT_MOMENT_ORDERS.index(12)
    assert totals[idx] == pytest.approx(12.436, abs=5e-4)
    assert totals[idx] == pytest.approx(2000 * 12 * 13 / (2 * 112.0**2), rel=1e-15)


def test_compose_additivity_exact():
    split = AccountantLedger()
    split.append(q=1.0, sigma=26.0, steps=1000)
    split.append(q=1.0, sigma=26.0, steps=1000)
    merged = ledger(1.0, 26.0, 2000)
    assert np.array_equal(compose(split), compose(merged))


def test_compose_one_log_moment_call_per_record(monkeypatch):
    calls = []

    def counting(q, sigma, lam):
        calls.append(q)
        return log_moment(q, sigma, lam)

    monkeypatch.setattr(accounting, "log_moment", counting)
    led = AccountantLedger()
    led.append(q=0.1, sigma=4.0, steps=10)
    led.append(q=1.0, sigma=3.0, steps=5)
    totals = compose(led)
    assert calls == [0.1, 1.0]
    assert totals.shape == (len(DEFAULT_MOMENT_ORDERS),)


def test_compose_mixed_records_sum():
    led = AccountantLedger(moment_orders=(2,))
    led.append(q=1.0, sigma=10.0, steps=3)
    led.append(q=1.0, sigma=5.0, steps=2)
    want = 3 * log_moment(1.0, 10.0, 2) + 2 * log_moment(1.0, 5.0, 2)
    assert compose(led)[0] == pytest.approx(want, rel=1e-15)


# ---- eps_from_delta: the published (sigma, T) -> epsilon table ----

GOLDEN = [
    (4.0, 2000, 136.51), (26.0, 2000, 9.75), (48.0, 2000, 4.91),
    (112.0, 2000, 2.00),
    (2.0, 500, 136.51), (13.0, 500, 9.75), (24.0, 500, 4.91),
    (56.0, 500, 2.00),
]


@pytest.mark.parametrize("sigma,steps,want", GOLDEN)
def test_eps_golden_table(sigma, steps, want):
    eps = eps_from_delta(ledger(1.0, sigma, steps), 1e-5)
    assert eps == pytest.approx(want, abs=0.01)


# float.hex of privacy_spent's (epsilon, order) at delta 1e-5, frozen before
# the order-grid tables were cached: each row is a grid, q and sigma, then
# one (epsilon, order) pair per steps in GOLDEN_STEPS. D is the default
# grid; S shares its largest order and W its smallest, so that a table
# cached under the wrong key reads another grid's rows
GOLDEN_GRIDS = {"D": DEFAULT_MOMENT_ORDERS, "S": (2, 5, 64),
                "W": tuple(range(1, 257))}
GOLDEN_STEPS = (1, 500, 10**6)
GOLDEN_BITS = """
D 1e-06 1e-300 inf 1 inf 1 inf 1
S 1e-06 1e-300 inf 2 inf 2 inf 2
W 1e-06 1e-300 inf 1 inf 1 inf 1
D 1e-06 0.8 0x1.5abe85fb350f5p-1 17 0x1.5bbecb2a1976bp-1 17 0x1.706facff13865p-1 16
S 1e-06 0.8 0x1.26bb1bbb5b897p+1 5 0x1.26bb1bc77ae5cp+1 5 0x1.26bb7aa0ec80bp+1 5
W 1e-06 0.8 0x1.5abe85fb350f5p-1 17 0x1.5bbecb2a1976bp-1 17 0x1.706facff13865p-1 16
D 1e-06 34.7 0x1.7069e2aa2ae28p-3 64 0x1.7069e2aaa167ep-3 64 0x1.7069e649f7980p-3 64
S 1e-06 34.7 0x1.7069e2aa2ae28p-3 64 0x1.7069e2aaa167ep-3 64 0x1.7069e649f7980p-3 64
W 1e-06 34.7 0x1.7069e2aa2e675p-5 256 0x1.7069e2b180dbcp-5 256 0x1.706a1bfbb11c1p-5 256
D 1e-06 1e+300 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64
S 1e-06 1e+300 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64
W 1e-06 1e+300 0x1.7069e2aa2aa5bp-5 256 0x1.7069e2aa2aa5bp-5 256 0x1.7069e2aa2aa5bp-5 256
D 0.1 1e-300 inf 1 inf 1 inf 1
S 0.1 1e-300 inf 2 inf 2 inf 2
W 0.1 1e-300 inf 1 inf 1 inf 1
D 0.1 0.8 0x1.f7af0c01259a2p+1 4 0x1.e0512fd15272ep+4 1 0x1.21429ba37e53fp+15 1
S 0.1 0.8 0x1.0ed1627a63d58p+2 5 0x1.aa492e002bca4p+5 2 0x1.73584ba86fb78p+16 2
W 0.1 0.8 0x1.f7af0c01259a2p+1 4 0x1.e0512fd15272ep+4 1 0x1.21429ba37e53fp+15 1
D 0.1 34.7 0x1.70f82089b9037p-3 64 0x1.431d5da61cdd8p-2 64 0x1.23855bacab4d9p+4 2
S 0.1 34.7 0x1.70f82089b9037p-3 64 0x1.431d5da61cdd8p-2 64 0x1.23855bacab4d9p+4 2
W 0.1 34.7 0x1.7954aa753b740p-5 256 0x1.3fb697249543cp-2 74 0x1.23855bacab4d9p+4 2
D 0.1 1e+300 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64
S 0.1 1e+300 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64
W 0.1 1e+300 0x1.7069e2aa2aa5bp-5 256 0x1.7069e2aa2aa5bp-5 256 0x1.7069e2aa2aa5bp-5 256
D 0.5 1e-300 inf 1 inf 1 inf 1
S 0.5 1e-300 inf 2 inf 2 inf 2
W 0.5 1e-300 inf 1 inf 1 inf 1
D 0.5 0.8 0x1.7ae964349ec9fp+2 4 0x1.578c4a1133ea6p+8 1 0x1.44423583ddefep+19 1
S 0.5 0.8 0x1.8a29b5fba30e0p+2 5 0x1.5c5ddc4af847cp+9 2 0x1.5164766cfac55p+20 2
W 0.5 0.8 0x1.7ae964349ec9fp+2 4 0x1.578c4a1133ea6p+8 1 0x1.44423583ddefep+19 1
D 0.5 34.7 0x1.7e6bb4e3ade89p-3 64 0x1.99c84382c055ep+0 15 0x1.b6681361a3c27p+7 1
S 0.5 34.7 0x1.7e6bb4e3ade89p-3 64 0x1.4ea3fdab57896p+1 5 0x1.3d5b501dcd533p+8 2
W 0.5 34.7 0x1.2ba16b566aeacp-4 256 0x1.99c84382c055ep+0 15 0x1.b6681361a3c27p+7 1
D 0.5 1e+300 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64
S 0.5 1e+300 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64
W 0.5 1e+300 0x1.7069e2aa2aa5bp-5 256 0x1.7069e2aa2aa5bp-5 256 0x1.7069e2aa2aa5bp-5 256
D 1.0 1e-300 inf 1 inf 1 inf 1
S 1.0 1e-300 inf 2 inf 2 inf 2
W 1.0 1e-300 inf 1 inf 1 inf 1
D 1.0 0.8 0x1.b234f1551552cp+2 4 0x1.8c61a78aa8aa8p+9 1 0x1.7d78f834f1550p+20 1
S 1.0 0.8 0x1.bf5d8dddaaa8ap+2 5 0x1.266869e2aa2a9p+10 2 0x1.1e1a5e0d3c553p+21 2
W 1.0 0.8 0x1.b234f1551552cp+2 4 0x1.8c61a78aa8aa8p+9 1 0x1.7d78f834f1550p+20 1
D 1.0 34.7 0x1.a7b11eb520f22p-3 64 0x1.a7217955f30e9p+1 7 0x1.a502001f77ca2p+9 1
S 1.0 34.7 0x1.a7b11eb520f22p-3 64 0x1.c62ffa29b9555p+1 5 0x1.38e0ac5245825p+10 2
W 1.0 34.7 0x1.1c0fbdf4fa076p-3 167 0x1.a7217955f30e9p+1 7 0x1.a502001f77ca2p+9 1
D 1.0 1e+300 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64
S 1.0 1e+300 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64 0x1.7069e2aa2aa5bp-3 64
W 1.0 1e+300 0x1.7069e2aa2aa5bp-5 256 0x1.7069e2aa2aa5bp-5 256 0x1.7069e2aa2aa5bp-5 256
"""


@pytest.mark.filterwarnings("error")
def test_privacy_spent_bitwise_golden():
    for row in GOLDEN_BITS.split("\n")[1:-1]:  # the grids interleave
        grid, q, sigma, *cells = row.split()
        for steps, eps, order in zip(GOLDEN_STEPS, cells[::2], cells[1::2]):
            got, lam = privacy_spent(ledger(float(q), float(sigma), steps,
                                            GOLDEN_GRIDS[grid]), 1e-5)
            assert (got.hex(), lam) == (eps, int(order)), row


def test_calibrate_noise_bitwise_golden():
    assert calibrate_noise(1.0, 1e-5, 0.1, 5000).hex() == "0x1.159999999999ap+5"
    assert calibrate_noise(2.0, 1e-5, 0.01, 10**5,
                           (2, 5, 64)).hex() == "0x1.ad1eb851eb852p+3"


def test_eps_exact_frozen_values():
    assert eps_from_delta(ledger(1.0, 112.0, 2000), 1e-5) == pytest.approx(
        1.9957624962305125, rel=1e-12)
    eps, lam = privacy_spent(ledger(1.0, 112.0, 2000), 1e-5)
    assert lam == 12
    eps, lam = privacy_spent(ledger(1.0, 4.0, 2000), 1e-5)
    assert lam == 1


def test_eps_empty_ledger_zero():
    eps, lam = privacy_spent(AccountantLedger(), 1e-5)
    assert eps == 0.0 and lam == DEFAULT_MOMENT_ORDERS[0]
    assert eps_from_delta(AccountantLedger(), 1e-5) == 0.0


def test_eps_is_min_over_grid():
    led = ledger(1.0, 112.0, 2000)
    totals = compose(led)
    by_hand = min((t - np.log(1e-5)) / lam
                  for t, lam in zip(totals, DEFAULT_MOMENT_ORDERS))
    assert eps_from_delta(led, 1e-5) == pytest.approx(by_hand, rel=1e-15)


def test_eps_delta_validation():
    with pytest.raises(ValueError):
        eps_from_delta(ledger(1.0, 4.0, 10), 0.0)
    with pytest.raises(ValueError):
        eps_from_delta(ledger(1.0, 4.0, 10), 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", [1e-200, 1e-163])
def test_closed_form_infinite_where_two_sigma_squared_underflows(sigma):
    # 2 sigma^2 is 0.0 here: the closed form divides by it, and gives +inf
    # at every order, whatever form the order takes
    assert 2.0 * sigma * sigma == 0.0
    assert log_moment(1.0, sigma, 3.0) == math.inf
    assert log_moment(1.0, sigma, 1) == math.inf
    assert list(log_moment(1.0, sigma, np.arange(1, 4))) == [math.inf] * 3
    assert list(log_moment(1.0, sigma, (1, 2, 3))) == [math.inf] * 3


@pytest.mark.filterwarnings("error")  # extreme sigma warns of nothing
@pytest.mark.parametrize("q", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("sigma", [1e-200, 1e-160, 1e-154])
def test_eps_infinite_not_nan_at_tiny_sigma(q, sigma):
    # as the q = 1 closed form gives: no noise worth the name, no finite epsilon
    eps, order = privacy_spent(ledger(q, sigma, 10), 1e-5)
    assert eps == math.inf
    assert order in DEFAULT_MOMENT_ORDERS
    assert delta_from_eps(ledger(q, sigma, 10), 1.0) == 1.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("q", [0.1, 0.5, 1.0])
@pytest.mark.parametrize("sigma", [1e154, 1e300])
def test_eps_at_huge_sigma_is_the_full_batch_value(q, sigma):
    # 2 sigma^2 overflows, so every term of the expansion is -inf and the
    # log moment is log1p(0) = 0 at every order, as at q = 1
    eps, order = privacy_spent(ledger(q, sigma, 10), 1e-5)
    assert eps == 0.17988946039015982
    assert order == DEFAULT_MOMENT_ORDERS[-1]
    assert not math.isnan(delta_from_eps(ledger(q, sigma, 10), 0.1))


# ---- delta_from_eps ----

def test_delta_round_trip():
    for sigma, steps in ((112.0, 2000), (26.0, 2000), (4.0, 100)):
        led = ledger(1.0, sigma, steps)
        eps = eps_from_delta(led, 1e-5)
        assert delta_from_eps(led, eps) <= 1e-5 * (1 + 1e-12)


def test_delta_empty_ledger_formula():
    led = AccountantLedger()
    lam_max = DEFAULT_MOMENT_ORDERS[-1]
    assert delta_from_eps(led, 2.0) == pytest.approx(np.exp(-lam_max * 2.0), rel=1e-12)
    assert delta_from_eps(led, 0.0) == 1.0  # capped


def test_delta_within_factor_of_published_row():
    led = ledger(1.0, 112.0, 2000)
    delta = delta_from_eps(led, 2.00)
    assert delta == pytest.approx(9.504211800329636e-06, rel=1e-9)
    assert 1e-5 / 1.1 <= delta <= 1e-5 * 1.1


def test_delta_capped_at_one():
    assert delta_from_eps(ledger(1.0, 0.5, 5000), 0.0) == 1.0


def test_delta_rejects_non_finite_epsilon():
    # NaN gave a NaN delta; inf did too wherever a log moment is +inf
    # (sigma = 1e-200), as inf - inf * order is nan
    for eps in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            delta_from_eps(ledger(0.1, 1e-200, 10), eps)


# ---- calibrate_noise ----

def test_calibrate_matches_published_sigma_112():
    sigma = calibrate_noise(2.00, 1e-5, 1.0, 2000)
    assert sigma == pytest.approx(112.0, abs=1.0)
    assert eps_from_delta(ledger(1.0, sigma, 2000), 1e-5) <= 2.00


def test_calibrate_matches_published_sigma_4():
    sigma = calibrate_noise(136.51, 1e-5, 1.0, 2000)
    assert sigma == pytest.approx(4.0, abs=0.05)


def test_calibrate_matches_split_sbm500_sigma():
    # the sigma of the split setting (q = 0.1, 5,000 steps) for epsilon = 1
    assert calibrate_noise(1.0, 1e-5, 0.1, 5000) == 34.7


def test_calibrate_grid_resolution_and_minimality():
    sigma = calibrate_noise(2.00, 1e-5, 1.0, 2000)
    assert round(sigma * 100) == pytest.approx(sigma * 100, abs=1e-9)
    below = sigma - 0.01
    assert eps_from_delta(ledger(1.0, below, 2000), 1e-5) > 2.00


def test_calibrate_doubling_steps_strictly_increases_sigma():
    s1 = calibrate_noise(2.0, 1e-5, 1.0, 1000)
    s2 = calibrate_noise(2.0, 1e-5, 1.0, 2000)
    s4 = calibrate_noise(2.0, 1e-5, 1.0, 4000)
    assert s1 < s2 < s4
    assert (s1, s2) == (79.04, 111.78)  # frozen regression values


def test_calibrate_unreachable_target_raises():
    # floor as sigma -> inf is ln(1/delta)/max(lambda) = 11.5129/64 ~ 0.18
    with pytest.raises(ValueError):
        calibrate_noise(0.1, 1e-5, 1.0, 2000)


def test_calibrate_returns_the_grid_floor_when_it_meets_the_target():
    # at sigma = 0.01, q = 1 and one step, epsilon is 10011.5 (order 1)
    led = ledger(1.0, 0.01, 1)
    assert eps_from_delta(led, 1e-5) == pytest.approx(10011.51, abs=0.01)
    assert calibrate_noise(1e5, 1e-5, 1.0, 1) == 0.01
    assert calibrate_noise(10011.0, 1e-5, 1.0, 1) == 0.02


def test_calibrate_monotone_in_target():
    sigmas = [calibrate_noise(eps, 1e-5, 1.0, 500) for eps in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))


def test_calibrate_validation():
    with pytest.raises(ValueError):
        calibrate_noise(0.0, 1e-5, 1.0, 100)
    with pytest.raises(ValueError):
        calibrate_noise(2.0, 1e-5, 0.0, 100)
    with pytest.raises(ValueError):
        calibrate_noise(2.0, 1e-5, 1.0, 0)
    for target, delta in ((math.nan, 1e-5), (math.inf, 1e-5), (2.0, math.nan),
                          (2.0, 0.0), (2.0, 1.0)):
        with pytest.raises(ValueError):
            calibrate_noise(target, delta, 1.0, 10)


# ---- monotonicity properties ----

@given(sigma=st.floats(1.0, 150.0), steps=st.integers(1, 5000),
       factor=st.floats(1.05, 3.0))
@settings(max_examples=80, deadline=None)
def test_eps_non_increasing_in_sigma(sigma, steps, factor):
    lo = eps_from_delta(ledger(1.0, sigma * factor, steps), 1e-5)
    hi = eps_from_delta(ledger(1.0, sigma, steps), 1e-5)
    assert lo <= hi * (1 + 1e-12)


@given(sigma=st.floats(1.0, 150.0), steps=st.integers(1, 2500))
@settings(max_examples=80, deadline=None)
def test_eps_non_decreasing_in_steps(sigma, steps):
    a = eps_from_delta(ledger(1.0, sigma, steps), 1e-5)
    b = eps_from_delta(ledger(1.0, sigma, 2 * steps), 1e-5)
    assert b >= a * (1 - 1e-12)


def test_eps_non_decreasing_in_q():
    qs = (0.1, 0.3, 0.6, 1.0)
    eps = [eps_from_delta(ledger(q, 2.0, 50), 1e-5) for q in qs]
    assert all(b >= a * (1 - 1e-12) for a, b in zip(eps, eps[1:]))


@given(sigma=st.floats(1.0, 150.0), steps=st.integers(1, 5000),
       d1=st.floats(1e-8, 1e-3), factor=st.floats(1.5, 100.0))
@settings(max_examples=80, deadline=None)
def test_eps_non_increasing_in_delta(sigma, steps, d1, factor):
    led = ledger(1.0, sigma, steps)
    assert eps_from_delta(led, min(d1 * factor, 0.5)) <= eps_from_delta(
        led, d1) * (1 + 1e-12)


@given(sigma=st.floats(0.8, 200.0), steps=st.integers(1, 4000),
       delta=st.floats(1e-9, 1e-2))
@settings(max_examples=80, deadline=None)
def test_round_trip_property(sigma, steps, delta):
    led = ledger(1.0, sigma, steps)
    eps = eps_from_delta(led, delta)
    assert delta_from_eps(led, eps) <= delta * (1 + 1e-9)


def test_eps_bounded_when_sigma_tracks_sqrt_steps():
    eps = []
    for steps in (100, 1000, 10000):
        led = ledger(0.01, 0.4 * np.sqrt(steps), steps)
        eps.append(eps_from_delta(led, 1e-5))
    assert all(0.15 < e < 0.25 for e in eps)
    assert max(eps) - min(eps) < 0.01


def test_single_epoch_budget_lands_in_published_range():
    # q=0.01 with sigma=4 at 100 epochs of full coverage reproduces the
    # widely-cited 1.2586 budget within 0.01
    diffs = []
    for epochs in (50, 100, 200):
        led = ledger(0.01, 4.0, epochs * 100)
        diffs.append(abs(eps_from_delta(led, 1e-5) - 1.2586))
    assert min(diffs) <= 0.01
