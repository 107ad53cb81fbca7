"""Moments accountant for the subsampled Gaussian mechanism.

Tracks per-step log moments alpha(lam) = log E[exp(lam * privacy_loss)] of
the mechanism that releases a sum of clipped gradients plus N(0, sigma^2 C^2)
noise, sampling each example with probability q. Composition adds log
moments across steps; the tail bound converts the total into (epsilon,
delta). With q = 1 the log moment has the closed form lam(lam+1)/(2 sigma^2);
for q < 1 it is the exact binomial expansion of the sampled Gaussian at
integer orders (Mironov, Talwar & Zhang 2019), in the direction of the
privacy loss that they show dominates the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from types import SimpleNamespace

import numpy as np

DEFAULT_MOMENT_ORDERS = tuple(range(1, 65))


@dataclass
class LedgerRecord:
    q: float
    sigma: float
    steps: int


@dataclass
class AccountantLedger:
    """Append-only record of (sampling ratio, noise multiplier) per step."""

    records: list[LedgerRecord] = field(default_factory=list)
    moment_orders: tuple[int, ...] = DEFAULT_MOMENT_ORDERS

    def __post_init__(self):
        try:
            grid = _order_grid(self.moment_orders)
        except ValueError:
            raise ValueError("moment orders must be nonempty positive integers") from None
        if not grid.ascending:
            raise ValueError("moment orders must be strictly increasing")
        self.moment_orders = grid.orders  # hashable: the grid cache's key

    def append(self, q: float, sigma: float, steps: int = 1) -> None:
        if not 0.0 < q <= 1.0:
            raise ValueError("sampling ratio must be in (0, 1]")
        if not 0.0 < sigma < math.inf:
            raise ValueError("noise multiplier must be positive and finite to account")
        if steps < 1:
            raise ValueError("steps must be positive")
        if self.records and self.records[-1].q == q and self.records[-1].sigma == sigma:
            self.records[-1].steps += steps
        else:
            self.records.append(LedgerRecord(q, sigma, steps))

    @property
    def total_steps(self) -> int:
        return sum(r.steps for r in self.records)


def gaussian_log_moment(sigma: float, lam: float) -> float:
    """Closed-form log moment at q = 1: lam (lam + 1) / (2 sigma^2)."""
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    denom = 2.0 * sigma * sigma
    if denom == 0.0:  # sigma below about 1e-162: +inf at every order lam >= 1
        return lam * math.inf
    return lam * (lam + 1.0) / denom


def _order_grid(lam) -> SimpleNamespace:
    """The cached tables of a scalar, a tuple or an array of orders lam."""
    if type(lam) is tuple:
        return _grid_tables(lam, None)
    lam = np.asarray(lam)
    return _grid_tables(tuple(lam.ravel().tolist()), lam.shape)


@lru_cache(maxsize=32)
def _grid_tables(orders: tuple, shape: tuple[int, ...] | None) -> SimpleNamespace:
    """Built once per grid: what the expansion needs of the orders alone, as
    constants of the grid like a log-factorial table. Row i of each table
    is a = lam[i] + 1 over k = 2..max(lam)+1; ``outside`` marks k > a."""
    lams = np.asarray(orders) if shape is None else np.reshape(orders, shape)
    flat = lams.ravel().tolist()  # in Python: cheaper than a first numpy reduction
    if min(flat) < 1:
        raise ValueError("moment order must be at least 1")
    if any(o % 1 for o in flat):
        raise ValueError("moment orders must be integers")
    ints = tuple(map(int, flat))
    a = lams.astype(np.int64)[..., None] + 1
    log_fact = np.array([math.lgamma(n + 1.0) for n in range(max(ints) + 2)])
    k = np.arange(2, max(ints) + 2)
    grid = SimpleNamespace(
        orders=ints, orders_f=lams.astype(np.float64),
        ascending=lams.ndim == 1 and all(i < j for i, j in zip(ints, ints[1:])),
        k=k.astype(np.float64), k_k1=(k * (k - 1)).astype(np.float64),
        log_binom=log_fact[a] - log_fact[k] - log_fact[a - k],
        a_minus_k=(a - k).astype(np.float64), outside=k > a)
    for table in vars(grid).values():
        if isinstance(table, np.ndarray):
            table.flags.writeable = False  # every later query shares it
    return grid


@lru_cache(maxsize=100000)
def subsampled_log_moment(q: float, sigma: float, lam: int) -> float:
    """Exact log moment at integer order lam (Mironov, Talwar & Zhang 2019).

    With mu = N(0, sigma^2), nu = (1-q) mu + q N(1, sigma^2) and a = lam + 1,
    binomially expanding alpha = log E_mu[(nu/mu)^a] gives
    alpha = log1p(sum_{k=2..a} C(a,k) (1-q)^(a-k) q^k expm1((k^2-k)/(2 sigma^2))).
    Every term is positive, so the sum is taken in log space with nothing
    to cancel; log expm1(x) = x + log(-expm1(-x)) neither overflows at tiny
    sigma nor underflows at huge sigma. Uncached, lam may be an array, one
    table row per order (see _grid_tables); each cell sums in a fixed order.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("sampling ratio must be in (0, 1]")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    grid = _order_grid(lam)
    # at extreme sigma, x (tiny sigma) or 2 sigma^2 (huge sigma) overflows to inf
    with np.errstate(divide="ignore", over="ignore"):
        x = grid.k_k1 / (2.0 * sigma * sigma)
        log_terms = grid.log_binom + grid.k * math.log(q)
        log_terms += x
        log_terms += np.log(-np.expm1(-x))
        if q < 1.0:
            log_terms += grid.a_minus_k * math.log1p(-q)
        # k > a is outside the row; at q = 1, (1 - q)^(a - k) vanishes for every k < a
        log_terms[grid.outside if q < 1.0 else grid.a_minus_k != 0.0] = -np.inf
        # the shift is kept finite, as +-inf would give inf - inf = nan: a +inf
        # term gives alpha = +inf, and a row of -inf terms alpha = log1p(0) = 0
        big = np.finfo(np.float64).max
        top = np.maximum(np.minimum(log_terms.max(axis=-1, keepdims=True), big), -big)
        d = log_terms - top  # exp is 0 below -746, and numpy's exp is slow there
        terms = np.exp(d, out=np.zeros_like(d), where=d > -746.0)
        return np.logaddexp(0.0, top[..., 0] + np.log(terms.sum(-1)))


def log_moment(q: float, sigma: float, lam):
    """Per-step log moment at order lam, or at each order of an array lam."""
    if q == 1.0:  # any real order lam >= 1; below q = 1 the grid checks lam
        lam = np.asarray(lam)
        if lam.min() < 1:
            raise ValueError("moment order must be at least 1")
        return gaussian_log_moment(sigma, lam)
    return subsampled_log_moment.__wrapped__(q, sigma, lam)


def compose(ledger: AccountantLedger) -> np.ndarray:
    """Total log moment per order: sum over records of steps * alpha."""
    totals = np.zeros(len(ledger.moment_orders))
    # at tiny sigma alpha or steps * alpha overflows to the right +inf
    with np.errstate(divide="ignore", over="ignore"):
        for rec in ledger.records:
            totals += rec.steps * log_moment(rec.q, rec.sigma, ledger.moment_orders)
    return totals


def privacy_spent(ledger: AccountantLedger, delta: float) -> tuple[float, int]:
    """(epsilon, minimizing order) from the tail bound at the given delta."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if not ledger.records:
        return 0.0, ledger.moment_orders[0]
    totals = compose(ledger)
    eps = (totals - math.log(delta)) / _order_grid(ledger.moment_orders).orders_f
    i = int(np.argmin(eps))
    return float(eps[i]), int(ledger.moment_orders[i])


def eps_from_delta(ledger: AccountantLedger, delta: float) -> float:
    return privacy_spent(ledger, delta)[0]


def delta_from_eps(ledger: AccountantLedger, epsilon: float) -> float:
    """Tightest tail-bound delta at the given epsilon, capped at 1."""
    if not 0 <= epsilon < math.inf:  # at inf, an infinite log moment gives nan
        raise ValueError("epsilon must be nonnegative and finite")
    totals = compose(ledger)
    orders = _order_grid(ledger.moment_orders).orders_f
    exponent = float((totals - orders * epsilon).min())
    if exponent >= 0.0:
        return 1.0
    return math.exp(exponent)


def calibrate_noise(target_epsilon: float, delta: float, q: float,
                    steps: int,
                    moment_orders: tuple[int, ...] = DEFAULT_MOMENT_ORDERS) -> float:
    """Smallest sigma on a 0.01 grid meeting the epsilon target.

    Bisects on sigma = k/100 using monotonicity of epsilon in sigma;
    raises if even sigma = 1e6 cannot reach the target. The ledger and
    privacy_spent check q, steps and delta on the first evaluation.
    """
    if not 0 < target_epsilon < math.inf:
        raise ValueError("target epsilon must be positive and finite")

    def eps_at(k: int) -> float:
        ledger = AccountantLedger(moment_orders=moment_orders)
        ledger.append(q, k / 100.0, steps)
        return eps_from_delta(ledger, delta)

    k_cap = 100_000_000  # sigma = 1e6
    if eps_at(k_cap) > target_epsilon:
        raise ValueError(f"epsilon {target_epsilon} unreachable with noise "
                         "multiplier <= 1e6")
    if eps_at(1) <= target_epsilon:
        return 0.01
    lo, hi = 1, 100
    while eps_at(hi) > target_epsilon:
        lo, hi = hi, min(hi * 2, k_cap)
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if eps_at(mid) > target_epsilon:
            lo = mid
        else:
            hi = mid
    return hi / 100.0
