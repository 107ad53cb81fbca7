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
        orders = self.moment_orders
        if not orders or any(o < 1 or not float(o).is_integer() for o in orders):
            raise ValueError("moment orders must be nonempty positive integers")
        if any(b <= a for a, b in zip(orders, orders[1:])):
            raise ValueError("moment orders must be strictly increasing")

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


@lru_cache(maxsize=100000)
def subsampled_log_moment(q: float, sigma: float, lam: int) -> float:
    """Exact log moment at integer order lam (Mironov, Talwar & Zhang 2019).

    With mu = N(0, sigma^2), nu = (1-q) mu + q N(1, sigma^2) and a = lam + 1,
    binomially expanding alpha = log E_mu[(nu/mu)^a] gives
    alpha = log1p(sum_{k=2..a} C(a,k) (1-q)^(a-k) q^k expm1((k^2-k)/(2 sigma^2))).
    Every term is positive, so the sum is taken in log space with nothing
    to cancel; log expm1(x) = x + log(-expm1(-x)) neither overflows at tiny
    sigma nor underflows at huge sigma. Uncached, lam may be an array: row i
    of one table holds the terms k = 2..max(lam)+1, masked to k <= lam[i] + 1.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("sampling ratio must be in (0, 1]")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    lams = np.asarray(lam)
    if lams.min() < 1:
        raise ValueError("moment order must be at least 1")
    if np.any(lams % 1):
        raise ValueError("moment orders must be integers")
    a = lams.astype(np.int64)[..., None] + 1
    log_fact = np.array([math.lgamma(n + 1.0) for n in range(a.max() + 1)])
    k = np.arange(2, a.max() + 1)
    # at extreme sigma, x (tiny sigma) or 2 sigma^2 (huge sigma) overflows to inf
    with np.errstate(divide="ignore", over="ignore"):
        x = k * (k - 1) / (2.0 * sigma * sigma)
        log_terms = (log_fact[a] - log_fact[k] - log_fact[a - k] + k * math.log(q)
                     + x + np.log(-np.expm1(-x)))
        if q < 1.0:
            log_terms += (a - k) * math.log1p(-q)
        # k > a is outside the row; at q = 1, (1 - q)^(a - k) vanishes for every k < a
        log_terms[(k > a) | ((k < a) & (q == 1.0))] = -np.inf
        # the shift is kept finite, as +-inf would give inf - inf = nan: a +inf
        # term gives alpha = +inf, and a row of -inf terms alpha = log1p(0) = 0
        big = np.finfo(np.float64).max
        top = np.maximum(np.minimum(log_terms.max(axis=-1, keepdims=True), big), -big)
        return np.logaddexp(0.0, top[..., 0] + np.log(np.exp(log_terms - top).sum(-1)))


def log_moment(q: float, sigma: float, lam):
    """Per-step log moment at order lam, or at each order of an array lam."""
    lam = np.asarray(lam)
    if lam.min() < 1:
        raise ValueError("moment order must be at least 1")
    if q == 1.0:
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
    orders = np.asarray(ledger.moment_orders, dtype=np.float64)
    eps = (totals - math.log(delta)) / orders
    i = int(np.argmin(eps))
    return float(eps[i]), int(ledger.moment_orders[i])


def eps_from_delta(ledger: AccountantLedger, delta: float) -> float:
    return privacy_spent(ledger, delta)[0]


def delta_from_eps(ledger: AccountantLedger, epsilon: float) -> float:
    """Tightest tail-bound delta at the given epsilon, capped at 1."""
    if not 0 <= epsilon < math.inf:  # at inf, an infinite log moment gives nan
        raise ValueError("epsilon must be nonnegative and finite")
    orders = np.asarray(ledger.moment_orders, dtype=np.float64)
    totals = compose(ledger)
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
