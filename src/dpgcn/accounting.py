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
        orders = self.moment_orders
        try:
            grid = _grid_tables(orders if type(orders) is tuple
                                else tuple(np.ravel(orders).tolist()))
        except ValueError:
            raise ValueError("moment orders must be nonempty positive integers") from None
        if not grid.ascending or (type(orders) is not tuple and np.ndim(orders) != 1):
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


@lru_cache(maxsize=32)
def _grid_tables(orders: tuple) -> SimpleNamespace:
    """Built once per tuple of orders: what the expansion needs of the
    orders alone, as constants of the grid like a log-factorial table. Row
    i of each table is a = orders[i] + 1 over k = 2..max(orders)+1;
    ``outside`` marks k > a."""
    lams = np.asarray(orders)
    if min(orders) < 1:
        raise ValueError("moment order must be at least 1")
    if any(o % 1 for o in orders):
        raise ValueError("moment orders must be integers")
    ints = tuple(map(int, orders))
    a = lams.astype(np.int64)[:, None] + 1
    log_fact = np.array([math.lgamma(n + 1.0) for n in range(max(ints) + 2)])
    k = np.arange(2, max(ints) + 2)
    grid = SimpleNamespace(
        orders=ints, orders_f=lams.astype(np.float64),
        ascending=all(i < j for i, j in zip(ints, ints[1:])),
        k=k.astype(np.float64), k_k1=(k * (k - 1)).astype(np.float64),
        log_binom=log_fact[a] - log_fact[k] - log_fact[a - k],
        a_minus_k=(a - k).astype(np.float64), outside=k > a)
    for table in vars(grid).values():
        if isinstance(table, np.ndarray):
            table.flags.writeable = False  # every later query shares it
    return grid


def log_moment(q: float, sigma: float, lam):
    """Per-step log moment at integer order lam, or at each order of a 1-D
    sequence lam: the closed form lam (lam + 1) / (2 sigma^2) at q = 1,
    and below it the exact expansion (Mironov, Talwar & Zhang 2019). With
    mu = N(0, sigma^2), nu = (1-q) mu + q N(1, sigma^2) and a = lam + 1,
    binomially expanding alpha = log E_mu[(nu/mu)^a] gives
    alpha = log1p(sum_{k=2..a} C(a,k) (1-q)^(a-k) q^k expm1((k^2-k)/(2 sigma^2))).
    Every term is positive, so the sum is taken in log space with nothing
    to cancel; log expm1(x) = x + log(-expm1(-x)) neither overflows at tiny
    sigma nor underflows at huge sigma. Below q = 1 each order is one table
    row (see _grid_tables), summed in a fixed order.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("sampling ratio must be in (0, 1]")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if type(lam) is not tuple and np.ndim(lam) > 1:  # compose passes a tuple
        raise ValueError("moment orders must be one order or a 1-D sequence")
    grid = _grid_tables(lam if type(lam) is tuple else tuple(np.ravel(lam).tolist()))
    # at extreme sigma, x (tiny sigma) or 2 sigma^2 (huge sigma) overflows to
    # inf, and below sigma ~ 1e-162 2 sigma^2 is 0: alpha is then +inf
    with np.errstate(divide="ignore", over="ignore"):
        if q == 1.0:
            alpha = grid.orders_f * (grid.orders_f + 1.0) / (2.0 * sigma * sigma)
        else:
            x = grid.k_k1 / (2.0 * sigma * sigma)
            log_terms = grid.log_binom + grid.k * math.log(q)
            log_terms += x
            log_terms += np.log(-np.expm1(-x))
            log_terms += grid.a_minus_k * math.log1p(-q)
            log_terms[grid.outside] = -np.inf  # k > a is outside the row
            # the shift is kept finite, as +-inf would give inf - inf = nan: a +inf
            # term gives alpha = +inf, and a row of -inf terms alpha = log1p(0) = 0
            big = np.finfo(np.float64).max
            top = np.maximum(np.minimum(log_terms.max(axis=-1, keepdims=True), big), -big)
            d = log_terms - top  # exp is 0 below -746, and numpy's exp is slow there
            terms = np.exp(d, out=np.zeros_like(d), where=d > -746.0)
            alpha = np.logaddexp(0.0, top[..., 0] + np.log(terms.sum(-1)))
    return alpha if type(lam) is tuple or np.ndim(lam) else alpha[0]


# a memo of scalar queries: no accountant path consults it; perfbench reads
# its cache_info
subsampled_log_moment = lru_cache(maxsize=100000)(log_moment)


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
    eps = (totals - math.log(delta)) / _grid_tables(ledger.moment_orders).orders_f
    i = int(np.argmin(eps))
    return float(eps[i]), int(ledger.moment_orders[i])


def eps_from_delta(ledger: AccountantLedger, delta: float) -> float:
    return privacy_spent(ledger, delta)[0]


def delta_from_eps(ledger: AccountantLedger, epsilon: float) -> float:
    """Tightest tail-bound delta at the given epsilon, capped at 1."""
    if not 0 <= epsilon < math.inf:  # at inf, an infinite log moment gives nan
        raise ValueError("epsilon must be nonnegative and finite")
    totals = compose(ledger)
    orders = _grid_tables(ledger.moment_orders).orders_f
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
