"""Moments accountant for the subsampled Gaussian mechanism.

Tracks per-step log moments alpha(lam) = log E[exp(lam * privacy_loss)] of
the mechanism that releases a sum of clipped gradients plus N(0, sigma^2 C^2)
noise, sampling each example with probability q. Composition adds log
moments across steps; the tail bound converts the total into (epsilon,
delta). With q = 1 the log moment has the closed form lam(lam+1)/(2 sigma^2);
for q < 1 it is evaluated by adaptive quadrature of the two mixture
integrals (both directions of the privacy loss), taking the larger.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.integrate import IntegrationWarning, quad

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
        if not orders or any(o < 1 for o in orders):
            raise ValueError("moment orders must be a nonempty positive grid")
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
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    return lam * (lam + 1.0) / (2.0 * sigma * sigma)


def _log_mu(z: np.ndarray, sigma: float) -> np.ndarray:
    return -z * z / (2.0 * sigma * sigma) - math.log(sigma) - 0.5 * math.log(2.0 * math.pi)


def _log_nu(z: np.ndarray, q: float, sigma: float) -> np.ndarray:
    # mixture (1-q) N(0, sigma^2) + q N(1, sigma^2)
    shifted = -(z - 1.0) ** 2 / (2.0 * sigma * sigma)
    if q == 1.0:
        inner = shifted
    else:
        inner = np.logaddexp(math.log1p(-q) - z * z / (2.0 * sigma * sigma),
                             math.log(q) + shifted)
    return inner - math.log(sigma) - 0.5 * math.log(2.0 * math.pi)


def _log_integral(log_f, lo: float, hi: float) -> float:
    """log of the integral of exp(log_f) over [lo, hi], max-shifted."""
    zs = np.linspace(lo, hi, 4097)
    vals = log_f(zs)
    i = int(np.argmax(vals))
    # refine the peak so the shift is tight even when the mass is narrow
    a, b = zs[max(i - 1, 0)], zs[min(i + 1, zs.size - 1)]
    fine = np.linspace(a, b, 1025)
    fvals = log_f(fine)
    j = int(np.argmax(fvals))
    shift, peak = float(fvals[j]), float(fine[j])
    points = [peak] if lo < peak < hi else None
    with warnings.catch_warnings():
        # roundoff warnings fire when the shifted integrand is flat at
        # machine scale (huge sigma); the value is still accurate there
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(lambda z: math.exp(log_f(np.asarray(z)) - shift), lo, hi,
                      points=points, epsabs=1e-12, epsrel=1e-12, limit=500)
    return shift + math.log(val)


@lru_cache(maxsize=100000)
def subsampled_log_moment(q: float, sigma: float, lam: int) -> float:
    """Quadrature log moment, the max over both privacy-loss directions.

    Integrates over [-(lam+1) - 20 sigma, (lam+1) + 1 + 20 sigma]; the
    integrand peaks lie within [-lam, lam+1] and the Gaussian tails decay
    past 20 sigma from there.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError("sampling ratio must be in (0, 1]")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    lam = int(lam)
    span = (lam + 1.0) + 20.0 * sigma
    lo, hi = -span, span + 1.0

    def log_i1(z):  # E_nu[(nu/mu)^lam]
        return (lam + 1.0) * _log_nu(z, q, sigma) - lam * _log_mu(z, sigma)

    def log_i2(z):  # E_mu[(mu/nu)^lam]
        return (lam + 1.0) * _log_mu(z, sigma) - lam * _log_nu(z, q, sigma)

    return max(_log_integral(log_i1, lo, hi), _log_integral(log_i2, lo, hi))


def log_moment(q: float, sigma: float, lam: int) -> float:
    """Per-step log moment of order lam; exact at q = 1, quadrature below."""
    if lam < 1:
        raise ValueError("moment order must be at least 1")
    if not 0.0 < q <= 1.0:
        raise ValueError("sampling ratio must be in (0, 1]")
    if q == 1.0:
        return gaussian_log_moment(sigma, lam)
    return subsampled_log_moment(q, sigma, int(lam))


def compose(ledger: AccountantLedger) -> np.ndarray:
    """Total log moment per order: sum over records of steps * alpha."""
    totals = np.zeros(len(ledger.moment_orders))
    for rec in ledger.records:
        per_step = np.array([log_moment(rec.q, rec.sigma, lam)
                             for lam in ledger.moment_orders])
        totals += rec.steps * per_step
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
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    orders = np.asarray(ledger.moment_orders, dtype=np.float64)
    totals = compose(ledger) if ledger.records else np.zeros(orders.size)
    exponent = float((totals - orders * epsilon).min())
    if exponent >= 0.0:
        return 1.0
    return math.exp(exponent)


def calibrate_noise(target_epsilon: float, delta: float, q: float,
                    steps: int,
                    moment_orders: tuple[int, ...] = DEFAULT_MOMENT_ORDERS) -> float:
    """Smallest sigma on a 0.01 grid meeting the epsilon target.

    Bisects on sigma = k/100 using monotonicity of epsilon in sigma;
    raises if even sigma = 1e6 cannot reach the target.
    """
    if not 0 < target_epsilon < math.inf:
        raise ValueError("target epsilon must be positive and finite")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must be in (0, 1)")
    if steps < 1:
        raise ValueError("steps must be positive")

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
