"""Empirical privacy audit of the lot mechanism against the accountant.

Two neighbouring lots: a fixed member alone, and the member plus a canary
whose gradient clips to C e_1. The statistic is coordinate 1 of the noised
lot sum (noisy_lot_gradient times the lot size), which the canary shifts
by C. A threshold test on many seeded runs of each lot gives false
positive and false negative rates; their Clopper-Pearson 95% upper bounds
give the lower bound eps_lb = max over thresholds of
log((1 - delta - FNR) / FPR) (Jagielski, Ullman & Oprea 2020). A correct
mechanism cannot beat the accountant's epsilon; one that draws too little
noise does.
"""

import math

import numpy as np
from scipy.special import betaincinv

from dpgcn.accounting import AccountantLedger, privacy_spent
from dpgcn.dp import DpNoiseSpec, noisy_lot_gradient
from dpgcn.rng import STREAM_NOISE, Prng

CLIP, SIGMA, DELTA = 2.0, 1.0, 1e-5  # C != 1, so noise must scale with C
RUNS = 5000
MEMBER = np.array([0.0, 0.5 * CLIP])
CANARY = np.array([5.0 * CLIP, 0.0])  # clips to C e_1


def statistics(lot, seed):
    spec, rng = DpNoiseSpec(CLIP, SIGMA), Prng(seed, STREAM_NOISE)
    return np.array([noisy_lot_gradient(lot, spec, rng)[0] * len(lot)
                     for _ in range(RUNS)])


def cp_upper(k, n):
    """Upper end of the two-sided 95% Clopper-Pearson interval of k/n."""
    return 1.0 if k == n else float(betaincinv(k + 1, n - k, 0.975))


def empirical_epsilon():
    without = statistics([MEMBER], 11)
    with_canary = statistics([MEMBER, CANARY], 12)
    best = 0.0
    for t in np.linspace(0.0, 2.0 * CLIP, 41):
        fpr = cp_upper(int((without >= t).sum()), RUNS)
        fnr = cp_upper(int((with_canary < t).sum()), RUNS)
        if fnr < 1.0 - DELTA:
            best = max(best, math.log((1.0 - DELTA - fnr) / fpr))
    return best


def accountant_epsilon():
    ledger = AccountantLedger()
    ledger.append(1.0, SIGMA, 1)
    return privacy_spent(ledger, DELTA)[0]


def test_audit_lower_bound_within_accountant_epsilon():
    assert empirical_epsilon() <= accountant_epsilon()


def test_audit_detects_quartered_noise(monkeypatch):
    quarter = property(lambda spec: spec.noise_multiplier * spec.clip_norm / 4.0)
    monkeypatch.setattr(DpNoiseSpec, "noise_std", quarter)
    assert empirical_epsilon() > accountant_epsilon()
