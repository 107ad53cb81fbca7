"""
Privacy accounting walkthrough
==============================

How the moments accountant turns a training schedule (sampling ratio q,
noise multiplier sigma, step count T) into a privacy guarantee (epsilon,
delta), and how to go the other way with noise calibration.
"""

from dpgcn.accounting import (AccountantLedger, calibrate_noise,
                              delta_from_eps, log_moment, privacy_spent)

# ---------------------------------------------------------------------------
# One step of the Gaussian mechanism at full batch (q = 1) has the exact
# log-moment lambda (lambda + 1) / (2 sigma^2) of order lambda, which
# log_moment returns at q = 1.
sigma = 4.0
for lam in (1, 2, 8, 32):
    print(f"order {lam:2d}: log moment per step = "
          f"{log_moment(1.0, sigma, lam):.6f}")

# Subsampling a fraction q < 1 of the data each step shrinks the moment;
# at integer orders the accountant sums its exact binomial expansion.
print()
for q in (1.0, 0.5, 0.1, 0.01):
    print(f"q = {q:<5}: log moment (order 8) = {log_moment(q, sigma, 8):.3e}")

# ---------------------------------------------------------------------------
# Composition: a ledger records every noisy step; log moments add across
# steps, and the tail bound converts the total into epsilon at a delta.
ledger = AccountantLedger()
ledger.append(q=1.0, sigma=4.0, steps=2000)
eps, order = privacy_spent(ledger, delta=1e-5)
print(f"\n2000 steps at q=1, sigma=4: epsilon = {eps:.4f} "
      f"(best moment order {order})")

# The same machinery answers "what delta does epsilon cost?" This ledger
# spends epsilon 136.5 at delta = 1e-5, so at epsilon = 2 the tail bound
# gives delta = 1, no guarantee at all; at epsilon = 140 it gives less
# than 1e-5.
for target in (2.0, 140.0):
    print(f"delta at epsilon={target:g}: {delta_from_eps(ledger, target):.3e}")

# ---------------------------------------------------------------------------
# More noise, less epsilon: the classic trade-off table at q = 1.
print("\nsigma -> epsilon after 2000 full-batch steps (delta = 1e-5):")
for sigma in (4.0, 26.0, 48.0, 112.0):
    ledger = AccountantLedger()
    ledger.append(1.0, sigma, 2000)
    eps, _ = privacy_spent(ledger, 1e-5)
    print(f"  sigma = {sigma:>5}: epsilon = {eps:8.4f}")

# ---------------------------------------------------------------------------
# Calibration inverts the table: the smallest sigma (on a 0.01 grid) whose
# epsilon lands at or below the target.
target = 2.0
sigma = calibrate_noise(target, delta=1e-5, q=1.0, steps=2000)
print(f"\nsmallest sigma reaching epsilon <= {target} in 2000 steps: {sigma}")

# Subsampling amplifies privacy: at q = 0.1 the same target needs far
# less noise per step, even with more steps.
sigma_sub = calibrate_noise(target, delta=1e-5, q=0.1, steps=2000)
print(f"same target at q = 0.1:                              {sigma_sub}")
