"""An independent oracle for the composed epsilon of the Poisson-subsampled
Gaussian: a numerical privacy-loss distribution (PLD) composed by FFT
(Koskela, Jälkö & Honkela 2020, arXiv:1906.03049).

One step releases x ~ P = (1 - q) N(0, sigma^2) + q N(1, sigma^2) against
Q = N(0, sigma^2) (sensitivity 1). Its privacy loss l(x) = log P(x)/Q(x) =
log(1 - q + q exp((2x - 1) / (2 sigma^2))) is monotone in x, so each loss
bucket's mass is a difference of normal tails. Rounding every loss up to the
grid gives an upper end of delta(eps); rounding down, a lower end. T steps
shift the loss by at most T h, and delta is the larger of the two
neighbouring directions (remove: l under P; add: -l under Q).
"""

from functools import cache

import numpy as np
from scipy.special import ndtr

from dpgcn.accounting import AccountantLedger, calibrate_noise, privacy_spent

DELTA = 1e-5


def loss_tails(q, sigma, edges, remove):
    """P(loss > edge) at each edge, in the remove or the add direction."""
    with np.errstate(divide="ignore", invalid="ignore"):
        # l > e  <=>  x > x_e (remove);  -l > e  <=>  x < x_e (add)
        t = np.log1p(np.expm1(edges if remove else -edges) / q)
    x = np.where(np.isnan(t), -np.inf, sigma * sigma * t + 0.5)
    if remove:
        return (1 - q) * ndtr(-x / sigma) + q * ndtr((1 - x) / sigma)
    return ndtr(x / sigma)


@cache
def pld_epsilon(q, sigma, steps, h, log2_size, delta=DELTA):
    """(lower, upper) ends of the composed epsilon on 2^log2_size losses
    spaced h, centred on 0."""
    size = 2 ** log2_size
    grid = (np.arange(size) - size // 2) * h
    curves, outside = [], 0.0
    for remove in (True, False):
        tails = loss_tails(q, sigma, grid, remove)
        # each bucket's mass at its bottom edge; the loss off the grid is dropped
        pmf = np.append(tails[:-1] - tails[1:], 0.0)
        outside = max(outside, 1 - tails[0] + tails[-1])
        spectrum = np.fft.rfft(np.fft.ifftshift(pmf)) ** steps
        composed = np.fft.fftshift(np.fft.irfft(spectrum, size))
        # the FFT wraps what passes one end of the grid round to the other,
        # so the grid must hold the composed loss with room to spare
        rim = np.r_[composed[:size // 8], composed[-size // 8:]]
        assert np.abs(rim).sum() < delta * 1e-3, "grid too narrow"
        # delta(eps) = sum over l > eps of p(l) (1 - e^(eps - l)), eps on the grid
        above = np.cumsum(composed[::-1])[::-1]
        weighted = np.cumsum((composed * np.exp(-grid))[::-1])[::-1]
        curves.append(above - np.exp(grid) * weighted)
    curve = np.maximum(*curves)
    # rounding down gives the lower end. Rounding up moves the composed loss
    # by steps * h, and a step off the grid adds at most its mass to delta
    lower = grid[np.argmax(curve <= delta) - 1]
    upper = grid[np.argmax(curve + steps * outside <= delta)] + steps * h
    return lower, upper


# q, sigma, steps, grid width h, log2 of the grid size, and the oracle's
# ends as first measured on an x grid over +-14 sigma at h = 1e-5 (1e-4 for
# q = 0.25): a coarser h widens the bracket by steps * h
POINTS = [
    (0.1, 4.0, 200, 5e-5, 17, 1.421, 1.423),
    (0.25, 2.0, 100, 2e-4, 18, 6.444, 6.454),
    (0.1, 34.7, 5000, 2e-5, 18, 0.716, 0.766),
    (1.0, 112.0, 2000, 1e-5, 20, 1.542, 1.562),  # the exact value is 1.552
]


def reported(q, sigma, steps):
    ledger = AccountantLedger()
    ledger.append(q, sigma, steps)
    return privacy_spent(ledger, DELTA)[0]


def test_oracle_brackets_its_measured_values():
    for q, sigma, steps, h, log2_size, low, high in POINTS:
        lower, upper = pld_epsilon(q, sigma, steps, h, log2_size)
        assert lower <= low + 5e-4 and high - 5e-4 <= upper, (q, sigma, lower, upper)
        assert upper - lower <= steps * h + 2 * h


def test_reported_epsilon_is_sound_and_near_the_oracle():
    for q, sigma, steps, h, log2_size, *_ in POINTS:
        lower, upper = pld_epsilon(q, sigma, steps, h, log2_size)
        eps = reported(q, sigma, steps)
        assert lower <= eps <= 1.5 * upper, (q, sigma, steps, lower, eps, upper)


def test_calibrated_sigma_meets_its_target_under_the_oracle():
    for target, q, steps, h, log2_size in ((2.0, 0.1, 200, 1e-4, 17),
                                           (1.0, 0.1, 5000, 2e-5, 18)):
        sigma = calibrate_noise(target, DELTA, q, steps)
        upper = pld_epsilon(q, sigma, steps, h, log2_size)[1]
        assert upper <= target, (target, sigma, upper)
