"""Per-example clipping, lot-level Gaussian noising, and optimizer steps.

One lot update: clip each example gradient to norm C, sum, add a single
N(0, (sigma C)^2 I) draw, divide by the lot size. Noise enters the update
before any optimizer state, so Adam's moments only ever see noised sums.
Gradients, noise, Adam's moments and the parameters the optimizers update
(``GcnParams.flat``) are flat vectors in one layout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Prng


@dataclass(frozen=True)
class DpNoiseSpec:
    clip_norm: float = 1.0
    noise_multiplier: float = 0.0  # sigma, in units of the clip norm

    def __post_init__(self):
        if not 0 < self.clip_norm < math.inf:
            raise ValueError("clip norm must be positive and finite")
        if not 0 <= self.noise_multiplier < math.inf:
            raise ValueError("noise multiplier must be nonnegative and finite")

    @property
    def noise_std(self) -> float:
        return self.noise_multiplier * self.clip_norm


def clip_gradient(grad: np.ndarray, clip_norm: float) -> np.ndarray:
    """Rescale grad to l2 norm at most clip_norm: g / max(1, |g|/C)."""
    if not 0 < clip_norm < math.inf:
        raise ValueError("clip norm must be positive and finite")
    grad = np.asarray(grad, dtype=np.float64)
    norm = math.sqrt(float(grad.dot(grad)))  # what np.linalg.norm computes
    if not math.isfinite(norm):  # a non-finite entry, or a squared norm past 1.8e308
        raise ValueError("non-finite gradient norm")
    return grad / max(1.0, norm / clip_norm)


def noisy_lot_gradient(per_example_grads, spec: DpNoiseSpec,
                       rng: Prng) -> np.ndarray:
    """Clipped, noised, averaged gradient of one lot (one noise draw)."""
    grads = list(per_example_grads)
    if not grads:
        raise ValueError("empty lot")
    dim = grads[0].size
    if any(g.size != dim for g in grads):
        raise ValueError("inconsistent gradient lengths in lot")
    total = np.zeros(dim)
    for g in grads:
        total += clip_gradient(g, spec.clip_norm)
    if spec.noise_multiplier > 0:
        total += rng.normal(dim, std=spec.noise_std)
    return total / len(grads)


def sgd_step(params: np.ndarray, grad: np.ndarray, lr: float) -> None:
    """Plain descent step on the flat parameters, in place."""
    params -= lr * grad


ADAM_BETA1, ADAM_BETA2, ADAM_EPS_HAT = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, dim: int) -> "AdamState":
        return cls(np.zeros(dim), np.zeros(dim))


def adam_step(state: AdamState, params: np.ndarray, grad: np.ndarray,
              lr: float) -> None:
    """Bias-corrected Adam update, mutating state and the flat params.

    m and v are updated in place. Every product and quotient is the one
    the textbook formula evaluates, in the same order, so the update is
    bit-identical to it.
    """
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    scratch = np.multiply(1.0 - b1, grad)
    state.m *= b1
    state.m += scratch
    np.multiply(1.0 - b2, grad, out=scratch)
    scratch *= grad
    state.v *= b2
    state.v += scratch
    denom = np.divide(state.v, 1.0 - b2 ** state.t, out=scratch)  # v_hat
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS_HAT
    step = state.m / (1.0 - b1 ** state.t)  # m_hat
    step *= -lr
    step /= denom
    params += step


def sample_lot(num_examples: int, lot_size: int, rng: Prng) -> np.ndarray:
    """Uniform lot of lot_size distinct example ids (sorted)."""
    if not 1 <= lot_size <= num_examples:
        raise ValueError(f"lot size {lot_size} not in [1, {num_examples}]")
    return rng.sample_without_replacement(num_examples, lot_size)
