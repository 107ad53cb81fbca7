"""Two-layer graph convolutional network with hand-written backprop.

Forward: Z0 = A X W0, H1 = dropout(relu(Z0)), logits = A H1 W1, where A is
the normalized adjacency. No biases; softmax lives inside the loss. A and X
stay fixed during training, so forward and evaluate take the product A X,
computed once by the caller, as the required ``ax``. The nodes whose loss
counts and their labels are a Target, checked once when it is built. The
loss and its gradient share one masked_log_probs result, passed to both as
the required ``log_probs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .graph import node_ids, spmm
from .rng import Prng

if TYPE_CHECKING:
    from concurrent.futures import Executor

    import scipy.sparse as sp

SPLIT_MACS = 2 ** 22  # below it, a second thread costs more than it saves


class GcnParams:
    """The weights as one float64 vector, ``flat``: w0 row-major, then w1,
    the layout of every gradient, noise draw and optimizer state. ``w0``
    (feature_dim, hidden) and ``w1`` (hidden, num_classes) are views of it,
    so an in-place update of ``flat`` moves both. The inputs are copied."""

    def __init__(self, w0, w1):
        w0, w1 = np.asarray(w0), np.asarray(w1)
        self.flat = np.concatenate([w0.ravel(), w1.ravel()], dtype=np.float64)
        self.w0 = self.flat[:w0.size].reshape(w0.shape)
        self.w1 = self.flat[w0.size:].reshape(w1.shape)

    def copy(self) -> "GcnParams":
        return GcnParams(self.w0, self.w1)


@dataclass
class ForwardTrace:
    params: GcnParams       # not a copy: backward must run before a step
    adj: sp.csr_matrix
    ax: np.ndarray          # A X; W0's gradient is (A X)^T G0 = X^T A G0
    pre_hidden: np.ndarray  # Z0, before relu
    hidden: np.ndarray      # H1 after relu and dropout scaling
    logits: np.ndarray
    keep_scale: np.ndarray  # dropout mask scaled by 1/(1-p); ones in eval


@dataclass
class Metrics:
    micro_f1: float
    confusion: np.ndarray  # (K, K), rows = true class, cols = predicted
    errors: np.ndarray     # global ids of misclassified masked nodes
    finite: bool           # every scored logit is finite


def init_params(feature_dim: int, hidden: int, num_classes: int,
                rng: Prng) -> GcnParams:
    """Glorot-uniform weights, bound sqrt(6 / (fan_in + fan_out))."""
    if min(feature_dim, hidden, num_classes) < 1:
        raise ValueError("zero-sized layer")

    def glorot(fan_in, fan_out):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform((fan_in, fan_out)) * (2.0 * bound) - bound

    return GcnParams(glorot(feature_dim, hidden), glorot(hidden, num_classes))


def _first_layer(left: np.ndarray, right: np.ndarray, out: np.ndarray,
                 worker: Executor | None) -> np.ndarray:
    """out = left @ right; from SPLIT_MACS multiply-adds on, as the
    products of left's two row halves, the first on worker if given. The
    cut depends on the shape alone, so the bits do not depend on worker."""
    if left.size * right.shape[1] < SPLIT_MACS:
        return np.matmul(left, right, out=out)
    cut = left.shape[0] // 2
    if worker is None:
        np.matmul(left[:cut], right, out=out[:cut])
    else:
        first = worker.submit(np.matmul, left[:cut], right, out=out[:cut])
    try:
        np.matmul(left[cut:], right, out=out[cut:])
    finally:
        if worker is not None:
            first.result()  # raises the worker's error
    return out


def forward(params: GcnParams, adj: sp.csr_matrix, *, ax: np.ndarray,
            dropout: float = 0.0, rng: Prng | None = None,
            worker: Executor | None = None) -> ForwardTrace:
    """Z0, H1 and logits at params; ``ax`` is spmm(adj, features); dropout
    applies only when ``rng`` is given; ``worker`` computes half of a split Z0."""
    if not 0.0 <= dropout < 1.0:
        raise ValueError("dropout probability must be in [0, 1)")
    z0 = _first_layer(ax, params.w0, np.empty((len(ax), params.w0.shape[1])),
                      worker)
    h = np.maximum(z0, 0.0)
    if rng is not None and dropout > 0.0:
        keep_scale = (rng.uniform(h.shape) >= dropout) / (1.0 - dropout)
    else:
        keep_scale = np.ones_like(h)
    h *= keep_scale
    logits = spmm(adj, h) @ params.w1
    return ForwardTrace(params, adj, ax, z0, h, logits, keep_scale)


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


@dataclass(frozen=True)
class Target:
    """The nodes whose loss counts, checked once: their distinct int64 ids,
    their labels and the number of classes. An empty mask, a repeated id or
    a masked label outside the classes is a ValueError. ``cells`` indexes
    each id's label in the flattened (len(ids), num_classes)
    log-probabilities, row by row. ``all_rows`` says the ids are every row
    of ``labels`` in order, so the masked rows are the whole logits matrix
    and need no gather."""

    ids: np.ndarray
    labels: np.ndarray
    cells: np.ndarray
    num_classes: int
    all_rows: bool

    @classmethod
    def of(cls, labels: np.ndarray, mask, num_classes: int) -> "Target":
        ids = node_ids(mask)
        if ids.size == 0:
            raise ValueError("empty mask")
        if np.unique(ids).size != ids.size:
            raise ValueError("repeated node id")
        y = np.asarray(labels)[ids]
        if y.min() < 0 or y.max() >= num_classes:
            raise ValueError("label out of range on a masked node")
        rows = np.arange(ids.size)
        return cls(ids, y, rows * num_classes + y, num_classes,
                   ids.size == len(labels) and bool((ids == rows).all()))


def _target_rows(logits: np.ndarray, target: Target) -> np.ndarray:
    """The target's rows of logits, one per id; logits must have a column
    per class and, for all_rows, a row per id."""
    if logits.shape[1] != target.num_classes or (
            target.all_rows and logits.shape[0] != target.ids.size):
        raise ValueError("logits do not match the target")
    return logits if target.all_rows else logits[target.ids]


def masked_log_probs(logits: np.ndarray, target: Target) -> np.ndarray:
    """Log-softmax of the target's rows of logits, one row per id."""
    return _log_softmax(_target_rows(logits, target))


def _check_log_probs(log_probs: np.ndarray, target: Target) -> None:
    """log_probs must be 2-D with one row per id and a column per class."""
    if log_probs.shape != (target.ids.size, target.num_classes):
        raise ValueError("log_probs do not match the target")


def masked_cross_entropy(target: Target, *, log_probs: np.ndarray) -> float:
    """Mean negative log-likelihood over the target's nodes.

    ``log_probs`` is masked_log_probs(logits, target).
    """
    _check_log_probs(log_probs, target)
    # 0.0 - x, not -x: a perfect fit is +0.0, and any other loss keeps its bits
    return float(0.0 - log_probs.take(target.cells).sum() / target.ids.size)


def backward(trace: ForwardTrace, target: Target, *,
             log_probs: np.ndarray,
             worker: Executor | None = None) -> np.ndarray:
    """Gradient of the target's loss at the traced point, as params.flat.

    ``log_probs`` is masked_log_probs(trace.logits, target).
    """
    params = trace.params
    _check_log_probs(log_probs, target)
    p = np.exp(log_probs, order="C")
    p.ravel()[target.cells] -= 1.0  # a view, as p is C-contiguous
    p /= target.ids.size
    if target.all_rows:
        g1 = p  # the loss's rows are the graph's rows, in order
    else:
        g1 = np.zeros(trace.logits.shape)
        g1[target.ids] = p  # the ids are distinct: each row is written once
    ag1 = spmm(trace.adj, g1)  # A is symmetric, so this is A^T g1
    grad = np.empty(params.flat.size)
    split = params.w0.size
    np.matmul(trace.hidden.T, ag1, out=grad[split:].reshape(params.w1.shape))
    g0 = (ag1 @ params.w1.T) * trace.keep_scale * (trace.pre_hidden > 0.0)
    _first_layer(trace.ax.T, g0, grad[:split].reshape(params.w0.shape), worker)
    return grad


def evaluate(params: GcnParams, adj: sp.csr_matrix, target: Target, *,
             ax: np.ndarray, worker: Executor | None = None) -> Metrics:
    """Micro-F1, confusion matrix, and error set on the target's nodes."""
    k = target.num_classes
    if params.w1.shape[1] != k:
        raise ValueError("params do not match the target's classes")
    logits = _target_rows(forward(params, adj, ax=ax, worker=worker).logits,
                          target)
    pred = logits.argmax(axis=1)  # ties: lowest index
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (target.labels, pred), 1)
    hits = pred == target.labels
    return Metrics(float(hits.mean()), confusion, target.ids[~hits],
                   bool(np.isfinite(logits).all()))


def macro_f1(confusion: np.ndarray) -> float:
    """Unweighted mean of per-class F1; absent classes count as zero."""
    tp = np.diag(confusion).astype(np.float64)
    denom = confusion.sum(axis=0) + confusion.sum(axis=1)  # 2tp + fp + fn
    f1 = np.divide(2.0 * tp, denom, out=np.zeros_like(tp), where=denom > 0)
    return float(f1.mean())
