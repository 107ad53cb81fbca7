from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np
import pytest

from dpgcn.graph import build_graph, normalize_adjacency, spmm
from dpgcn.model import (SPLIT_MACS, GcnParams, Target, backward, evaluate,
                         forward, init_params, macro_f1, masked_cross_entropy,
                         masked_log_probs)
from dpgcn.rng import Prng, STREAM_DROPOUT


def tiny_setup(n, d, h, k, seed, extra_edges=4):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = rng.choice(len(pairs), size=min(extra_edges, len(pairs)), replace=False)
    adj = normalize_adjacency(build_graph(n, [pairs[t] for t in take]))
    feats = rng.normal(size=(n, d))
    labels = rng.integers(0, k, size=n)
    params = init_params(d, h, k, Prng(seed, stream=1))
    return adj, feats, labels, params


def run_forward(params, adj, feats, **kw):
    return forward(params, adj, ax=spmm(adj, feats), **kw)


def loss_of(logits, labels, mask):
    target = Target.of(labels, mask, logits.shape[1])
    log_probs = masked_log_probs(logits, target)
    return masked_cross_entropy(target, log_probs=log_probs)


def gradient_of(trace, labels, mask):
    target = Target.of(labels, mask, trace.logits.shape[1])
    log_probs = masked_log_probs(trace.logits, target)
    return backward(trace, target, log_probs=log_probs)


def evaluate_on(params, adj, labels, mask, *, ax, worker=None):
    return evaluate(params, adj, Target.of(labels, mask, params.w1.shape[1]),
                    ax=ax, worker=worker)


def analytic_gradient(params, adj, feats, labels, mask):
    """The gradient training computes, at params with dropout off."""
    trace = run_forward(params, adj, feats)
    return gradient_of(trace, labels, mask)


# ---- init_params ----

def test_init_shapes_and_dtype():
    p = init_params(7, 5, 3, Prng(0))
    assert p.w0.shape == (7, 5) and p.w1.shape == (5, 3)
    assert p.w0.dtype == np.float64


def test_init_glorot_bound():
    p = init_params(4, 8, 4, Prng(3))
    bound0 = np.sqrt(6.0 / (4 + 8))
    bound1 = np.sqrt(6.0 / (8 + 4))
    assert np.abs(p.w0).max() <= bound0
    assert np.abs(p.w1).max() <= bound1
    # 4x8=32 uniform draws should come close to the bound
    assert np.abs(p.w0).max() > 0.5 * bound0


def test_init_deterministic():
    a = init_params(6, 4, 2, Prng(11))
    b = init_params(6, 4, 2, Prng(11))
    assert np.array_equal(a.w0, b.w0) and np.array_equal(a.w1, b.w1)


# ---- GcnParams: w0 and w1 are views of one flat vector ----

def test_params_copy_their_inputs():
    w0, w1 = np.arange(15).reshape(3, 5), np.arange(10.0).reshape(5, 2)
    params = GcnParams(w0=w0, w1=w1)
    assert params.flat.dtype == np.float64
    assert not np.shares_memory(params.flat, w0)
    assert not np.shares_memory(params.flat, w1)
    w0[0, 0] = w1[0, 0] = 99
    assert params.w0[0, 0] == 0.0 and params.w1[0, 0] == 0.0
    twin = params.copy()
    twin.flat += 1.0
    assert params.w0[0, 0] == 0.0 and params.w1[0, 0] == 0.0


def test_params_weights_are_views_of_flat():
    # feature_dim 3 and hidden 5: w1 starts 120 bytes in, not 16-byte aligned
    params = init_params(3, 5, 2, Prng(0))
    assert params.flat.shape == (3 * 5 + 5 * 2,)
    assert np.shares_memory(params.w0, params.flat)
    assert np.shares_memory(params.w1, params.flat)
    assert np.array_equal(params.flat,
                          np.concatenate([params.w0.ravel(), params.w1.ravel()]))
    params.flat[:] = np.arange(params.flat.size)
    assert params.w0[1, 0] == 5.0 and params.w1[0, 1] == 16.0


# ---- forward ----

def test_forward_zero_features_zero_logits():
    adj, feats, labels, params = tiny_setup(4, 3, 5, 2, 0)
    trace = run_forward(params, adj, np.zeros_like(feats))
    assert np.array_equal(trace.logits, np.zeros((4, 2)))


def test_forward_isolated_node_is_mlp():
    # no edges: Ahat = I, so the GCN collapses to relu(X W0) W1 per row
    adj = normalize_adjacency(build_graph(3, []))
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(3, 4))
    params = init_params(4, 6, 3, Prng(1, stream=1))
    trace = run_forward(params, adj, feats)
    want = np.maximum(feats @ params.w0, 0.0) @ params.w1
    assert np.allclose(trace.logits, want, rtol=1e-12, atol=1e-15)


def test_forward_two_node_hand_oracle():
    adj = normalize_adjacency(build_graph(2, [(0, 1)]))  # all entries 0.5
    feats = np.array([[1.0], [3.0]])
    params = GcnParams(w0=np.array([[2.0]]), w1=np.array([[1.0, -1.0]]))
    trace = run_forward(params, adj, feats)
    # Ahat X = [[2],[2]]; Z0 = [[4],[4]]; relu = same; Ahat H = [[4],[4]]
    assert np.allclose(trace.pre_hidden, [[4.0], [4.0]], rtol=1e-15)
    assert np.allclose(trace.logits, [[4.0, -4.0], [4.0, -4.0]], rtol=1e-15)


def test_forward_dropout_requires_rng():
    adj, feats, labels, params = tiny_setup(4, 3, 5, 2, 0)
    with pytest.raises(ValueError):
        run_forward(params, adj, feats, dropout=0.5, training=True)


def test_forward_eval_ignores_dropout():
    adj, feats, labels, params = tiny_setup(5, 3, 4, 2, 2)
    a = run_forward(params, adj, feats, dropout=0.5, training=False)
    b = run_forward(params, adj, feats)
    assert np.array_equal(a.logits, b.logits)


def test_forward_dropout_expectation():
    # E[dropout(h)] = h with inverted scaling; average 20000 draws, 3-sigma band
    adj, feats, labels, params = tiny_setup(4, 3, 6, 2, 5)
    base = run_forward(params, adj, feats).hidden
    rng = Prng(99, stream=STREAM_DROPOUT)
    draws = 20000
    acc = np.zeros_like(base)
    acc2 = np.zeros_like(base)
    for _ in range(draws):
        h = run_forward(params, adj, feats, dropout=0.5, training=True, rng=rng).hidden
        acc += h
        acc2 += h * h
    mean = acc / draws
    var = np.maximum(acc2 / draws - mean**2, 0.0)
    se = np.sqrt(var / draws)
    assert (np.abs(mean - base) <= 3.0 * se + 1e-12).all()


def test_forward_permutation_equivariance():
    n, d, h, k = 6, 4, 5, 3
    rng = np.random.default_rng(7)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4)]
    feats = rng.normal(size=(n, d))
    params = init_params(d, h, k, Prng(7, stream=1))
    perm = rng.permutation(n)
    inv = np.argsort(perm)
    adj = normalize_adjacency(build_graph(n, edges))
    adj_p = normalize_adjacency(build_graph(
        n, [(int(inv[i]), int(inv[j])) for i, j in edges]))
    logits = run_forward(params, adj, feats).logits
    logits_p = run_forward(params, adj_p, feats[perm]).logits
    assert np.allclose(logits_p, logits[perm], rtol=1e-10, atol=1e-12)


# ---- masked_cross_entropy ----

def test_ce_uniform_logits_ln_k():
    logits = np.zeros((3, 4))
    labels = np.array([0, 1, 2])
    mask = np.array([0, 2])
    loss = loss_of(logits, labels, mask)
    assert loss == pytest.approx(np.log(4.0), rel=1e-15)


def test_ce_confident_correct():
    logits = np.array([[10.0, 0.0, 0.0]])
    loss = loss_of(logits, np.array([0]), np.array([0]))
    want = -np.log(np.exp(10.0) / (np.exp(10.0) + 2.0))
    assert loss == pytest.approx(want, rel=1e-12)
    assert loss == pytest.approx(9.08e-5, rel=1e-2)


def test_ce_duplicate_mask_rows_count_twice():
    logits = np.array([[2.0, 0.0], [0.0, 0.0]])
    labels = np.array([0, 1])
    one = loss_of(logits, labels, np.array([0, 1]))
    dup = loss_of(logits, labels, np.array([0, 0, 1]))
    a = loss_of(logits, labels, np.array([0]))
    b = loss_of(logits, labels, np.array([1]))
    assert one == pytest.approx((a + b) / 2.0, rel=1e-14)
    assert dup == pytest.approx((2 * a + b) / 3.0, rel=1e-14)


def test_ce_extreme_logits_finite():
    logits = np.array([[1000.0, 0.0], [-1000.0, 0.0]])
    loss = loss_of(logits, np.array([1, 0]), np.array([0, 1]))
    assert np.isfinite(loss) and loss == pytest.approx(1000.0, rel=1e-12)


def test_ce_perfect_fit_is_positive_zero():
    # saturated logits: every log-probability is 0, and the loss +0.0, not -0.0
    logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
    loss = loss_of(logits, np.array([0, 1]), np.array([0, 1]))
    assert loss == 0.0 and np.copysign(1.0, loss) == 1.0
    # any other loss has the bits of the plain negated mean
    rng = np.random.default_rng(4)
    logits, labels = rng.normal(size=(6, 3)), rng.integers(0, 3, size=6)
    target = Target.of(labels, np.arange(6), 3)
    log_probs = masked_log_probs(logits, target)
    want = -(log_probs[np.arange(6), labels].sum() / 6)
    assert masked_cross_entropy(target, log_probs=log_probs) == want


def test_ce_upper_bound_uniform():
    rng = np.random.default_rng(0)
    for k in (2, 3, 7):
        logits = rng.normal(size=(5, k))
        labels = rng.integers(0, k, size=5)
        loss = loss_of(np.zeros_like(logits), labels, np.arange(5))
        assert loss == pytest.approx(np.log(k), rel=1e-14)


def test_ce_errors():
    with pytest.raises(ValueError):
        loss_of(np.zeros((2, 2)), np.array([0, 1]), np.array([], dtype=int))
    with pytest.raises(ValueError):
        loss_of(np.zeros((2, 2)), np.array([0, 2]), np.array([1]))


# ---- backward: finite-difference oracle ----

def numerical_gradient(params, adj, feats, labels, mask, step=1e-4):
    flat = params.flat
    grad = np.empty_like(flat)
    for i in range(flat.size):
        delta = np.zeros_like(flat)
        delta[i] = step
        up, down = params.copy(), params.copy()
        up.flat += delta
        down.flat -= delta
        lu = loss_of(run_forward(up, adj, feats).logits, labels, mask)
        ld = loss_of(run_forward(down, adj, feats).logits, labels, mask)
        grad[i] = (lu - ld) / (2.0 * step)
    return grad


def grad_rel_err(analytic, numeric):
    return np.max(np.abs(analytic - numeric)
                  / np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-2))


def test_backward_single_node_binary():
    adj = normalize_adjacency(build_graph(1, []))
    feats = np.array([[1.5, -0.5]])
    labels = np.array([1])
    params = init_params(2, 3, 2, Prng(0, stream=1))
    mask = np.array([0])
    analytic = analytic_gradient(params, adj, feats, labels, mask)
    numeric = numerical_gradient(params, adj, feats, labels, mask)
    assert grad_rel_err(analytic, numeric) < 1e-6


def test_backward_six_node_graph():
    adj, feats, labels, params = tiny_setup(6, 4, 5, 3, 13, extra_edges=8)
    # in the second mask the loss counts node 0 twice, so must the gradient
    for mask in (np.array([0, 2, 4, 5]), np.array([0, 0, 2, 4, 5])):
        analytic = analytic_gradient(params, adj, feats, labels, mask)
        numeric = numerical_gradient(params, adj, feats, labels, mask)
        assert grad_rel_err(analytic, numeric) < 1e-6, mask


def kink_free_setup(seed, step=1e-4):
    """Random setup whose relu inputs all clear zero by >> the FD step.

    Central differences are invalid within `step` of a relu kink (the
    analytic subgradient and the two-sided slope legitimately disagree
    there), so sampled points too close to a kink are redrawn.
    """
    while True:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 7))
        h = int(rng.integers(1, 7))
        k = int(rng.integers(2, 7))
        adj, feats, labels, params = tiny_setup(
            n, d, h, k, seed, extra_edges=int(rng.integers(0, n * 2)))
        m = int(rng.integers(1, n + 1))
        mask = np.sort(rng.choice(n, size=m, replace=False))
        clearance = np.abs(run_forward(params, adj, feats).pre_hidden).min()
        if clearance > 50.0 * step:
            return adj, feats, labels, params, mask
        seed += 100_000


def test_backward_fd_sweep():
    # twenty random shapes: n<=8, d,h,K<=6, dropout off
    for seed in range(20):
        adj, feats, labels, params, mask = kink_free_setup(1000 + seed)
        analytic = analytic_gradient(params, adj, feats, labels, mask)
        numeric = numerical_gradient(params, adj, feats, labels, mask)
        assert grad_rel_err(analytic, numeric) < 1e-6, f"seed {seed}"


def test_backward_margin_30_fixed_point():
    # a confidently-correct prediction: gradient vanishes to ~1e-13 scale
    adj = normalize_adjacency(build_graph(1, []))
    feats = np.array([[1.0]])
    params = GcnParams(w0=np.array([[30.0]]), w1=np.array([[1.0, 0.0]]))
    grad = analytic_gradient(params, adj, feats, np.array([0]), np.array([0]))
    assert np.abs(grad).max() < 1e-6


def test_backward_dropout_mask_respected():
    # gradient through a stored trace must reuse the trace's dropout pattern:
    # two traces with the same params but different masks give different grads
    adj, feats, labels, params = tiny_setup(5, 3, 8, 2, 21)
    mask = np.arange(5)
    rng = Prng(4, stream=STREAM_DROPOUT)
    t1 = run_forward(params, adj, feats, dropout=0.5, training=True, rng=rng)
    t2 = run_forward(params, adj, feats, dropout=0.5, training=True, rng=rng)
    g1 = gradient_of(t1, labels, mask)
    g2 = gradient_of(t2, labels, mask)
    assert not np.array_equal(g1, g2)


# ---- forward, loss and backward: bitwise against the textbook formulas ----

def reference_forward(params, adj, feats, dropout, rng):
    h = np.maximum(spmm(adj, feats) @ params.w0, 0.0)
    keep_scale = (rng.uniform(h.shape) >= dropout) / (1.0 - dropout)
    h = h * keep_scale
    return h, spmm(adj, h) @ params.w1


def reference_log_softmax(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def reference_cross_entropy(logits, labels, mask):
    lp = reference_log_softmax(logits[mask])
    return float(-lp[np.arange(mask.size), labels[mask]].mean())


def reference_backward(params, trace, adj, feats, labels, mask):
    n, k = trace.logits.shape
    p = np.exp(reference_log_softmax(trace.logits[mask]))
    p[np.arange(mask.size), labels[mask]] -= 1.0
    g1 = np.zeros((n, k))
    np.add.at(g1, mask, p / mask.size)
    ag1 = spmm(adj, g1)
    grad_w1 = trace.hidden.T @ ag1
    g0 = (ag1 @ params.w1.T) * trace.keep_scale * (trace.pre_hidden > 0.0)
    grad_w0 = spmm(adj, feats).T @ g0
    return np.concatenate([grad_w0.ravel(), grad_w1.ravel()])


SHARED_CASES = [
    (9, 7, 6, 3, 41, np.array([0, 2, 3, 5, 8])),
    (12, 5, 8, 4, 43, np.arange(12)),
    (6, 4, 5, 3, 47, np.array([4])),
    # duplicates: the loss and the gradient count a repeated node once
    # per mask entry
    (8, 6, 4, 3, 53, np.array([1, 1, 6, 3, 6, 6])),
]


@pytest.mark.parametrize("n, d, h, k, seed, mask", SHARED_CASES,
                         ids=["subset", "all", "single", "duplicates"])
def test_forward_loss_and_backward_bitwise_against_reference(n, d, h, k, seed,
                                                             mask):
    adj, feats, labels, params = tiny_setup(n, d, h, k, seed, extra_edges=2 * n)
    trace = run_forward(params, adj, feats, dropout=0.5, training=True,
                        rng=Prng(seed, stream=STREAM_DROPOUT))
    hidden, logits = reference_forward(params, adj, feats, 0.5,
                                       Prng(seed, stream=STREAM_DROPOUT))
    assert np.array_equal(trace.hidden, hidden)
    assert np.array_equal(trace.logits, logits)

    target = Target.of(labels, mask, k)
    log_probs = masked_log_probs(trace.logits, target)
    assert np.array_equal(log_probs, reference_log_softmax(trace.logits[mask]))
    want_loss = reference_cross_entropy(trace.logits, labels, mask)
    assert masked_cross_entropy(target, log_probs=log_probs) == want_loss

    want_grad = reference_backward(params, trace, adj, feats, labels, mask)
    grad = backward(trace, target, log_probs=log_probs)
    assert grad.dtype == np.float64
    assert np.array_equal(grad, want_grad)
    # backward reads log_probs and leaves it as it was
    assert np.array_equal(log_probs, reference_log_softmax(trace.logits[mask]))


# ---- first-layer products past SPLIT_MACS: two halves, cut by shape ----

class FailingWorker:
    """An executor whose every task fails."""

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_exception(RuntimeError("worker failed"))
        return future


def trained_step(params, adj, feats, labels, worker):
    """The trace and gradient of one dropout step on every node."""
    trace = run_forward(params, adj, feats, dropout=0.5, training=True,
                        rng=Prng(5, stream=STREAM_DROPOUT), worker=worker)
    target = Target.of(labels, np.arange(labels.size), params.w1.shape[1])
    log_probs = masked_log_probs(trace.logits, target)
    return trace, backward(trace, target, log_probs=log_probs, worker=worker)


def test_split_products_ignore_the_worker():
    # pubmed's shape: 300 nodes, 500 features, hidden 32
    adj, feats, labels, params = tiny_setup(300, 500, 32, 3, 71, extra_edges=600)
    assert 300 * 500 * 32 >= SPLIT_MACS
    alone, grad = trained_step(params, adj, feats, labels, None)
    with ThreadPoolExecutor(1) as worker:
        paired, paired_grad = trained_step(params, adj, feats, labels, worker)
        scored = evaluate_on(params, adj, labels, np.arange(300), ax=alone.ax,
                             worker=worker)
    assert np.array_equal(paired.pre_hidden, alone.pre_hidden)
    assert np.array_equal(paired.logits, alone.logits)
    assert np.array_equal(paired_grad, grad)
    want = evaluate_on(params, adj, labels, np.arange(300), ax=alone.ax)
    assert np.array_equal(scored.confusion, want.confusion)
    assert np.array_equal(scored.errors, want.errors)
    # a fixed cut need not keep one product's bits, only its value
    np.testing.assert_allclose(alone.pre_hidden, alone.ax @ params.w0, rtol=1e-12)
    np.testing.assert_allclose(
        grad, reference_backward(params, alone, adj, feats, labels,
                                 np.arange(300)), rtol=1e-12)


def test_products_below_the_cutoff_are_single():
    # 31 x 602 at hidden 32: the worker, which fails every task, is not asked
    adj, feats, labels, params = tiny_setup(31, 602, 32, 3, 73, extra_edges=60)
    assert 31 * 602 * 32 < SPLIT_MACS
    trace, grad = trained_step(params, adj, feats, labels, FailingWorker())
    assert np.array_equal(trace.pre_hidden, trace.ax @ params.w0)
    assert np.array_equal(grad, reference_backward(params, trace, adj, feats,
                                                   labels, np.arange(31)))


def test_a_failed_half_is_raised():
    adj, feats, labels, params = tiny_setup(300, 500, 32, 3, 71, extra_edges=600)
    with pytest.raises(RuntimeError, match="worker failed"):
        run_forward(params, adj, feats, worker=FailingWorker())
    trace = run_forward(params, adj, feats)
    target = Target.of(labels, np.arange(300), 3)
    with pytest.raises(RuntimeError, match="worker failed"):
        backward(trace, target, log_probs=masked_log_probs(trace.logits, target),
                 worker=FailingWorker())


def test_masked_log_probs_errors():
    logits = np.zeros((2, 2))
    with pytest.raises(ValueError, match="empty mask"):
        masked_log_probs(logits, Target.of(np.array([0, 1]),
                                           np.array([], dtype=int), 2))
    for labels in (np.array([0, 2]), np.array([0, -1])):
        with pytest.raises(ValueError, match="label out of range"):
            masked_log_probs(logits, Target.of(labels, np.array([1]), 2))


def test_backward_errors():
    adj, feats, labels, params = tiny_setup(3, 2, 4, 2, 59)
    trace = run_forward(params, adj, feats)
    with pytest.raises(ValueError, match="empty mask"):
        gradient_of(trace, labels, np.array([], dtype=int))
    with pytest.raises(ValueError, match="label out of range"):
        gradient_of(trace, np.array([0, 1, 2]), np.array([2]))


def test_log_probs_must_match_mask():
    adj, feats, labels, params = tiny_setup(4, 2, 4, 3, 61)
    trace = run_forward(params, adj, feats)
    mask = np.array([0, 3])
    target = Target.of(labels, mask, 3)
    log_probs = masked_log_probs(trace.logits, target)
    # an empty mask cannot make a Target, so the empty case is empty
    # log_probs against a target
    for bad_target, bad in ((Target.of(labels, np.array([0, 1, 3]), 3), log_probs),
                            (target, log_probs.ravel()),
                            (target, log_probs[:0])):
        with pytest.raises(ValueError, match="log_probs do not match"):
            masked_cross_entropy(bad_target, log_probs=bad)
        with pytest.raises(ValueError, match="log_probs do not match"):
            backward(trace, bad_target, log_probs=bad)


# ---- Target: the loss's nodes, checked once ----

def test_target_of_checks_mask_and_labels():
    labels = np.array([0, 2, 1])
    with pytest.raises(ValueError, match="empty mask"):
        Target.of(labels, np.array([], dtype=int), 3)
    for bad in (-1, 3):
        with pytest.raises(ValueError, match="label out of range"):
            Target.of(np.array([0, bad, 1]), np.array([0, 1]), 3)
    target = Target.of(labels, [2, 0], 3)
    assert target.ids.dtype == np.int64
    assert np.array_equal(target.ids, [2, 0])
    assert np.array_equal(target.labels, [1, 0])
    assert np.array_equal(target.cells, [0 * 3 + 1, 1 * 3 + 0])
    assert target.num_classes == 3


@pytest.mark.parametrize("mask, message", [
    (np.array([True, False, True, False, True]), "must be integers"),
    (np.array([0.9, 3.7]), "must be integers"),
    (np.array([0.0, 1.0]), "must be integers"),  # whole floats too
    (np.array([2, -1]), "negative node id"),
    ([], "empty mask"),  # float64 when empty: still the empty-mask error
    (np.array([], dtype=bool), "empty mask"),
])
def test_target_ids_are_integers_not_cast(mask, message):
    # a cast would read the bool mask as ids [1, 0, 1, 0, 1] and the floats
    # as [0, 3]; numpy would read id -1 as the last node
    with pytest.raises(ValueError, match=message):
        Target.of(np.array([0, 1, 0, 1, 0]), mask, 2)


@pytest.mark.parametrize("mask, all_rows", [
    (np.arange(3), True),
    (np.array([1, 0, 2]), False),
    (np.arange(2), False),
    (np.array([0, 1, 2, 2]), False),
])
def test_target_all_rows_only_for_every_row_in_order(mask, all_rows):
    assert Target.of(np.array([0, 1, 0]), mask, 2).all_rows is all_rows


def test_target_classes_must_match_the_logits():
    adj, feats, labels, params = tiny_setup(5, 3, 4, 3, 73)
    trace = run_forward(params, adj, feats)
    for mask in (np.arange(5), np.array([0, 3])):
        wrong = Target.of(labels, mask, 4)
        with pytest.raises(ValueError, match="do not match the target"):
            masked_log_probs(trace.logits, wrong)
        with pytest.raises(ValueError, match="do not match the target"):
            evaluate(params, adj, wrong, ax=spmm(adj, feats))
    # all_rows skips the gather, so the logits must have a row per id
    with pytest.raises(ValueError, match="do not match the target"):
        masked_log_probs(trace.logits[:4], Target.of(labels, np.arange(5), 3))


def test_all_rows_gradient_bitwise_equals_scatter():
    # kind C's targets cover every row in order, so the gradient skips the
    # gather and the scatter; a permuted full mask takes both and must
    # give the same bits
    adj, feats, labels, params = tiny_setup(9, 5, 6, 3, 79, extra_edges=18)
    trace = run_forward(params, adj, feats, dropout=0.5, training=True,
                        rng=Prng(79, stream=STREAM_DROPOUT))
    perm = np.random.default_rng(79).permutation(9)
    assert not np.array_equal(perm, np.arange(9))
    identity, permuted = Target.of(labels, np.arange(9), 3), Target.of(labels, perm, 3)
    assert identity.all_rows and not permuted.all_rows
    grads = [backward(trace, t, log_probs=masked_log_probs(trace.logits, t))
             for t in (identity, permuted)]
    assert np.array_equal(grads[0], grads[1])


def test_loss_and_backward_read_log_probs_in_any_layout():
    adj, feats, labels, params = tiny_setup(6, 3, 4, 3, 83)
    trace = run_forward(params, adj, feats)
    target = Target.of(labels, np.array([5, 1, 2]), 3)
    log_probs = masked_log_probs(trace.logits, target)
    fortran = np.asfortranarray(log_probs)
    assert not fortran.flags.c_contiguous
    assert (masked_cross_entropy(target, log_probs=fortran)
            == masked_cross_entropy(target, log_probs=log_probs))
    assert np.array_equal(backward(trace, target, log_probs=fortran),
                          backward(trace, target, log_probs=log_probs))


def test_old_call_forms_raise_type_error():
    # the A X input and the log-probabilities are required keywords, so
    # X cannot pass for A X, nor logits for log-probabilities; backward
    # reads params, A and A X from the trace and takes no X
    adj, feats, labels, params = tiny_setup(4, 2, 4, 3, 67)
    mask = np.array([0, 3])
    trace = run_forward(params, adj, feats)
    log_probs = masked_log_probs(trace.logits, Target.of(labels, mask, 3))
    old_calls = [
        # the (labels, mask) forms, before the checked Target
        lambda: masked_log_probs(trace.logits, labels, mask),
        lambda: masked_cross_entropy(labels, mask, log_probs=log_probs),
        lambda: backward(trace, labels, mask, log_probs=log_probs),
        lambda: evaluate(params, adj, labels, mask, ax=spmm(adj, feats)),
        lambda: forward(params, adj, feats),
        lambda: evaluate(params, adj, feats, labels, mask),
        lambda: masked_cross_entropy(trace.logits, labels, mask),
        lambda: backward(trace, labels, mask),
        lambda: backward(params, trace, adj, feats, labels, mask,
                         log_probs=log_probs),
        lambda: masked_cross_entropy(trace.logits, labels, mask,
                                     log_probs=log_probs),
    ]
    for call in old_calls:
        with pytest.raises(TypeError):
            call()


# ---- evaluate / macro_f1 ----

def test_evaluate_all_correct():
    logits = np.eye(3) * 5.0
    adj = normalize_adjacency(build_graph(3, []))
    params = GcnParams(w0=np.eye(3), w1=np.eye(3) * 5.0)
    feats = np.eye(3)
    m = evaluate_on(params, adj, np.array([0, 1, 2]), np.array([0, 1, 2]),
                 ax=spmm(adj, feats))
    assert m.micro_f1 == 1.0
    assert np.array_equal(m.confusion, np.eye(3, dtype=np.int64))
    assert m.errors.size == 0


def test_evaluate_all_wrong():
    adj = normalize_adjacency(build_graph(2, []))
    params = GcnParams(w0=np.eye(2), w1=np.eye(2))
    feats = np.array([[0.0, 1.0], [1.0, 0.0]])  # predicts the other class
    m = evaluate_on(params, adj, np.array([0, 1]), np.array([0, 1]),
                 ax=spmm(adj, feats))
    assert m.micro_f1 == 0.0
    assert np.array_equal(np.sort(m.errors), [0, 1])


def test_evaluate_majority_predictor_fraction():
    # degenerate params predict class 0 everywhere; micro-F1 = majority share
    adj = normalize_adjacency(build_graph(5, []))
    params = GcnParams(w0=np.zeros((2, 3)), w1=np.zeros((3, 4)))
    feats = np.random.default_rng(0).normal(size=(5, 2))
    labels = np.array([0, 0, 0, 1, 2])
    m = evaluate_on(params, adj, labels, np.arange(5), ax=spmm(adj, feats))
    assert m.micro_f1 == pytest.approx(0.6)
    assert m.confusion[:, 0].sum() == 5  # everything predicted class 0


def test_evaluate_confusion_row_sums():
    adj, feats, labels, params = tiny_setup(8, 3, 4, 3, 17)
    mask = np.array([0, 1, 3, 6, 7])
    m = evaluate_on(params, adj, labels, mask, ax=spmm(adj, feats))
    counts = np.bincount(labels[mask], minlength=3)
    assert np.array_equal(m.confusion.sum(axis=1), counts)
    assert m.confusion.sum() == mask.size


def test_evaluate_micro_f1_is_trace_fraction():
    adj, feats, labels, params = tiny_setup(10, 4, 5, 4, 23)
    mask = np.arange(10)
    m = evaluate_on(params, adj, labels, mask, ax=spmm(adj, feats))
    assert m.micro_f1 == pytest.approx(np.trace(m.confusion) / mask.size, abs=0)


def test_evaluate_rejects_out_of_range_masked_labels():
    # a -1 (unlabeled) or too-large label on a masked node is the error
    # Target.of raises, not a count in a wrapped confusion row
    adj, feats, labels, params = tiny_setup(3, 2, 4, 2, 71)
    ax = spmm(adj, feats)
    for bad in (-1, 2):
        labels[0] = bad
        with pytest.raises(ValueError, match="label out of range"):
            evaluate_on(params, adj, labels, np.array([0, 1, 2]), ax=ax)
        # unmasked, the same label is never read
        m = evaluate_on(params, adj, labels, np.array([1, 2]), ax=ax)
        assert m.confusion.sum() == 2
    with pytest.raises(ValueError, match="empty mask"):
        evaluate_on(params, adj, labels, np.array([], dtype=int), ax=ax)


def test_macro_f1_hand_case():
    # class 0: tp=2, fp=1, fn=0 -> f1 = 4/5; class 1: tp=1, fp=0, fn=1 -> 2/3
    conf = np.array([[2, 0], [1, 1]])
    assert macro_f1(conf) == pytest.approx((0.8 + 2.0 / 3.0) / 2.0, rel=1e-12)


def test_macro_f1_absent_class_scores_zero():
    conf = np.array([[3, 0], [0, 0]])  # class 1 never occurs, never predicted
    assert macro_f1(conf) == pytest.approx(0.5)


def test_evaluate_argmax_tie_lowest_index():
    adj = normalize_adjacency(build_graph(1, []))
    params = GcnParams(w0=np.zeros((1, 1)), w1=np.zeros((1, 3)))
    m = evaluate_on(params, adj, np.array([0]), np.array([0]),
                 ax=spmm(adj, np.ones((1, 1))))
    assert m.micro_f1 == 1.0  # tie resolved to class 0 == label
