"""Acceptance suite: one test per shipped acceptance criterion.

Run `pytest tests/test_acceptance.py -v` to get one pass/fail line per
criterion. Covered: accountant golden values, analytic gradients against
finite differences, the subsampled log moment against the Gaussian one
at q = 1, the clipped-and-noised lot mechanism, partition/masking
guarantees, citation-network baselines (skipped unless a converted
dataset is present), privacy-ordering properties, large-dataset config
shapes on synthetic stand-ins, and bitwise determinism.
"""

import math
import time

import numpy as np
import pytest

from conftest import load_real
from test_model import (analytic_gradient, grad_rel_err, kink_free_setup,
                        numerical_gradient)

from dpgcn import rng as streams
from dpgcn.accounting import (AccountantLedger, calibrate_noise, log_moment,
                              privacy_spent, subsampled_log_moment)
from dpgcn.data import SynthSpec, generate_synthetic
from dpgcn.dp import DpNoiseSpec, clip_gradient, noisy_lot_gradient
from dpgcn.graph import build_graph, mask_subgraph, random_partition
from dpgcn.harness import ExperimentConfig, run_experiment
from dpgcn.rng import Prng

DELTA = 1e-5


@pytest.fixture(scope="module")
def sbm500():
    """Five-community, 500-node planted-partition graph used by 7 and 9."""
    return generate_synthetic(SynthSpec((100,) * 5, 0.10, 0.01,
                                        feature_dim=16, feature_shift=1.0,
                                        seed=7))


# --- criterion 1: accountant golden values -------------------------------

GOLDEN_TABLE = [
    # (sigma, steps, expected epsilon) at delta = 1e-5, q = 1
    (4.0, 2000, 136.51),
    (26.0, 2000, 9.75),
    (48.0, 2000, 4.91),
    (112.0, 2000, 2.00),
    (2.0, 500, 136.51),
    (13.0, 500, 9.75),
    (24.0, 500, 4.91),
    (56.0, 500, 2.00),
]


def test_criterion_01_accountant_golden_table():
    start = time.perf_counter()
    for sigma, steps, expected in GOLDEN_TABLE:
        ledger = AccountantLedger()
        ledger.append(1.0, sigma, steps)
        eps, _ = privacy_spent(ledger, DELTA)
        assert abs(eps - expected) <= 0.01, (sigma, steps, eps)
    assert time.perf_counter() - start < 1.0


def exact_full_batch_epsilon(records, delta):
    """Exact epsilon of full-batch Gaussian steps, from (sigma, steps) pairs.

    Each step is the Gaussian mechanism with sensitivity C and noise sigma C,
    so the steps compose exactly to one with mu = sqrt(sum steps / sigma^2),
    whose curve is delta(eps) = Phi(-eps/mu + mu/2) - e^eps Phi(-eps/mu - mu/2)
    (Balle & Wang 2018). delta(eps) falls in eps and is at most delta at
    mu (mu/2 + z), z the upper delta quantile, which brackets the root.
    Phi is scipy.special.ndtr, the function scipy.stats.norm.cdf evaluates,
    without the second of import time that scipy.stats costs.
    """
    from scipy.optimize import brentq
    from scipy.special import log_ndtr, ndtr, ndtri
    mu = math.sqrt(sum(steps / sigma**2 for sigma, steps in records))

    def excess(eps):
        return (ndtr(-eps / mu + mu / 2)
                - math.exp(eps + log_ndtr(-eps / mu - mu / 2)) - delta)

    return brentq(excess, 0.0, mu * (mu / 2 - ndtri(delta)), xtol=1e-12)


def test_full_batch_epsilon_within_1_5x_of_the_exact_value():
    # the moments accountant is an upper bound: at q = 1 it must sit at or
    # above the exact composed Gaussian epsilon, and not far above it
    ledgers = [[(sigma, steps)] for sigma, steps, _ in GOLDEN_TABLE]
    ledgers += [[(calibrate_noise(eps, DELTA, 1.0, 500), 500)] for eps in (1.0, 2.0)]
    ledgers.append([(8.0, 300), (20.0, 700), (50.0, 1000)])
    for records in ledgers:
        ledger = AccountantLedger()
        for sigma, steps in records:
            ledger.append(1.0, sigma, steps)
        reported, _ = privacy_spent(ledger, DELTA)
        exact = exact_full_batch_epsilon(records, DELTA)
        assert exact <= reported <= 1.5 * exact, (records, reported, exact)


# --- criterion 2: analytic gradients vs central finite differences -------


def test_criterion_02_analytic_gradients_match_finite_differences():
    for trial in range(20):
        adj, feats, labels, params, mask = kink_free_setup(7_000 + trial)
        analytic = analytic_gradient(params, adj, feats, labels, mask)
        numeric = numerical_gradient(params, adj, feats, labels, mask)
        assert grad_rel_err(analytic, numeric) < 1e-5, f"trial {trial}"


# --- criterion 3: the subsampled log moment reduces to the Gaussian one ---


def test_criterion_03_quadrature_matches_closed_form_at_q1():
    for lam in (1, 2, 4, 8, 16, 32):
        for sigma in (1.0, 2.0, 5.0, 20.0, 80.0, 200.0):
            closed = lam * (lam + 1) / (2 * sigma**2)
            quad = subsampled_log_moment(1.0, sigma, lam)
            assert abs(quad - closed) <= 1e-6 * closed, (lam, sigma)
    # subsampling can only shrink the per-step moment
    for q in (0.01, 0.1, 0.5):
        for lam in (1, 8, 32):
            for sigma in (1.0, 4.0):
                assert (subsampled_log_moment(q, sigma, lam)
                        <= log_moment(1.0, sigma, lam)), (q, lam, sigma)


# --- criterion 4: the clipped-and-noised lot mechanism --------------------


def test_criterion_04_private_lot_mechanism():
    # sigma = 0: the lot gradient is exactly the average of clipped grads
    draw = np.random.default_rng(41)
    grads = [draw.normal(scale=3.0, size=12) for _ in range(7)]
    silent = DpNoiseSpec(1.5, 0.0)
    got = noisy_lot_gradient(grads, silent, Prng(0, streams.STREAM_NOISE))
    want = np.zeros(12)
    for g in grads:
        want += clip_gradient(g, 1.5)
    want /= len(grads)
    assert np.array_equal(got, want)

    # zero gradient, lot of one: the output is pure N(0, (sigma C)^2) noise
    sigma, clip = 4.0, 2.0
    spec = DpNoiseSpec(clip, sigma)
    noise_rng = Prng(99, streams.STREAM_NOISE)
    zero = [np.zeros(3)]
    draws = np.stack([noisy_lot_gradient(zero, spec, noise_rng)
                      for _ in range(100_000)])
    scale = sigma * clip
    se_mean = scale / math.sqrt(draws.shape[0])
    se_std = scale / math.sqrt(2 * draws.shape[0])
    assert np.all(np.abs(draws.mean(axis=0)) < 3 * se_mean)
    assert np.all(np.abs(draws.std(axis=0) - scale) < 3 * se_std)


# --- criterion 5: partition and masking guarantees ------------------------


def _check_partition_and_masks(n, s, graph, seed):
    groups = random_partition(np.arange(n), s, Prng(seed, streams.STREAM_PARTITION))
    # disjoint cover of all n nodes
    members = np.concatenate(groups)
    assert np.array_equal(np.sort(members), np.arange(n))
    # balanced sizes
    sizes = np.array([keep.size for keep in groups])
    assert sizes.max() - sizes.min() <= 1

    assign_of = np.empty(n, dtype=np.int64)
    for k, keep in enumerate(groups):
        assign_of[keep] = k
    rows = np.repeat(np.arange(n), np.diff(graph.indptr))
    expected_kept = int((assign_of[rows] == assign_of[graph.indices]).sum())
    kept = 0
    for k, keep in enumerate(groups):
        sub = mask_subgraph(graph, keep)
        sub_rows = np.repeat(keep, np.diff(sub.indptr))
        sub_cols = keep[sub.indices]
        # no surviving edge may leave subgraph k
        assert np.all(assign_of[sub_rows] == k)
        assert np.all(assign_of[sub_cols] == k)
        kept += sub.indices.size
    # every same-subgraph edge survives, so the counts match exactly
    assert kept == expected_kept


def test_criterion_05_partition_and_masking_guarantees():
    # exhaustive over every (n, s) with n <= 12, s <= n
    for n in range(1, 13):
        draw = np.random.default_rng(n)
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if draw.random() < 0.4]
        graph = build_graph(n, edges)
        for s in range(1, n + 1):
            _check_partition_and_masks(n, s, graph, seed=n * 100 + s)

    # randomized at n = 10^4
    n = 10_000
    draw = np.random.default_rng(5)
    edges = [(int(a), int(b)) for a, b in draw.integers(0, n, size=(30_000, 2))
             if a != b]
    graph = build_graph(n, edges)
    for s in (3, 137):
        _check_partition_and_masks(n, s, graph, seed=s)


# --- criterion 6: citation-network baselines (data-gated) -----------------


def test_criterion_06_cora_baselines():
    """Non-private micro-F1 near 0.88 (Adam) and 0.77 (SGD) over 5 seeds.

    Tolerance is +/- 0.05 when the converted split matches the reference
    1208-train / 1000-test layout, +/- 0.08 otherwise.
    """
    ds = load_real("cora")
    exact_split = ds.train_nodes.size == 1208 and ds.test_nodes.size == 1000
    tol = 0.05 if exact_split else 0.08
    adam = run_experiment(ExperimentConfig(kind="A", optimizer="adam"),
                          dataset=ds)
    assert abs(adam.aggregate["f1_micro_mean"] - 0.88) <= tol, adam.aggregate
    sgd = run_experiment(ExperimentConfig(kind="A", optimizer="sgd"),
                         dataset=ds)
    assert abs(sgd.aggregate["f1_micro_mean"] - 0.77) <= tol, sgd.aggregate


# --- criterion 7: privacy-ordering and split-reachability ------------------


def test_criterion_07_privacy_ordering_and_split_reachability(sbm500):
    seeds = (0, 1, 2)
    # (a) at epsilon = 2, each DP run scores strictly below its
    # non-private counterpart (same optimizer family and learning rate)
    pairs = [
        (dict(kind="A", optimizer="adam", seeds=seeds),
         dict(kind="B", optimizer="adam-dp", target_epsilon=2.0, seeds=seeds)),
        (dict(kind="A", optimizer="sgd", lr=0.5, seeds=seeds),
         dict(kind="B", optimizer="sgd-dp", lr=0.5, target_epsilon=2.0,
              seeds=seeds)),
    ]
    for base_kw, dp_kw in pairs:
        base = run_experiment(ExperimentConfig(**base_kw), dataset=sbm500)
        dp = run_experiment(ExperimentConfig(**dp_kw), dataset=sbm500)
        assert dp.aggregate["seeds_failed"] == 0
        assert dp.aggregate["epsilon"] <= 2.0 + 1e-9
        assert (dp.aggregate["f1_micro_mean"]
                < base.aggregate["f1_micro_mean"]), (base_kw, dp_kw)

    # (b) with 10 subgraphs, epsilon = 1.0 is reachable: calibration
    # succeeds and every seed finishes with finite loss
    split = run_experiment(
        ExperimentConfig(kind="C", optimizer="adam-dp", s=10, lot_size=1,
                         target_epsilon=1.0, seeds=(0, 1)), dataset=sbm500)
    assert split.aggregate["seeds_failed"] == 0
    assert split.aggregate["epsilon"] <= 1.0 + 1e-9
    assert all(math.isfinite(o.final_loss) for o in split.seeds)

    # (c) claimed counterpart: WITHOUT splits, epsilon = 1.0 should be out
    # of reach (calibration past its sigma cap, or divergence). Stated
    # as-is; the assertion fails if training in fact completes.
    try:
        sigma_full = calibrate_noise(1.0, DELTA, 1.0, 500)
    except ValueError:
        return  # sigma beyond the calibration cap: the claim holds
    full = run_experiment(
        ExperimentConfig(kind="B", optimizer="adam-dp", target_epsilon=1.0,
                         max_epochs=500, seeds=(0,)), dataset=sbm500)
    out = full.seeds[0]
    completed = (not out.failed) and math.isfinite(out.final_loss)
    assert not completed, (
        f"full-graph calibration at target epsilon 1.0 returned sigma="
        f"{sigma_full:.2f} (well under the 1e6 cap) and training completed "
        f"with finite loss {out.final_loss:.3f} (micro-F1 {out.f1_micro:.2f}): "
        "per-example clipping bounds every update and the shifted softmax "
        "keeps the loss finite at any noise level, so full-graph training "
        "at epsilon = 1.0 runs to completion and the unreachability claim "
        "does not hold for this implementation")


# --- criterion 8: config shapes for the large datasets --------------------

# class count and feature dimensionality matching PubMed (3, 500),
# Reddit (41, 602), and Pokec (2, 768)
SHAPE_SPECS = [
    ("pubmed-shape", SynthSpec((100, 100, 100), 0.10, 0.01,
                               feature_dim=500, feature_shift=1.5, seed=11)),
    ("reddit-shape", SynthSpec((10,) * 41, 0.30, 0.002,
                               feature_dim=602, feature_shift=1.5, seed=12)),
    ("pokec-shape", SynthSpec((150, 150), 0.10, 0.01,
                              feature_dim=768, feature_shift=1.5, seed=13)),
]


def test_criterion_08_large_dataset_config_shapes():
    for name, spec in SHAPE_SPECS:
        ds = generate_synthetic(spec)
        start = time.perf_counter()
        configs = [
            ExperimentConfig(kind="A", optimizer="adam", seeds=(0, 1)),
            ExperimentConfig(kind="B", optimizer="adam-dp", sigma=4.0,
                             seeds=(0, 1)),
            ExperimentConfig(kind="C", optimizer="adam-dp", s=8, lot_size=2,
                             sigma=2.0, seeds=(0, 1)),
        ]
        for cfg in configs:
            rec = run_experiment(cfg, dataset=ds)
            assert rec.aggregate["seeds_failed"] == 0, (name, cfg.kind)
            assert rec.aggregate["f1_micro_mean"] is not None, (name, cfg.kind)
            if cfg.optimizer.endswith("-dp"):
                eps = rec.aggregate["epsilon"]
                assert eps > 0 and math.isfinite(eps), (name, cfg.kind)
        assert time.perf_counter() - start < 300.0, name


# --- criterion 9: bitwise determinism --------------------------------------

_METRIC_FIELDS = ("f1_micro", "f1_macro", "epsilon", "moment_order",
                  "epochs", "final_loss", "errors")


def test_criterion_09_bitwise_determinism(sbm500):
    configs = [
        ExperimentConfig(kind="A", optimizer="adam", max_epochs=40,
                         seeds=(0, 1)),
        ExperimentConfig(kind="C", optimizer="adam-dp", s=6, lot_size=2,
                         sigma=2.0, max_epochs=30, seeds=(0, 1)),
    ]
    for cfg in configs:
        first = run_experiment(cfg, dataset=sbm500)
        second = run_experiment(cfg, dataset=sbm500)
        for a, b in zip(first.seeds, second.seeds):
            for name in _METRIC_FIELDS:
                assert getattr(a, name) == getattr(b, name), (cfg.kind, name)
        assert first.aggregate["epsilon"] == second.aggregate["epsilon"]
        assert first.aggregate["f1_micro_mean"] == second.aggregate["f1_micro_mean"]
        assert first.aggregate["f1_macro_std"] == second.aggregate["f1_macro_std"]
