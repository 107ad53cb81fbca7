import csv
import importlib.util
import json
import os
import subprocess
import sys
import threading
import warnings
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.sparse as sp

import dpgcn
import dpgcn.dp as dp_mod
import dpgcn.harness as harness_mod
import dpgcn.model as model_mod
from dpgcn import rng as streams
from dpgcn.accounting import AccountantLedger, calibrate_noise, privacy_spent
from dpgcn.cli import main
from dpgcn.data import SynthSpec, generate_synthetic, load_dataset, save_dataset
from dpgcn.graph import normalize_adjacency, random_partition, spmm
from dpgcn.harness import (ConfigError, ExperimentConfig, ResultsRecord,
                           SeedOutcome, TrainingDiverged, early_stop_check,
                           emit_results, hard_case_overlap, parse_config_text,
                           resolve_sigma, run_experiment, split_dataset)
from dpgcn.rng import Prng


@pytest.fixture(scope="module")
def sbm():
    return generate_synthetic(
        SynthSpec((50, 50), 0.15, 0.02, feature_dim=8, feature_shift=2.0, seed=1))


def cfg_a(**kw):
    base = dict(kind="A", optimizer="adam", max_epochs=30, seeds=(0, 1))
    base.update(kw)
    return ExperimentConfig(**base)


# ---- config parsing ----

def test_parse_full_config():
    cfg = parse_config_text(
        "# experiment settings\n"
        "dataset = data/cora\n"
        "kind = B\n"
        "optimizer = sgd-dp   # trailing comment\n"
        "lr = 0.1\n"
        "max_epochs = 100\n"
        "early_stopping = off\n"
        "sigma = 56\n"
        "seeds = 3,1,4\n")
    assert cfg.dataset == "data/cora"
    assert cfg.kind == "B" and cfg.optimizer == "sgd-dp"
    assert cfg.lr == 0.1 and cfg.max_epochs == 100
    assert cfg.early_stopping is False
    assert cfg.sigma == 56.0
    assert cfg.seeds == (3, 1, 4)


def test_parse_bool_tokens():
    assert parse_config_text("early_stopping = on").early_stopping is True
    assert parse_config_text("early_stopping = False").early_stopping is False


@pytest.mark.parametrize("text", [
    "mystery = 1",
    "lr = 0.1\nlr = 0.2",
    "just a line",
    "lr = fast",
    "early_stopping = maybe",
    "seeds = 1,two",
    "max_epochs = 1.5",
])
def test_parse_rejects_bad_text(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_parse_empty_text_gives_defaults():
    cfg = parse_config_text("\n# nothing here\n")
    assert cfg == ExperimentConfig()


# ---- finalized defaults and validation ----

def test_finalized_epoch_defaults():
    assert ExperimentConfig(optimizer="sgd").finalized().max_epochs == 2000
    assert ExperimentConfig(optimizer="adam").finalized().max_epochs == 500
    assert ExperimentConfig(kind="B", optimizer="sgd-dp",
                            sigma=2.0).finalized().max_epochs == 2000


def test_finalized_early_stopping_defaults():
    assert ExperimentConfig(optimizer="adam").finalized().early_stopping is True
    dp = ExperimentConfig(kind="B", optimizer="adam-dp", sigma=2.0).finalized()
    assert dp.early_stopping is False
    # validation-F1 model selection lies outside epsilon: DP fails closed
    with pytest.raises(ConfigError, match="DP runs cannot stop early"):
        ExperimentConfig(kind="B", optimizer="adam-dp", sigma=2.0,
                         early_stopping=True).finalized()


def test_finalized_lot_size_defaults_to_s():
    cfg = ExperimentConfig(kind="C", optimizer="adam-dp", s=8,
                           sigma=2.0).finalized()
    assert cfg.lot_size == 8


@pytest.mark.parametrize("kw", [
    dict(kind="D"),
    dict(optimizer="rmsprop"),
    dict(kind="A", optimizer="adam-dp", sigma=2.0),
    dict(kind="B", optimizer="adam"),
    dict(kind="B", optimizer="adam-dp", sigma=2.0, s=2),
    dict(kind="C", optimizer="adam", s=1),
    dict(kind="B", optimizer="adam-dp"),                       # neither
    dict(kind="B", optimizer="adam-dp", sigma=2.0, target_epsilon=1.0),
    dict(kind="B", optimizer="adam-dp", sigma=-1.0),
    dict(kind="B", optimizer="adam-dp", target_epsilon=0.0),
    dict(optimizer="adam", sigma=2.0),                         # non-DP sigma
    dict(lr=0.0),
    dict(max_epochs=0),
    dict(patience=0),
    dict(hidden=0),
    dict(dropout=1.0),
    dict(dropout=-0.1),
    dict(clip_norm=0.0),
    dict(train_fraction=0.0),
    dict(train_fraction=1.5),
    dict(kind="C", optimizer="adam-dp", s=4, lot_size=5, sigma=2.0),
    dict(kind="C", optimizer="adam-dp", s=4, lot_size=0, sigma=2.0),
    dict(delta=1.0),
    dict(seeds=()),
    dict(kind="B", optimizer="adam-dp", target_epsilon=float("nan")),
    dict(kind="B", optimizer="adam-dp", target_epsilon=float("inf")),
    dict(kind="B", optimizer="adam-dp", sigma=float("inf")),
    dict(kind="B", optimizer="adam-dp", sigma=float("nan")),
    dict(delta=float("nan")),
    dict(clip_norm=float("inf")),
    dict(lr=float("nan")),
    dict(lr=float("inf")),
    dict(kind="A", optimizer="adam", s=5, lot_size=3),         # kind A is full-graph
    dict(kind="A", optimizer="adam", s=5),
    dict(kind="A", optimizer="sgd", s=2, lot_size=1),
    dict(kind="A", optimizer="adam", lot_size=2),
    dict(seeds=(0, -1)),
    dict(kind="C", optimizer="adam", s=4, lot_size=2),         # one step per example
])
def test_finalized_rejects_inconsistent(kw):
    with pytest.raises(ConfigError):
        ExperimentConfig(**kw).finalized()


def test_steps_per_epoch():
    def c(lot):
        return ExperimentConfig(kind="C", optimizer="adam-dp", s=10,
                                lot_size=lot, sigma=2.0).finalized()
    assert c(1).steps_per_epoch == 10
    assert c(3).steps_per_epoch == 3
    assert c(10).steps_per_epoch == 1
    b = ExperimentConfig(kind="B", optimizer="adam-dp", sigma=2.0).finalized()
    assert b.steps_per_epoch == 1


# ---- early_stop_check ----

def test_early_stop_rising_never_stops():
    history = []
    for epoch in range(1, 101):
        history.append(epoch / 100.0)
        stop, best = early_stop_check(history, 20)
        assert not stop and best == epoch


def test_early_stop_flat_history():
    history = [0.5] * 20
    assert early_stop_check(history, 20) == (False, 1)
    history.append(0.5)
    assert early_stop_check(history, 20) == (True, 1)


def test_early_stop_peak_then_decline():
    rise = [0.1, 0.2, 0.3, 0.4, 0.5]
    for extra in range(1, 20):
        stop, best = early_stop_check(rise + [0.45] * extra, 20)
        assert not stop and best == 5
    stop, best = early_stop_check(rise + [0.45] * 20, 20)
    assert stop and best == 5  # stops at epoch 25


def test_early_stop_tie_keeps_first():
    stop, best = early_stop_check([0.3, 0.7, 0.7, 0.7], 20)
    assert best == 2


def test_early_stop_empty_history():
    with pytest.raises(ValueError):
        early_stop_check([], 20)


# ---- hard_case_overlap ----

def test_overlap_identical():
    assert hard_case_overlap({3, 5, 9}, {3, 5, 9}) == 1.0


def test_overlap_disjoint():
    assert hard_case_overlap({1, 2}, {3, 4}) == 0.0


def test_overlap_half():
    baseline = set(range(1, 11))
    errors = set(range(1, 6)) | set(range(90, 100))
    assert hard_case_overlap(errors, baseline) == 0.5


def test_overlap_empty_baseline():
    with pytest.raises(ValueError):
        hard_case_overlap({1}, set())


# ---- emit_results ----

def fake_record(dp=True):
    seeds = []
    for seed in range(5):
        seeds.append(SeedOutcome(
            seed=seed, f1_micro=0.5 + 0.01 * seed, f1_macro=0.4 + 0.01 * seed,
            epsilon=1.9876543210123 if dp else None,
            moment_order=12 if dp else None,
            epochs=100 + seed, seconds=0.25, final_loss=0.9,
            errors=[seed, seed + 10]))
    agg = {"f1_micro_mean": 0.52, "f1_micro_std": 0.0158,
           "f1_macro_mean": 0.42, "f1_macro_std": 0.0158,
           "epsilon": 1.9876543210123 if dp else None, "seeds_failed": 0}
    return ResultsRecord({"kind": "B"}, seeds, agg, {"sigma": 2.0})


def test_emit_csv_shape(tmp_path):
    emit_results(fake_record(), str(tmp_path))
    rows = (tmp_path / "results.csv").read_text().splitlines()
    assert rows[0] == "seed,f1_micro,f1_macro,epsilon,epochs,seconds"
    assert len(rows) == 6
    parsed = list(csv.DictReader(rows))
    assert parsed[2]["seed"] == "2"
    assert float(parsed[2]["epsilon"]) == 1.9876543210123


def test_emit_csv_empty_epsilon_for_non_dp(tmp_path):
    emit_results(fake_record(dp=False), str(tmp_path))
    parsed = list(csv.DictReader(
        (tmp_path / "results.csv").read_text().splitlines()))
    assert all(row["epsilon"] == "" for row in parsed)


def test_emit_json_round_trip(tmp_path):
    record = fake_record()
    emit_results(record, str(tmp_path))
    loaded = json.loads((tmp_path / "results.json").read_text())
    assert loaded["config"] == {"kind": "B"}
    for want, got in zip(record.seeds, loaded["seeds"]):
        assert got["f1_micro"] == want.f1_micro  # exact, not approximate
        assert got["epsilon"] == want.epsilon
        assert got["errors"] == want.errors
    assert loaded["aggregate"]["epsilon"] == record.aggregate["epsilon"]


# ---- resolve_sigma ----

def test_resolve_sigma_non_dp_none():
    assert resolve_sigma(cfg_a().finalized()) is None


def test_resolve_sigma_passthrough():
    cfg = ExperimentConfig(kind="B", optimizer="adam-dp", sigma=7.25).finalized()
    assert resolve_sigma(cfg) == 7.25


def test_resolve_sigma_calibrates_with_lot_ratio():
    cfg = ExperimentConfig(kind="C", optimizer="adam-dp", s=4, lot_size=1,
                           target_epsilon=4.0, max_epochs=5).finalized()
    want = calibrate_noise(4.0, cfg.delta, 0.25, 5 * 4)
    assert resolve_sigma(cfg) == want


def test_resolve_sigma_full_graph_ratio_is_one():
    cfg = ExperimentConfig(kind="B", optimizer="adam-dp", target_epsilon=2.0,
                           max_epochs=100).finalized()
    want = calibrate_noise(2.0, cfg.delta, 1.0, 100)
    assert resolve_sigma(cfg) == want


# ---- run_experiment ----

def test_run_a_trains_and_reports(sbm):
    record = run_experiment(cfg_a(), dataset=sbm)
    assert record.aggregate["seeds_failed"] == 0
    assert record.aggregate["epsilon"] is None
    assert record.metadata["test_metric_at"] == "best_val"
    assert record.aggregate["f1_micro_mean"] > 0.8  # well-separated blocks
    for o in record.seeds:
        assert o.epsilon is None and o.moment_order is None
        assert 0.0 <= o.f1_micro <= 1.0
        assert o.epochs <= 30


def test_run_aggregate_recomputable(sbm):
    record = run_experiment(cfg_a(seeds=(0, 1, 2)), dataset=sbm)
    micros = np.array([o.f1_micro for o in record.seeds])
    assert record.aggregate["f1_micro_mean"] == float(micros.mean())
    assert record.aggregate["f1_micro_std"] == float(micros.std(ddof=1))
    macros = np.array([o.f1_macro for o in record.seeds])
    assert record.aggregate["f1_macro_mean"] == float(macros.mean())


def test_run_b_epsilon_matches_accountant_exactly(sbm):
    cfg = ExperimentConfig(kind="B", optimizer="adam-dp", sigma=2.0,
                           max_epochs=10, seeds=(0, 1))
    record = run_experiment(cfg, dataset=sbm)
    ledger = AccountantLedger()
    ledger.append(q=1.0, sigma=2.0, steps=10)
    want_eps, want_order = privacy_spent(ledger, 1e-5)
    for o in record.seeds:
        assert o.epsilon == want_eps
        assert o.moment_order == want_order
    assert record.aggregate["epsilon"] == want_eps
    assert record.metadata["test_metric_at"] == "final_epoch"
    assert record.metadata["sigma"] == 2.0


def test_run_c_non_dp(sbm):
    cfg = ExperimentConfig(kind="C", optimizer="adam", s=4, max_epochs=10,
                           seeds=(0,))
    record = run_experiment(cfg, dataset=sbm)
    assert record.aggregate["seeds_failed"] == 0
    assert record.aggregate["epsilon"] is None


def test_run_c_dp_with_target_epsilon(sbm):
    cfg = ExperimentConfig(kind="C", optimizer="adam-dp", s=4, lot_size=1,
                           target_epsilon=4.0, max_epochs=5, seeds=(0,))
    record = run_experiment(cfg, dataset=sbm)
    assert record.aggregate["seeds_failed"] == 0
    assert record.aggregate["epsilon"] is not None
    assert record.aggregate["epsilon"] <= 4.0
    assert record.metadata["sigma"] == pytest.approx(
        calibrate_noise(4.0, 1e-5, 0.25, 20))


@pytest.mark.filterwarnings("ignore:overflow", "ignore:divide by zero")
def test_run_c_tiny_sigma_reports_infinite_epsilon(sbm):
    # the accountant's terms overflow at this sigma; epsilon is +inf, not nan
    cfg = ExperimentConfig(kind="C", optimizer="adam-dp", s=4, lot_size=1,
                           sigma=1e-200, max_epochs=1, seeds=(0, 1))
    record = run_experiment(cfg, dataset=sbm)
    assert [o.epsilon for o in record.seeds] == [float("inf")] * 2
    assert record.aggregate["epsilon"] == float("inf")


def test_run_refuses_epsilon_above_target(sbm, monkeypatch):
    calibrated = harness_mod.calibrate_noise
    monkeypatch.setattr(harness_mod, "calibrate_noise",
                        lambda *args: calibrated(*args) / 2)
    cfg = ExperimentConfig(kind="B", optimizer="adam-dp", target_epsilon=2.0,
                           max_epochs=5, seeds=(0,))
    with pytest.raises(RuntimeError, match="exceeds target") as exc:
        run_experiment(cfg, dataset=sbm)
    assert not isinstance(exc.value, TrainingDiverged)


def test_run_rerun_bitwise_identical(sbm):
    cfg = ExperimentConfig(kind="B", optimizer="sgd-dp", sigma=4.0, lr=0.5,
                           max_epochs=15, seeds=(0, 1, 2))
    a = run_experiment(cfg, dataset=sbm)
    b = run_experiment(cfg, dataset=sbm)
    for oa, ob in zip(a.seeds, b.seeds):
        assert oa.f1_micro == ob.f1_micro
        assert oa.f1_macro == ob.f1_macro
        assert oa.epsilon == ob.epsilon
        assert oa.final_loss == ob.final_loss
        assert oa.epochs == ob.epochs
        assert oa.errors == ob.errors
    for key in ("f1_micro_mean", "f1_micro_std", "epsilon"):
        assert a.aggregate[key] == b.aggregate[key]


@pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
def test_run_divergence_is_recorded_not_raised(sbm):
    cfg = ExperimentConfig(kind="A", optimizer="sgd", lr=1e300, dropout=0.0,
                           max_epochs=50, early_stopping=False, seeds=(0, 1))
    record = run_experiment(cfg, dataset=sbm)
    assert record.aggregate["seeds_failed"] == 2
    for o in record.seeds:
        assert o.failed and o.reason
        assert o.f1_micro is None
    assert record.aggregate["f1_micro_mean"] is None

    # finite gradients whose squared norm overflows cannot be clipped
    huge = replace(sbm, features=sbm.features * 1e155)
    cfg = ExperimentConfig(kind="B", optimizer="adam-dp", sigma=1.0,
                           max_epochs=3, seeds=(0,))
    record = run_experiment(cfg, dataset=huge)
    assert record.aggregate["seeds_failed"] == 1
    assert record.seeds[0].reason == "non-finite gradient at epoch 1"


def test_run_seed_isolation(sbm, monkeypatch):
    cfg = cfg_a(max_epochs=10, seeds=(0, 1, 2))
    clean = run_experiment(cfg, dataset=sbm)
    original = harness_mod._train_single_seed

    def sabotaged(dataset, config, seed, sigma):
        if seed == 1:
            raise TrainingDiverged("injected failure")
        return original(dataset, config, seed, sigma)

    monkeypatch.setattr(harness_mod, "_train_single_seed", sabotaged)
    record = run_experiment(cfg, dataset=sbm)
    assert record.aggregate["seeds_failed"] == 1
    by_seed = {o.seed: o for o in record.seeds}
    assert by_seed[1].failed
    for seed in (0, 2):
        clean_o = next(o for o in clean.seeds if o.seed == seed)
        assert by_seed[seed].f1_micro == clean_o.f1_micro
        assert by_seed[seed].errors == clean_o.errors


def test_run_c_rejects_oversized_s(sbm):
    cfg = ExperimentConfig(kind="C", optimizer="adam", s=61, max_epochs=5)
    with pytest.raises(ConfigError):
        run_experiment(cfg, dataset=sbm)  # only 60 training nodes


def test_train_fraction_subsamples_only_train(sbm):
    cfg = cfg_a(train_fraction=0.5, seeds=(0,)).finalized()
    trainer = harness_mod._Trainer(sbm, cfg, seed=0, sigma=None)
    assert trainer.train_nodes.size == 30
    assert np.isin(trainer.train_nodes, sbm.train_nodes).all()
    record = run_experiment(cfg_a(train_fraction=0.5, seeds=(0,)), dataset=sbm)
    assert record.aggregate["seeds_failed"] == 0


def test_trainer_ledger_counts_noise_steps(sbm):
    cfg = ExperimentConfig(kind="B", optimizer="adam-dp", sigma=2.0,
                           max_epochs=10, seeds=(0,)).finalized()
    trainer = harness_mod._Trainer(sbm, cfg, seed=0, sigma=2.0)
    for epoch in range(1, 4):
        trainer.run_epoch(epoch)
    assert trainer.ledger.total_steps == 3
    assert len(trainer.ledger.records) == 1
    assert trainer.ledger.records[0].q == 1.0

    cfg_c = ExperimentConfig(kind="C", optimizer="adam-dp", s=4, lot_size=2,
                             sigma=2.0, max_epochs=10, seeds=(0,)).finalized()
    trainer_c = harness_mod._Trainer(sbm, cfg_c, seed=0, sigma=2.0)
    trainer_c.run_epoch(1)
    trainer_c.run_epoch(2)
    # two lots of 2 subgraphs per epoch, each lot one noise draw
    assert trainer_c.ledger.total_steps == 4
    assert trainer_c.ledger.records[0].q == 0.5


@pytest.mark.parametrize("kw", [
    dict(kind="A", optimizer="adam"),
    dict(kind="B", optimizer="sgd-dp", sigma=2.0),
    dict(kind="C", optimizer="adam", s=4),
    dict(kind="C", optimizer="adam-dp", s=4, lot_size=2, sigma=2.0),
])
def test_training_builds_no_sparse_matrix(sbm, monkeypatch, kw):
    # every adjacency is built with the trainer, none per step
    cfg = ExperimentConfig(max_epochs=10, seeds=(0,), **kw).finalized()
    trainer = harness_mod._Trainer(sbm, cfg, seed=0, sigma=cfg.sigma)
    built = []

    class CountingCsr(sp.csr_matrix):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(sp, "csr_matrix", CountingCsr)
    for epoch in range(1, 4):
        trainer.run_epoch(epoch)
    trainer.val_score()
    assert built == []


@pytest.mark.parametrize("kw", [
    dict(kind="A", optimizer="adam"),
    dict(kind="B", optimizer="sgd-dp", sigma=2.0),
    dict(kind="C", optimizer="adam", s=4),
    dict(kind="C", optimizer="adam-dp", s=4, lot_size=2, sigma=2.0),
])
def test_training_aggregates_features_once_per_example(sbm, monkeypatch, kw):
    # A X is computed when the trainer is built: once per example, plus once
    # for the full graph, which kinds A and B train on as their one example
    cfg = ExperimentConfig(max_epochs=10, seeds=(0,), **kw).finalized()
    products = []

    def counting(adj, dense):
        if np.shape(dense)[1] == sbm.feature_dim:
            products.append(adj.shape[0])
        return spmm(adj, dense)

    for module in (model_mod, harness_mod):
        monkeypatch.setattr(module, "spmm", counting)
    trainer = harness_mod._Trainer(sbm, cfg, seed=0, sigma=cfg.sigma)
    for epoch in range(1, 4):
        trainer.run_epoch(epoch)
    trainer.val_score()
    subgraphs = cfg.s if cfg.kind == "C" else 0
    assert len(products) == 1 + subgraphs
    assert products.count(sbm.num_nodes) == 1
    # the s subgraphs partition the training nodes
    assert sum(products) == sbm.num_nodes + (trainer.train_nodes.size if subgraphs else 0)


def test_dp_step_makes_two_sparse_products_per_example(sbm, monkeypatch):
    # forward multiplies A by H1 and backward A by G1; A X is the example's
    # cached product, so one lot of L = 2 examples makes 4 calls
    cfg = ExperimentConfig(kind="C", optimizer="adam-dp", s=2, lot_size=2,
                           sigma=2.0, max_epochs=1, seeds=(0,)).finalized()
    trainer = harness_mod._Trainer(sbm, cfg, seed=0, sigma=cfg.sigma)
    calls = []

    def counting(adj, dense):
        calls.append(adj.shape[0])
        return spmm(adj, dense)

    monkeypatch.setattr(model_mod, "spmm", counting)
    trainer.run_epoch(1)
    assert cfg.steps_per_epoch == 1
    assert len(calls) == 4


def test_kind_c_examples_hold_their_groups_rows(sbm):
    # each subgraph example carries A X for the dataset's feature rows and
    # the label rows of its group of the seed's split, in node order
    cfg = ExperimentConfig(kind="C", optimizer="adam", s=4, seeds=(0,)).finalized()
    trainer = harness_mod._Trainer(sbm, cfg, seed=0, sigma=None)
    groups = random_partition(trainer.train_nodes, cfg.s,
                              Prng(0, streams.STREAM_PARTITION))
    assert len(trainer.examples) == len(groups)
    for ex, keep in zip(trainer.examples, groups):
        assert np.array_equal(ex.ax, spmm(ex.adj, sbm.features[keep]))
        assert np.array_equal(ex.target.labels, sbm.labels[keep])


def test_cli_split_writes_the_pieces_kind_c_trains_on(sbm, tmp_path):
    # `dpgcn split` must show the split a run uses: each written piece
    # rebuilds its example bit for bit
    save_dataset(sbm, str(tmp_path / "data"))
    assert main(["split", "--dataset", str(tmp_path / "data"), "--s", "4",
                 "--seed", "3", "--out", str(tmp_path / "split")]) == 0
    cfg = ExperimentConfig(kind="C", optimizer="adam", s=4, seeds=(3,)).finalized()
    trainer = harness_mod._Trainer(load_dataset(str(tmp_path / "data")), cfg,
                                   seed=3, sigma=None)
    assert len(trainer.examples) == 4
    for k, ex in enumerate(trainer.examples):
        piece = load_dataset(str(tmp_path / "split" / f"subgraph_{k:03d}"))
        adj = normalize_adjacency(piece.graph)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(adj, part), getattr(ex.adj, part))
        assert np.array_equal(spmm(adj, piece.features), ex.ax)
        assert np.array_equal(piece.labels, ex.target.labels)
        assert np.array_equal(piece.train_nodes, ex.target.ids)


@pytest.mark.parametrize("name, fake, message", [
    ("random_partition", lambda nodes, s, rng: [nodes[:2], nodes[1:3]],
     "subgraphs share nodes"),
    # the unmasked graph keeps edges to nodes past the group's size
    ("mask_subgraph", lambda graph, keep: graph,
     "cross-subgraph edge survived masking"),
], ids=["overlapping-groups", "edge-outside-group"])
def test_split_dataset_checks_its_pieces(sbm, monkeypatch, name, fake, message):
    monkeypatch.setattr(harness_mod, name, fake)
    with pytest.raises(AssertionError, match=message):
        split_dataset(sbm, sbm.train_nodes, 4, seed=0)


@pytest.mark.parametrize("kind, optimizer, unit", [
    ("A", "adam", None),
    ("B", "adam-dp", "the whole training graph as one example"),
    ("C", "adam-dp", "one subgraph of a fixed partition"),
], ids=["A", "B", "C"])
def test_run_metadata_says_what_epsilon_covers(sbm, kind, optimizer, unit):
    dp = optimizer.endswith("-dp")
    cfg = ExperimentConfig(kind=kind, optimizer=optimizer, max_epochs=2,
                           seeds=(0,), s=4 if kind == "C" else 1,
                           sigma=2.0 if dp else None)
    meta = run_experiment(cfg, dataset=sbm).metadata
    assert meta["privacy_unit"] == unit
    assert meta["neighbouring_relation"] == ("add/remove one example" if dp else None)
    assert meta["sampler"] == ("fixed-size lots, accounted as Poisson" if dp else None)
    assert meta["versions"] == {"dpgcn": dpgcn.__version__,
                                "numpy": np.__version__,
                                "scipy": scipy.__version__}


@pytest.mark.parametrize("kind, optimizer, sigma, epochs, edge", [
    ("A", "adam", None, 2, None),
    ("B", "adam-dp", 2.0, 10, False),  # epsilon minimized at order 3
    ("B", "adam-dp", 4.0, 500, True),  # epsilon 42.76 at order 1
], ids=["A", "interior", "first-order"])
def test_run_metadata_flags_grid_edge(sbm, kind, optimizer, sigma, epochs, edge):
    cfg = ExperimentConfig(kind=kind, optimizer=optimizer, sigma=sigma,
                           max_epochs=epochs, seeds=(0, 1))
    record = run_experiment(cfg, dataset=sbm)
    assert record.metadata["grid_edge"] is edge
    if edge:
        assert record.seeds[0].moment_order == 1
        assert record.aggregate["epsilon"] == pytest.approx(42.76, abs=5e-3)


def test_dp_step_computes_one_log_softmax_per_example(sbm, monkeypatch):
    # the loss and its gradient share one masked log-softmax per example
    cfg = ExperimentConfig(kind="C", optimizer="adam-dp", s=2, lot_size=2,
                           sigma=2.0, max_epochs=1, seeds=(0,)).finalized()
    trainer = harness_mod._Trainer(sbm, cfg, seed=0, sigma=2.0)
    calls = []
    real = model_mod._log_softmax

    def counting(logits):
        calls.append(logits.shape)
        return real(logits)

    monkeypatch.setattr(model_mod, "_log_softmax", counting)
    trainer.run_epoch(1)
    assert cfg.steps_per_epoch == 1 and trainer.ledger.total_steps == 1
    assert len(calls) == 2


@pytest.mark.parametrize("kw", [
    dict(kind="A", optimizer="adam", early_stopping=False),
    dict(kind="B", optimizer="adam-dp", sigma=2.0),
], ids=["A", "B"])
def test_run_without_early_stopping_needs_no_validation_nodes(sbm, kw):
    # the trainer builds the validation target on first use, and only
    # early stopping uses it
    no_val = replace(sbm, val_nodes=np.array([], dtype=np.int64))
    record = run_experiment(ExperimentConfig(max_epochs=2, seeds=(0,), **kw),
                            dataset=no_val)
    assert record.aggregate["seeds_failed"] == 0
    with pytest.raises(ConfigError, match="no validation nodes"):
        run_experiment(cfg_a(max_epochs=2, seeds=(0,)), dataset=no_val)


def test_trainer_non_dp_keeps_empty_ledger(sbm):
    cfg = cfg_a(seeds=(0,)).finalized()
    trainer = harness_mod._Trainer(sbm, cfg, seed=0, sigma=None)
    trainer.run_epoch(1)
    assert trainer.ledger.total_steps == 0


def test_bench_bound_names_resolve():
    # perfbench/spans.py wraps these names where their callers look them up;
    # a refactor that drops one leaves the benchmark's trace without it
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for module, attr_path, *_ in spans.TARGETS:
        owner = importlib.import_module(module)
        for part in attr_path.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}:{attr_path}")
    assert spans.TARGETS and not missing, missing


def test_dp_step_shape_per_example_and_per_lot(sbm, monkeypatch):
    # one kind-C DP epoch: forward, loss, backward and clipping once per
    # example, the lot draw, noise and optimizer step once per lot, and no
    # example's target checked again; the benchmark's per-layer metrics
    # read these names
    cfg = ExperimentConfig(kind="C", optimizer="adam-dp", s=4, lot_size=2,
                           sigma=2.0, max_epochs=1, seeds=(0,)).finalized()
    trainer = harness_mod._Trainer(sbm, cfg, seed=0, sigma=2.0)
    calls = Counter()

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("forward", "masked_cross_entropy", "backward",
                 "noisy_lot_gradient", "adam_step", "sample_lot"):
        counting(harness_mod, name)
    counting(dp_mod, "clip_gradient")
    counting(model_mod, "_masked_labels")
    real_of = model_mod.Target.of.__func__
    monkeypatch.setattr(model_mod.Target, "of", classmethod(
        lambda cls, *args: calls.update(["Target.of"]) or real_of(cls, *args)))
    trainer.run_epoch(1)
    lots = cfg.steps_per_epoch
    assert lots == 2
    examples = lots * cfg.lot_size
    assert calls["Target.of"] == calls["_masked_labels"] == 0
    assert calls == Counter(
        forward=examples, masked_cross_entropy=examples, backward=examples,
        clip_gradient=examples, noisy_lot_gradient=lots, adam_step=lots,
        sample_lot=lots)


FINGERPRINT = """
import json
from dpgcn.harness import host_fingerprint
print(json.dumps(host_fingerprint()))
"""


def run_in_child(script: str, *args: str, **settings) -> str:
    """A script's stdout from a fresh process with the given settings and no
    other OPENBLAS_ variable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"),
                    os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", script, *args], env=env | settings,
                         capture_output=True, text=True, timeout=60, check=True)
    return out.stdout


def fingerprint_in_child(**settings) -> dict:
    return json.loads(run_in_child(FINGERPRINT, **settings))


def test_fingerprint_records_the_blas_kernel_and_threads():
    # the BLAS kernel and thread count change trained bits, so results.json
    # must record what a process's environment chose
    if fingerprint_in_child()["blas_core"] is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    assert fingerprint_in_child(OPENBLAS_NUM_THREADS="1")["blas_threads"] == 1
    assert fingerprint_in_child(OPENBLAS_CORETYPE="Haswell")["blas_core"] == "Haswell"


def test_run_metadata_records_the_fingerprint(sbm):
    meta = run_experiment(cfg_a(max_epochs=1, seeds=(0,)), dataset=sbm).metadata
    fingerprint = meta["fingerprint"]
    with harness_mod.one_blas_thread():  # the count training ran at
        assert fingerprint == harness_mod.host_fingerprint()
    assert set(fingerprint) == {"numpy_simd", "blas_core", "blas_threads",
                                "blas_config"}
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    assert fingerprint["numpy_simd"] == [
        t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    assert json.loads(json.dumps(meta)) == meta


RESULTS = """
import os, sys
from dpgcn.data import SynthSpec, generate_synthetic
from dpgcn.harness import ExperimentConfig, emit_results, run_experiment
reddit = generate_synthetic(SynthSpec((10,) * 41, 0.30, 0.002, 602, 1.5, seed=11))
for kind, cfg in (("A", ExperimentConfig(kind="A", optimizer="adam", seeds=(0, 1))),
                  ("B", ExperimentConfig(kind="B", optimizer="adam-dp", sigma=4.0,
                                         max_epochs=5, seeds=(0,)))):
    emit_results(run_experiment(cfg, dataset=reddit), os.path.join(sys.argv[1], kind))
"""


def test_trained_bits_ignore_the_blas_thread_count(tmp_path):
    # criterion 8's reddit shape. Kind A with early stopping: trained at the
    # caller's count, these seeds differ between 1 and 2 BLAS threads. Kind
    # B, DP: on a second CPU, its first-layer products split across two
    # threads and its noise is drawn ahead
    if harness_mod._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")

    def results(name, script=RESULTS, **settings):
        run_in_child(script, str(tmp_path / name), **settings)
        records = []
        for kind in ("A", "B"):
            record = json.loads((tmp_path / name / kind / "results.json").read_text())
            for seed in record["seeds"]:
                seed.pop("seconds")
            records.append(record)
        return records

    one = results("1", OPENBLAS_NUM_THREADS="1")
    assert one == results("2", OPENBLAS_NUM_THREADS="2")
    assert one[0]["metadata"]["fingerprint"]["blas_threads"] == 1
    assert one[1]["aggregate"]["seeds_failed"] == 0
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    if len(cpus) < 2:
        pytest.skip("no affinity call, or no second CPU to leave out")
    # pinned to one CPU, before numpy loads: no worker, halves in turn
    pin = f"import os\nos.sched_setaffinity(0, {{{cpus[0]}}})\n"
    assert results("pinned", pin + RESULTS) == one


# ---- noise drawn one epoch ahead ----

@pytest.fixture(scope="module")
def wide():
    # feature_dim 256 at hidden 64: 16,576 parameters, a read-ahead epoch
    return generate_synthetic(
        SynthSpec((40, 40, 40), 0.15, 0.02, feature_dim=256, feature_shift=2.0,
                  seed=3))


WIDE_RUNS = {
    "B": dict(kind="B", optimizer="adam-dp", sigma=2.0, hidden=64,
              max_epochs=4, seeds=(0, 1)),
    "C": dict(kind="C", optimizer="sgd-dp", s=8, lot_size=2, sigma=2.0,
              lr=0.5, hidden=64, max_epochs=3, seeds=(2,)),
}


@pytest.fixture
def streams_built(monkeypatch):
    """Forces an idle core and lists each noise stream built: "ahead" for a
    ReadAheadNormals, "plain" for a Prng."""
    built, alive = [], []

    class Recorded(harness_mod.ReadAheadNormals):
        def __init__(self, *args):
            super().__init__(*args)
            built.append("ahead")
            # held, so a stream nobody closed keeps its worker thread
            alive.append(self)

    real_prng = harness_mod.Prng

    def prng(seed, stream=0):
        if stream == streams.STREAM_NOISE:
            built.append("plain")
        return real_prng(seed, stream)

    monkeypatch.setattr(harness_mod, "_idle_core", lambda: True)
    monkeypatch.setattr(harness_mod, "ReadAheadNormals", Recorded)
    monkeypatch.setattr(harness_mod, "Prng", prng)
    return built


def without_seconds(record) -> dict:
    out = asdict(record)
    for seed in out["seeds"]:
        seed.pop("seconds")
    return out


@pytest.mark.parametrize("kind", sorted(WIDE_RUNS))
def test_read_ahead_noise_trains_the_same_bits(wide, streams_built, monkeypatch,
                                               kind):
    cfg = ExperimentConfig(**WIDE_RUNS[kind])
    ahead = without_seconds(run_experiment(cfg, dataset=wide))
    monkeypatch.setattr(harness_mod, "_idle_core", lambda: False)
    plain = without_seconds(run_experiment(cfg, dataset=wide))
    seeds = len(cfg.seeds)
    assert streams_built == ["ahead"] * seeds + ["plain"] * seeds
    assert ahead == plain
    assert ahead["aggregate"]["seeds_failed"] == 0


@pytest.mark.filterwarnings("ignore:overflow")
def test_read_ahead_worker_ends_with_every_run(wide, streams_built):
    before = threading.active_count()
    run_experiment(ExperimentConfig(**WIDE_RUNS["C"]), dataset=wide)
    assert threading.active_count() == before
    # Adam's second moment overflows at the first step, in epoch 1 of 4
    diverged = run_experiment(ExperimentConfig(**dict(
        WIDE_RUNS["B"], sigma=1e300, seeds=(0,))), dataset=wide)
    assert diverged.seeds[0].reason == "non-finite optimizer state at epoch 1"
    assert threading.active_count() == before
    assert streams_built == ["ahead"] * 2


@pytest.mark.filterwarnings("ignore:overflow")
def test_run_restores_the_callers_blas_thread_count(sbm, wide, monkeypatch):
    lib = harness_mod._openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    threads = lib.scipy_openblas_get_num_threads64_
    before = threads()
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        record = run_experiment(cfg_a(max_epochs=1, seeds=(0,)), dataset=sbm)
        assert record.metadata["fingerprint"]["blas_threads"] == 1
        assert threads() == 2
        diverged = run_experiment(ExperimentConfig(**dict(
            WIDE_RUNS["B"], sigma=1e300, seeds=(0,))), dataset=wide)
        assert diverged.seeds[0].reason == "non-finite optimizer state at epoch 1"
        assert threads() == 2
        calibrated = harness_mod.calibrate_noise
        monkeypatch.setattr(harness_mod, "calibrate_noise",
                            lambda *args: calibrated(*args) / 2)
        with pytest.raises(RuntimeError, match="exceeds target"):
            run_experiment(ExperimentConfig(kind="B", optimizer="adam-dp",
                                            target_epsilon=2.0, max_epochs=5,
                                            seeds=(0,)), dataset=sbm)
        assert threads() == 2
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def test_trainer_reads_noise_ahead_only_where_it_pays(sbm, wide, monkeypatch):
    def stream(dataset, idle, **kw):
        monkeypatch.setattr(harness_mod, "_idle_core", lambda: idle)
        cfg = ExperimentConfig(**dict(WIDE_RUNS["B"], **kw)).finalized()
        trainer = harness_mod._Trainer(dataset, cfg, seed=0, sigma=cfg.sigma)
        trainer.close()
        return type(trainer.rng_noise)

    assert stream(wide, True) is harness_mod.ReadAheadNormals
    assert stream(wide, False) is Prng  # BLAS uses every CPU
    # feature_dim 8: 8 * 64 + 64 * 2 = 640 draws an epoch
    assert stream(sbm, True) is Prng
    # 4 lots of 530,432 draws: past the 2^21 cap on each buffer
    assert stream(wide, True, kind="C", s=8, lot_size=2, hidden=2048) is Prng


# ---- first-layer products split across a worker thread ----

@pytest.fixture(scope="module")
def reddit():
    # criterion 8's reddit shape: 410 x 602 at hidden 32, 7.5 Mi multiply-adds
    return generate_synthetic(SynthSpec((10,) * 41, 0.30, 0.002, 602, 1.5, seed=11))


def product_threads() -> list:
    return [t for t in threading.enumerate() if t.name.startswith("dpgcn-product")]


def test_trainer_splits_on_a_worker_only_where_it_pays(sbm, reddit, monkeypatch):
    def has_worker(dataset, idle, **kw):
        monkeypatch.setattr(harness_mod, "_idle_core", lambda: idle)
        cfg = ExperimentConfig(**dict(WIDE_RUNS["B"], hidden=32, **kw)).finalized()
        trainer = harness_mod._Trainer(dataset, cfg, seed=0, sigma=cfg.sigma)
        built = trainer.worker is not None
        trainer.close()
        assert trainer.worker is None
        return built

    assert has_worker(reddit, True)
    assert not has_worker(reddit, False)  # BLAS uses every CPU
    # lots-reddit's examples: 8 subgraphs of about 51 nodes, 0.6 Mi each
    assert not has_worker(reddit, True, kind="C", s=8, lot_size=2)
    assert not has_worker(sbm, True)


def test_no_thread_where_none_pays():
    # sbm500, kind C: every product below the cutoff, and 6,720 draws an
    # epoch, too few to draw ahead
    sbm500 = generate_synthetic(SynthSpec((100,) * 5, 0.10, 0.01, 16, 1.0, seed=1))
    before = threading.active_count()
    record = run_experiment(ExperimentConfig(
        kind="C", optimizer="adam-dp", s=10, lot_size=1, sigma=2.0,
        max_epochs=3, seeds=(0,)), dataset=sbm500)
    assert record.aggregate["seeds_failed"] == 0
    assert threading.active_count() == before


@pytest.mark.filterwarnings("ignore:overflow")
def test_product_worker_ends_with_every_run(reddit, monkeypatch):
    monkeypatch.setattr(harness_mod, "_idle_core", lambda: True)
    seen = []
    real_forward = harness_mod.forward

    def forward(*args, **kwargs):
        seen.append(len(product_threads()))
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(harness_mod, "forward", forward)
    before = threading.active_count()
    cfg = dict(kind="B", optimizer="adam-dp", sigma=4.0, max_epochs=3, seeds=(0,))
    run_experiment(ExperimentConfig(**cfg), dataset=reddit)
    assert max(seen) == 1 and not product_threads()
    assert threading.active_count() == before
    diverged = run_experiment(ExperimentConfig(**dict(cfg, sigma=1e300)),
                              dataset=reddit)
    assert diverged.seeds[0].reason == "non-finite optimizer state at epoch 1"
    assert not product_threads()
    assert threading.active_count() == before


def test_idle_core_needs_both_counts(monkeypatch):
    if harness_mod._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS was not found")
    threads = harness_mod._openblas().scipy_openblas_get_num_threads64_()
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(threads + 1)))
    assert harness_mod._idle_core()
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: set(range(threads)))
    assert not harness_mod._idle_core()
    monkeypatch.setattr(harness_mod, "_openblas", lambda: None)
    monkeypatch.setattr(os, "sched_getaffinity", lambda _pid: {0, 1, 2, 3})
    assert not harness_mod._idle_core()


@pytest.mark.filterwarnings("ignore:overflow")
@pytest.mark.parametrize("kw", [
    dict(kind="B"),
    dict(kind="C", s=6, lot_size=2),
])
def test_run_fails_a_seed_whose_optimizer_state_overflows(sbm, kw):
    # sigma C = 1e300: the squared noise overflows Adam's v to inf, every
    # update is then 0 and the weights never move from their initial values
    cfg = ExperimentConfig(optimizer="adam-dp", sigma=1e300, max_epochs=3,
                           seeds=(0,), **kw)
    record = run_experiment(cfg, dataset=sbm)
    assert record.seeds[0].failed
    assert record.seeds[0].reason == "non-finite optimizer state at epoch 1"
    assert record.aggregate["seeds_failed"] == 1


def test_run_fails_a_seed_whose_logits_overflow(sbm):
    # one sgd step at sigma C = 1e300 leaves finite weights of about 3e298,
    # too large for the forward pass: every test logit is non-finite
    cfg = ExperimentConfig(kind="B", optimizer="sgd-dp", sigma=1e300,
                           max_epochs=1, seeds=(0,))
    record = run_experiment(cfg, dataset=sbm)
    assert record.seeds[0].failed and record.seeds[0].f1_micro is None
    assert record.seeds[0].reason == "non-finite logits at epoch 1"


@pytest.mark.parametrize("optimizer,epochs,reason", [
    ("adam-dp", 3, "non-finite optimizer state at epoch 1"),
    ("sgd-dp", 3, "non-finite loss at epoch 2"),
    ("sgd-dp", 1, "non-finite logits at epoch 1"),
])
def test_diverging_seeds_warn_of_nothing(sbm, optimizer, epochs, reason):
    before = np.geterr()
    cfg = ExperimentConfig(kind="B", optimizer=optimizer, sigma=1e300,
                           max_epochs=epochs, seeds=(0, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = run_experiment(cfg, dataset=sbm)
    assert [(o.failed, o.reason) for o in record.seeds] == [(True, reason)] * 2
    assert np.geterr() == before  # the process-wide setting is untouched
