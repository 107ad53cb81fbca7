"""Experiment driver: every kind trains on a list of examples.

An example is a graph, its aggregated features A X and the target: the
nodes whose loss counts and their labels, both built once per seed. Kinds A
(non-private) and B (DP, q = 1) have one: the full graph with the training
nodes as mask. Kind C has s, the disjoint induced subgraphs of a random
split of the training nodes. Non-DP training sweeps the examples in random
order, one step each; DP training samples lots of lot_size examples, one
noised step per lot.
"""

from __future__ import annotations

import ctypes
import glob
import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from functools import cache, cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from . import rng as streams
from .accounting import AccountantLedger, calibrate_noise, privacy_spent
from .data import Dataset, load_dataset
from .dp import (AdamState, DpNoiseSpec, adam_step, noisy_lot_gradient,
                 sample_lot, sgd_step)
from .graph import mask_subgraph, normalize_adjacency, random_partition, spmm
from .model import (SPLIT_MACS, GcnParams, Metrics, Target, backward,
                    evaluate, forward, init_params, macro_f1,
                    masked_cross_entropy, masked_log_probs)
from .rng import Prng, ReadAheadNormals

if TYPE_CHECKING:
    import scipy.sparse as sp

_OPTIMIZERS = ("sgd", "adam", "sgd-dp", "adam-dp")


class ConfigError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str = ""
    kind: str = "A"
    optimizer: str = "adam"
    lr: float = 0.01
    max_epochs: int | None = None       # default 2000 for sgd*, 500 for adam*
    early_stopping: bool | None = None  # default on for non-DP, off for DP
    patience: int = 20
    dropout: float = 0.5
    hidden: int = 32
    clip_norm: float = 1.0
    sigma: float | None = None
    target_epsilon: float | None = None
    delta: float = 1e-5
    s: int = 1
    lot_size: int | None = None         # default s
    train_fraction: float = 1.0
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)

    @property
    def is_dp(self) -> bool:
        return self.optimizer.endswith("-dp")

    def finalized(self) -> "ExperimentConfig":
        """Fill defaults and validate; raises ConfigError on bad configs."""
        if self.kind not in ("A", "B", "C"):
            raise ConfigError(f"unknown kind '{self.kind}'")
        if self.optimizer not in _OPTIMIZERS:
            raise ConfigError(f"unknown optimizer '{self.optimizer}'")
        cfg = replace(
            self,
            max_epochs=self.max_epochs if self.max_epochs is not None
            else (500 if self.optimizer.startswith("adam") else 2000),
            early_stopping=self.early_stopping if self.early_stopping is not None
            else not self.is_dp,
            lot_size=self.lot_size if self.lot_size is not None else self.s,
        )
        if cfg.kind == "A" and cfg.is_dp:
            raise ConfigError("kind A is non-private; use sgd or adam")
        if cfg.kind == "B" and not cfg.is_dp:
            raise ConfigError("kind B needs a DP optimizer")
        if cfg.kind != "C" and (cfg.s != 1 or cfg.lot_size != 1):
            raise ConfigError(f"kind {cfg.kind} trains on the full graph; "
                              "s and lot_size must be 1")
        if cfg.kind == "C" and cfg.s < 2:
            raise ConfigError("kind C needs s >= 2 subgraphs")
        if cfg.is_dp:
            if (cfg.sigma is None) == (cfg.target_epsilon is None):
                raise ConfigError("DP runs need exactly one of sigma, target_epsilon")
            if cfg.sigma is not None and not 0 < cfg.sigma < math.inf:
                raise ConfigError("sigma must be positive and finite")
            if cfg.target_epsilon is not None and not 0 < cfg.target_epsilon < math.inf:
                raise ConfigError("target_epsilon must be positive and finite")
            if cfg.early_stopping:  # picks a snapshot by validation F1
                raise ConfigError("DP runs cannot stop early: model selection "
                                  "on validation F1 lies outside epsilon")
        elif cfg.sigma is not None or cfg.target_epsilon is not None:
            raise ConfigError("sigma/target_epsilon only apply to DP optimizers")
        if not 0 < cfg.lr < math.inf:
            raise ConfigError("lr must be positive and finite")
        if cfg.max_epochs < 1 or cfg.patience < 1 or cfg.hidden < 1:
            raise ConfigError("max_epochs, patience, hidden must be positive")
        if not 0.0 <= cfg.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if not 0 < cfg.clip_norm < math.inf:
            raise ConfigError("clip_norm must be positive and finite")
        if not 0.0 < cfg.train_fraction <= 1.0:
            raise ConfigError("train_fraction must be in (0, 1]")
        if not 1 <= cfg.lot_size <= cfg.s:
            raise ConfigError("lot_size must be in [1, s]")
        if not cfg.is_dp and cfg.lot_size != cfg.s:
            raise ConfigError("non-DP runs take one step per example; "
                              "lot_size must equal s")
        if not 0 < cfg.delta < 1:
            raise ConfigError("delta must be in (0, 1)")
        if not cfg.seeds or min(cfg.seeds) < 0:
            raise ConfigError("need at least one seed, none negative")
        return cfg

    @property
    def steps_per_epoch(self) -> int:
        return max(1, self.s // (self.lot_size or self.s)) if self.is_dp else 1


_BOOL_TOKENS = {"on": True, "off": False, "true": True, "false": False}
_CONFIG_PARSERS = {f.name: float for f in fields(ExperimentConfig)} | {
    "dataset": str, "kind": str, "optimizer": str,
    "early_stopping": lambda value: _BOOL_TOKENS[value.lower()],
    "seeds": lambda value: tuple(int(tok) for tok in value.split(",")),
    "max_epochs": int, "patience": int, "hidden": int, "s": int, "lot_size": int}


def parse_key_values(text: str, parsers: dict) -> dict:
    """{key: parsers[key](value)} from key=value lines; '#' starts a comment.

    The one reader of configs and synth specs: a line without '=', an
    unknown or repeated key, or a value its parser rejects is a ConfigError
    naming the line.
    """
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got '{raw}'")
        key, _, value = (tok.strip() for tok in line.partition("="))
        if key not in parsers:
            raise ConfigError(f"line {lineno}: unknown key '{key}'")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        try:
            values[key] = parsers[key](value)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"line {lineno}: bad value for '{key}': {value}") from exc
    return values


def parse_config_text(text: str) -> ExperimentConfig:
    """Flat key=value config, one line per ExperimentConfig field."""
    return ExperimentConfig(**parse_key_values(text, _CONFIG_PARSERS))


def load_config(path: str) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def early_stop_check(history, patience: int) -> tuple[bool, int]:
    """(stop now, best epoch) for a 1-indexed validation history.

    Stops once the best epoch lies patience or more epochs in the past;
    ties keep the first occurrence.
    """
    if patience < 1:
        raise ValueError("patience must be positive")
    scores = np.asarray(list(history), dtype=np.float64)
    if scores.size == 0:
        raise ValueError("empty validation history")
    best = int(np.argmax(scores)) + 1
    return scores.size - best >= patience, best


def hard_case_overlap(errors, baseline_errors) -> float:
    """|errors intersect baseline| / |baseline|."""
    base = set(int(i) for i in baseline_errors)
    if not base:
        raise ValueError("empty baseline error set")
    return len(base & set(int(i) for i in errors)) / len(base)


@dataclass
class SeedOutcome:
    seed: int
    f1_micro: float | None = None
    f1_macro: float | None = None
    epsilon: float | None = None
    moment_order: int | None = None
    epochs: int = 0
    seconds: float = 0.0
    final_loss: float | None = None
    failed: bool = False
    reason: str = ""
    errors: list[int] = field(default_factory=list)


@dataclass
class ResultsRecord:
    config: dict
    seeds: list[SeedOutcome]
    aggregate: dict
    metadata: dict


@dataclass(frozen=True)
class Example:
    """A graph, ax = adj @ features and the target, the nodes whose loss
    counts; all three stay fixed for the whole run."""

    adj: sp.csr_matrix
    ax: np.ndarray
    target: Target

    @classmethod
    def of(cls, dataset: Dataset, nodes) -> "Example":
        """The dataset's whole graph, with nodes as the target."""
        adj = normalize_adjacency(dataset.graph)
        return cls(adj, spmm(adj, dataset.features),
                   Target.of(dataset.labels, nodes, dataset.num_classes))


def split_dataset(dataset: Dataset, nodes, s: int, seed: int) -> list:
    """The seed's random split of nodes into s disjoint induced subgraphs:
    one (global ids, piece) pair each, piece a Dataset whose nodes are all
    training nodes, node i being global ids[i]. Kind C trains on the pieces
    and `dpgcn split` writes them."""
    pieces = []
    seen = np.zeros(dataset.num_nodes, dtype=bool)
    none = np.empty(0, dtype=np.int64)
    groups = random_partition(nodes, s, Prng(seed, streams.STREAM_PARTITION))
    for k, keep in enumerate(groups):
        if seen[keep].any():
            raise AssertionError("subgraphs share nodes")
        seen[keep] = True
        graph = mask_subgraph(dataset.graph, keep)
        # every stored edge must stay inside the subgraph's node set
        if graph.indices.size and graph.indices.max() >= keep.size:
            raise AssertionError("cross-subgraph edge survived masking")
        pieces.append((keep, Dataset(
            f"{dataset.name}-sub{k:03d}", graph, dataset.features[keep],
            dataset.labels[keep], np.arange(keep.size, dtype=np.int64), none,
            none, dataset.num_classes, dataset.feature_kind)))
    return pieces


def _training_count(cfg: ExperimentConfig, available: int) -> int:
    """How many of the dataset's training nodes each seed trains on."""
    return max(1, int(round(cfg.train_fraction * available)))


def _require_finite(value: float, what: str, epoch: int) -> None:
    if not math.isfinite(value):
        raise TrainingDiverged(f"non-finite {what} at epoch {epoch}")


class _Trainer:
    """One seed's training state; every kind trains on ``self.examples``."""

    def __init__(self, dataset: Dataset, cfg: ExperimentConfig, seed: int,
                 plan: AccountantLedger | None):
        self.ds, self.cfg, self.seed = dataset, cfg, seed
        self.record = plan.records[0] if plan else None  # every noised step's q, sigma
        self.rng_drop = Prng(seed, streams.STREAM_DROPOUT)
        self.rng_lot = Prng(seed, streams.STREAM_LOT)
        nodes = dataset.train_nodes
        if cfg.train_fraction < 1.0:
            pick = Prng(seed, streams.STREAM_SUBSAMPLE).sample_without_replacement
            nodes = nodes[pick(nodes.size, _training_count(cfg, nodes.size))]
        self.train_nodes = nodes
        try:
            self.params = init_params(dataset.feature_dim, cfg.hidden,
                                      dataset.num_classes, Prng(seed, streams.STREAM_INIT))
        except (MemoryError, ValueError) as exc:  # sizes no array can hold
            raise ConfigError(
                f"cannot build weights for feature_dim={dataset.feature_dim}, "
                f"hidden={cfg.hidden}, num_classes={dataset.num_classes}: {exc}") from None
        self.adam = AdamState.zeros(self.params.flat.size) \
            if cfg.optimizer.startswith("adam") else None
        self.noise = DpNoiseSpec(cfg.clip_norm, self.record.sigma) if plan else None
        self.ledger = AccountantLedger()
        # the full graph: validation and test, and kinds A and B's one example
        self.full = Example.of(dataset, nodes)
        self.examples = [Example.of(piece, piece.train_nodes) for _, piece
                         in split_dataset(dataset, nodes, cfg.s, seed)] \
            if cfg.kind == "C" else [self.full]
        self.test = Target.of(dataset.labels, dataset.test_nodes,
                              dataset.num_classes)
        dim = self.params.flat.size
        # the noise of an epoch of at least 2^14 draws is drawn one epoch
        # ahead (smaller ones lose more to GIL hand-offs than they gain), of
        # at most 2^21 (at most two epochs' chunks are held, 16 MB each)
        ahead = cfg.is_dp and 2 ** 14 <= cfg.steps_per_epoch * dim <= 2 ** 21
        split = max(ex.ax.size for ex in self.examples) * cfg.hidden >= SPLIT_MACS
        # one thread, where a use pays and a CPU is idle (else it slows
        # BLAS): the read-ahead and the first halves of split products share
        # it in turn, first in first out, and neither changes a bit
        self.worker = None
        if (ahead or split) and _idle_core():
            from concurrent.futures import ThreadPoolExecutor  # 9 ms: import late
            # nothing after this can raise and leave the thread running
            self.worker = ThreadPoolExecutor(1, thread_name_prefix="dpgcn-worker")
        self.rng_noise = ReadAheadNormals(
            seed, streams.STREAM_NOISE, dim, cfg.steps_per_epoch,
            cfg.max_epochs, self.worker) if ahead and self.worker is not None \
            else Prng(seed, streams.STREAM_NOISE)

    def close(self) -> None:
        """Stop the worker thread; later products run their halves in turn."""
        if self.worker is not None:
            # cancels a noise chunk not yet begun, and waits for one begun
            self.worker.shutdown(cancel_futures=True)
            self.worker = None

    def _gradient(self, k: int, epoch: int) -> np.ndarray:
        ex = self.examples[k]
        trace = forward(self.params, ex.adj, ax=ex.ax, dropout=self.cfg.dropout,
                        rng=self.rng_drop, worker=self.worker)
        log_probs = masked_log_probs(trace.logits, ex.target)
        loss = masked_cross_entropy(ex.target, log_probs=log_probs)
        _require_finite(loss, "loss", epoch)
        self.last_loss = loss
        grad = backward(trace, ex.target, log_probs=log_probs, worker=self.worker)
        # a NaN or inf entry, or a squared norm past the float range, which
        # clip_gradient would reject
        _require_finite(float(grad.dot(grad)), "gradient", epoch)
        return grad

    def _step(self, grad: np.ndarray) -> None:
        if self.adam is not None:
            adam_step(self.adam, self.params.flat, grad, self.cfg.lr)
        else:
            sgd_step(self.params.flat, grad, self.cfg.lr)

    def run_epoch(self, epoch: int) -> None:
        cfg, n = self.cfg, len(self.examples)
        if not cfg.is_dp:
            for k in self.rng_lot.permutation(n):
                self._step(self._gradient(int(k), epoch))
        else:
            for _ in range(cfg.steps_per_epoch):
                lot = sample_lot(n, cfg.lot_size, self.rng_lot)
                grads = [self._gradient(int(k), epoch) for k in lot]
                grad = noisy_lot_gradient(grads, self.noise, self.rng_noise)
                self.ledger.append(self.record.q, self.record.sigma)
                self._step(grad)
        if self.adam is not None:
            # v >= 0, so its max is finite only if every entry is: an
            # infinite v zeroes every update, and the weights stop moving
            _require_finite(float(self.adam.v.max()), "optimizer state", epoch)

    def metrics(self, params: GcnParams, target: Target) -> Metrics:
        """params scored on the target's nodes of the full graph."""
        return evaluate(params, self.full.adj, target, ax=self.full.ax,
                        worker=self.worker)

    @cached_property
    def val(self) -> Target:
        """The validation nodes, built on first use: early stopping needs
        them, and without it an empty validation set is legal."""
        return Target.of(self.ds.labels, self.ds.val_nodes, self.ds.num_classes)

    def val_score(self) -> float:
        return self.metrics(self.params, self.val).micro_f1


def _train_single_seed(dataset: Dataset, cfg: ExperimentConfig, seed: int,
                       plan: AccountantLedger | None) -> SeedOutcome:
    """The seed's outcome; a diverging seed fails with its reason, the
    epoch the reason names and the time it ran."""
    start = time.perf_counter()
    trainer = _Trainer(dataset, cfg, seed, plan)
    history: list[float] = []
    best_params = None

    def ended(**results) -> SeedOutcome:
        return SeedOutcome(seed=seed, epochs=epoch,
                           seconds=time.perf_counter() - start, **results)

    try:
        for epoch in range(1, cfg.max_epochs + 1):  # max_epochs >= 1: epoch is bound
            trainer.run_epoch(epoch)
            if cfg.early_stopping:
                history.append(trainer.val_score())
                stop, best = early_stop_check(history, cfg.patience)
                if best == len(history):
                    best_params = trainer.params.copy()
                if stop:
                    break
    except TrainingDiverged as exc:
        return ended(failed=True, reason=str(exc))
    finally:
        trainer.close()
    if plan and trainer.ledger != plan:  # steps the claim does not cover
        raise AssertionError("the seed's ledger differs from the privacy plan")
    eval_params = trainer.params if best_params is None else best_params
    metrics = trainer.metrics(eval_params, trainer.test)
    if not metrics.finite:  # weights too large for the forward pass
        return ended(failed=True, reason=f"non-finite logits at epoch {epoch}")
    return ended(f1_micro=metrics.micro_f1, f1_macro=macro_f1(metrics.confusion),
                 final_loss=trainer.last_loss,
                 errors=[int(i) for i in metrics.errors])


def plan_privacy(cfg: ExperimentConfig) -> AccountantLedger | None:
    """The ledger every seed of a DP config composes, None if non-DP: one
    record of q = lot_size / s, sigma (given or calibrated) and all
    max_epochs * steps_per_epoch steps, as DP runs never stop early. The
    config is finalized first, so a bad one is a ConfigError."""
    cfg = cfg.finalized()
    if not cfg.is_dp:
        return None
    q, steps = cfg.lot_size / cfg.s, cfg.max_epochs * cfg.steps_per_epoch
    try:  # a given sigma is positive, so `or` keeps it
        sigma = cfg.sigma or calibrate_noise(cfg.target_epsilon, cfg.delta, q, steps)
    except ValueError as exc:  # a target no noise multiplier up to 1e6 reaches
        raise ConfigError(str(exc)) from exc
    plan = AccountantLedger()
    plan.append(q, sigma, steps)
    return plan


@cache
def _openblas():
    """numpy's bundled OpenBLAS, already loaded by numpy (None if absent)."""
    found = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs",
                                   "libscipy_openblas64_*.so"))
    try:
        lib = ctypes.CDLL(found[0])
        for name, argtypes, restype in (("get_corename", [], ctypes.c_char_p),
                                        ("get_config", [], ctypes.c_char_p),
                                        ("get_num_threads", [], ctypes.c_int),
                                        ("set_num_threads", [ctypes.c_int], None)):
            fn = getattr(lib, f"scipy_openblas_{name}64_")
            fn.argtypes, fn.restype = argtypes, restype
    except (IndexError, OSError, AttributeError):
        return None
    return lib


@contextmanager
def one_blas_thread():
    """numpy's OpenBLAS at one thread in the block, the caller's count after."""
    lib = _openblas()
    if lib is None:
        yield
        return
    before = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(before)


def _idle_core() -> bool:
    """Whether this process may run on more CPUs than BLAS has threads
    (False where either count cannot be read)."""
    lib = _openblas()
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return False
    return lib is not None and cpus > lib.scipy_openblas_get_num_threads64_()


def host_fingerprint() -> dict:
    """What trained bits depend on besides the versions: the dispatched
    numpy SIMD targets the host enables, and the BLAS kernel, thread count
    and build; each None where it cannot be read."""
    try:
        from numpy._core import _multiarray_umath as umath
        simd = [t for t in umath.__cpu_dispatch__ if umath.__cpu_features__.get(t)]
    except (ImportError, AttributeError):
        simd = None
    lib = _openblas()

    def blas(name):
        return None if lib is None else getattr(lib, f"scipy_openblas_get_{name}64_")()

    core, config = blas("corename"), blas("config")
    return {"numpy_simd": simd, "blas_core": core and core.decode(),
            "blas_threads": blas("num_threads"),
            "blas_config": config and config.decode()}


def run_experiment(config: ExperimentConfig,
                   dataset: Dataset | None = None) -> ResultsRecord:
    """Train every seed, aggregate, and report; divergence is per-seed."""
    cfg = config.finalized()
    if dataset is None:
        dataset = load_dataset(cfg.dataset)
    if dataset.train_nodes.size == 0:
        raise ConfigError(f"dataset '{dataset.name}' has no training nodes")
    if dataset.test_nodes.size == 0:
        raise ConfigError(f"dataset '{dataset.name}' has no test nodes")
    if cfg.early_stopping and dataset.val_nodes.size == 0:
        raise ConfigError(f"dataset '{dataset.name}' has no validation nodes "
                          "for early stopping")
    usable = _training_count(cfg, dataset.train_nodes.size)
    if cfg.kind == "C" and cfg.s > usable:
        raise ConfigError(f"s={cfg.s} exceeds the {usable} usable training nodes")
    plan = plan_privacy(cfg)  # the claim fails closed, before any seed trains
    eps, order = privacy_spent(plan, cfg.delta) if plan else (None, None)
    if plan and not (math.isfinite(eps) and eps <= (cfg.target_epsilon or math.inf)):
        raise ConfigError(f"epsilon {eps} of {plan.records[0]} exceeds " + (
            f"target {cfg.target_epsilon}" if cfg.target_epsilon else "any finite bound"))
    # bits and noise stream ignore the caller's BLAS thread count; a diverging
    # seed fails with a reason, and numpy need not warn too
    with one_blas_thread(), np.errstate(all="ignore"):
        # a failed seed trained too: the plan's epsilon covers it
        outcomes = [replace(_train_single_seed(dataset, cfg, seed, plan),
                            epsilon=eps, moment_order=order) for seed in cfg.seeds]
        fingerprint = host_fingerprint()
    good = [o for o in outcomes if not o.failed]

    def stats(vals):
        if not vals:
            return None, None
        arr = np.asarray(vals, dtype=np.float64)
        return float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0

    micro_mean, micro_std = stats([o.f1_micro for o in good])
    macro_mean, macro_std = stats([o.f1_macro for o in good])
    aggregate = {
        "f1_micro_mean": micro_mean, "f1_micro_std": micro_std,
        "f1_macro_mean": macro_mean, "f1_macro_std": macro_std,
        "epsilon": eps,
        "seeds_failed": sum(o.failed for o in outcomes),
    }
    import scipy  # loaded by normalize_adjacency, so this costs no import time
    metadata = {
        "sigma": plan.records[0].sigma if plan else None,
        "test_metric_at": "best_val" if cfg.early_stopping else "final_epoch",
        "dataset_name": dataset.name,
        # what epsilon covers (None for the non-private kind A)
        "neighbouring_relation": "add/remove one example" if cfg.is_dp else None,
        "privacy_unit": {"B": "the whole training graph as one example",
                         "C": "one subgraph of a fixed partition"}.get(cfg.kind),
        "sampler": "fixed-size lots, accounted as Poisson" if cfg.is_dp else None,
        # the run's epsilon is minimized at an end of the moment-order grid,
        # so a wider grid could report a smaller epsilon
        "grid_edge": order in (plan.moment_orders[0], plan.moment_orders[-1])
        if plan else None,
        "versions": {"dpgcn": __version__, "numpy": np.__version__,
                     "scipy": scipy.__version__},
        # trained bits also depend on these: compare runs only where they agree
        "fingerprint": fingerprint,
    }
    return ResultsRecord(asdict(cfg), outcomes, aggregate, metadata)


def emit_results(record: ResultsRecord, out_dir: str) -> None:
    """Write results.json (exact values) and results.csv (one row per seed)."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.json"), "w", encoding="utf-8",
              newline="\n") as fh:
        json.dump(asdict(record), fh, indent=2)
        fh.write("\n")

    def cell(value):
        if value is None:
            return ""
        return repr(value) if isinstance(value, float) else str(value)

    rows = ["seed,f1_micro,f1_macro,epsilon,epochs,seconds"]
    rows += [",".join(cell(v) for v in
                      (o.seed, o.f1_micro, o.f1_macro, o.epsilon, o.epochs,
                       o.seconds))
             for o in record.seeds]
    with open(os.path.join(out_dir, "results.csv"), "w", encoding="utf-8",
              newline="\n") as fh:
        fh.writelines(row + "\n" for row in rows)
