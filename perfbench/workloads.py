"""The benchmark's workloads: inputs made from the workload seed, one
operation each, and the correctness gate every operation must pass.

Three workloads train one seed per operation through
``dpgcn.harness.run_experiment``; ``account`` runs one cold
``privacy_spent`` per operation, after one cold ``calibrate_noise`` in its
set-up. Operations are short (about a quarter of a second on a 2-vCPU
Xeon VM), so that the reference kernel run beside each one sees the same
host speed. Every call into ``dpgcn`` goes through a module attribute
looked up at call time, so the wrappers of a traced run see it.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, replace

import numpy as np

import dpgcn.accounting as accounting
import dpgcn.data as data
import dpgcn.harness as harness

DELTA = 1e-5
TINY_EPOCHS = 3
QUERIES = 8  # distinct accountant queries per account run
TINY_ORDERS = (1, 2, 4, 8, 16, 32, 64)


def _memo():
    """The accountant's log-moment memo, while it exists (None otherwise)."""
    fn = getattr(accounting, "subsampled_log_moment", None)
    return fn if hasattr(fn, "cache_clear") else None


def clear_accountant() -> None:
    """Drop accountant state left by earlier operations."""
    memo = _memo()
    if memo is not None:
        memo.cache_clear()


def memo_info():
    """(hits, misses) of the memo so far, or None when there is no memo."""
    memo = _memo()
    if memo is None:
        return None
    info = memo.cache_info()
    return info.hits, info.misses


def _hexf(value) -> str | None:
    return None if value is None else float(value).hex()


def digest_of(fields) -> str:
    blob = json.dumps(fields, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - start


def _ledger(q: float, sigma: float, steps: int, orders):
    ledger = accounting.AccountantLedger(moment_orders=orders)
    ledger.append(q, sigma, steps)
    return ledger


def cold_privacy_spent(q: float, sigma: float, steps: int, orders):
    """privacy_spent on a one-record ledger, with no accountant state."""
    clear_accountant()
    return accounting.privacy_spent(_ledger(q, sigma, steps, orders), DELTA)


@dataclass(frozen=True)
class Op:
    """One finished operation: its outputs' digest, time and problems."""
    key: str
    seconds: float
    digest: str
    problems: list
    claim: tuple = ()  # (epsilon, moment order) that training reported


@dataclass(frozen=True)
class Training:
    """run_experiment for one seed on a planted-community dataset."""

    name: str
    blocks: tuple[int, ...]
    p_intra: float
    p_inter: float
    feature_dim: int
    feature_shift: float
    kind: str
    s: int
    lot_size: int
    sigma: float
    epochs: int
    epsilon_cap: float | None = None
    reference: tuple[str, ...] = ("small", "wide")  # parts of the kernel
    tiny: bool = False
    calibrates = False

    def shrunk(self) -> "Training":
        return replace(self, blocks=tuple(max(4, b // 5) for b in self.blocks),
                       feature_dim=min(self.feature_dim, 32), tiny=True)

    @property
    def config(self):
        return harness.ExperimentConfig(
            kind=self.kind, optimizer="adam-dp", s=self.s,
            lot_size=self.lot_size, sigma=self.sigma,
            max_epochs=TINY_EPOCHS if self.tiny else self.epochs).finalized()

    @property
    def steps_per_op(self) -> int:
        cfg = self.config
        return cfg.max_epochs * cfg.steps_per_epoch

    @property
    def q(self) -> float:
        return self.lot_size / self.s if self.kind == "C" else 1.0

    def input(self, seed: int, k: int) -> int:
        """Training seed of operation k: two seeds, alternating."""
        return random.Random(f"{self.name}/{seed}/train/{k % 2}").randrange(2 ** 31)

    def setup(self, seed: int, scratch: str):
        """Generate, save and load back the dataset: the `dpgcn run` path."""
        return self.data_setup(seed, scratch)

    def data_setup(self, seed: int, scratch: str):
        """What set-up time measures (after the import)."""
        spec = data.SynthSpec(self.blocks, self.p_intra, self.p_inter,
                              self.feature_dim, self.feature_shift,
                              seed=random.Random(f"{self.name}/{seed}/data")
                              .randrange(2 ** 31), name=self.name)
        made = data.generate_synthetic(spec)
        path = os.path.join(scratch, self.name)
        data.save_dataset(made, path)
        loaded = data.load_dataset(path)
        shutil.rmtree(path)
        same = (np.array_equal(made.features, loaded.features)
                and np.array_equal(made.graph.indices, loaded.graph.indices)
                and np.array_equal(made.labels, loaded.labels))
        if not same:
            raise RuntimeError("dataset changed in a save/load round trip")
        return loaded

    def run(self, dataset, train_seed: int) -> Op:
        cfg = replace(self.config, seeds=(train_seed,))
        record, seconds = _timed(harness.run_experiment, cfg, dataset=dataset)
        out = record.seeds[0]
        problems = []
        if out.failed:
            problems.append(f"seed failed: {out.reason}")
        else:
            if not math.isfinite(out.final_loss):
                problems.append("non-finite final loss")
            if not (0.0 <= out.f1_micro <= 1.0 and 0.0 <= out.f1_macro <= 1.0):
                problems.append("F1 outside [0, 1]")
            if out.epsilon is None or not math.isfinite(out.epsilon):
                problems.append(f"epsilon not finite: {out.epsilon}")
            elif self.epsilon_cap is not None and out.epsilon > self.epsilon_cap:
                problems.append(f"epsilon {out.epsilon} above {self.epsilon_cap}")
            if out.epochs != cfg.max_epochs:
                problems.append(f"ran {out.epochs} of {cfg.max_epochs} epochs")
        digest = digest_of([_hexf(out.final_loss), _hexf(out.f1_micro),
                            _hexf(out.f1_macro), _hexf(out.epsilon),
                            out.moment_order, list(out.errors)])
        return Op(f"seed={train_seed}", seconds, digest, problems,
                  (out.epsilon, out.moment_order))

    def recheck(self, _dataset, op: Op) -> list:
        """A cold accountant must answer exactly what training reported."""
        got = cold_privacy_spent(self.q, self.sigma, self.steps_per_op,
                                 accounting.DEFAULT_MOMENT_ORDERS)
        return [] if got == op.claim else [
            f"cold privacy_spent {got} != trained {op.claim}"]


@dataclass(frozen=True)
class Account:
    """One cold privacy_spent at q < 1 per operation.

    Set-up calibrates sigma once for a query drawn from the seed and checks
    the answer; the operations then cycle through QUERIES ledgers, one per
    stratum of the q, sigma and steps ranges, so every run asks for about
    the same work whatever the seed.
    """

    name: str = "account"
    tiny: bool = False
    calibrates = True
    steps_per_op = 0
    reference = ("small",)

    def shrunk(self) -> "Account":
        return replace(self, tiny=True)

    @property
    def orders(self):
        return TINY_ORDERS if self.tiny else accounting.DEFAULT_MOMENT_ORDERS

    def data_setup(self, seed: int, scratch: str):
        return None

    def setup(self, seed: int, scratch: str):
        """Calibrate cold for (target epsilon, q, steps) drawn from the seed.

        Outside any timing, eps_from_delta checks that sigma meets the
        target and that the grid point below it, sigma - 0.01, does not.
        """
        rnd = random.Random(f"{self.name}/{seed}/calibrate")
        target = round(0.5 + 1.5 * rnd.random(), 4)
        q = round(0.05 + 0.45 * rnd.random(), 4)
        steps = rnd.randrange(1000, 10001)
        clear_accountant()
        sigma = accounting.calibrate_noise(target, DELTA, q, steps, self.orders)
        k = round(sigma * 100)  # calibrate_noise searches sigma = k / 100
        at = accounting.eps_from_delta(_ledger(q, sigma, steps, self.orders), DELTA)
        below = accounting.eps_from_delta(
            _ledger(q, (k - 1) / 100, steps, self.orders), DELTA) if k > 1 else math.inf
        problems = []
        if not math.isfinite(at) or at > target:
            problems.append(f"sigma {sigma} gives epsilon {at} > {target}")
        if below <= target:
            problems.append(f"sigma {(k - 1) / 100} already meets {target}")
        print(f"# calibrated sigma {sigma} for epsilon {target}, q {q}, "
              f"steps {steps}: epsilon {at}, {below} at sigma - 0.01")
        return {"problems": problems, "queries": self._queries(seed)}

    def _queries(self, seed: int):
        """QUERIES (q, sigma, steps), one in each stratum of each range.

        q spans 0.05-0.5, sigma 0.8-8 and steps 1,000-10,000; the strata of
        sigma and steps are shuffled against those of q.
        """
        rnd = random.Random(f"{self.name}/{seed}/queries")
        sigma_strata, step_strata = list(range(QUERIES)), list(range(QUERIES))
        rnd.shuffle(sigma_strata)
        rnd.shuffle(step_strata)
        return [(round(0.05 + 0.45 * (j + rnd.random()) / QUERIES, 4),
                 round(0.8 + 7.2 * (sigma_strata[j] + rnd.random()) / QUERIES, 2),
                 1000 + int(9000 * (step_strata[j] + rnd.random()) / QUERIES))
                for j in range(QUERIES)]

    def input(self, seed: int, k: int) -> int:
        return k % QUERIES

    def run(self, state, j: int) -> Op:
        """Time a cold privacy_spent; check it against eps_from_delta."""
        q, sigma, steps = state["queries"][j]
        (eps, order), seconds = _timed(cold_privacy_spent, q, sigma, steps,
                                       self.orders)
        at = accounting.eps_from_delta(_ledger(q, sigma, steps, self.orders), DELTA)
        problems = []
        if not (math.isfinite(eps) and eps > 0.0):
            problems.append(f"epsilon {eps} not finite and positive")
        if at != eps:
            problems.append(f"privacy_spent {eps} != eps_from_delta {at}")
        digest = digest_of([_hexf(eps), order])
        return Op(f"q={q},sigma={sigma},steps={steps}", seconds, digest, problems)

    def recheck(self, state, op: Op) -> list:
        return state["problems"]


WORKLOADS = {
    w.name: w for w in (
        Training("split-sbm500", (100,) * 5, 0.10, 0.01, 16, 1.0,
                 kind="C", s=10, lot_size=1, sigma=34.7, epochs=50,
                 epsilon_cap=1.0, reference=("small",)),
        Training("lots-reddit", (10,) * 41, 0.30, 0.002, 602, 1.5,
                 kind="C", s=8, lot_size=2, sigma=2.0, epochs=25),
        Training("full-reddit", (10,) * 41, 0.30, 0.002, 602, 1.5,
                 kind="B", s=1, lot_size=1, sigma=4.0, epochs=50),
        Account(),
    )
}


def child_setup(name: str, seed: int, scratch: str, tiny: bool) -> None:
    """Body of one timed set-up process (imports are part of what it times)."""
    workload = WORKLOADS[name]
    (workload.shrunk() if tiny else workload).data_setup(seed, scratch)
