"""Span tracing for the benchmark's traced run, from outside the package.

Each wrapper replaces a public ``dpgcn`` function where its caller looks
the name up (the modules use ``from .x import y``, so ``dpgcn.harness``
holds its own reference to ``forward``). A wrapper records one span per
call: name, start, end, parent span and operation id, plus a work count
for the Gaussian draws. Spans stay in memory and are written as JSON lines
when the run ends. Nothing under ``src/dpgcn`` changes; the untraced run
never installs a wrapper.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict


def _draws(_self, size=None, *_args, **_kwargs) -> int:
    """Number of Gaussian draws one Prng.normal call makes."""
    if size is None:
        return 1
    n = 1
    for dim in ((size,) if isinstance(size, int) else size):
        n *= int(dim)
    return n


# (module, attribute path, span name[, work count of one call])
TARGETS = [
    ("dpgcn.harness", "run_experiment", "harness.run_experiment"),
    ("dpgcn.harness", "normalize_adjacency", "graph.normalize_adjacency"),
    ("dpgcn.harness", "random_partition", "graph.random_partition"),
    ("dpgcn.harness", "mask_subgraph", "graph.mask_subgraph"),
    ("dpgcn.model", "spmm", "graph.spmm"),
    ("dpgcn.data", "build_graph", "graph.build_graph"),
    ("dpgcn.harness", "init_params", "model.init_params"),
    ("dpgcn.harness", "forward", "model.forward"),
    ("dpgcn.harness", "masked_cross_entropy", "model.loss"),
    ("dpgcn.harness", "backward", "model.backward"),
    ("dpgcn.harness", "evaluate", "model.evaluate"),
    ("dpgcn.harness", "macro_f1", "model.macro_f1"),
    ("dpgcn.harness", "sample_lot", "dp.sample_lot"),
    ("dpgcn.dp", "clip_gradient", "dp.clip"),
    ("dpgcn.harness", "noisy_lot_gradient", "dp.noisy_lot"),
    ("dpgcn.harness", "adam_step", "dp.optimizer"),
    ("dpgcn.rng", "Prng.normal", "rng.normal", _draws),
    ("dpgcn.rng", "Prng.uniform", "rng.uniform"),
    ("dpgcn.rng", "Prng.permutation", "rng.permutation"),
    ("dpgcn.rng", "Prng.sample_without_replacement", "rng.sample"),
    ("dpgcn.accounting", "calibrate_noise", "accounting.calibrate_noise"),
    ("dpgcn.accounting", "eps_from_delta", "accounting.eps_from_delta"),
    ("dpgcn.accounting", "privacy_spent", "accounting.privacy_spent"),
    ("dpgcn.harness", "privacy_spent", "accounting.privacy_spent"),
    ("dpgcn.accounting", "compose", "accounting.compose"),
    ("dpgcn.accounting", "log_moment", "accounting.log_moment"),
    ("dpgcn.data", "generate_synthetic", "data.generate"),
    ("dpgcn.data", "save_dataset", "data.save"),
    ("dpgcn.data", "load_dataset", "data.load"),
]


class Tracer:
    """In-memory span recorder that patches and restores the targets."""

    def __init__(self):
        # span: [name, start, end, parent index, op id, work count]
        self.spans: list[list] = []
        self.op_id = -1
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id,
                    count(*args, **kwargs) if count else 1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        for module, path, name, *count in TARGETS:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, count[0] if count else None))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, work in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op,
                                     "work": work}) + "\n")

    def totals(self, ops, under=None) -> dict:
        """Per span name: calls, work, inclusive and self seconds.

        Self time is a span's duration minus that of its direct children;
        the benchmark is single-threaded, so children never overlap. Only
        spans whose op id is in ``ops`` count, and with ``under`` only
        spans below a span of that name.
        """
        child = [0.0] * len(self.spans)
        inside = [under is None] * len(self.spans)
        for i, (name, start, end, parent, _op, _work) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                inside[i] = inside[i] or inside[parent] or self.spans[parent][0] == under
        out = defaultdict(lambda: {"calls": 0, "work": 0, "incl": 0.0,
                                   "self": 0.0})
        for i, (name, start, end, _parent, op, work) in enumerate(self.spans):
            if op not in ops or not inside[i]:
                continue
            row = out[name]
            row["calls"] += 1
            row["work"] += work
            row["incl"] += end - start
            row["self"] += end - start - child[i]
        return dict(out)
