"""Dataset directory format, loading/saving, and a planted-community generator.

A dataset directory holds meta.json, edges.tsv (i<j, sorted), features.csv
(dense) or features.tsv (sparse triplets), labels.tsv, and masks.tsv; all
text is UTF-8 with LF newlines. Saving the same dataset twice produces
byte-identical files. The graph is a graph.Graph: nothing here imports scipy.
Every Dataset is checked when it is built, by dataclasses.replace too.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .graph import Graph, build_graph
from .rng import STREAM_SYNTH, Prng

_MASK_IDS = {"train": 0, "val": 1, "test": 2}


class DatasetError(ValueError):
    """Dataset format violation with a stable error code."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass(frozen=True, eq=False)  # == on arrays has no single truth value
class Dataset:
    """A graph with features, labels and masks, checked when it is built."""

    name: str
    graph: Graph           # symmetric 0/1 adjacency, no self-loops
    features: np.ndarray   # (num_nodes, feature_dim) float64, finite
    labels: np.ndarray     # (num_nodes,) integer, -1 where unlabeled
    train_nodes: np.ndarray  # integer node ids; the three masks are disjoint
    val_nodes: np.ndarray
    test_nodes: np.ndarray
    num_classes: int
    feature_kind: str = "dense"  # serialization hint: "dense" or "sparse"

    @property
    def num_nodes(self) -> int:
        return self.graph.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __post_init__(self):
        n = self.num_nodes
        if self.features.shape[0] != n:
            raise DatasetError("shape-mismatch",
                               "feature rows do not match node count")
        if self.feature_dim < 1:
            raise DatasetError("bad-meta", "need at least one feature column")
        _check_feature_kind(self.feature_kind)
        if not np.isfinite(self.features).all():
            raise DatasetError("non-finite-feature", "features must be finite")
        if self.num_classes < 2:
            raise DatasetError("bad-meta", "need at least two classes")
        if self.labels.shape != (n,):
            raise DatasetError("shape-mismatch", "labels must be per-node")
        if self.labels.dtype.kind not in "iu":
            raise DatasetError("label-out-of-range", "labels must be integers")
        if self.labels.max(initial=-1) >= self.num_classes:
            raise DatasetError("label-out-of-range",
                               "label id exceeds num_classes")
        if self.labels.min(initial=-1) < -1:  # -1 marks an unlabeled node
            raise DatasetError("label-out-of-range", "label id below -1")
        ids = (self.train_nodes, self.val_nodes, self.test_nodes)
        if any(mask.dtype.kind not in "iu" for mask in ids):
            raise DatasetError("index-out-of-range", "mask node ids must be integers")
        masks = np.concatenate(ids, dtype=np.int64)
        if masks.size and (masks.min() < 0 or masks.max() >= n):
            raise DatasetError("index-out-of-range", "mask node id out of range")
        if np.unique(masks).size != masks.size:
            raise DatasetError("overlapping-masks",
                               "a node appears in more than one mask")
        if masks.size and (self.labels[masks] < 0).any():
            raise DatasetError("unlabeled-masked-node",
                               "every masked node needs a label")


def _check_feature_kind(kind) -> None:
    if kind not in ("dense", "sparse"):
        raise DatasetError("bad-meta", f"unknown feature_kind '{kind}'")


def _read_rows(path: str, types: tuple) -> np.ndarray:
    """Nonblank lines split on tabs (commas in a .csv), one column per type."""
    name = os.path.basename(path)
    if not os.path.isfile(path):
        raise DatasetError("missing-file", f"{name} not found: {path}")
    sep = "," if name.endswith(".csv") else "\t"
    all_float = all(t is float for t in types)
    rows = []
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, 1):
            try:
                row = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetError("bad-row", f"{name}:{line}: {exc}") from None
            if not row.strip():
                continue
            cells = row.rstrip("\r\n").split(sep)
            if len(cells) != len(types):
                raise DatasetError("shape-mismatch", f"{name}:{line}: "
                                   f"{len(cells)} columns, expected {len(types)}")
            try:
                rows.append(np.fromiter(map(float, cells), np.float64, len(cells))
                            if all_float else [t(c) for t, c in zip(types, cells)])
            except ValueError as exc:
                raise DatasetError("bad-row", f"{name}:{line}: {exc}") from None
    try:
        out = np.array(rows, np.float64 if float in types else np.int64)
    except OverflowError:  # integers past int64 fail the callers' range checks
        out = np.array(rows, object)
    return out.reshape(len(rows), len(types))


def load_dataset(path: str) -> Dataset:
    """Read a dataset directory: the file checks are here, the rest Dataset's."""
    meta_path = os.path.join(path, "meta.json")
    if not os.path.isfile(meta_path):
        raise DatasetError("missing-file", f"meta.json not found in {path}")
    try:
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
    except ValueError as exc:  # bad JSON or bad UTF-8
        raise DatasetError("bad-meta", f"meta.json: {exc}") from None
    keys = ("name", "num_nodes", "num_classes", "feature_dim", "feature_kind")
    if not isinstance(meta, dict) or not meta.keys() >= set(keys):
        raise DatasetError("bad-meta", f"meta.json must be an object with {keys}")
    n, d, k = meta["num_nodes"], meta["feature_dim"], meta["num_classes"]
    if not all(type(v) is int and v >= 0 for v in (n, d, k)):
        raise DatasetError("bad-meta", "num_nodes, feature_dim and num_classes "
                           "must be non-negative integers")
    kind = meta["feature_kind"]
    _check_feature_kind(kind)
    try:  # sizes no array can hold fail here, before any file is read
        labels = np.full(n, -1, dtype=np.int64)
        if kind == "dense":
            feature_types = (float,) * d
        else:
            features = np.zeros((n, d))
    except (MemoryError, ValueError, OverflowError):
        raise DatasetError("bad-meta",
                           f"{n} nodes of {d} features is too large") from None

    edges = _read_rows(os.path.join(path, "edges.tsv"), (int, int))
    i, j = edges.T
    if ((i < 0) | (i >= j) | (j >= n)).any():
        raise DatasetError("index-out-of-range", "an edge violates 0 <= i < j < n")
    if (np.diff(i * n + j) <= 0).any():
        raise DatasetError("bad-edge-order", "edges must be sorted, unique")

    if kind == "dense":
        features = _read_rows(os.path.join(path, "features.csv"), feature_types)
    else:
        triplets = _read_rows(os.path.join(path, "features.tsv"), (int, int, float))
        node, dim, value = triplets.T
        if ((node < 0) | (node >= n) | (dim < 0) | (dim >= d)).any():
            raise DatasetError("index-out-of-range", "feature triplet out of range")
        node, dim = node.astype(np.int64), dim.astype(np.int64)
        if np.unique(node * d + dim).size != node.size:
            raise DatasetError("duplicate-row",
                               "features.tsv lists a (node, dim) twice")
        features[node, dim] = value

    node, cls = _read_rows(os.path.join(path, "labels.tsv"), (int, int)).T
    if ((node < 0) | (node >= n)).any():
        raise DatasetError("index-out-of-range", "a label's node is out of range")
    if ((cls < 0) | (cls >= k)).any():
        raise DatasetError("label-out-of-range", "class outside [0, num_classes)")
    if np.unique(node).size != node.size:
        raise DatasetError("duplicate-row", "labels.tsv lists a node twice")
    labels[node] = cls

    masks = _read_rows(os.path.join(path, "masks.tsv"),
                       (int, lambda tok: _MASK_IDS.get(tok, -1)))
    if (masks[:, 1] < 0).any():
        raise DatasetError("bad-mask-token", "masks must be train, val or test")
    train, val, test = (np.sort(masks[masks[:, 1] == m, 0]) for m in range(3))
    if any((np.diff(ids) == 0).any() for ids in (train, val, test)):
        raise DatasetError("duplicate-row", "masks.tsv lists a node twice")
    return Dataset(meta["name"], build_graph(n, edges), features, labels,
                   train, val, test, k, kind)


def save_dataset(ds: Dataset, path: str) -> None:
    """Write the directory format deterministically (stable bytes)."""
    os.makedirs(path, exist_ok=True)

    def write(name, lines):
        with open(os.path.join(path, name), "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(line + "\n" for line in lines)

    meta = {"name": ds.name, "num_nodes": ds.num_nodes,
            "num_classes": ds.num_classes, "feature_dim": ds.feature_dim,
            "feature_kind": ds.feature_kind}
    write("meta.json", [json.dumps(meta, indent=2, sort_keys=True)])

    i = np.repeat(np.arange(ds.num_nodes), np.diff(ds.graph.indptr))
    j = ds.graph.indices
    write("edges.tsv", [f"{a}\t{b}" for a, b in zip(i[i < j].tolist(), j[i < j].tolist())])

    features = ds.features.astype(np.float64, copy=False)
    if ds.feature_kind == "dense":
        write("features.csv", [",".join(map(repr, row.tolist())) for row in features])
    else:
        nz_i, nz_j = np.nonzero(features)
        write("features.tsv", [f"{a}\t{b}\t{v!r}" for a, b, v in zip(
            nz_i.tolist(), nz_j.tolist(), features[nz_i, nz_j].tolist())])

    write("labels.tsv", [f"{i}\t{c}" for i, c in enumerate(ds.labels.tolist())
                         if c >= 0])
    tokens = [(int(i), t) for t, ids in (("train", ds.train_nodes),
                                         ("val", ds.val_nodes),
                                         ("test", ds.test_nodes)) for i in ids]
    write("masks.tsv", [f"{i}\t{t}" for i, t in sorted(tokens)])


@dataclass(frozen=True)
class SynthSpec:
    """Planted-community graph with class-shifted Gaussian features."""

    block_sizes: tuple[int, ...]
    p_intra: float
    p_inter: float
    feature_dim: int
    feature_shift: float = 1.0
    seed: int = 0
    name: str = "synth"

    def __post_init__(self):
        if len(self.block_sizes) < 2 or min(self.block_sizes) < 1:
            raise ValueError("need at least two nonempty blocks")
        for p in (self.p_intra, self.p_inter):
            if not 0.0 <= p <= 1.0:
                raise ValueError("edge probabilities must be in [0, 1]")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        if not math.isfinite(self.feature_shift):
            raise ValueError("feature_shift must be finite")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")

    @property
    def num_nodes(self) -> int:
        return int(sum(self.block_sizes))

    @property
    def num_classes(self) -> int:
        return len(self.block_sizes)


def generate_synthetic(spec: SynthSpec) -> Dataset:
    """Sample the planted-community model; 60/20/20 train/val/test masks."""
    rng = Prng(spec.seed, STREAM_SYNTH)
    n, k = spec.num_nodes, spec.num_classes
    labels = np.repeat(np.arange(k, dtype=np.int64), spec.block_sizes)
    starts = np.concatenate([[0], np.cumsum(spec.block_sizes)])

    edges = []
    for b1 in range(k):
        lo1, hi1 = starts[b1], starts[b1 + 1]
        iu, ju = np.triu_indices(hi1 - lo1, 1)
        hit = rng.uniform(iu.size) < spec.p_intra
        edges.append(np.stack([iu[hit] + lo1, ju[hit] + lo1], axis=1))
        for b2 in range(b1 + 1, k):
            lo2, hi2 = starts[b2], starts[b2 + 1]
            m1, m2 = hi1 - lo1, hi2 - lo2
            hit = rng.uniform(m1 * m2) < spec.p_inter
            ii, jj = np.divmod(np.flatnonzero(hit), m2)
            edges.append(np.stack([ii + lo1, jj + lo2], axis=1))
    edge_array = np.concatenate(edges) if edges else np.empty((0, 2), dtype=np.int64)

    features = rng.normal((n, spec.feature_dim))
    features[np.arange(n), labels % spec.feature_dim] += spec.feature_shift

    perm = rng.permutation(n)
    n_train, n_val = int(0.6 * n), int(0.2 * n)
    return Dataset(spec.name, build_graph(n, edge_array), features, labels,
                   np.sort(perm[:n_train]),
                   np.sort(perm[n_train:n_train + n_val]),
                   np.sort(perm[n_train + n_val:]), k)
