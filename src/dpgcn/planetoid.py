"""One-time converter from the Planetoid citation-network pickles.

The upstream distribution ships each dataset as eight files named
ind.<name>.x / .y / .tx / .ty / .allx / .ally / .graph / .test.index
(pickled scipy matrices, numpy one-hot labels, an adjacency dict, and a
text list of test node ids). This module rebuilds the "full" split from
them: every labeled node outside the fixed 500-node validation range and
the listed test nodes is a training node, which yields 1208 train / 1000
test for cora and 1827 train / 1000 test for citeseer.

citeseer's test ids have gaps (some ids in the test range never appear);
the missing rows are filled with zero features and left unlabeled, so
they stay in the graph but out of every mask.

Unpickling resolves only the numpy, scipy and builtin globals these
files need, so a crafted file cannot run code. A missing file, a damaged
pickle, a pickle naming any other global, a feature or label part that
is not a 2-D matrix, a graph that is not a mapping from node ids to
lists of node ids, a bad test-index line, test ids that do not follow
the allx rows, or shapes that disagree (tx and ty rows against the test
ids, ally rows against allx, tx and ty columns against allx and ally)
raise DatasetError, as load_dataset does.

Usage: dpgcn convert --name cora --raw-dir <download dir> --out data/cora
[--no-row-normalize]
"""

from __future__ import annotations

import os
import pickle
from collections.abc import Mapping

import numpy as np

from .data import Dataset, DatasetError, _read_rows
from .graph import build_graph

_PARTS = ("x", "y", "tx", "ty", "allx", "ally", "graph")
# every global a Planetoid pickle names. The upstream files are Python 2
# pickles (copy_reg, __builtin__, numpy.core, scipy.sparse.csr); re-pickled
# ones use today's module paths, and _codecs.encode for bytes below protocol 3
_GLOBALS = {
    ("collections", "defaultdict"), ("numpy", "ndarray"), ("numpy", "dtype"),
    ("_codecs", "encode"), ("copyreg", "_reconstructor"),
    ("copy_reg", "_reconstructor"), ("scipy.sparse.csr", "csr_matrix"),
    ("scipy.sparse._csr", "csr_matrix"),
    *((py, name) for py in ("builtins", "__builtin__") for name in ("object", "list")),
    *((f"numpy.{core}.multiarray", "_reconstruct") for core in ("core", "_core")),
    *((f"numpy.{core}.numeric", "_frombuffer") for core in ("core", "_core")),
}


class _Unpickler(pickle.Unpickler):
    """Resolves no global outside _GLOBALS, so a crafted file runs no code."""

    def find_class(self, module, name):
        if (module, name) not in _GLOBALS:
            raise pickle.UnpicklingError(f"global {module}.{name} is not allowed")
        return super().find_class(module, name)


def _read_pickle(path: str):
    with open(path, "rb") as fh:
        try:
            return _Unpickler(fh, encoding="latin1").load()
        except Exception as exc:  # a damaged pickle can raise almost anything
            raise DatasetError("bad-row", f"{os.path.basename(path)}: "
                               f"{type(exc).__name__}: {exc}") from None


def convert(name: str, raw_dir: str, row_normalize: bool = True,
            val_count: int = 500) -> Dataset:
    """Planetoid pickles -> validated Dataset with the full training split.

    val_count is the size of the fixed validation window starting right
    after the originally-labeled block; the upstream datasets use 500.
    """
    import scipy.sparse as sp  # here, so that importing dpgcn loads no scipy

    paths = [os.path.join(raw_dir, f"ind.{name}.{part}")
             for part in (*_PARTS, "test.index")]
    for path in paths:  # all eight files, before unpickling any
        if not os.path.isfile(path):
            raise DatasetError("missing-file", f"missing Planetoid file: {path}")
    x, y, tx, ty, allx, ally, graph = map(_read_pickle, paths[:-1])
    for part, matrix in zip(_PARTS[:-1], (x, y, tx, ty, allx, ally)):
        if getattr(matrix, "ndim", None) != 2:
            raise DatasetError("bad-row", f"ind.{name}.{part}: not a 2-D matrix")
    test_index = _read_rows(paths[-1], (int,))[:, 0]
    lo = allx.shape[0]  # the test rows must follow the allx rows
    if test_index.size == 0 or test_index.min() != lo:
        raise DatasetError("index-out-of-range", f"ind.{name}.test.index: test "
                           "ids do not sit at the end of the node range")
    for part, arr, want in (("tx", tx, (test_index.size, allx.shape[1])),
                            ("ty", ty, (test_index.size, ally.shape[1])),
                            ("ally", ally, (allx.shape[0],))):
        for got, expected, what in zip(arr.shape, want, ("rows", "columns")):
            if got != expected:
                raise DatasetError("shape-mismatch", f"ind.{name}.{part}: "
                                   f"{got} {what}, expected {expected}")
    if not isinstance(graph, Mapping):
        raise DatasetError("bad-row", f"ind.{name}.graph: not a mapping "
                           "from node id to neighbour ids")
    hi = test_index.max()

    # fill holes in the test id range (citeseer) with zero rows
    span = hi - lo + 1
    tx_full = np.zeros((span, allx.shape[1]), dtype=np.float64)
    ty_full = np.zeros((span, ally.shape[1]), dtype=np.float64)
    tx_full[test_index - lo] = np.asarray(sp.csr_matrix(tx).todense())
    ty_full[test_index - lo] = ty

    features = np.vstack([np.asarray(sp.csr_matrix(allx, dtype=np.float64)
                                     .todense()), tx_full])
    onehot = np.vstack([ally, ty_full])
    num_nodes = features.shape[0]

    labels = np.where(onehot.sum(axis=1) > 0, onehot.argmax(axis=1),
                      -1).astype(np.int64)

    try:  # a value that is no list of ids, or a key outside the node range
        edges = [(i, j) for i, nbrs in graph.items() for j in nbrs
                 if 0 <= j < num_nodes and i != j]
        adjacency = build_graph(num_nodes, edges)
    except (TypeError, ValueError) as exc:
        raise DatasetError("bad-row", f"ind.{name}.graph: {exc}") from None

    val_nodes = np.arange(y.shape[0], y.shape[0] + val_count, dtype=np.int64)
    if val_nodes.size and val_nodes[-1] >= num_nodes:
        raise DatasetError("index-out-of-range", f"ind.{name}.y: the {val_count}"
                           f"-node validation window after its {y.shape[0]} "
                           f"rows runs past the {num_nodes} nodes")
    test_nodes = np.sort(test_index)
    claimed = np.zeros(num_nodes, dtype=bool)
    claimed[val_nodes] = True
    claimed[test_nodes] = True
    train_nodes = np.flatnonzero(~claimed & (labels >= 0))

    if row_normalize:
        sums = features.sum(axis=1, keepdims=True)
        np.divide(features, sums, out=features, where=sums > 0)

    return Dataset(
        name=name, graph=adjacency, features=features,
        labels=labels, train_nodes=train_nodes.astype(np.int64),
        val_nodes=val_nodes, test_nodes=test_nodes.astype(np.int64),
        num_classes=onehot.shape[1], feature_kind="sparse").validate()

