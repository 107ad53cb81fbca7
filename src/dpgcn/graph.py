"""Graph adjacency as numpy CSR arrays, its normalization, and random splitting.

A split of the training nodes is a list of s disjoint, sorted int64 arrays
of global node ids; mask_subgraph turns one group into its induced subgraph.
scipy is imported by the first normalize_adjacency, which builds the matrix
spmm multiplies, so building, saving, loading or splitting never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .rng import Prng

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass(frozen=True, eq=False)  # == on arrays has no single truth value
class Graph:
    """Symmetric 0/1 adjacency in CSR form: the neighbours of node i are
    indices[indptr[i]:indptr[i + 1]], int64, sorted, without i or repeats."""

    indptr: np.ndarray
    indices: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.indptr.size - 1,) * 2


def _csr(n: int, keys: np.ndarray) -> Graph:
    """The n-row Graph of the sorted row-major keys r * n + c."""
    rows, cols = np.divmod(keys, max(n, 1))
    return Graph(np.concatenate([[0], np.bincount(rows, minlength=n).cumsum()]), cols)


def build_graph(num_nodes: int, edges) -> Graph:
    """Symmetric 0/1 adjacency from an (i, j) edge list.

    Each edge is stored in both orientations; repeats are merged, self-loops
    dropped, and column indices sorted within each row. Endpoints must be
    integers: any other dtype, bool and float included, is a ValueError.
    """
    if num_nodes < 0:
        raise ValueError("negative node count")
    edges = np.asarray(edges)
    if edges.size and edges.dtype.kind not in "iu":
        raise ValueError(f"edge endpoints must be integers, not {edges.dtype}")
    edges = edges.astype(np.int64, copy=False).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValueError("edge index out of range")
    i, j = edges[edges[:, 0] != edges[:, 1]].T
    keys = np.sort(np.concatenate([i * num_nodes + j, j * num_nodes + i]))
    return _csr(num_nodes, keys[np.diff(keys, prepend=-1) != 0])  # repeats merged


def normalize_adjacency(graph: Graph | sp.csr_matrix) -> sp.csr_matrix:
    """D^-1/2 (A + I) D^-1/2 as a scipy CSR matrix, self-loops included.

    Entry (i, j) is 1/sqrt(d_i d_j) where d counts neighbors plus self;
    the same product is used for (j, i), so symmetry is exact.
    """
    from scipy.sparse import csr_matrix  # the first call loads scipy

    n = graph.shape[0]
    degrees = np.diff(graph.indptr)
    # row-major keys r*n + c of the edges plus the diagonal, sorted once
    keys = np.sort(np.concatenate([
        np.repeat(np.arange(n), degrees) * n + graph.indices,
        np.arange(n) * (n + 1)]))
    rows, cols = np.divmod(keys, n)
    inv_sqrt = 1.0 / np.sqrt(degrees + 1.0)
    return csr_matrix((inv_sqrt[rows] * inv_sqrt[cols], cols,
                       graph.indptr + np.arange(n + 1)), shape=(n, n))


def spmm(adj: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    """Sparse-dense product adj @ dense with row-sequential accumulation."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.shape[0] != adj.shape[0]:
        raise ValueError(f"dense operand has {dense.shape[0]} rows, "
                         f"graph has {adj.shape[0]} nodes")
    return adj @ dense


def node_ids(nodes) -> np.ndarray:
    """nodes as int64 ids; a bool or float dtype or a negative id is a ValueError."""
    ids = np.asarray(nodes)
    if ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"node ids must be integers, not {ids.dtype}")
    if ids.size and ids.min() < 0:  # numpy would read -1 as the last node
        raise ValueError("negative node id")
    return ids.astype(np.int64, copy=False)


def random_partition(training_nodes, num_subgraphs: int, rng: Prng) -> list[np.ndarray]:
    """Split the training nodes at random into num_subgraphs disjoint groups.

    One permutation is cut into contiguous chunks: n mod s groups get
    ceil(n/s) nodes, the rest floor(n/s). Each group is a sorted int64
    array of global node ids.
    """
    nodes = np.unique(node_ids(training_nodes))
    n, s = nodes.size, int(num_subgraphs)
    if s < 1:
        raise ValueError("need at least one subgraph")
    if s > n:
        raise ValueError(f"cannot split {n} nodes into {s} subgraphs")
    return [nodes[np.sort(chunk)] for chunk in np.array_split(rng.permutation(n), s)]


def mask_subgraph(graph: Graph, keep) -> Graph:
    """The subgraph induced by the nodes keep, relabeled so keep[i] is node i.

    Edges leaving keep are dropped. keep is read by node_ids; a repeated id
    is a ValueError, an id past the graph an IndexError. Time grows with the
    edges in keep's rows, not with the graph.
    """
    keep = node_ids(keep)
    lo, hi = graph.indptr[keep], graph.indptr[keep + 1]  # IndexError past the graph
    order = np.argsort(keep)
    members = keep[order]
    if (members[1:] == members[:-1]).any():
        raise ValueError("repeated node id")
    # gather keep's rows, then keep and relabel the columns in keep
    rows = np.repeat(np.arange(keep.size), hi - lo)
    cols = graph.indices[np.arange(rows.size) + (hi - np.cumsum(hi - lo))[rows]]
    at = np.searchsorted(members, cols)
    inside = members.take(at, mode="clip") == cols
    return _csr(keep.size, np.sort(rows[inside] * keep.size + order[at[inside]]))
