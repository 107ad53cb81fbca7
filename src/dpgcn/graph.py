"""Graph adjacency as scipy CSR, its normalization, and random node splitting.

A split of the training nodes is a list of s disjoint, sorted int64 arrays
of global node ids; mask_subgraph turns one group into its induced subgraph.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .rng import Prng


def build_graph(num_nodes: int, edges) -> sp.csr_matrix:
    """Symmetric 0/1 CSR adjacency from an (i, j) edge list.

    Each edge is stored in both orientations; repeats are merged, self-loops
    dropped, and column indices sorted within each row.
    """
    if num_nodes < 0:
        raise ValueError("negative node count")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValueError("edge index out of range")
    i, j = edges[edges[:, 0] != edges[:, 1]].T
    graph = sp.csr_matrix((np.ones(2 * i.size), (np.r_[i, j], np.r_[j, i])),
                          shape=(num_nodes, num_nodes))
    graph.data[:] = 1.0  # the COO conversion summed repeated edges
    return graph


def normalize_adjacency(graph: sp.csr_matrix) -> sp.csr_matrix:
    """D^-1/2 (A + I) D^-1/2 as a scipy CSR matrix, self-loops included.

    Entry (i, j) is 1/sqrt(d_i d_j) where d counts neighbors plus self;
    the same product is used for (j, i), so symmetry is exact.
    """
    n = graph.shape[0]
    degrees = np.diff(graph.indptr)
    # row-major keys r*n + c of the edges plus the diagonal, sorted once
    keys = np.sort(np.concatenate([
        np.repeat(np.arange(n), degrees) * n + graph.indices,
        np.arange(n) * (n + 1)]))
    rows, cols = np.divmod(keys, n)
    inv_sqrt = 1.0 / np.sqrt(degrees + 1.0)
    return sp.csr_matrix((inv_sqrt[rows] * inv_sqrt[cols], cols,
                          graph.indptr + np.arange(n + 1)), shape=(n, n))


def spmm(adj: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    """Sparse-dense product adj @ dense with row-sequential accumulation."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.shape[0] != adj.shape[0]:
        raise ValueError(f"dense operand has {dense.shape[0]} rows, "
                         f"graph has {adj.shape[0]} nodes")
    return adj @ dense


def random_partition(training_nodes, num_subgraphs: int, rng: Prng) -> list[np.ndarray]:
    """Split the training nodes at random into num_subgraphs disjoint groups.

    One permutation is cut into contiguous chunks: n mod s groups get
    ceil(n/s) nodes, the rest floor(n/s). Each group is a sorted int64
    array of global node ids.
    """
    nodes = np.unique(np.asarray(training_nodes, dtype=np.int64))
    n, s = nodes.size, int(num_subgraphs)
    if s < 1:
        raise ValueError("need at least one subgraph")
    if s > n:
        raise ValueError(f"cannot split {n} nodes into {s} subgraphs")
    if nodes[0] < 0:
        raise ValueError("negative node id")
    return [nodes[np.sort(chunk)] for chunk in np.array_split(rng.permutation(n), s)]


def mask_subgraph(graph: sp.csr_matrix, keep: np.ndarray) -> sp.csr_matrix:
    """The subgraph induced by the nodes keep, relabeled so keep[i] is node i.

    Edges with an endpoint outside keep are dropped; a negative id is a ValueError.
    """
    if keep.size and keep.min() < 0:
        raise ValueError("negative node id")
    return graph[keep][:, keep]
