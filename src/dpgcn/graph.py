"""Sparse graph storage, symmetric normalization, and random node splitting."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .rng import Prng


@dataclass(frozen=True)
class SparseGraph:
    """Undirected graph in CSR form; no weights, no stored self-loops."""

    num_nodes: int
    indptr: np.ndarray   # int64, len num_nodes + 1
    indices: np.ndarray  # int64, sorted within each row

    @property
    def num_edges(self) -> int:
        return self.indices.size // 2

    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]


def build_graph(num_nodes: int, edges) -> SparseGraph:
    """CSR graph from an (i, j) edge list; symmetrized and deduplicated.

    Self-loops in the input are dropped (the representation stores none).
    """
    if num_nodes < 0:
        raise ValueError("negative node count")
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size and (edges.min() < 0 or edges.max() >= num_nodes):
        raise ValueError("edge index out of range")
    edges = edges[edges[:, 0] != edges[:, 1]]
    if edges.size:
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        keys = np.unique(src * num_nodes + dst)
        src, dst = keys // num_nodes, keys % num_nodes
    else:
        src = dst = np.empty(0, dtype=np.int64)
    indptr = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=num_nodes), out=indptr[1:])
    return SparseGraph(num_nodes, indptr, dst)


def normalize_adjacency(graph: SparseGraph) -> sp.csr_matrix:
    """D^-1/2 (A + I) D^-1/2 as a scipy CSR matrix, self-loops included.

    Entry (i, j) is 1/sqrt(d_i d_j) where d counts neighbors plus self;
    the same product is used for (j, i), so symmetry is exact.
    """
    n = graph.num_nodes
    # row-major keys r*n + c of the edges plus the diagonal, sorted once
    keys = np.sort(np.concatenate([
        np.repeat(np.arange(n), graph.degrees()) * n + graph.indices,
        np.arange(n) * (n + 1)]))
    rows, cols = np.divmod(keys, n)
    inv_sqrt = 1.0 / np.sqrt(graph.degrees() + 1.0)
    return sp.csr_matrix((inv_sqrt[rows] * inv_sqrt[cols], cols,
                          graph.indptr + np.arange(n + 1)), shape=(n, n))


def spmm(adj: sp.csr_matrix, dense: np.ndarray) -> np.ndarray:
    """Sparse-dense product adj @ dense with row-sequential accumulation."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.shape[0] != adj.shape[0]:
        raise ValueError(f"dense operand has {dense.shape[0]} rows, "
                         f"graph has {adj.shape[0]} nodes")
    return adj @ dense


@dataclass(frozen=True)
class Partition:
    """Disjoint assignment of the training nodes to num_subgraphs groups."""

    num_subgraphs: int
    nodes: np.ndarray       # sorted global ids of the partitioned nodes
    assignment: np.ndarray  # aligned with nodes, values in [0, num_subgraphs)

    def members(self, k: int) -> np.ndarray:
        return self.nodes[self.assignment == k]

    def sizes(self) -> np.ndarray:
        return np.bincount(self.assignment, minlength=self.num_subgraphs)


def random_partition(training_nodes, num_subgraphs: int, rng: Prng) -> Partition:
    """Permute the training nodes and cut into num_subgraphs contiguous chunks.

    Sizes are balanced: n mod s chunks get ceil(n/s) nodes, the rest floor(n/s).
    """
    nodes = np.unique(np.asarray(training_nodes, dtype=np.int64))
    n, s = nodes.size, int(num_subgraphs)
    if s < 1:
        raise ValueError("need at least one subgraph")
    if s > n:
        raise ValueError(f"cannot split {n} nodes into {s} subgraphs")
    sizes = np.full(s, n // s, dtype=np.int64)
    sizes[:n % s] += 1
    order = rng.permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.repeat(np.arange(s, dtype=np.int64), sizes)
    return Partition(s, nodes, assignment)


@dataclass(frozen=True)
class Subgraph:
    """Induced subgraph with rows of the node data, relabeled to 0..m-1."""

    graph: SparseGraph
    features: np.ndarray
    labels: np.ndarray
    node_ids: np.ndarray  # node_ids[new] = old global id (the relabel map)


def mask_subgraph(graph: SparseGraph, features: np.ndarray, labels: np.ndarray,
                  part: Partition, k: int) -> Subgraph:
    """Restrict graph and node data to subgraph k, dropping cross edges."""
    if not 0 <= k < part.num_subgraphs:
        raise ValueError(f"subgraph index {k} out of range")
    keep = part.members(k)
    inside = np.zeros(graph.num_nodes, dtype=bool)
    inside[keep] = True
    relabel = np.full(graph.num_nodes, -1, dtype=np.int64)
    relabel[keep] = np.arange(keep.size, dtype=np.int64)
    rows = np.repeat(np.arange(graph.num_nodes, dtype=np.int64), graph.degrees())
    sel = inside[rows] & inside[graph.indices]
    new_rows, new_cols = relabel[rows[sel]], relabel[graph.indices[sel]]
    indptr = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(np.bincount(new_rows, minlength=keep.size), out=indptr[1:])
    sub = SparseGraph(keep.size, indptr, new_cols)
    return Subgraph(sub, np.asarray(features, dtype=np.float64)[keep],
                    np.asarray(labels)[keep], keep)
