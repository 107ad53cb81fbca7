"""Graph adjacency as scipy CSR, its normalization, and random node splitting."""

from __future__ import annotations

from dataclasses import dataclass

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

    graph: sp.csr_matrix
    features: np.ndarray
    labels: np.ndarray
    node_ids: np.ndarray  # node_ids[new] = old global id (the relabel map)


def mask_subgraph(graph: sp.csr_matrix, features: np.ndarray, labels: np.ndarray,
                  part: Partition, k: int) -> Subgraph:
    """Restrict graph and node data to subgraph k, dropping cross edges."""
    if not 0 <= k < part.num_subgraphs:
        raise ValueError(f"subgraph index {k} out of range")
    keep = part.members(k)
    return Subgraph(graph[keep][:, keep],
                    np.asarray(features, dtype=np.float64)[keep],
                    np.asarray(labels)[keep], keep)
