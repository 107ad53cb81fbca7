import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import neighbours
from dpgcn.graph import (build_graph, mask_subgraph, normalize_adjacency,
                         random_partition, spmm)
from dpgcn.rng import Prng


# ---- oracles ----

def dense_adjacency(graph):
    a = np.zeros(graph.shape)
    for i in range(graph.shape[0]):
        a[i, neighbours(graph, i)] = 1.0
    return a


def dense_normalized(graph):
    """Brute force D^-1/2 (A + I) D^-1/2 on a dense matrix."""
    a_hat = dense_adjacency(graph) + np.eye(graph.shape[0])
    d = a_hat.sum(axis=1)
    inv = np.diag(1.0 / np.sqrt(d))
    return inv @ a_hat @ inv


def adj_to_dense(adj):
    out = np.zeros(adj.shape)
    for i in range(adj.shape[0]):
        lo, hi = adj.indptr[i], adj.indptr[i + 1]
        out[i, adj.indices[lo:hi]] = adj.data[lo:hi]
    return out


def random_graph(n, num_edges, seed):
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    take = rng.choice(len(pairs), size=min(num_edges, len(pairs)), replace=False)
    edges = [pairs[t] for t in take]
    # every edge again reversed, and every other one repeated as given
    return build_graph(n, edges + [(j, i) for i, j in edges] + edges[::2])


# ---- build_graph ----

def test_build_single_node():
    g = build_graph(1, [])
    assert g.shape[0] == 1 and g.indices.size == 0


def test_build_one_edge_symmetry():
    g = build_graph(2, [(0, 1)])
    assert np.array_equal(g.indptr, [0, 1, 2])
    assert np.array_equal(g.indices, [1, 0])
    assert g.indices.size // 2 == 1


def test_build_dedups_both_orientations():
    g = build_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.indices.size == 2


def test_build_drops_self_loops():
    g = build_graph(3, [(0, 0), (0, 1)])
    assert g.indices.size == 2


def test_build_errors():
    with pytest.raises(ValueError):
        build_graph(-1, [])
    for edges in ([(0, 2)], [(-1, 0)], np.array([[0, 2**64 - 1]], dtype=np.uint64)):
        with pytest.raises(ValueError, match="^edge index out of range$"):
            build_graph(2, edges)
    # endpoints are not cast: (0.9, 1.7) is no edge 0-1
    for edges in ([(0.9, 1.7)], [(0.0, 1.0)], [(0, 1), (1, 1.5)],
                  np.array([[True, False]])):
        with pytest.raises(ValueError, match="edge endpoints must be integers"):
            build_graph(2, edges)


@pytest.mark.parametrize("edges", [
    [(0, 1), (1, 2)], np.array([[0, 1], [1, 2]]),
    np.array([[0, 1], [1, 2]], dtype=np.int32),
    np.array([[0, 1], [1, 2]], dtype=np.uint8),
], ids=["list", "int64", "int32", "uint8"])
def test_build_accepts_integer_endpoints(edges):
    g = build_graph(3, edges)
    assert np.array_equal(g.indptr, [0, 1, 3, 4])
    assert np.array_equal(g.indices, [1, 0, 2, 1])


def test_build_sorted_rows():
    g = build_graph(5, [(0, 4), (0, 2), (0, 1), (3, 0)])
    assert np.array_equal(neighbours(g, 0), [1, 2, 3, 4])


# ---- normalize_adjacency ----

def test_normalize_single_node_identity():
    adj = normalize_adjacency(build_graph(1, []))
    assert np.array_equal(adj_to_dense(adj), [[1.0]])


def test_normalize_pair_all_half():
    adj = normalize_adjacency(build_graph(2, [(0, 1)]))
    assert np.allclose(adj_to_dense(adj), np.full((2, 2), 0.5), rtol=1e-15, atol=0)


def test_normalize_path_entries():
    adj = adj_to_dense(normalize_adjacency(build_graph(3, [(0, 1), (1, 2)])))
    want = dense_normalized(build_graph(3, [(0, 1), (1, 2)]))
    assert np.allclose(adj, want, rtol=1e-12, atol=0)
    assert adj[0, 1] == pytest.approx(1.0 / np.sqrt(6.0), rel=1e-12)
    assert adj[0, 0] == pytest.approx(0.5, rel=1e-12)
    assert adj[1, 1] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_normalize_matches_dense_oracle_exhaustive():
    # every graph on up to 4 nodes, plus random 5- and 6-node graphs
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(2 ** len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            g = build_graph(n, edges)
            got = adj_to_dense(normalize_adjacency(g))
            assert np.allclose(got, dense_normalized(g), rtol=1e-12, atol=1e-15)
    for seed in range(10):
        g = random_graph(6, 9, seed)
        got = adj_to_dense(normalize_adjacency(g))
        assert np.allclose(got, dense_normalized(g), rtol=1e-12, atol=1e-15)


def test_normalize_exact_symmetry_and_positive_diagonal():
    g = random_graph(8, 14, 3)
    adj = normalize_adjacency(g)
    dense = adj_to_dense(adj)
    assert np.array_equal(dense, dense.T)  # same product both ways, exact
    assert (np.diag(dense) > 0).all()


def test_normalize_row_sum_formula():
    g = random_graph(7, 10, 5)
    adj = normalize_adjacency(g)
    d = np.diff(g.indptr) + 1.0
    for i in range(7):
        neigh = np.append(neighbours(g, i), i)
        want = np.sum(1.0 / np.sqrt(d[i] * d[neigh]))
        lo, hi = adj.indptr[i], adj.indptr[i + 1]
        assert adj.data[lo:hi].sum() == pytest.approx(want, rel=1e-12)


# ---- spmm ----

def test_spmm_isolated_node():
    adj = normalize_adjacency(build_graph(1, []))
    assert np.array_equal(spmm(adj, np.array([[3.0]])), [[3.0]])


def test_spmm_pair_oracle():
    adj = normalize_adjacency(build_graph(2, [(0, 1)]))
    got = spmm(adj, np.array([[1.0], [3.0]]))
    assert np.allclose(got, [[2.0], [2.0]], rtol=1e-15)


def test_spmm_zero_matrix():
    adj = normalize_adjacency(random_graph(5, 6, 1))
    assert np.array_equal(spmm(adj, np.zeros((5, 3))), np.zeros((5, 3)))


def test_spmm_matches_dense_oracle():
    g = random_graph(9, 16, 2)
    adj = normalize_adjacency(g)
    x = np.random.default_rng(0).normal(size=(9, 4))
    assert np.allclose(spmm(adj, x), dense_normalized(g) @ x, rtol=1e-12)


def test_spmm_shape_error():
    adj = normalize_adjacency(build_graph(2, [(0, 1)]))
    with pytest.raises(ValueError):
        spmm(adj, np.zeros((3, 1)))


# ---- random_partition ----

def sizes(groups):
    return [keep.size for keep in groups]


def test_partition_sizes_10_3():
    groups = random_partition(np.arange(10), 3, Prng(0))
    assert sorted(sizes(groups)) == [3, 3, 4]


def test_partition_sizes_divisible():
    groups = random_partition(np.arange(9), 3, Prng(0))
    assert sizes(groups) == [3, 3, 3]


def test_partition_singletons():
    groups = random_partition(np.arange(5), 5, Prng(0))
    assert sizes(groups) == [1] * 5


def test_partition_deterministic_and_seed_sensitive():
    a = random_partition(np.arange(40), 7, Prng(5))
    b = random_partition(np.arange(40), 7, Prng(5))
    c = random_partition(np.arange(40), 7, Prng(6))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert sorted(sizes(a)) == sorted(sizes(c))
    assert not all(np.array_equal(x, y) for x, y in zip(a, c))


def test_partition_errors():
    with pytest.raises(ValueError):
        random_partition(np.arange(3), 4, Prng(0))
    with pytest.raises(ValueError):
        random_partition(np.arange(3), 0, Prng(0))
    with pytest.raises(ValueError):  # numpy would wrap it to the last node
        random_partition(np.array([-2, 0, 1]), 2, Prng(0))


def test_partition_ids_are_integers_not_cast():
    # a cast would read the bool mask as ids [1, 0, 1, 1] and 3.7 as node 3
    for nodes in (np.array([True, False, True, True]), np.array([0.9, 3.7, 5.0]),
                  np.array([0.0, 1.0, 2.0])):
        with pytest.raises(ValueError, match="must be integers"):
            random_partition(nodes, 2, Prng(0))
    groups = random_partition(np.array([3, 0, 2], dtype=np.uint8), 2, Prng(0))
    assert all(g.dtype == np.int64 for g in groups)


def test_partition_covers_exact_node_set():
    nodes = np.array([4, 9, 17, 2, 30])
    groups = random_partition(nodes, 2, Prng(1))
    got = np.concatenate(groups)
    assert np.array_equal(np.sort(got), np.sort(nodes))
    # each group is sorted global ids
    assert all(keep.dtype == np.int64 and np.all(np.diff(keep) > 0)
               for keep in groups)


@given(n=st.integers(1, 60), s=st.integers(1, 60), seed=st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_partition_properties(n, s, seed):
    if s > n:
        with pytest.raises(ValueError):
            random_partition(np.arange(n), s, Prng(seed))
        return
    groups = random_partition(np.arange(n), s, Prng(seed))
    counts = np.array(sizes(groups))
    assert len(groups) == s
    assert counts.sum() == n and counts.min() >= 1
    assert counts.max() - counts.min() <= 1
    assert np.array_equal(np.sort(np.concatenate(groups)), np.arange(n))


# ---- mask_subgraph ----

def _two_triangles():
    # triangles {0,1,2} and {3,4,5} bridged by edge (2,3)
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)]
    return build_graph(6, edges)


def test_mask_drops_bridge_keeps_triangles():
    g = _two_triangles()
    for keep in (np.array([0, 1, 2]), np.array([3, 4, 5])):
        sub = mask_subgraph(g, keep)
        assert sub.shape == (3, 3)
        assert sub.indices.size // 2 == 3  # the triangle, bridge gone


def test_mask_triangle_partial():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    sub = mask_subgraph(g, np.array([0, 1]))
    assert sub.shape[0] == 2 and sub.indices.size // 2 == 1
    assert np.array_equal(neighbours(sub, 0), [1])


def test_mask_singleton():
    g = build_graph(2, [(0, 1)])
    sub = mask_subgraph(g, np.array([1]))
    assert sub.shape[0] == 1 and sub.indices.size == 0


def test_mask_preserves_fully_contained_edges():
    g = _two_triangles()
    sub = mask_subgraph(g, np.arange(6))
    assert sub.indices.size // 2 == g.indices.size // 2


def test_mask_index_error():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(IndexError):  # a node id past the graph
        mask_subgraph(g, np.array([0, 2]))
    with pytest.raises(ValueError):  # numpy would wrap it to the last node
        mask_subgraph(build_graph(3, [(0, 1), (1, 2)]), np.array([-1, 1]))
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(ValueError, match="must be integers"):  # a cast reads node 3
        mask_subgraph(g, np.array([3.0]))
    with pytest.raises(ValueError, match="repeated node id"):  # node 1 listed twice
        mask_subgraph(g, np.array([1, 1, 2]))


@given(seed=st.integers(0, 50), s=st.integers(1, 6))
@settings(max_examples=40, deadline=None)
def test_mask_no_cross_edges_property(seed, s):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(s, 15))
    g = random_graph(n, int(rng.integers(0, 2 * n)), seed)
    # the format: symmetric CSR, rows sorted, repeats merged
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert all((np.diff(neighbours(g, i)) > 0).all() for i in range(n))
    assert np.array_equal(dense_adjacency(g), dense_adjacency(g).T)
    groups = random_partition(np.arange(n), s, Prng(seed))
    assign = np.empty(n, dtype=int)
    for k, keep in enumerate(groups):
        assign[keep] = k
    kept = 0
    for k, keep in enumerate(groups):
        sub = mask_subgraph(g, keep)
        kept += sub.indices.size // 2
        for new_i in range(sub.shape[0]):
            for new_j in neighbours(sub, new_i):
                gi, gj = keep[new_i], keep[new_j]
                assert assign[gi] == assign[gj] == k
    # kept edges are exactly those with both endpoints in one subgraph
    want = sum(1 for i in range(n) for j in neighbours(g, i)
               if i < j and assign[i] == assign[j])
    assert kept == want


# ---- scipy.sparse as the reference ----

@st.composite
def edges_and_keep(draw):
    n = draw(st.integers(0, 12))
    node = st.integers(0, max(n - 1, 0))
    # repeats and self-loops included; some nodes end up isolated
    edges = draw(st.lists(st.tuples(node, node), max_size=30)) if n else []
    keep = draw(st.one_of(st.permutations(range(n)),   # whole graph, shuffled
                          st.lists(node, min_size=min(n, 1), max_size=min(n, 1)),
                          st.lists(node, unique=True, max_size=n)) if n
                else st.just([]))
    return n, edges, np.array(keep, dtype=np.int64)


@given(edges_and_keep())
@settings(max_examples=200, deadline=None)
def test_build_and_mask_match_scipy_csr(case):
    n, edges, keep = case
    e = np.array(edges, dtype=np.int64).reshape(-1, 2)
    e = e[e[:, 0] != e[:, 1]]
    ref = sp.csr_matrix((np.ones(2 * len(e)), (np.r_[e[:, 0], e[:, 1]],
                                               np.r_[e[:, 1], e[:, 0]])), shape=(n, n))
    ref.sum_duplicates()  # repeats summed, indices sorted within rows
    g = build_graph(n, edges)
    assert g.shape == ref.shape
    assert g.indptr.dtype == g.indices.dtype == np.int64
    assert np.array_equal(g.indptr, ref.indptr)
    assert np.array_equal(g.indices, ref.indices)
    sub, want = mask_subgraph(g, keep), ref[keep][:, keep]
    want.sum_duplicates()
    assert sub.shape == want.shape
    assert np.array_equal(sub.indptr, want.indptr)
    assert np.array_equal(sub.indices, want.indices)
