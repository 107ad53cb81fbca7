"""Shape and baseline checks against converted citation datasets.

These tests skip unless a converted dataset directory exists (either
under $DPGCN_DATA or ../data relative to this file); see the README for
how to produce one with dpgcn convert.
"""

import numpy as np

from conftest import load_real

from dpgcn.data import save_dataset, load_dataset
from dpgcn.graph import normalize_adjacency, spmm
from dpgcn.model import GcnParams, Target, evaluate


def test_cora_shapes():
    ds = load_real("cora")
    assert ds.num_nodes == 2708
    assert ds.num_classes == 7
    assert ds.feature_dim == 1433
    assert ds.train_nodes.size == 1208
    assert ds.val_nodes.size == 500
    assert ds.test_nodes.size == 1000


def test_citeseer_shapes():
    ds = load_real("citeseer")
    assert ds.num_nodes == 3327
    assert ds.num_classes == 6
    assert ds.feature_dim == 3703
    assert ds.train_nodes.size == 1827
    assert ds.val_nodes.size == 500
    assert ds.test_nodes.size == 1000


def test_splits_are_disjoint_and_labeled():
    ds = load_real("cora")
    masked = np.concatenate([ds.train_nodes, ds.val_nodes, ds.test_nodes])
    assert masked.size == np.unique(masked).size
    assert np.all(ds.labels[masked] >= 0)


def test_citeseer_majority_class_micro_f1_near_018():
    """A constant predictor of the most common test label scores ~0.18.

    Built as an actual model evaluation: with all-ones features, w0 = [[1]]
    and w1 one-hot on class c, every node's logit for c is positive (the
    normalized adjacency has strictly positive row sums) while all other
    logits are exactly zero, so argmax is c everywhere.
    """
    ds = load_real("citeseer")
    test_labels = ds.labels[ds.test_nodes]
    counts = np.bincount(test_labels, minlength=ds.num_classes)
    c = int(np.argmax(counts))
    majority_fraction = counts[c] / test_labels.size

    features = np.ones((ds.num_nodes, 1))
    w1 = np.zeros((1, ds.num_classes))
    w1[0, c] = 1.0
    params = GcnParams(w0=np.array([[1.0]]), w1=w1)
    adj = normalize_adjacency(ds.graph)
    metrics = evaluate(params, adj,
                       Target.of(ds.labels, ds.test_nodes, ds.num_classes),
                       ax=spmm(adj, features))

    assert metrics.micro_f1 == majority_fraction
    assert abs(metrics.micro_f1 - 0.18) < 0.02


def test_cora_save_load_round_trip(tmp_path):
    ds = load_real("cora")
    out = tmp_path / "cora-copy"
    save_dataset(ds, str(out))
    again = load_dataset(str(out))
    assert np.array_equal(again.features, ds.features)
    assert np.array_equal(again.labels, ds.labels)
    assert np.array_equal(again.graph.indptr, ds.graph.indptr)
    assert np.array_equal(again.graph.indices, ds.graph.indices)
    assert np.array_equal(again.train_nodes, ds.train_nodes)
