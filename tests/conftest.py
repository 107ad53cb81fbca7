import os

import numpy as np
import pytest

from dpgcn.data import Dataset, load_dataset


def dataset_dir(name: str):
    """Converted real-dataset directory, if the user provided one."""
    roots = [os.environ.get("DPGCN_DATA", ""),
             os.path.join(os.path.dirname(__file__), "..", "data")]
    for root in roots:
        if root and os.path.isdir(os.path.join(root, name)):
            return os.path.join(root, name)
    return None


def load_real(name: str) -> Dataset:
    path = dataset_dir(name)
    if path is None:
        pytest.skip(f"no converted '{name}' dataset (see README: "
                    "dpgcn convert writes data/{name})")
    return load_dataset(path)


def neighbours(graph, i):
    """Node i's neighbours, read from a graph's CSR arrays."""
    return graph.indices[graph.indptr[i]:graph.indptr[i + 1]]


def assert_graph_equal(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
