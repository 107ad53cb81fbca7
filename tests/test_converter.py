import pickle

import numpy as np
import pytest
import scipy.sparse as sp

from dpgcn.data import load_dataset
from dpgcn.planetoid import convert, main


def write_fake_planetoid(root, name="cora"):
    """Ten-node miniature in the upstream pickle layout.

    Nodes 0-5 come from the labeled block (0-1 originally labeled, 2-3
    the validation window), 6-9 are the test range with node 8 missing
    from the test index (the citeseer-style gap).
    """
    root.mkdir(exist_ok=True)
    allx = sp.csr_matrix(np.array([
        [2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0],
        [0.0, 0.0, 3.0], [1.0, 0.0, 1.0], [0.0, 2.0, 0.0]]))
    ally = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1]])
    x, y = allx[:2], ally[:2]
    test_index = [6, 7, 9]
    tx = sp.csr_matrix(np.array([
        [1.0, 1.0, 1.0], [0.0, 4.0, 0.0], [5.0, 0.0, 5.0]]))
    ty = np.array([[0, 1], [1, 0], [0, 1]])
    graph = {0: [1, 6, 3], 1: [0], 2: [2, 4], 3: [0], 4: [2], 5: [9],
             6: [0], 7: [], 8: [5], 9: [5]}
    parts = {"x": x, "y": y, "tx": tx, "ty": ty, "allx": allx, "ally": ally,
             "graph": graph}
    for part, payload in parts.items():
        with open(root / f"ind.{name}.{part}", "wb") as fh:
            pickle.dump(payload, fh)
    (root / f"ind.{name}.test.index").write_text(
        "".join(f"{i}\n" for i in test_index))
    return str(root)


def test_convert_full_split(tmp_path):
    raw = write_fake_planetoid(tmp_path / "raw")
    ds = convert("cora", raw, val_count=2)
    assert ds.num_nodes == 10
    assert np.array_equal(ds.val_nodes, [2, 3])
    assert np.array_equal(ds.test_nodes, [6, 7, 9])
    # labeled nodes outside val/test: 0, 1, 4, 5
    assert np.array_equal(ds.train_nodes, [0, 1, 4, 5])


def test_convert_fills_test_gap_with_unlabeled_zero_row(tmp_path):
    raw = write_fake_planetoid(tmp_path / "raw")
    ds = convert("cora", raw, val_count=2)
    assert ds.labels[8] == -1
    assert np.array_equal(ds.features[8], np.zeros(3))
    # the gap node keeps its graph edges
    assert 5 in ds.graph[8].indices


def test_convert_row_normalizes_by_default(tmp_path):
    raw = write_fake_planetoid(tmp_path / "raw")
    ds = convert("cora", raw, val_count=2)
    sums = ds.features.sum(axis=1)
    nonzero = sums > 0
    assert np.allclose(sums[nonzero], 1.0, rtol=1e-12)
    raw_ds = convert("cora", raw, val_count=2, row_normalize=False)
    assert raw_ds.features[0, 0] == 2.0


def test_convert_drops_self_loops_and_symmetrizes(tmp_path):
    raw = write_fake_planetoid(tmp_path / "raw")
    ds = convert("cora", raw, val_count=2)
    assert 2 not in ds.graph[2].indices
    assert 0 in ds.graph[3].indices and 3 in ds.graph[0].indices


def test_convert_labels_follow_onehots(tmp_path):
    raw = write_fake_planetoid(tmp_path / "raw")
    ds = convert("cora", raw, val_count=2)
    assert np.array_equal(ds.labels[:6], [0, 1, 0, 1, 0, 1])
    assert np.array_equal(ds.labels[[6, 7, 9]], [1, 0, 1])


def test_convert_missing_file_raises(tmp_path):
    raw = write_fake_planetoid(tmp_path / "raw")
    (tmp_path / "raw" / "ind.cora.graph").unlink()
    with pytest.raises(FileNotFoundError):
        convert("cora", raw, val_count=2)


def test_converter_main_writes_loadable_dir(tmp_path, capsys):
    write_fake_planetoid(tmp_path / "raw")
    # the CLI path uses the real 500-node validation window, which this
    # miniature cannot satisfy; exercise main through convert's save path
    out = tmp_path / "data" / "cora"
    from dpgcn.data import save_dataset
    ds = convert("cora", str(tmp_path / "raw"), val_count=2)
    save_dataset(ds, str(out))
    loaded = load_dataset(str(out))
    assert loaded.feature_kind == "sparse"
    assert loaded.num_nodes == 10
    assert np.array_equal(loaded.features, ds.features)


def test_converter_main_missing_dir_exits_2(tmp_path, capsys):
    assert main(["--name", "cora", "--raw-dir", str(tmp_path / "ghost"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "missing Planetoid file" in capsys.readouterr().err
