import pickle
from collections import defaultdict

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import neighbours
from dpgcn.cli import main
from dpgcn.data import DatasetError, load_dataset
from dpgcn.planetoid import _PARTS, convert
from test_data import assert_dataset_equal


def dump_planetoid(root, name, parts, test_index):
    """Write the upstream layout: seven pickles and a text test index."""
    root.mkdir(exist_ok=True)
    for part, payload in parts.items():
        with open(root / f"ind.{name}.{part}", "wb") as fh:
            pickle.dump(payload, fh)
    (root / f"ind.{name}.test.index").write_text(
        "".join(f"{i}\n" for i in test_index))
    return str(root)


def write_fake_planetoid(root, name="cora"):
    """Ten-node miniature in the upstream pickle layout.

    Nodes 0-5 come from the labeled block (0-1 originally labeled, 2-3
    the validation window), 6-9 are the test range with node 8 missing
    from the test index (the citeseer-style gap).
    """
    allx = sp.csr_matrix(np.array([
        [2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0],
        [0.0, 0.0, 3.0], [1.0, 0.0, 1.0], [0.0, 2.0, 0.0]]))
    ally = np.array([[1, 0], [0, 1], [1, 0], [0, 1], [1, 0], [0, 1]])
    tx = sp.csr_matrix(np.array([
        [1.0, 1.0, 1.0], [0.0, 4.0, 0.0], [5.0, 0.0, 5.0]]))
    ty = np.array([[0, 1], [1, 0], [0, 1]])
    graph = {0: [1, 6, 3], 1: [0], 2: [2, 4], 3: [0], 4: [2], 5: [9],
             6: [0], 7: [], 8: [5], 9: [5]}
    parts = {"x": allx[:2], "y": ally[:2], "tx": tx, "ty": ty, "allx": allx,
             "ally": ally, "graph": graph}
    return dump_planetoid(root, name, parts, [6, 7, 9])


def write_wide_planetoid(root, name="cora"):
    """508 nodes, so the fixed 500-node validation window fits.

    Nodes 0-1 are originally labeled, 2-501 the validation window, 502-503
    the rest of the labeled block; 504-507 is the test range with node
    506 missing from the test index.
    """
    rng = np.random.default_rng(0)
    allx = sp.csr_matrix(rng.integers(0, 3, size=(504, 4)).astype(float))
    ally = np.eye(3, dtype=int)[np.arange(504) % 3]
    tx = sp.csr_matrix(rng.integers(0, 3, size=(3, 4)).astype(float))
    ty = np.eye(3, dtype=int)[[2, 0, 1]]
    graph = {i: [i + 1, (7 * i) % 508] for i in range(507)}
    parts = {"x": allx[:2], "y": ally[:2], "tx": tx, "ty": ty, "allx": allx,
             "ally": ally, "graph": graph}
    return dump_planetoid(root, name, parts, [504, 505, 507])


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
    assert 5 in neighbours(ds.graph, 8)


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
    assert 2 not in neighbours(ds.graph, 2)
    assert 0 in neighbours(ds.graph, 3) and 3 in neighbours(ds.graph, 0)


def test_convert_labels_follow_onehots(tmp_path):
    raw = write_fake_planetoid(tmp_path / "raw")
    ds = convert("cora", raw, val_count=2)
    assert np.array_equal(ds.labels[:6], [0, 1, 0, 1, 0, 1])
    assert np.array_equal(ds.labels[[6, 7, 9]], [1, 0, 1])


def test_convert_missing_file_raises(tmp_path):
    raw = write_fake_planetoid(tmp_path / "raw")
    (tmp_path / "raw" / "ind.cora.graph").unlink()
    with pytest.raises(DatasetError) as exc:
        convert("cora", raw, val_count=2)
    assert exc.value.code == "missing-file"
    assert "ind.cora.graph" in str(exc.value)


def test_convert_checks_every_file_before_unpickling_any(tmp_path):
    raw = write_fake_planetoid(tmp_path / "raw")
    (tmp_path / "raw" / "ind.cora.x").write_bytes(b"junk")
    (tmp_path / "raw" / "ind.cora.test.index").unlink()
    with pytest.raises(DatasetError) as exc:
        convert("cora", raw, val_count=2)
    assert exc.value.code == "missing-file"
    assert "ind.cora.test.index" in str(exc.value)


@pytest.mark.parametrize("protocol", [0, 2, pickle.HIGHEST_PROTOCOL])
def test_convert_reads_every_pickle_protocol(tmp_path, protocol):
    # protocols 0 and 2 name the Python 2 modules copy_reg and __builtin__,
    # as the upstream files do
    want = convert("cora", write_fake_planetoid(tmp_path / "want"), val_count=2)
    raw = write_fake_planetoid(tmp_path / "raw")
    for part in _PARTS:
        path = tmp_path / "raw" / f"ind.cora.{part}"
        payload = pickle.loads(path.read_bytes())
        if part == "graph":
            payload = defaultdict(list, payload)
        path.write_bytes(pickle.dumps(payload, protocol=protocol))
    assert_dataset_equal(convert("cora", raw, val_count=2), want)


def test_convert_test_ids_must_follow_allx(tmp_path):
    raw = write_fake_planetoid(tmp_path / "raw")
    (tmp_path / "raw" / "ind.cora.test.index").write_text("5\n6\n8\n")
    with pytest.raises(DatasetError) as exc:
        convert("cora", raw, val_count=2)
    assert exc.value.code == "index-out-of-range"


@pytest.mark.parametrize("flags", [[], ["--no-row-normalize"]],
                         ids=["normalized", "raw-counts"])
def test_convert_cli_writes_loadable_dir(tmp_path, capsys, flags):
    raw = write_wide_planetoid(tmp_path / "raw")
    out = tmp_path / "data" / "cora"
    assert main(["convert", "--name", "cora", "--raw-dir", raw,
                 "--out", str(out), *flags]) == 0
    assert capsys.readouterr().out == (
        f"wrote cora: 508 nodes, 4 train / 500 val / 3 test -> {out}\n")
    want = convert("cora", raw, row_normalize=not flags)
    assert_dataset_equal(load_dataset(str(out)), want)
    assert want.feature_kind == "sparse"
    assert np.array_equal(want.train_nodes, [0, 1, 502, 503])
    assert (want.features.max() > 1.0) == bool(flags)  # raw counts reach 2


def _junk_pickle(raw):
    (raw / "ind.cora.graph").write_bytes(b"junk")


def _bad_test_index(raw):
    (raw / "ind.cora.test.index").write_text("6\nseven\n9\n")


def _repickle(part, payload):
    def damage(raw):
        with open(raw / f"ind.cora.{part}", "wb") as fh:
            pickle.dump(payload, fh)
    return damage


class _WritesMarker:
    """Unpickling this opens raw/../marker for writing, as a crafted file could."""

    def __init__(self, raw):
        self.path = str(raw.parent / "marker")

    def __reduce__(self):
        return open, (self.path, "w")


def _crafted_pickle(raw):
    _repickle("x", _WritesMarker(raw))(raw)


@pytest.mark.parametrize("damage,message", [
    (None, "missing-file: missing Planetoid file: "),
    (_junk_pickle, "bad-row: ind.cora.graph: "),
    (_bad_test_index, "bad-row: ind.cora.test.index:2: "),
    (_repickle("graph", [[1], [0]]), "bad-row: ind.cora.graph: not a mapping"),
    (_repickle("tx", sp.csr_matrix(np.ones((2, 3)))),
     "shape-mismatch: ind.cora.tx: 2 rows, expected 3"),
    (_repickle("ty", np.eye(2, dtype=int)[[0, 1, 0, 1]]),
     "shape-mismatch: ind.cora.ty: 4 rows, expected 3"),
    (_repickle("ally", np.eye(2, dtype=int)[[0, 1, 0, 1, 0]]),
     "shape-mismatch: ind.cora.ally: 5 rows, expected 6"),
    (_repickle("graph", {0: 5}),
     "bad-row: ind.cora.graph: 'int' object is not iterable"),
    (_repickle("graph", {0: [1], 10: [1]}),
     "bad-row: ind.cora.graph: edge index out of range"),
    (_repickle("tx", sp.csr_matrix(np.ones((3, 4)))),
     "shape-mismatch: ind.cora.tx: 4 columns, expected 3"),
    (_repickle("ty", np.eye(3, dtype=int)),
     "shape-mismatch: ind.cora.ty: 3 columns, expected 2"),
    (_repickle("ally", np.array([0, 1, 0, 1, 0, 1])),
     "bad-row: ind.cora.ally: not a 2-D matrix"),
    (_repickle("y", [[1, 0], [0, 1]]), "bad-row: ind.cora.y: not a 2-D matrix"),
    (_crafted_pickle,
     "bad-row: ind.cora.x: UnpicklingError: global io.open is not allowed"),
    # undamaged: ten nodes cannot hold the default 500-node validation window
    (lambda raw: None, "index-out-of-range: ind.cora.y: the 500-node "
     "validation window after its 2 rows runs past the 10 nodes"),
], ids=["missing-dir", "junk-pickle", "bad-test-index", "graph-not-mapping",
        "tx-rows", "ty-rows", "ally-rows", "graph-value-not-ids",
        "graph-key-out-of-range", "tx-columns", "ty-columns", "ally-1d",
        "y-not-matrix", "crafted-pickle", "validation-window-past-the-nodes"])
def test_convert_cli_bad_raw_dir_exits_3(tmp_path, capsys, damage, message):
    raw = tmp_path / "raw"
    if damage is not None:  # None: the raw directory does not exist
        write_fake_planetoid(raw)
        damage(raw)
    assert main(["convert", "--name", "cora", "--raw-dir", str(raw),
                 "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(f"dataset error: {message}")
    assert not (tmp_path / "out").exists()
    assert not (tmp_path / "marker").exists()  # the crafted pickle ran no code
