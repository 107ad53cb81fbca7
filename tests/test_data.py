import json
import os
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpgcn.cli import main
from dpgcn.data import (Dataset, DatasetError, SynthSpec, generate_synthetic,
                        load_dataset, save_dataset)
from dpgcn.graph import build_graph
from conftest import assert_graph_equal


def write_fixture(root, *, meta=None, edges=("0\t1", "1\t2"),
                  features=("1.0,0.5", "0.0,2.0", "-1.0,0.25"),
                  labels=("0\t0", "1\t1", "2\t0"),
                  masks=("0\ttrain", "1\tval", "2\ttest"),
                  feature_file="features.csv", skip=()):
    meta = meta or {"name": "fixture", "num_nodes": 3, "num_classes": 2,
                    "feature_dim": 2, "feature_kind": "dense"}
    root.mkdir(exist_ok=True)
    files = {"meta.json": [json.dumps(meta)], "edges.tsv": edges,
             feature_file: features, "labels.tsv": labels, "masks.tsv": masks}
    for name, lines in files.items():
        if name in skip:
            continue
        (root / name).write_text("".join(line + "\n" for line in lines))
    return str(root)


def small_dataset(name="small"):
    return Dataset(
        name=name,
        graph=build_graph(4, [(0, 1), (1, 2), (0, 3)]),
        features=np.array([[1.0, 0.0], [0.5, -2.0], [0.0, 0.0], [3.25, 1.0]]),
        labels=np.array([0, 1, 1, -1], dtype=np.int64),
        train_nodes=np.array([0], dtype=np.int64),
        val_nodes=np.array([1], dtype=np.int64),
        test_nodes=np.array([2], dtype=np.int64),
        num_classes=2,
    )


def assert_dataset_equal(a, b):
    assert a.name == b.name and a.num_classes == b.num_classes
    assert a.feature_kind == b.feature_kind
    assert_graph_equal(a.graph, b.graph)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    for field in ("train_nodes", "val_nodes", "test_nodes"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


# ---- load_dataset: hand-written fixture and every failure code ----

def test_load_three_node_fixture(tmp_path):
    ds = load_dataset(write_fixture(tmp_path / "fix"))
    assert ds.num_nodes == 3 and ds.num_classes == 2
    assert ds.graph.nnz // 2 == 2
    assert np.array_equal(ds.features[1], [0.0, 2.0])
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert np.array_equal(ds.train_nodes, [0])
    assert np.array_equal(ds.test_nodes, [2])


def test_fixture_round_trips_through_save(tmp_path):
    ds = load_dataset(write_fixture(tmp_path / "fix"))
    save_dataset(ds, str(tmp_path / "copy"))
    assert_dataset_equal(load_dataset(str(tmp_path / "copy")), ds)


@pytest.mark.parametrize("mutate,code", [
    (dict(skip=("edges.tsv",)), "missing-file"),
    (dict(meta={"name": "x", "num_nodes": 3}), "bad-meta"),
    (dict(meta={"name": "x", "num_nodes": 3, "num_classes": 2,
                "feature_dim": 2, "feature_kind": "mystery"}), "bad-meta"),
    (dict(edges=("0\t3",)), "index-out-of-range"),
    (dict(edges=("1\t0",)), "index-out-of-range"),
    (dict(edges=("1\t2", "0\t1")), "bad-edge-order"),
    (dict(edges=("0\t1", "0\t1")), "bad-edge-order"),
    (dict(features=("1.0,0.5", "0.0,2.0")), "shape-mismatch"),
    (dict(features=("1.0,0.5,9.0", "0.0,2.0,9.0", "1.0,1.0,9.0")),
     "shape-mismatch"),
    (dict(features=("1.0,nan", "0.0,2.0", "-1.0,0.25")), "non-finite-feature"),
    (dict(features=("1.0,inf", "0.0,2.0", "-1.0,0.25")), "non-finite-feature"),
    (dict(labels=("0\t5", "1\t1", "2\t0")), "label-out-of-range"),
    (dict(labels=("9\t0",)), "index-out-of-range"),
    (dict(masks=("0\tTRAIN",)), "bad-mask-token"),
    (dict(masks=("0\ttrain", "0\tval")), "overlapping-masks"),
    (dict(masks=("9\ttrain",)), "index-out-of-range"),
    (dict(labels=("0\t0", "1\t1"), masks=("2\ttest",)), "unlabeled-masked-node"),
    (dict(masks=("0\ttrain", "0\ttrain")), "duplicate-row"),
    # sizes past any address space: each allocation fails at once
    (dict(meta={"name": "x", "num_nodes": 10**15, "num_classes": 2,
                "feature_dim": 2, "feature_kind": "dense"}), "bad-meta"),
    (dict(meta={"name": "x", "num_nodes": 3, "num_classes": 2,
                "feature_dim": 10**15, "feature_kind": "dense"}), "bad-meta"),
    (dict(meta={"name": "x", "num_nodes": 3, "num_classes": 2,
                "feature_dim": 10**15, "feature_kind": "sparse"},
          feature_file="features.tsv", features=("0\t1\t0.5",)), "bad-meta"),
    (dict(meta={"name": "x", "num_nodes": 10**30, "num_classes": 2,
                "feature_dim": 2, "feature_kind": "dense"}), "bad-meta"),
])
def test_load_error_codes(tmp_path, mutate, code):
    path = write_fixture(tmp_path / "bad", **mutate)
    with pytest.raises(DatasetError) as exc:
        load_dataset(path)
    assert exc.value.code == code


@pytest.mark.parametrize("name,raw,code,where", [
    ("edges.tsv", b"0\t1\n1\t2\t9\n", "shape-mismatch", "edges.tsv:2:"),
    ("masks.tsv", b"0\ttrain\n\n1\n", "shape-mismatch", "masks.tsv:3:"),
    ("labels.tsv", b"0\t0\n1\t1.0\n", "bad-row", "labels.tsv:2:"),
    ("labels.tsv", b"0\t0\n1\t1\xff\n2\t0\n", "bad-row", "labels.tsv:2:"),
    ("features.csv", b"1.0,0.5\n0.0,two\n-1.0,0.25\n", "bad-row",
     "features.csv:2:"),
])
def test_row_errors_name_file_and_line(tmp_path, name, raw, code, where):
    root = Path(write_fixture(tmp_path / "bad"))
    (root / name).write_bytes(raw)
    with pytest.raises(DatasetError) as exc:
        load_dataset(str(root))
    assert exc.value.code == code
    assert str(exc.value).startswith(f"{code}: {where}")


def _rewrite(name, edit):
    def mutate(root):
        (root / name).write_bytes(edit((root / name).read_bytes()))
    return mutate


def _meta_size(value, key=b"num_nodes", was=b"3"):
    return _rewrite("meta.json", lambda raw: raw.replace(b'"%s": %s' % (key, was),
                                                          b'"%s": %s' % (key, value)))


def _zero_features(root):
    meta = json.loads((root / "meta.json").read_text())
    meta.update(feature_dim=0, feature_kind="sparse")
    (root / "meta.json").write_text(json.dumps(meta))
    (root / "features.tsv").write_text("")


def _repeated_triplet(root):
    meta = json.loads((root / "meta.json").read_text())
    meta.update(feature_kind="sparse")
    (root / "meta.json").write_text(json.dumps(meta))
    (root / "features.tsv").write_text("0\t1\t0.5\n2\t0\t-1.0\n0\t1\t123.0\n")


BROKEN_FILES = {
    "features-zero-columns": _zero_features,
    "meta-bad-json": _rewrite("meta.json", lambda raw: raw[:-3]),
    "meta-bare-number": _rewrite("meta.json", lambda raw: b"3\n"),
    "meta-size-string": _meta_size(b'"x"'),
    "meta-size-float": _meta_size(b"3.7"),
    "meta-size-bool": _meta_size(b"true"),
    "meta-size-huge": _meta_size(b"%d" % 10**15),
    "meta-feature-dim-huge": _meta_size(b"%d" % 10**15, b"feature_dim", b"2"),
    "edges-3-columns": _rewrite("edges.tsv", lambda raw: b"0\t1\t2\n1\t2\n"),
    "masks-1-column": _rewrite("masks.tsv", lambda raw: raw.replace(b"\tval", b"")),
    "labels-non-integer": _rewrite("labels.tsv",
                                   lambda raw: raw.replace(b"1\t1", b"1\tone")),
    "features-non-number": _rewrite("features.csv",
                                    lambda raw: raw.replace(b"2.0", b"two")),
    "labels-repeated-node": _rewrite("labels.tsv", lambda raw: raw + b"0\t1\n"),
    "features-repeated-triplet": _repeated_triplet,
    **{f"{name}-not-utf8": _rewrite(name, lambda raw: raw[:4] + b"\xff" + raw[4:])
       for name in ("meta.json", "edges.tsv", "features.csv", "labels.tsv",
                    "masks.tsv")},
}


@pytest.mark.parametrize("broken", sorted(BROKEN_FILES))
def test_run_on_malformed_dataset_exits_3(tmp_path, capsys, broken):
    root = Path(write_fixture(tmp_path / "data"))
    BROKEN_FILES[broken](root)
    config = tmp_path / "exp.cfg"
    config.write_text(f"dataset = {root}\nkind = A\nmax_epochs = 1\nseeds = 0\n")
    assert main(["run", "--config", str(config), "--out",
                 str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("dataset error: ")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_any_one_line_mutation_raises_dataset_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(write_fixture(Path(tmp) / "data"))
        name = data.draw(st.sampled_from(sorted(os.listdir(root))))
        raw = (root / name).read_bytes()
        how = data.draw(st.sampled_from(
            ("truncate", "byte") if name == "meta.json"
            else ("drop", "add", "non-number", "byte")))
        if how == "truncate":  # cut inside the JSON text, not just its newline
            raw = raw[:data.draw(st.integers(0, len(raw.rstrip()) - 1))]
        elif how == "byte":  # no UTF-8 text holds a lone 0x80 or 0xff
            at = data.draw(st.integers(0, len(raw)))
            raw = raw[:at] + data.draw(st.sampled_from((b"\x80", b"\xff"))) + raw[at:]
        else:
            sep = "," if name.endswith(".csv") else "\t"
            lines = raw.decode().splitlines()
            k = data.draw(st.integers(0, len(lines) - 1))
            cells = lines[k].split(sep)
            col = data.draw(st.integers(0, len(cells) - 1))
            if how == "drop":
                del cells[col]
            elif how == "add":
                cells.insert(col, "1")
            else:
                cells[col] = data.draw(st.sampled_from(("x", "1e", "", "--1")))
            lines[k] = sep.join(cells)
            raw = "".join(line + "\n" for line in lines).encode()
        (root / name).write_bytes(raw)
        with pytest.raises(DatasetError):
            load_dataset(str(root))


def test_load_missing_directory(tmp_path):
    with pytest.raises(DatasetError) as exc:
        load_dataset(str(tmp_path / "nope"))
    assert exc.value.code == "missing-file"


def test_load_sparse_features(tmp_path):
    meta = {"name": "sp", "num_nodes": 3, "num_classes": 2,
            "feature_dim": 4, "feature_kind": "sparse"}
    path = write_fixture(tmp_path / "sp", meta=meta,
                         features=("0\t1\t2.5", "2\t3\t-1.0"),
                         feature_file="features.tsv")
    ds = load_dataset(path)
    want = np.zeros((3, 4))
    want[0, 1], want[2, 3] = 2.5, -1.0
    assert np.array_equal(ds.features, want)
    assert ds.feature_kind == "sparse"


def test_load_sparse_triplet_out_of_range(tmp_path):
    meta = {"name": "sp", "num_nodes": 3, "num_classes": 2,
            "feature_dim": 4, "feature_kind": "sparse"}
    path = write_fixture(tmp_path / "sp", meta=meta,
                         features=("0\t7\t2.5",), feature_file="features.tsv")
    with pytest.raises(DatasetError) as exc:
        load_dataset(path)
    assert exc.value.code == "index-out-of-range"


# ---- save_dataset ----

def test_save_load_round_trip(tmp_path):
    ds = small_dataset()
    save_dataset(ds, str(tmp_path / "out"))
    assert_dataset_equal(load_dataset(str(tmp_path / "out")), ds)


def test_save_twice_byte_identical(tmp_path):
    ds = generate_synthetic(SynthSpec((20, 20), 0.3, 0.05, feature_dim=3, seed=1))
    save_dataset(ds, str(tmp_path / "a"))
    save_dataset(ds, str(tmp_path / "b"))
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == sorted(os.listdir(tmp_path / "b"))
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_save_resave_byte_identical(tmp_path):
    ds = generate_synthetic(SynthSpec((15, 15), 0.3, 0.05, feature_dim=2, seed=4))
    save_dataset(ds, str(tmp_path / "a"))
    save_dataset(load_dataset(str(tmp_path / "a")), str(tmp_path / "b"))
    for name in sorted(os.listdir(tmp_path / "a")):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_save_empty_edge_graph(tmp_path):
    ds = Dataset("lonely", build_graph(3, []),
                 np.zeros((3, 1)), np.array([0, 1, 0], dtype=np.int64),
                 np.array([0], dtype=np.int64), np.array([1], dtype=np.int64),
                 np.array([2], dtype=np.int64), 2)
    save_dataset(ds, str(tmp_path / "out"))
    assert (tmp_path / "out" / "edges.tsv").read_text() == ""
    loaded = load_dataset(str(tmp_path / "out"))
    assert loaded.graph.nnz // 2 == 0


def test_save_sparse_round_trip(tmp_path):
    ds = small_dataset()
    ds = Dataset(ds.name, ds.graph, ds.features, ds.labels, ds.train_nodes,
                 ds.val_nodes, ds.test_nodes, ds.num_classes,
                 feature_kind="sparse")
    save_dataset(ds, str(tmp_path / "out"))
    assert (tmp_path / "out" / "features.tsv").exists()
    assert_dataset_equal(load_dataset(str(tmp_path / "out")), ds)


def test_validate_rejects_bad_datasets():
    base = small_dataset()
    with pytest.raises(DatasetError):
        Dataset(base.name, base.graph, base.features[:2], base.labels,
                base.train_nodes, base.val_nodes, base.test_nodes, 2).validate()
    with pytest.raises(DatasetError) as exc:
        Dataset(base.name, base.graph, base.features, base.labels,
                np.array([0, 1]), np.array([1]), base.test_nodes, 2).validate()
    assert exc.value.code == "overlapping-masks"
    with pytest.raises(DatasetError) as exc:
        Dataset(base.name, base.graph, base.features, base.labels,
                np.array([3]), base.val_nodes, base.test_nodes, 2).validate()
    assert exc.value.code == "unlabeled-masked-node"


def test_validate_rejects_labels_below_minus_one(tmp_path):
    # node 3 is in no mask; saving skipped its label and the reload read -1
    base = small_dataset()
    ds = Dataset(base.name, base.graph, base.features, np.array([0, 1, 1, -5]),
                 base.train_nodes, base.val_nodes, base.test_nodes, 2)
    with pytest.raises(DatasetError) as exc:
        ds.validate()
    assert exc.value.code == "label-out-of-range"
    with pytest.raises(DatasetError, match="label-out-of-range"):
        save_dataset(ds, str(tmp_path / "out"))
    assert not (tmp_path / "out").exists()


def test_save_rejects_unknown_feature_kind_before_writing(tmp_path):
    # load_dataset reads only "dense" and "sparse", so save_dataset must not
    # write a directory with any other kind
    ds = replace(small_dataset(), feature_kind="csv")
    with pytest.raises(DatasetError) as exc:
        save_dataset(ds, str(tmp_path / "out"))
    assert str(exc.value) == "bad-meta: unknown feature_kind 'csv'"
    assert not (tmp_path / "out").exists()


# ---- generate_synthetic ----

def test_synth_intra_edge_count_binomial():
    # 2 blocks of 50, intra p=0.2: mean 2 * C(50,2) * 0.2 = 490,
    # sd = sqrt(2450 * 0.2 * 0.8) ~ 19.8
    spec = SynthSpec((50, 50), 0.2, 0.0, feature_dim=4, seed=3)
    ds = generate_synthetic(spec)
    count = ds.graph.nnz // 2
    assert abs(count - 490) <= 3.0 * np.sqrt(2450 * 0.2 * 0.8)


def test_synth_inter_zero_means_disconnected_blocks():
    ds = generate_synthetic(SynthSpec((30, 30, 30), 0.2, 0.0, feature_dim=2, seed=5))
    for i in range(ds.num_nodes):
        for j in ds.graph[i].indices:
            assert ds.labels[i] == ds.labels[j]


def test_synth_inter_edge_count_binomial():
    spec = SynthSpec((40, 40), 0.0, 0.1, feature_dim=2, seed=9)
    ds = generate_synthetic(spec)
    mean, var = 1600 * 0.1, 1600 * 0.1 * 0.9
    assert abs(ds.graph.nnz // 2 - mean) <= 3.0 * np.sqrt(var)


def test_synth_same_seed_identical():
    spec = SynthSpec((25, 25), 0.15, 0.02, feature_dim=3, seed=11)
    assert_dataset_equal(generate_synthetic(spec), generate_synthetic(spec))


def test_synth_seed_changes_output():
    a = generate_synthetic(SynthSpec((25, 25), 0.15, 0.02, feature_dim=3, seed=1))
    b = generate_synthetic(SynthSpec((25, 25), 0.15, 0.02, feature_dim=3, seed=2))
    assert not np.array_equal(a.features, b.features)


def test_synth_labels_are_block_ids():
    ds = generate_synthetic(SynthSpec((10, 20, 5), 0.2, 0.0, feature_dim=2, seed=0))
    assert np.array_equal(ds.labels, np.repeat([0, 1, 2], [10, 20, 5]))
    assert ds.num_classes == 3


def test_synth_mask_split_60_20_20():
    ds = generate_synthetic(SynthSpec((50, 50), 0.1, 0.01, feature_dim=2, seed=7))
    assert ds.train_nodes.size == 60
    assert ds.val_nodes.size == 20
    assert ds.test_nodes.size == 20
    every = np.concatenate([ds.train_nodes, ds.val_nodes, ds.test_nodes])
    assert np.array_equal(np.sort(every), np.arange(100))


def test_synth_feature_shift_moves_class_means():
    shift = 2.5
    ds = generate_synthetic(
        SynthSpec((400, 400), 0.0, 0.0, feature_dim=2, feature_shift=shift, seed=13))
    m0 = ds.features[ds.labels == 0].mean(axis=0)
    m1 = ds.features[ds.labels == 1].mean(axis=0)
    se = 3.0 / np.sqrt(400)
    assert abs(m0[0] - shift) < se and abs(m0[1]) < se
    assert abs(m1[1] - shift) < se and abs(m1[0]) < se


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec((50,), 0.2, 0.0, feature_dim=2)
    with pytest.raises(ValueError):
        SynthSpec((10, 10), 1.5, 0.0, feature_dim=2)
    with pytest.raises(ValueError):
        SynthSpec((10, 10), 0.2, -0.1, feature_dim=2)
    with pytest.raises(ValueError):
        SynthSpec((10, 10), 0.2, 0.1, feature_dim=0)


def test_synth_round_trips_through_disk(tmp_path):
    ds = generate_synthetic(SynthSpec((12, 12, 12), 0.25, 0.03, feature_dim=3, seed=2))
    save_dataset(ds, str(tmp_path / "synth"))
    assert_dataset_equal(load_dataset(str(tmp_path / "synth")), ds)
