import importlib.metadata as md
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import dpgcn.cli
from dpgcn.cli import main
from dpgcn.data import load_dataset, save_dataset


SPEC_TEXT = (
    "block_sizes = 40,40\n"
    "p_intra = 0.15\n"
    "p_inter = 0.02\n"
    "feature_dim = 6\n"
    "feature_shift = 2.0\n"
    "seed = 3\n"
    "name = cli-synth\n")


@pytest.fixture()
def synth_dir(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT)
    out = tmp_path / "data"
    assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 0
    return out


def test_synth_writes_loadable_dataset(synth_dir):
    ds = load_dataset(str(synth_dir))
    assert ds.name == "cli-synth"
    assert ds.num_nodes == 80 and ds.num_classes == 2


def test_synth_prints_confirmation(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT)
    assert main(["synth", "--spec", str(spec), "--out",
                 str(tmp_path / "d")]) == 0
    assert "wrote synthetic dataset" in capsys.readouterr().out


def test_synth_missing_key_exits_2(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("p_intra = 0.2\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2


def test_synth_unknown_key_exits_2(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT + "wings = 2\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2


def test_synth_missing_spec_file_exits_2(tmp_path):
    assert main(["synth", "--spec", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "d")]) == 2


def test_synth_duplicate_key_exits_2(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT + "seed = 4\n")
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
    assert "line 8: duplicate key 'seed'" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("shift", ["nan", "inf", "-inf"])
def test_synth_non_finite_feature_shift_exits_2(tmp_path, capsys, shift):
    # a spec error, caught before any feature is drawn
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT.replace("feature_shift = 2.0",
                                      f"feature_shift = {shift}"))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
    assert "feature_shift must be finite" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("line,huge", [
    ("block_sizes = 40,40", f"block_sizes = {10**15},{10**15}"),
    ("feature_dim = 6", f"feature_dim = {10**15}"),
], ids=["block_sizes", "feature_dim"])
def test_synth_unallocatable_size_exits_2(tmp_path, capsys, line, huge):
    # sizes past any address space: the first allocation fails at once
    spec = tmp_path / "spec.txt"
    spec.write_text(SPEC_TEXT.replace(line, huge))
    assert main(["synth", "--spec", str(spec), "--out", str(tmp_path / "d")]) == 2
    assert "is too large" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


@pytest.mark.parametrize("command,flag", [("run", "--config"),
                                          ("synth", "--spec")])
@pytest.mark.parametrize("unreadable", ["not-utf8", "directory"])
def test_unreadable_config_or_spec_exits_2(tmp_path, capsys, command, flag,
                                           unreadable):
    path = tmp_path / "input"
    if unreadable == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"seed = 1\nname = caf\xe9\n")
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_end_to_end(synth_dir, tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        f"dataset = {synth_dir}\n"
        "kind = A\n"
        "optimizer = adam\n"
        "max_epochs = 25\n"
        "seeds = 0,1\n")
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert len(payload["seeds"]) == 2
    assert payload["aggregate"]["epsilon"] is None
    csv_rows = (out / "results.csv").read_text().splitlines()
    assert len(csv_rows) == 3
    stdout = capsys.readouterr().out
    assert "f1_micro=" in stdout and "results written" in stdout


def test_run_seed_override(synth_dir, tmp_path):
    config = tmp_path / "exp.cfg"
    config.write_text(
        f"dataset = {synth_dir}\nkind = A\noptimizer = adam\n"
        "max_epochs = 10\nseeds = 0,1,2,3,4\n")
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--seed", "7",
                 "--out", str(out)]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert [row["seed"] for row in payload["seeds"]] == [7]


def test_run_dp_reports_epsilon(synth_dir, tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        f"dataset = {synth_dir}\nkind = B\noptimizer = adam-dp\n"
        "sigma = 4.0\nmax_epochs = 8\nseeds = 0\n")
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "results.json").read_text())
    assert payload["aggregate"]["epsilon"] > 0
    assert "epsilon=" in capsys.readouterr().out


def test_run_unreachable_target_epsilon_exits_2(synth_dir, tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(
        f"dataset = {synth_dir}\nkind = B\noptimizer = adam-dp\n"
        "target_epsilon = 0.000001\nmax_epochs = 8\nseeds = 0\n")
    assert main(["run", "--config", str(config), "--out",
                 str(tmp_path / "results")]) == 2
    assert "config error: epsilon 1e-06 unreachable" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["B", "C"])
def test_run_dp_with_early_stopping_exits_2(synth_dir, tmp_path, capsys, kind):
    config = tmp_path / "exp.cfg"
    config.write_text(
        f"dataset = {synth_dir}\nkind = {kind}\noptimizer = sgd-dp\n"
        f"s = {2 if kind == 'C' else 1}\nsigma = 4.0\nearly_stopping = on\n")
    assert main(["run", "--config", str(config), "--out",
                 str(tmp_path / "results")]) == 2
    assert ("config error: DP runs cannot stop early"
            in capsys.readouterr().err)
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("where", ["hidden", "num_classes"])
def test_run_unallocatable_weights_exit_2(synth_dir, tmp_path, capsys, where):
    # sizes past any address space: init_params's first allocation fails at once
    config = tmp_path / "exp.cfg"
    config.write_text(f"dataset = {synth_dir}\nkind = A\nmax_epochs = 2\n"
                      + (f"hidden = {10**15}\n" if where == "hidden" else ""))
    if where == "num_classes":
        meta_path = synth_dir / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps(dict(meta, num_classes=10**15)))
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "results")]) == 2
    err = capsys.readouterr().err
    assert "config error: cannot build weights for feature_dim=6" in err
    assert f"{where}={10**15}" in err
    assert not (tmp_path / "results").exists()


def test_run_unknown_config_key_exits_2(synth_dir, tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text(f"dataset = {synth_dir}\nturbo = on\n")
    assert main(["run", "--config", str(config)]) == 2
    assert "config error" in capsys.readouterr().err


def test_run_missing_config_file_exits_2(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 2


def test_run_missing_dataset_exits_3(tmp_path, capsys):
    config = tmp_path / "exp.cfg"
    config.write_text("dataset = /nonexistent/place\nkind = A\n")
    assert main(["run", "--config", str(config)]) == 3
    assert "dataset error" in capsys.readouterr().err


def test_account_prints_epsilon_and_order(capsys):
    assert main(["account", "--q", "1.0", "--sigma", "112", "--steps", "2000",
                 "--delta", "1e-5"]) == 0
    out = capsys.readouterr().out
    assert "epsilon=1.995762" in out
    assert "moment_order=12" in out


def test_account_rejects_bad_q(capsys):
    assert main(["account", "--q", "1.5", "--sigma", "4",
                 "--steps", "10"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag, value", [("--q", "0"), ("--sigma", "0"),
                                         ("--steps", "0"), ("--delta", "1")])
def test_account_rejects_out_of_range(capsys, flag, value):
    args = {"--q": "0.5", "--sigma": "4", "--steps": "10", "--delta": "1e-5"}
    args[flag] = value
    assert main(["account", *(tok for kv in args.items() for tok in kv)]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("sigma", ["nan", "inf"])
def test_account_rejects_non_finite_sigma(capsys, sigma):
    assert main(["account", "--q", "0.5", "--sigma", sigma,
                 "--steps", "10"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma", ["1e-200", "1e-160"])
def test_account_tiny_sigma_prints_infinite_epsilon(capsys, sigma):
    assert main(["account", "--q", "0.1", "--sigma", sigma,
                 "--steps", "10"]) == 0
    assert capsys.readouterr().out.startswith("epsilon=inf moment_order=1 ")


def test_split_outputs_loadable_disjoint_pieces(synth_dir, tmp_path):
    out = tmp_path / "splits"
    assert main(["split", "--dataset", str(synth_dir), "--s", "3",
                 "--seed", "0", "--out", str(out)]) == 0
    assignment = (out / "assignment.tsv").read_text().splitlines()
    full = load_dataset(str(synth_dir))
    assert len(assignment) == full.train_nodes.size
    seen_nodes = []
    total = 0
    for k in range(3):
        piece = load_dataset(str(out / f"subgraph_{k:03d}"))
        assert piece.num_classes == full.num_classes
        assert piece.val_nodes.size == 0 and piece.test_nodes.size == 0
        assert piece.train_nodes.size == piece.num_nodes  # all-train masks
        total += piece.num_nodes
    assert total == full.train_nodes.size
    sizes = sorted(load_dataset(str(out / f"subgraph_{k:03d}")).num_nodes
                   for k in range(3))
    assert sizes[-1] - sizes[0] <= 1
    # assignment file covers the train nodes exactly once
    nodes = [int(line.split("\t")[0]) for line in assignment]
    assert sorted(nodes) == sorted(int(i) for i in full.train_nodes)
    seen_nodes.extend(nodes)


def test_split_oversized_s_exits_2(synth_dir, tmp_path):
    assert main(["split", "--dataset", str(synth_dir), "--s", "5000",
                 "--out", str(tmp_path / "x")]) == 2


def test_split_missing_dataset_exits_3(tmp_path):
    assert main(["split", "--dataset", str(tmp_path / "ghost"), "--s", "2",
                 "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("early_stopping", ["on", "off"])
def test_run_on_split_piece_without_val_or_test_exits_2(synth_dir, tmp_path,
                                                        capsys, early_stopping):
    out = tmp_path / "splits"
    assert main(["split", "--dataset", str(synth_dir), "--s", "3",
                 "--out", str(out)]) == 0
    config = tmp_path / "exp.cfg"
    config.write_text(f"dataset = {out / 'subgraph_000'}\nkind = A\n"
                      f"max_epochs = 5\nearly_stopping = {early_stopping}\n")
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "results")]) == 2
    assert "no test nodes" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("kind", ["A", "C"])
@pytest.mark.parametrize("train_fraction", [0.5, 1.0])
def test_run_without_training_nodes_exits_2(synth_dir, tmp_path, capsys, kind,
                                            train_fraction):
    ds = load_dataset(str(synth_dir))
    ds.train_nodes = np.empty(0, dtype=np.int64)
    save_dataset(ds, str(tmp_path / "untrained"))
    config = tmp_path / "exp.cfg"
    config.write_text(f"dataset = {tmp_path / 'untrained'}\nkind = {kind}\n"
                      f"s = {2 if kind == 'C' else 1}\n"
                      f"lot_size = {2 if kind == 'C' else 1}\n"
                      f"train_fraction = {train_fraction}\nmax_epochs = 2\n")
    assert main(["run", "--config", str(config),
                 "--out", str(tmp_path / "results")]) == 2
    assert f"dataset '{ds.name}' has no training nodes" in capsys.readouterr().err
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command", ["synth", "split", "run"])
def test_negative_seed_exits_2(synth_dir, tmp_path, command):
    spec = tmp_path / "neg.txt"
    spec.write_text(SPEC_TEXT.replace("seed = 3", "seed = -1"))
    config = tmp_path / "exp.cfg"
    config.write_text(f"dataset = {synth_dir}\nkind = A\nmax_epochs = 2\n")
    out = tmp_path / "out"
    argv = {"synth": ["--spec", str(spec)],
            "split": ["--dataset", str(synth_dir), "--s", "2", "--seed", "-1"],
            "run": ["--config", str(config), "--seed", "-3"]}[command]
    assert main([command, *argv, "--out", str(out)]) == 2
    assert not out.exists()


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["fly"])
    assert exc.value.code == 2


def test_missing_required_argument_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2


def _python_m_cli(*argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "dpgcn.cli", *argv],
                          env=env, capture_output=True, text=True)


def test_python_m_runs_the_cli():
    proc = _python_m_cli("run")
    assert proc.returncode == 2
    assert "--config" in proc.stderr


def test_fresh_process_run_records_the_scipy_version(synth_dir, tmp_path):
    # importing dpgcn loads no scipy; the graph build does, before the
    # version is read
    config = tmp_path / "exp.cfg"
    config.write_text(f"dataset = {synth_dir}\nkind = A\noptimizer = adam\n"
                      "max_epochs = 2\nseeds = 0\n")
    out = tmp_path / "results"
    proc = _python_m_cli("run", "--config", str(config), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    versions = json.loads((out / "results.json").read_text())["metadata"]["versions"]
    assert versions["scipy"] == scipy.__version__


def test_console_entry_point_is_wired(tmp_path):
    """`[project.scripts]` maps `dpgcn` to `dpgcn.cli:entry`, and it loads.

    The metadata is built from this checkout's pyproject.toml by the build
    backend it declares, into tmp_path, so the check needs no install and
    leaves the source tree untouched. Where a dpgcn distribution is
    installed, its metadata is checked as well.
    """
    pytest.importorskip("setuptools")
    root = Path(__file__).resolve().parent.parent
    subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()",
         "-q", "egg_info", "--egg-base", str(tmp_path)],
        cwd=root, check=True)
    built = md.PathDistribution(tmp_path / "dpgcn.egg-info")
    assert built.version == dpgcn.__version__
    ours = list(built.entry_points.select(group="console_scripts",
                                          name="dpgcn"))
    assert ours and ours[0].value == "dpgcn.cli:entry"
    assert ours[0].load() is dpgcn.cli.entry

    try:
        md.distribution("dpgcn")
    except md.PackageNotFoundError:
        return
    ours = list(md.entry_points().select(group="console_scripts",
                                         name="dpgcn"))
    assert ours and ours[0].value == "dpgcn.cli:entry"
