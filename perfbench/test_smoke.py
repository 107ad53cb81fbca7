"""Smoke test of the benchmark: every workload, tiny, traced and untraced.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Each run must pass its correctness gate and print every metric that
BENCHMARK.json names for its mode, with the unit given there.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_workload_passes_its_gate_and_emits_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_same_seed_gives_the_same_digest():
    digests = []
    for _ in range(2):
        proc = _run("--workload", "split-sbm500", "--seed", "5", "--seconds",
                    "0.1", "--tiny")
        digests.append([line for line in proc.stdout.splitlines()
                        if line.startswith("# digest ")])
    assert digests[0] and digests[0] == digests[1]


def test_fails_without_the_sources(tmp_path):
    proc = _run("--workload", "account", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_missing_wrapper_target_reports_absent_metrics(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "src"))
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    import run
    import spans
    import workloads
    targets = [(m, "spmm_gone" if path == "spmm" else path, name, *rest)
               for m, path, name, *rest in spans.TARGETS]
    monkeypatch.setattr(spans, "TARGETS", targets)
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == {"graph.spmm"}
    metrics, absent = run.layer_metrics(
        tracer, workloads.WORKLOADS["split-sbm500"], [1.0, 1.1], [1], [0, 0], True)
    assert set(absent) == {"graph.spmm.calls_per_step",
                           "graph.spmm.self_ms_per_step"}
    assert not set(absent) & set(metrics)
    assert metrics["harness.trace_overhead_frac"]["value"] == pytest.approx(0.1)
