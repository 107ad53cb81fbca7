"""Run one dpgcn benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload split-sbm500 --seed 1 --seconds 20 --trace 0

The workload runs as a closed loop: one client, one operation at a time,
in this process, with BLAS fixed at one thread. ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced runs of
the same operation and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Results and spans go to ``.perfbench_out/`` in the current directory.

Times are given against ``reference.py``: a fixed kernel runs before the
first operation and after each one, and an operation's time is its wall
time over the mean of the two kernel runs beside it. This takes out the
host's speed, which drifts by tens of percent within seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BLAS_THREADS = 1  # at or below nproc on any machine; one client, one thread
HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 5

END_TO_END = {"op_ref": "x", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every shape (for the smoke test)")
    return parser.parse_args(argv)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, numpy, scipy, workloads) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas, "blas_threads": BLAS_THREADS,
        "accountant_memo": "lru_cache" if workloads.memo_info() else "none",
    }


def time_setup(args, scratch) -> list[float]:
    """Wall seconds of fresh processes that import dpgcn and set up the data."""
    code = ("import sys; sys.path[:0] = [{src!r}, {here!r}]; import workloads; "
            "workloads.child_setup({name!r}, {seed}, {scratch!r}, {tiny})")
    times = []
    for i in range(SETUP_REPEATS):
        child_dir = os.path.join(scratch, f"setup{i}")
        cmd = [sys.executable, "-c", code.format(
            src=os.path.abspath("src"), here=HERE, name=args.workload,
            seed=args.seed, scratch=child_dir, tiny=args.tiny)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return times


def run_op(workload, state, inp, workloads):
    try:
        return workload.run(state, inp)
    except Exception:  # an operation that raises counts as failed
        return workloads.Op(str(inp), float("nan"), "",
                            [traceback.format_exc()])


def loop(workload, state, args, workloads, reference, tracer):
    """Rounds of two operations until --seconds are (about) used.

    Untraced, round r runs inputs 2r and 2r+1, so the two training seeds
    stay balanced and account cycles through its queries. Traced, round r runs
    input r twice, untraced then traced, so both see the same work. The
    reference kernel runs before the first operation and after each one.
    The next round starts only while half of the last one still fits.
    """
    def ref():
        return reference.timed_kernel(workload.reference)

    ops, refs, traced, memo = [], [ref()], [], [0, 0]
    start, r = time.perf_counter(), 0
    while True:
        round_start = time.perf_counter()
        if tracer is None:
            for k in (2 * r, 2 * r + 1):
                ops.append(run_op(workload, state, workload.input(args.seed, k),
                                  workloads))
                refs.append(ref())
        else:
            inp = workload.input(args.seed, r)
            ops.append(run_op(workload, state, inp, workloads))
            refs.append(ref())
            before = workloads.memo_info()
            tracer.op_id = len(ops)
            tracer.install()
            try:
                ops.append(run_op(workload, state, inp, workloads))
            finally:
                tracer.uninstall()
                tracer.op_id = -1
            refs.append(ref())
            after = workloads.memo_info()
            if before and after:
                memo[0] += after[0] - before[0]
                memo[1] += after[1] - before[1]
            traced.append(len(ops) - 1)
        r += 1
        now = time.perf_counter()
        if now - start + 0.5 * (now - round_start) >= args.seconds:
            return ops, ref_ratios(ops, refs), traced, memo


def ref_ratios(ops, refs) -> list[float]:
    """Each operation's seconds over the mean reference run beside it."""
    return [op.seconds / (0.5 * (refs[i] + refs[i + 1]))
            for i, op in enumerate(ops)]


def check_repeats(ops) -> dict:
    """Operations on the same input must give bit-identical digests."""
    seen = {}
    for op in ops:
        if not op.digest:
            continue
        first = seen.setdefault(op.key, op.digest)
        if first != op.digest:
            op.problems.append(f"digest {op.digest} != {first} on repeat of {op.key}")
    return seen


SCALE = {"count": 1.0, "s": 1.0, "ms": 1e3, "us": 1e6}

# name, unit, spans read, field summed over them, view, divided by.
# Views: "ops" is every traced operation, "setup" the traced set-up and
# "calibration" what runs inside calibrate_noise there. A per-step or
# per-seed metric is 0 on a workload that takes no steps (account).
PER_LAYER = [
    ("graph.spmm.calls_per_step", "count", ["graph.spmm"], "calls", "ops", "steps"),
    ("graph.spmm.self_ms_per_step", "ms", ["graph.spmm"], "self", "ops", "steps"),
    ("graph.prep_ms_per_seed", "ms", ["graph.normalize_adjacency",
                                      "graph.random_partition",
                                      "graph.mask_subgraph"], "incl", "ops", "seeds"),
    ("model.forward.calls_per_step", "count", ["model.forward"], "calls", "ops", "steps"),
    ("model.forward.self_ms_per_step", "ms", ["model.forward"], "self", "ops", "steps"),
    ("model.backward.self_ms_per_step", "ms", ["model.backward"], "self", "ops", "steps"),
    ("model.loss.self_ms_per_step", "ms", ["model.loss"], "self", "ops", "steps"),
    ("model.evaluate.ms_per_seed", "ms", ["model.evaluate"], "incl", "ops", "seeds"),
    ("dp.clip.calls_per_step", "count", ["dp.clip"], "calls", "ops", "steps"),
    ("dp.clip.self_ms_per_step", "ms", ["dp.clip"], "self", "ops", "steps"),
    ("dp.noisy_lot.self_ms_per_step", "ms", ["dp.noisy_lot"], "self", "ops", "steps"),
    ("dp.optimizer.self_ms_per_step", "ms", ["dp.optimizer"], "self", "ops", "steps"),
    ("dp.sample_lot.self_ms_per_step", "ms", ["dp.sample_lot"], "self", "ops", "steps"),
    ("rng.normal.draws_per_step", "count", ["rng.normal"], "work", "ops", "steps"),
    ("rng.normal.self_ms_per_step", "ms", ["rng.normal"], "self", "ops", "steps"),
    ("rng.uniform.self_ms_per_step", "ms", ["rng.uniform"], "self", "ops", "steps"),
    ("accounting.eps_evals_per_calibration", "count",
     ["accounting.eps_from_delta"], "calls", "calibration", "calibrations"),
    ("accounting.log_moment.calls_per_calibration", "count",
     ["accounting.log_moment"], "calls", "calibration", "calibrations"),
    ("accounting.log_moment.self_us_per_call", "us",
     ["accounting.log_moment"], "self", "ops", "calls"),
    ("accounting.privacy_spent.ms", "ms",
     ["accounting.privacy_spent"], "incl", "ops", "calls"),
    ("data.generate.s", "s", ["data.generate"], "incl", "setup", None),
    ("data.save.s", "s", ["data.save"], "incl", "setup", None),
    ("data.load.s", "s", ["data.load"], "incl", "setup", None),
    ("harness.self_ms_per_step", "ms", ["harness.run_experiment"], "self", "ops", "steps"),
]
# Two more are not read from spans: accounting.memo_hit_frac, the share of
# memo lookups answered from the memo during traced operations, and
# harness.trace_overhead_frac, (traced - untraced) / untraced of the same
# input, each in reference-kernel units, median over rounds.


def layer_metrics(tracer, workload, ratios, traced, memo, memo_exists):
    ids = set(traced)
    seeds = 0 if workload.calibrates else len(traced)
    counts = {"steps": seeds * workload.steps_per_op, "seeds": seeds,
              "calibrations": 1 if workload.calibrates else 0}
    views = {"ops": tracer.totals(ids),
             "calibration": tracer.totals({-1}, under="accounting.calibrate_noise"),
             "setup": tracer.totals({-1})}
    metrics, absent = {}, []
    for name, unit, sources, field, view, per in PER_LAYER:
        if tracer.missing.intersection(sources):
            absent.append(name)
            continue
        rows = [views[view].get(src) for src in sources]
        total = sum(row[field] for row in rows if row)
        denominator = (1 if per is None else
                       sum(row["calls"] for row in rows if row) if per == "calls"
                       else counts[per])
        value = SCALE[unit] * total / denominator if denominator else 0.0
        metrics[name] = {"value": float(value), "unit": unit}
    if memo_exists:
        metrics["accounting.memo_hit_frac"] = {
            "value": memo[0] / sum(memo) if sum(memo) else 0.0, "unit": "frac"}
    else:
        absent.append("accounting.memo_hit_frac")
    metrics["harness.trace_overhead_frac"] = {"value": statistics.median(
        (ratios[i] - ratios[i - 1]) / ratios[i - 1] for i in traced), "unit": "frac"}

    share = sorted(((row["self"], name) for name, row in views["ops"].items()),
                   reverse=True)
    total = sum(s for s, _ in share) or 1.0
    print("# self-time share over traced operations: " + ", ".join(
        f"{name} {100 * s / total:.1f}%" for s, name in share[:10]))
    return metrics, absent


def measure(args, workloads, spans, reference, numpy, scipy, out_dir, scratch):
    workload = workloads.WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.shrunk()
    env = environment(args, numpy, scipy, workloads)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    tracer = spans.Tracer() if args.trace else None
    setup_times = [] if tracer else time_setup(args, scratch)

    if tracer:
        tracer.install()
    try:
        state = workload.setup(args.seed, scratch)
    finally:
        if tracer:
            tracer.uninstall()
    env["accountant_cold"] = not workloads.memo_info() or all(
        v == 0 for v in workloads.memo_info())

    ops, ratios, traced, memo = loop(workload, state, args, workloads,
                                     reference, tracer)
    digests = check_repeats(ops)
    good = [op for op in ops if not op.problems]
    if good:
        good[-1].problems.extend(workload.recheck(state, good[-1]))

    for op, ratio in zip(ops, ratios):
        print(f"# op {op.key} {op.seconds:.6f}s {ratio:.4f}x digest {op.digest}"
              + ("".join(f"\n#   FAIL {p}" for p in op.problems)))
    # the first round is in every run, whatever the machine's speed
    run_digest = workloads.digest_of([op.digest for op in ops[:2]])
    print(f"# digest {run_digest} of {ops[0].key} and {ops[1].key}")
    failed = sum(1 for op in ops if op.problems)
    print(f"# failed_frac {failed / len(ops):.6f} ({failed} of {len(ops)})")

    if tracer:
        metrics, absent = layer_metrics(tracer, workload, ratios, traced, memo,
                                        workloads.memo_info() is not None)
        if absent:
            print("# absent metrics (their target is gone): " + ", ".join(absent))
        tracer.write(os.path.join(out_dir, f"{args.workload}.spans.jsonl"))
    else:
        good_ratios = [x for op, x in zip(ops, ratios) if not op.problems]
        values = {
            "op_ref": statistics.median(good_ratios) if good else float("nan"),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        if good:
            op_s = statistics.median(op.seconds for op in good)
            ref_s = op_s / values["op_ref"]
            print(f"# op_s {op_s:.6f} (wall seconds, host speed not removed); "
                  f"reference kernel {1e3 * ref_s:.3f} ms")
            if workload.steps_per_op:
                print(f"# steps_per_s {workload.steps_per_op / op_s:.3f}")

    result = {"correct": failed == 0, "attempted": len(ops), "failed": failed,
              "metrics": metrics}
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "digest": run_digest,
                   "digests": digests, "setup_s": setup_times,
                   "ops": [{"key": op.key, "seconds": op.seconds,
                            "ref_ratio": ratio,
                            "digest": op.digest, "problems": op.problems,
                            "traced": i in traced}
                           for i, (op, ratio) in enumerate(zip(ops, ratios))]},
                  fh, indent=1)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("src", "dpgcn", "__init__.py")):
        print("perfbench: no dpgcn sources in ./src; run from the repository "
              "root", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # read when numpy first loads
    sys.path.insert(0, os.path.abspath("src"))
    import numpy
    import reference
    import scipy
    import spans
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    out_dir = os.path.abspath(".perfbench_out")
    scratch = os.path.join(out_dir, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        result = measure(args, workloads, spans, reference, numpy, scipy,
                         out_dir, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
