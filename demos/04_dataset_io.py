"""
Dataset directories, configs, and results files
===============================================

The on-disk lifecycle: generate a synthetic dataset, save it to the
plain-text directory format, load it back, run an experiment described
by a config file, and inspect the emitted results files. Every step has
a CLI equivalent (dpgcn synth / dpgcn run); this script does the same
through the library API.
"""

import json
import pathlib
import tempfile

import numpy as np

from dpgcn.data import SynthSpec, generate_synthetic, load_dataset, save_dataset
from dpgcn.harness import emit_results, parse_config_text, run_experiment

# Everything below lives in a temporary directory, removed when the
# demo ends.
with tempfile.TemporaryDirectory(prefix="dpgcn-demo-") as tmp:
    workdir = pathlib.Path(tmp)

    # -----------------------------------------------------------------------
    # Generate and save. The directory holds meta.json plus TSV/CSV text
    # files, so datasets diff cleanly and survive version control.
    dataset = generate_synthetic(SynthSpec(
        block_sizes=(40, 40, 40), p_intra=0.15, p_inter=0.02,
        feature_dim=8, feature_shift=2.0, seed=3, name="demo-synth"))
    data_dir = workdir / "demo-synth"
    save_dataset(dataset, str(data_dir))
    print(f"saved {dataset.num_nodes} nodes to {data_dir}:")
    for path in sorted(data_dir.iterdir()):
        print(f"  {path.name:<14} {path.stat().st_size:>7} bytes")

    # Loading validates everything: index ranges, edge ordering, mask
    # consistency, finite features. A reload is exactly equal.
    again = load_dataset(str(data_dir))
    assert np.array_equal(again.features, dataset.features)
    assert np.array_equal(again.graph.indices, dataset.graph.indices)
    print("reload matches the original exactly")

    # -----------------------------------------------------------------------
    # Configs are key = value text with # comments; unknown keys are errors.
    config = parse_config_text(f"""
    # split training, modest privacy budget
    dataset = {data_dir}
    kind = C
    optimizer = adam-dp
    s = 6
    lot_size = 2
    sigma = 2.0
    max_epochs = 50
    seeds = 0, 1
    """)
    record = run_experiment(config)
    agg = record.aggregate
    print(f"\nran config: micro-F1 = {agg['f1_micro_mean']:.3f}, "
          f"epsilon = {agg['epsilon']:.4f}")

    # -----------------------------------------------------------------------
    # Results land in two files: results.json (exact values, full config)
    # and results.csv (one row per seed, spreadsheet-friendly).
    out_dir = workdir / "results"
    emit_results(record, str(out_dir))
    payload = json.loads((out_dir / "results.json").read_text())
    print(f"\n{out_dir}/results.json keys: {sorted(payload)}")
    print(f"{out_dir}/results.csv:")
    print((out_dir / "results.csv").read_text().strip())
