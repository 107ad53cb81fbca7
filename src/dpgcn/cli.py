"""Command line front end: run, account, split, synth, convert.

Exit codes: 0 on success, 2 on configuration errors, 3 on dataset errors.
"""

from __future__ import annotations

import argparse
import os
import sys

from .accounting import AccountantLedger, privacy_spent
from .data import (DatasetError, SynthSpec, generate_synthetic, load_dataset,
                   save_dataset)
from .harness import (ConfigError, emit_results, load_config, parse_key_values,
                      run_experiment, split_dataset)
from .planetoid import convert

_SPEC_PARSERS = {
    "block_sizes": lambda value: tuple(int(tok) for tok in value.split(",")),
    "p_intra": float, "p_inter": float, "feature_dim": int,
    "feature_shift": float, "seed": int, "name": str}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpgcn",
        description="Differentially private training for graph convolutional networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config's seed list with one seed")
    p_run.add_argument("--out", default="results")

    p_acc = sub.add_parser("account", help="query the moments accountant")
    p_acc.add_argument("--q", type=float, required=True)
    p_acc.add_argument("--sigma", type=float, required=True)
    p_acc.add_argument("--steps", type=int, required=True)
    p_acc.add_argument("--delta", type=float, default=1e-5)

    p_split = sub.add_parser("split", help="partition a dataset's training nodes")
    p_split.add_argument("--dataset", required=True)
    p_split.add_argument("--s", type=int, required=True)
    p_split.add_argument("--seed", type=int, default=0)
    p_split.add_argument("--out", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True,
                         help="key=value file: block_sizes, p_intra, p_inter, "
                              "feature_dim, feature_shift, seed, name")
    p_synth.add_argument("--out", required=True)

    p_conv = sub.add_parser("convert", help="convert a Planetoid citation dataset")
    p_conv.add_argument("--name", required=True, choices=("cora", "citeseer", "pubmed"))
    p_conv.add_argument("--raw-dir", required=True,
                        help="directory holding the ind.<name>.* files")
    p_conv.add_argument("--out", required=True)
    p_conv.add_argument("--no-row-normalize", action="store_true",
                        help="keep raw bag-of-words counts")
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        from dataclasses import replace
        config = replace(config, seeds=(args.seed,))
    record = run_experiment(config)
    emit_results(record, args.out)
    agg = record.aggregate
    line = f"kind={record.config['kind']} optimizer={record.config['optimizer']}"
    if agg["f1_micro_mean"] is not None:
        line += (f" f1_micro={agg['f1_micro_mean']:.4f}"
                 f"±{agg['f1_micro_std']:.4f}")
    if agg["epsilon"] is not None:
        line += f" epsilon={agg['epsilon']:.4f}"
    if agg["seeds_failed"]:
        line += f" failed_seeds={agg['seeds_failed']}"
    print(line)
    print(f"results written to {args.out}")
    return 0


def _cmd_account(args) -> int:
    ledger = AccountantLedger()
    try:
        ledger.append(args.q, args.sigma, args.steps)
        eps, order = privacy_spent(ledger, args.delta)
    except ValueError as exc:  # the ledger's checks on q, sigma, steps, delta
        raise ConfigError(str(exc)) from exc
    print(f"epsilon={eps:.6f} moment_order={order} "
          f"(q={args.q} sigma={args.sigma} steps={args.steps} delta={args.delta})")
    return 0


def _cmd_split(args) -> int:
    if args.s < 1 or args.seed < 0:
        raise ConfigError("s must be positive and seed non-negative")
    ds = load_dataset(args.dataset)
    try:
        pieces = split_dataset(ds, ds.train_nodes, args.s, args.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    os.makedirs(args.out, exist_ok=True)
    assignment = sorted((int(i), k) for k, (keep, _) in enumerate(pieces) for i in keep)
    with open(os.path.join(args.out, "assignment.tsv"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{i}\t{k}\n" for i, k in assignment)
    for k, (_, piece) in enumerate(pieces):
        save_dataset(piece, os.path.join(args.out, f"subgraph_{k:03d}"))
    print(f"wrote {args.s} subgraphs and assignment.tsv to {args.out}")
    return 0


def _cmd_synth(args) -> int:
    with open(args.spec, encoding="utf-8") as fh:
        values = parse_key_values(fh.read(), _SPEC_PARSERS)
    try:
        spec = SynthSpec(**values)
    except (TypeError, ValueError) as exc:  # a missing key, or SynthSpec's checks
        raise ConfigError(f"bad synth spec: {exc}") from exc
    try:
        ds = generate_synthetic(spec)
    except MemoryError:  # sizes whose arrays cannot be allocated
        raise ConfigError(f"bad synth spec: {spec.num_nodes} nodes of "
                          f"{spec.feature_dim} features is too large") from None
    save_dataset(ds, args.out)
    print(f"wrote synthetic dataset to {args.out}")
    return 0


def _cmd_convert(args) -> int:
    ds = convert(args.name, args.raw_dir, row_normalize=not args.no_row_normalize)
    save_dataset(ds, args.out)
    print(f"wrote {ds.name}: {ds.num_nodes} nodes, "
          f"{ds.train_nodes.size} train / {ds.val_nodes.size} val / "
          f"{ds.test_nodes.size} test -> {args.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "account": _cmd_account,
                "split": _cmd_split, "synth": _cmd_synth, "convert": _cmd_convert}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3
    except (OSError, UnicodeDecodeError) as exc:
        # an unreadable config or spec file; datasets raise DatasetError above
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
