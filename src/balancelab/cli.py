"""Command-line interface.

Subcommands::

    balancelab generate --config cfg --out dir      write a dataset file
    balancelab train    --config cfg --out dir      run the configured method
    balancelab evaluate --config cfg --checkpoint f         metrics for a checkpoint
    balancelab sweep    --config cfg --param method.alpha --values 0,1,2
    balancelab table    --reports a.json b.json     cross-method comparison

Master-seed precedence: ``--master-seed`` flag, then the ``BALANCELAB_SEED``
environment variable, then the config ``seed`` key. ``--seeds`` replaces the
config seed list; ``evaluate`` reads one run seed, from ``--run-seed``. Each
subcommand accepts only the flags it reads. Exit code is 0 only when every
run succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import datagen, fusion, harness, metrics
from .config import ExperimentConfig, coerce, parse_config
from .errors import BalanceLabError, ConfigError

ENV_SEED = "BALANCELAB_SEED"


def _load_config(args) -> ExperimentConfig:
    cfg = harness.read_input("--config", parse_config, args.config)
    if os.environ.get(ENV_SEED):
        cfg = cfg.with_key("seed", coerce(ENV_SEED, "int", os.environ[ENV_SEED]))
    if getattr(args, "master_seed", None) is not None:
        cfg = cfg.with_key("seed", args.master_seed)
    if getattr(args, "seeds", None) is not None:
        cfg = cfg.with_key("seeds", coerce("--seeds", "ints", args.seeds))
    if getattr(args, "out", None) is not None:
        cfg = cfg.with_key("output.dir", args.out)
    return cfg


def _cmd_generate(args) -> int:
    cfg = _load_config(args)
    data = datagen.generate(cfg.synthetic_spec())
    harness.make_output_dir("--out" if args.out is not None else "output.dir", cfg.out_dir)
    path = os.path.join(cfg.out_dir, "dataset.mmds")
    datagen.save(data, path)
    print(path)
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    harness.make_output_dir("--out" if args.out is not None else "output.dir", cfg.out_dir)
    report = harness.run_experiment(
        cfg, out_dir=cfg.out_dir, jobs=args.jobs, save_checkpoints=True
    )
    print(report.csv_text(), end="")
    return 0 if not report.errors else 1


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    if args.run_seed is not None:
        cfg = cfg.with_key("seeds", (coerce("--run-seed", "int", args.run_seed),))
    run_seed = cfg.seeds[0]
    data_seed, split_seed, _, _ = harness.derived_seeds(cfg.master_seed, run_seed)
    data = harness.load_run_data(cfg, data_seed)
    _, _, test_set = datagen.split(data, cfg.fractions, split_seed)
    model = harness.read_input("--checkpoint", fusion.load_model, args.checkpoint)
    if model.num_classes != test_set.num_classes:
        raise ConfigError(f"--checkpoint {args.checkpoint!r}: a {model.num_classes}-class "
                          f"model, but the config's data has {test_set.num_classes} classes")
    perf = metrics.evaluate_performance(model, test_set)
    out = {
        "checkpoint": args.checkpoint,
        "run_seed": run_seed,
        "acc": perf.accuracy,
        "macro_f1": perf.macro_f1,
    }
    if cfg.shapley_enabled:
        rep = metrics.shapley(model, test_set)
        out["phi"] = [float(p) for p in rep.phi]
        out["imbalance"] = rep.imbalance
        out["subset_values"] = {
            "+".join(str(i + 1) for i in sorted(k)) or "none": v
            for k, v in rep.subset_values.items()
        }
    text = json.dumps(out, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        harness.make_output_dir("--out", args.out)
        with open(os.path.join(args.out, "evaluate.json"), "w", encoding="ascii") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    values = list(coerce("--values", "floats", args.values))
    harness.make_output_dir("--out" if args.out is not None else "output.dir", cfg.out_dir)
    report = harness.run_sweep(cfg, args.param, values, out_dir=cfg.out_dir, jobs=args.jobs)
    print(report.csv_text(), end="")
    return 0 if not report.errors else 1


def _cmd_table(args) -> int:
    reports = [harness.read_input("--reports", harness.load_report, p) for p in args.reports]
    text, csv_text = harness.compare_table(reports)
    print(text, end="")
    if args.out is not None:
        harness.make_output_dir("--out", args.out)
        with open(os.path.join(args.out, "table.txt"), "w", encoding="ascii") as fh:
            fh.write(text)
        with open(os.path.join(args.out, "table.csv"), "w", encoding="ascii") as fh:
            fh.write(csv_text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="balancelab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeds=("--seeds", "--master-seed"), jobs=True):
        p.add_argument("--config", required=True, help="config file or text")
        p.add_argument("--out", default=None, help="output directory (overrides output.dir)")
        if "--seeds" in seeds:
            p.add_argument("--seeds", default=None, help="comma-separated run seeds")
        if "--master-seed" in seeds:
            p.add_argument("--master-seed", type=int, default=None, dest="master_seed")
        if jobs:
            p.add_argument("--jobs", type=int, default=1, help="parallel (method, seed) cells")

    p = sub.add_parser("generate", help="write a synthetic dataset file")
    common(p, seeds=(), jobs=False)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("train", help="run the configured method over all seeds")
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("evaluate", help="metrics for a saved checkpoint")
    common(p, seeds=("--master-seed",), jobs=False)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--run-seed", default=None, help="run seed whose test split to use")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("sweep", help="grid-sweep one method parameter")
    common(p)
    p.add_argument("--param", required=True, help="e.g. method.alpha")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table", help="comparison table from report.json files")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BalanceLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
