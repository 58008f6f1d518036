"""Command-line interface.

Subcommands::

    balancelab generate --config cfg --out dir      write a dataset file
    balancelab train    --config cfg --out dir      run the configured method
    balancelab evaluate --config cfg --checkpoint f         metrics for a checkpoint
    balancelab sweep    --config cfg --param method.alpha --values 0,1,2
    balancelab sweep    --config cfg --param train.lr --values 0.001,0.01
    balancelab table    --reports a.json b.json     cross-method comparison

Master-seed precedence: ``--master-seed`` flag, then the ``BALANCELAB_SEED``
environment variable, then the config ``seed`` key. ``--seeds`` replaces the
config seed list; ``evaluate`` reads one run seed, from ``--run-seed``.
``sweep`` sets ``--param``, any int or float config key a cell reads, to
each value in turn, one config per value, each run over every seed. Each
subcommand accepts only the flags it reads. Exit code is 0 only when every
run succeeded; a user error, or an output that cannot be written, exits 1
with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import datagen, fusion, harness
from .config import ExperimentConfig, coerce, parse_config
from .errors import BalanceLabError, ConfigError

ENV_SEED = "BALANCELAB_SEED"


def _load_config(args) -> ExperimentConfig:
    if os.path.exists(args.config):
        cfg = harness.read_input("--config", parse_config, args.config)
    else:  # literal config text, whose errors name their own line and key
        cfg = parse_config(args.config)
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
    harness.modality_count(cfg)  # train's Shapley rule, from the header alone
    _, _, test_set = harness.run_splits(cfg, run_seed)
    model = harness.read_input("--checkpoint", fusion.load_model, args.checkpoint)
    input_dims = tuple(sizes[0] for sizes in model.arch)
    if (model.num_classes, input_dims) != (test_set.num_classes, test_set.dims):
        raise ConfigError(f"--checkpoint {args.checkpoint!r}: a {model.num_classes}-class "
                          f"model of input dims {input_dims}, but the config's data has "
                          f"{test_set.num_classes} classes of dims {test_set.dims}")
    ev = harness.evaluate_model(cfg, model, test_set)
    out = {
        "checkpoint": args.checkpoint,
        "run_seed": run_seed,
        "acc": ev.accuracy,
        "macro_f1": ev.macro_f1,
    }
    if ev.phi is not None:
        out["phi"] = list(ev.phi)
        out["imbalance"] = ev.imbalance
        out["subset_values"] = {
            "+".join(str(i + 1) for i in sorted(k)) or "none": v
            for k, v in ev.subset_values.items()
        }
    text = json.dumps(out, indent=2, sort_keys=True)
    print(text)
    if args.out is not None:
        harness.make_output_dir("--out", args.out)
        harness.write_text(os.path.join(args.out, "evaluate.json"), text + "\n")
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
        harness.write_text(os.path.join(args.out, "table.txt"), text)
        harness.write_text(os.path.join(args.out, "table.csv"), csv_text)
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

    p = sub.add_parser("sweep", help="grid-sweep one numeric config key")
    common(p)
    p.add_argument("--param", required=True,
                   help="an int or float config key, e.g. method.alpha or train.lr")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table", help="comparison table from report.json files")
    p.add_argument("--reports", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for k in reversed(range(len(argv) - 1)):  # argparse reads "-1,2" alone as an option
        if argv[k] in ("--values", "--seeds"):
            argv[k:k + 2] = [f"{argv[k]}={argv[k + 1]}"]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BalanceLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # an output that cannot be written; inputs go through read_input
        name = exc.filename if exc.filename2 is None else exc.filename2  # a rename's target
        where = "" if name is None else f"{name!r}: "
        print(f"error: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
