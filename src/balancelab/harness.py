"""Config-driven experiment runner: seeded runs, sweeps, comparison tables.

Every run is one (method, seed) cell. A cell derives four independent
generator seeds (data, split, init, train) from the pair (master seed, run
seed), executes the full pipeline, and produces one report row:

    method, seed, sweep_param, sweep_value, acc, macro_f1,
    phi_1..phi_m, imbalance, flops_total, best_epoch

``run_experiment`` (one value, None) and ``run_sweep`` (the swept values)
share one report path: cells, then aggregates, then the written report.
The modality count, which sets the report's phi columns, is read before
any cell trains: ``dataset.modalities`` for synthetic data, the MMDS header
(``datagen.read_header``) for a dataset file.

The uncached cells of one call (a sweep's values x seeds, or an experiment's
seeds) share one config and shapes, so they train together as one
``trainer.fit`` stack; ``jobs`` (at least 1) splits that stack across
worker processes.
A stack's runs train in lockstep, so results are kept per stack: each cell
is written to ``<out>/cells/`` as soon as it is evaluated after its stack
has trained, and an interrupted call resumes without recomputing those
cells, but it retrains every cell of a stack still training.
Each cell file carries a fingerprint of the config that produced it; a cell
whose fingerprint differs, or that cannot be read, is recomputed.
Reports serialize to CSV and JSON with no timestamps (those go to the
``run.log`` sidecar), so identical configs reproduce identical bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import __version__ as _VERSION
from . import datagen, fusion, metrics, trainer
from .config import ExperimentConfig
from .errors import BalanceLabError, ConfigError, FormatError
from .methods import METHODS, PARAMS, MethodSpec

_NUMBER = (int, float)
# the JSON types each RunRow field may hold; no field holds a bool
_ROW_TYPES = {
    "method": str, "seed": (int, str), "sweep_param": str, "sweep_value": (*_NUMBER, type(None)),
    "acc": _NUMBER, "macro_f1": _NUMBER, "phi": (list, type(None)),
    "imbalance": (*_NUMBER, type(None)), "flops_total": _NUMBER, "best_epoch": _NUMBER,
}


def _is(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass
class RunRow:
    method: str
    seed: object  # run seed, or "mean"/"std" on aggregate rows
    sweep_param: str = ""
    sweep_value: float | None = None
    acc: float = 0.0
    macro_f1: float = 0.0
    phi: tuple[float, ...] | None = None
    imbalance: float | None = None
    flops_total: float = 0
    best_epoch: float = -1

    def to_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        d["phi"] = list(self.phi) if self.phi is not None else None
        return d

    @staticmethod
    def from_dict(d: dict) -> "RunRow":
        """Inverse of :meth:`to_dict`; a field of the wrong JSON type is a FormatError."""
        row = RunRow(**{f.name: d[f.name] for f in dataclasses.fields(RunRow)})
        for name, types in _ROW_TYPES.items():
            value = getattr(row, name)
            items = value if name == "phi" and isinstance(value, list) else []
            if not _is(value, types) or not all(_is(p, _NUMBER) for p in items):
                raise FormatError(f"row field {name!r} has the wrong type: {value!r}")
        row.phi = tuple(row.phi) if row.phi is not None else None
        return row


@dataclass
class RunReport:
    rows: list[RunRow]
    aggregates: list[RunRow]
    m: int
    config: ExperimentConfig
    sweep_param: str = ""
    balance_points: dict | None = None
    errors: list[dict] = field(default_factory=list)

    def csv_text(self) -> str:
        cols = ["method", "seed", "sweep_param", "sweep_value", "acc", "macro_f1"]
        cols += [f"phi_{i + 1}" for i in range(self.m)]
        cols += ["imbalance", "flops_total", "best_epoch"]
        lines = [",".join(cols)]

        def fmt(v) -> str:
            if v is None:
                return ""
            if isinstance(v, float):
                return repr(v)
            return str(v)

        for row in self.rows + self.aggregates:
            cells = [row.method, str(row.seed), row.sweep_param, fmt(row.sweep_value),
                     fmt(row.acc), fmt(row.macro_f1)]
            phi = row.phi if row.phi is not None else (None,) * self.m
            cells += [fmt(p) for p in phi]
            cells += [fmt(row.imbalance), fmt(row.flops_total), fmt(row.best_epoch)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def json_dict(self) -> dict:
        agg = []
        markers = self._markers()
        for row in self.aggregates:
            d = row.to_dict()
            d["marker"] = markers.get((row.method, row.sweep_value, row.seed), [])
            agg.append(d)
        return {
            "version": _VERSION,
            "config": self.config.to_dict(),
            "sweep_param": self.sweep_param,
            "rows": [r.to_dict() for r in self.rows],
            "aggregates": agg,
            "balance_points": self.balance_points,
            "errors": self.errors,
        }

    def _markers(self) -> dict:
        out: dict = {}
        if self.balance_points:
            absol = self.balance_points.get("absolute")
            rel = self.balance_points.get("relative")
            for row in self.aggregates:
                if row.seed != "mean":
                    continue
                tags = []
                if absol is not None and row.sweep_value == absol["sweep_value"]:
                    tags.append("argmin_imbalance")
                if rel is not None and row.sweep_value == rel["sweep_value"]:
                    tags.append("argmax_accuracy")
                if tags:
                    out[(row.method, row.sweep_value, row.seed)] = tags
        return out

    def write(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.csv"), "w", encoding="ascii") as fh:
            fh.write(self.csv_text())
        with open(os.path.join(out_dir, "report.json"), "w", encoding="ascii") as fh:
            json.dump(self.json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _log(out_dir, message: str) -> None:
    """Timestamped progress lines go to a sidecar, never into reports."""
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    with open(os.path.join(out_dir, "run.log"), "a", encoding="utf-8") as fh:
        fh.write(f"[{stamp}] {message}\n")


def derived_seeds(master_seed: int, run_seed: int) -> tuple[int, int, int, int]:
    """Four independent seeds (data, split, init, train) for one run."""
    ss = np.random.SeedSequence([master_seed, run_seed])
    return tuple(int(x) for x in ss.generate_state(4))


def read_input(name: str, load, path):
    """``load(path)``; a file that cannot be read is a ConfigError naming ``name``."""
    try:
        return load(path)
    except OSError as exc:
        raise ConfigError(f"{name} {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{name} {path!r}: not {exc.encoding} text") from None


def make_output_dir(name: str, path) -> None:
    """``os.makedirs(path)``, a failure mapped to ConfigError as ``read_input`` maps it."""
    read_input(name, lambda p: os.makedirs(p, exist_ok=True), path)


def load_run_data(cfg: ExperimentConfig, data_seed: int) -> datagen.Dataset:
    if cfg.dataset_path is not None:
        return read_input("dataset.path", datagen.load, cfg.dataset_path)
    return datagen.generate(cfg.synthetic_spec(seed=data_seed))


def _modality_count(cfg: ExperimentConfig) -> int:
    """The config's modality count, or for a dataset file its header's."""
    if cfg.dataset_path is None:
        return cfg.get("dataset.modalities")
    return read_input("dataset.path", datagen.read_header, cfg.dataset_path)[0]


def _train_cells(cfg: ExperimentConfig, cells: list[tuple[int, MethodSpec, str | None]]):
    """Execute (run seed, method, checkpoint path) cells of one config together.

    Each run seed's split is made once and only the split is kept (a
    dataset file, the same data for every seed, is read once); every cell
    trains in one ``trainer.fit`` stack, then saves its checkpoint,
    evaluates and computes Shapley contributions on its own. Yields
    ``(index, row)`` as each cell is evaluated.
    """
    prepared = {}
    file_data = None
    splits, models, configs, ledgers = [], [], [], []
    for run_seed, _, _ in cells:
        data_seed, split_seed, init_seed, train_seed = derived_seeds(cfg.master_seed, run_seed)
        if run_seed not in prepared:
            data = file_data if file_data is not None else load_run_data(cfg, data_seed)
            if cfg.dataset_path is not None:
                file_data = data
            prepared[run_seed] = datagen.split(data, cfg.fractions, split_seed)
            del data
        train_set, val_set, _ = prepared[run_seed]
        splits.append((train_set, val_set))
        models.append(
            fusion.init_model(cfg.arch(train_set.dims), train_set.num_classes, init_seed)
        )
        configs.append(cfg.train_config(seed=train_seed))
        ledgers.append(metrics.FlopsLedger())
    del file_data
    trained = trainer.fit(splits, models, configs, [method for _, method, _ in cells], ledgers)

    for k, ((run_seed, method, checkpoint_path), (best, log), ledger) in enumerate(
            zip(cells, trained, ledgers)):
        test_set = prepared[run_seed][2]
        if checkpoint_path is not None:
            fusion.save_model(best, checkpoint_path)
        perf = metrics.evaluate_performance(best, test_set)
        phi = None
        imb = None
        if cfg.shapley_enabled:
            rep = metrics.shapley(best, test_set)
            phi = tuple(float(p) for p in rep.phi)
            imb = rep.imbalance
        yield k, RunRow(
            method=method.kind,
            seed=run_seed,
            acc=perf.accuracy,
            macro_f1=perf.macro_f1,
            phi=phi,
            imbalance=imb,
            flops_total=ledger.total,
            best_epoch=log.best_epoch,
        )


def run_single(cfg: ExperimentConfig, run_seed: int) -> RunRow:
    """Execute one cell of the configured method and return its report row."""
    return next(_train_cells(cfg, [(run_seed, cfg.method_spec(), None)]))[1]


def _value_tag(value) -> str:
    if value is None:
        return "none"
    return repr(float(value)).replace(".", "p").replace("-", "m")


def _cell_path(out_dir, method_kind: str, run_seed: int, sweep_value) -> str:
    return os.path.join(
        out_dir, "cells", f"{method_kind}__seed{run_seed}__{_value_tag(sweep_value)}.json"
    )


def _cell_fingerprint(cfg: ExperimentConfig, sweep_param: str, sweep_value) -> str:
    """sha256 of everything that decides a cell's result besides its run seed.

    The seed list and output directory are left out: adding seeds or moving
    the directory changes no existing cell.
    """
    kept = {k: v for k, v in cfg.to_dict().items() if k not in ("seeds", "output.dir")}
    text = json.dumps([kept, sweep_param, sweep_value, _VERSION], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_cell(path, fingerprint: str) -> tuple[RunRow | None, str]:
    """The cached row at ``path``, or None and why it cannot be used."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            d = json.load(fh)
        if d["fingerprint"] != fingerprint:
            return None, "computed under a different config"
        return RunRow.from_dict(d), ""
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable ({type(exc).__name__}: {exc})"


def _write_cell(path, row_dict: dict) -> None:
    """Write via a temporary file so an interrupted write leaves no partial cell."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(row_dict, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _stack_worker(payload: tuple) -> list[tuple[RunRow | None, str]]:
    """Train one stack of (seed, value) cells; top-level so it can run in a pool.

    With ``out_dir`` set, each cell's file is written as soon as that cell
    is evaluated. Returns, per cell, its row or its error text. If the
    stack fails, the cells it did not finish are retrained one by one, so a
    failing cell fails alone and the others keep their rows.
    """
    cfg, keys, sweep_param, ckpt_dir, out_dir = payload
    method_kind = cfg.get("method.kind")
    cells = []
    for run_seed, value in keys:
        method = cfg.method_spec()
        if sweep_param:
            method = dataclasses.replace(method, **{sweep_param.split(".", 1)[1]: value})
        ckpt_path = None
        if ckpt_dir is not None:
            os.makedirs(ckpt_dir, exist_ok=True)
            ckpt_path = os.path.join(ckpt_dir, f"ckpt_{method.kind}_seed{run_seed}.mmck")
        cells.append((run_seed, method, ckpt_path))

    outs: dict[int, tuple[RunRow | None, str]] = {}
    try:
        for k, row in _train_cells(cfg, cells):
            run_seed, value = keys[k]
            row.sweep_param = sweep_param
            row.sweep_value = value
            outs[k] = (row, "")
            if out_dir is not None:
                path = _cell_path(out_dir, method_kind, run_seed, value)
                fingerprint = _cell_fingerprint(cfg, sweep_param, value)
                _write_cell(path, {**row.to_dict(), "fingerprint": fingerprint})
                _log(out_dir, f"finished cell {method_kind} seed={run_seed} value={value}")
    except Exception as exc:  # noqa: BLE001 - per-cell isolation
        if len(keys) == 1:
            return [(None, str(exc))]
        for k, key in enumerate(keys):
            if k not in outs:
                [outs[k]] = _stack_worker((cfg, [key], sweep_param, ckpt_dir, out_dir))
    return [outs[k] for k in range(len(keys))]


def _aggregate(rows: list[RunRow], m: int) -> list[RunRow]:
    """Mean and population-std rows per (method, sweep_value) group."""
    groups: dict[tuple[str, float | None], list[RunRow]] = {}
    for row in rows:
        groups.setdefault((row.method, row.sweep_value), []).append(row)

    out = []
    for (method, value), members in groups.items():
        have_phi = all(r.phi is not None for r in members)
        for stat, fn in (("mean", np.mean), ("std", np.std)):
            phi = None
            imb = None
            if have_phi:
                phi = tuple(
                    float(fn([r.phi[i] for r in members])) for i in range(m)
                )
                imb = float(fn([r.imbalance for r in members]))
            out.append(
                RunRow(
                    method=method,
                    seed=stat,
                    sweep_param=members[0].sweep_param,
                    sweep_value=value,
                    acc=float(fn([r.acc for r in members])),
                    macro_f1=float(fn([r.macro_f1 for r in members])),
                    phi=phi,
                    imbalance=imb,
                    flops_total=float(fn([r.flops_total for r in members])),
                    best_epoch=float(fn([r.best_epoch for r in members])),
                )
            )
    return out


def _run_cells(
    cfg: ExperimentConfig,
    cells: list[tuple[int, float | None]],
    sweep_param: str,
    out_dir,
    jobs: int,
    errors: list[dict],
    ckpt_dir=None,
) -> list[RunRow]:
    """Run (seed, value) cells, reusing completed cell files of the same config.

    The cells left to compute train as one stack, split into ``jobs``
    contiguous stacks when ``jobs > 1``.
    """
    method_kind = cfg.get("method.kind")
    fingerprints = {value: _cell_fingerprint(cfg, sweep_param, value) for _, value in cells}
    rows: dict[tuple[int, float | None], RunRow] = {}
    todo = []
    for run_seed, value in cells:
        if out_dir is not None:
            path = _cell_path(out_dir, method_kind, run_seed, value)
            if os.path.exists(path):
                row, problem = _read_cell(path, fingerprints[value])
                if row is not None:
                    rows[(run_seed, value)] = row
                    _log(out_dir, f"reused cell {method_kind} seed={run_seed} value={value}")
                    continue
                _log(out_dir, f"recomputing cell {method_kind} seed={run_seed} "
                              f"value={value}: cached cell {problem}")
        todo.append((run_seed, value))

    # contiguous stacks in cell order, so errors list in the same order for any jobs
    n_stacks = min(jobs, len(todo))
    stacks = [todo[k * len(todo) // n_stacks:(k + 1) * len(todo) // n_stacks]
              for k in range(n_stacks)]
    payloads = [(cfg, stack, sweep_param, ckpt_dir, out_dir) for stack in stacks]
    if n_stacks > 1:
        with ProcessPoolExecutor(max_workers=n_stacks) as pool:
            futures = [pool.submit(_stack_worker, payload) for payload in payloads]
            results = []
            for stack, fut in zip(stacks, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - a lost worker fails its cells
                    results.append([(None, str(exc))] * len(stack))
    else:
        results = [_stack_worker(payload) for payload in payloads]

    for stack, outs in zip(stacks, results):
        for key, (row, error) in zip(stack, outs):
            if row is not None:
                rows[key] = row
            else:
                errors.append({"seed": key[0], "sweep_value": key[1], "error": error})
                _log(out_dir, f"cell failed seed={key[0]} value={key[1]}: {error}")

    return [rows[key] for key in cells if key in rows]


def _report(cfg: ExperimentConfig, sweep_param: str, values: list, out_dir, jobs: int,
            ckpt_dir=None, balance=None) -> RunReport:
    """Run every (value, seed) cell, aggregate, and write report.csv/.json.

    ``balance(aggregates)`` gives the report's balance points. Raises when
    every cell failed, after writing the report that lists the failures.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    cells = [(s, v) for v in values for s in cfg.seeds]
    repeated = next((c for k, c in enumerate(cells) if c in cells[:k]), None)
    if repeated is not None:
        raise ConfigError(f"run seeds and sweep values must be distinct, got cell "
                          f"(seed {repeated[0]}, value {repeated[1]}) twice")
    m = _modality_count(cfg)
    errors: list[dict] = []
    rows = _run_cells(cfg, cells, sweep_param, out_dir, jobs, errors, ckpt_dir)
    aggregates = _aggregate(rows, m)
    report = RunReport(rows, aggregates, m, cfg, sweep_param,
                       balance(aggregates) if balance else None, errors)
    if out_dir is not None:
        report.write(out_dir)
    if not rows:
        raise BalanceLabError(f"all {len(cells)} runs failed: {errors}")
    return report


def run_experiment(
    cfg: ExperimentConfig, out_dir=None, jobs: int = 1, save_checkpoints: bool = False
) -> RunReport:
    """Run the configured method over every seed; write report.csv/.json."""
    ckpt_dir = out_dir if save_checkpoints else None
    return _report(cfg, "", [None], out_dir, jobs, ckpt_dir)


def run_sweep(
    cfg: ExperimentConfig,
    param_path: str,
    values: list[float],
    out_dir=None,
    jobs: int = 1,
) -> RunReport:
    """One run per (value, seed); marks the argmin-imbalance and
    argmax-accuracy settings among the per-value means."""
    parts = param_path.split(".")
    if len(parts) != 2 or parts[0] != "method" or parts[1] not in PARAMS:
        raise ConfigError(
            f"sweep parameter must be method.<{'|'.join(PARAMS)}>, got {param_path!r}"
        )
    active = METHODS[cfg.get("method.kind")]
    if parts[1] != active.param:
        reads = f"reads only method.{active.param}" if active.param else "has no parameter"
        raise ConfigError(f"method {active.name} {reads}, so sweeping {param_path} "
                          "would train identical cells")
    if not values:
        raise ConfigError("need at least one sweep value")
    values = [float(v) for v in values]

    def balance(aggregates: list[RunRow]) -> dict | None:
        means = [r for r in aggregates if r.seed == "mean"]
        if not means:
            return None
        points = {}
        with_imb = [r for r in means if r.imbalance is not None]
        if with_imb:
            best_imb = min(with_imb, key=lambda r: (r.imbalance, values.index(r.sweep_value)))
            points["absolute"] = {
                "sweep_value": best_imb.sweep_value,
                "imbalance": best_imb.imbalance,
            }
        best_acc = max(means, key=lambda r: (r.acc, -values.index(r.sweep_value)))
        points["relative"] = {"sweep_value": best_acc.sweep_value, "acc": best_acc.acc}
        return points

    return _report(cfg, param_path, values, out_dir, jobs, balance=balance)


def compare_table(reports: list[RunReport]) -> tuple[str, str]:
    """Cross-method comparison from the reports' per-method mean rows.

    Rows follow the method registry: Baseline first, then by adjustment
    strategy (objective, optimization, feed-forward, data). Best and
    second-best per column are marked with ``*`` and ``+``. Returns
    (aligned_text, csv_text).
    """
    if not reports:
        raise ConfigError("need at least one report")
    ds0 = {k: v for k, v in reports[0].config.to_dict().items() if k.startswith("dataset.")}
    for rep in reports[1:]:
        ds = {k: v for k, v in rep.config.to_dict().items() if k.startswith("dataset.")}
        if ds != ds0:
            raise ConfigError("reports were produced on different dataset specs")

    by_method: dict[str, RunRow] = {}
    for rep in reports:
        for row in rep.aggregates:
            if row.seed == "mean" and row.method not in by_method:
                by_method[row.method] = row
    kinds = [kind for kind in METHODS if kind in by_method]

    def ranks(values, reverse):
        """Indices of best and second-best (None when unavailable)."""
        pairs = [(v, i) for i, v in enumerate(values) if v is not None]
        pairs.sort(key=lambda t: (-t[0] if reverse else t[0], t[1]))
        best = pairs[0][1] if pairs else None
        second = pairs[1][1] if len(pairs) > 1 else None
        return best, second

    accs = [by_method[k].acc for k in kinds]
    f1s = [by_method[k].macro_f1 for k in kinds]
    imbs = [by_method[k].imbalance for k in kinds]
    flops = [by_method[k].flops_total for k in kinds]
    marks: dict[tuple[int, int], str] = {}
    for col, (vals, reverse) in enumerate(
        ((accs, True), (f1s, True), (imbs, False), (flops, False))
    ):
        best, second = ranks(vals, reverse)
        if best is not None:
            marks[(best, col)] = "*"
        if second is not None:
            marks[(second, col)] = "+"

    header = ["method", "category", "acc", "macro_f1", "imbalance", "flops"]
    table_rows = [header]
    csv_lines = [",".join(header)]
    for i, kind in enumerate(kinds):
        row = by_method[kind]

        def cell(value, col, ndigits=4):
            if value is None:
                return "-"
            s = f"{value:.{ndigits}f}" if col < 3 else f"{value:.3g}"
            return s + marks.get((i, col), "")

        cells = [
            kind,
            METHODS[kind].category,
            cell(row.acc, 0),
            cell(row.macro_f1, 1),
            cell(row.imbalance, 2),
            cell(float(row.flops_total), 3),
        ]
        table_rows.append(cells)
        csv_lines.append(",".join(cells))

    widths = [max(len(r[c]) for r in table_rows) for c in range(len(header))]
    lines = []
    for r, cells in enumerate(table_rows):
        lines.append("  ".join(c.ljust(widths[j]) for j, c in enumerate(cells)).rstrip())
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n", "\n".join(csv_lines) + "\n"


def load_report(path) -> RunReport:
    """Rebuild a RunReport from a report.json file; a malformed one is a FormatError naming it."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not JSON ({exc})") from None
    if not isinstance(d, dict):
        raise FormatError(f"{path}: not a report, its top level is a JSON {type(d).__name__}")

    def rows_of(key: str) -> list[RunRow]:
        if not isinstance(d[key], list) or not all(isinstance(r, dict) for r in d[key]):
            raise FormatError(f"its {key!r} is not a list of objects")
        return [RunRow.from_dict(r) for r in d[key]]

    try:
        if not isinstance(d["config"], dict):
            raise FormatError("its 'config' is not an object")
        cfg = ExperimentConfig.from_dict(d["config"])
        rows = rows_of("rows")
        aggregates = rows_of("aggregates")
    except KeyError as exc:
        raise FormatError(f"{path}: not a report, missing key {exc}") from None
    except ConfigError as exc:
        raise FormatError(f"{path}: not a report, its config is invalid: {exc}") from None
    except FormatError as exc:
        raise FormatError(f"{path}: not a report, {exc}") from None
    m = len(rows[0].phi) if rows and rows[0].phi else cfg.get("dataset.modalities")
    return RunReport(
        rows, aggregates, m, cfg,
        sweep_param=d.get("sweep_param", ""),
        balance_points=d.get("balance_points"),
        errors=d.get("errors", []),
    )
