"""Config-driven experiment runner: seeded runs, sweeps, comparison tables.

Every run is one (config, seed) cell. A cell derives four independent
generator seeds (data, split, init, train) from the pair (master seed, run
seed), executes the full pipeline under its own config, and produces one
report row. The report's columns are ``RunRow``'s fields in order, phi
expanded to phi_1..phi_m; phi and imbalance are empty when ``eval.shapley =
false``. Each (method, sweep value) group adds a mean row and a std row, the
population sd (ddof 0).

``run_experiment`` (one cell config, the call's) and ``run_sweep`` (per
value, the call's config with the swept key set by ``with_key``) share one
report path: cells, then aggregates, then the written report. The modality
count, which sets the report's phi columns, is read before any cell trains:
``dataset.modalities`` for synthetic data, the MMDS header
(``datagen.read_header``) for a dataset file.

Each cell's record (its config, cell file, fingerprint and checkpoint path)
is made once per call, and both the cache read and the worker's write use
it. The uncached cells train as one ``trainer.Run`` each (its split, initial
model, train seed and method), in one ``trainer.fit`` stack per recipe and
``trainer.stack_key`` (train-set shape and model layout); ``jobs`` (at least
1) splits them into contiguous chunks, one worker process each. Each cell is
written to ``<out>/cells/`` as soon as it is evaluated after its stack has
trained, so an interrupted call resumes without recomputing those cells, but
it retrains every cell of a stack still training. A cell whose set-up raises
fails alone. A stack that raises (one diverging ``train.lr``, say) retrains
only its own unfinished cells, one by one; later stacks still train whole. A
cell file whose fingerprint (of the cell's own config) differs, that cannot
be read, whose row has the wrong shape for the call's modality count, or
whose asked-for checkpoint is missing, is recomputed. Cell files,
checkpoints and reports are written whole or not at all
(``datagen.write_whole``), so an interrupted write leaves nothing to reuse.
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
from .config import ExperimentConfig, kind_of
from .errors import BalanceLabError, ConfigError, FormatError
from .methods import METHODS

_NUMBER = (int, float)
# each balance point, and the marker its sweep value's mean row carries
_MARKERS = (("absolute", "argmin_imbalance"), ("relative", "argmax_accuracy"))


def _is(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def _column(types, aggregated=False, **default):
    """A RunRow field: the JSON types it may hold and whether mean/std rows aggregate it."""
    return field(metadata={"types": types, "aggregated": aggregated}, **default)


@dataclass
class RunRow:
    """One report row. Its fields, in order, are the report's columns; the list-typed
    field holds one value per modality and fills m columns. No field holds a bool."""

    method: str = _column((str,))
    seed: object = _column((int, str))  # run seed, or "mean"/"std" on aggregate rows
    sweep_param: str = _column((str,), default="")
    sweep_value: float | None = _column((*_NUMBER, type(None)), default=None)
    acc: float = _column(_NUMBER, True, default=0.0)
    macro_f1: float = _column(_NUMBER, True, default=0.0)
    phi: tuple[float, ...] | None = _column((list, type(None)), True, default=None)
    imbalance: float | None = _column((*_NUMBER, type(None)), True, default=None)
    flops_total: float = _column(_NUMBER, True, default=0)
    best_epoch: float = _column(_NUMBER, True, default=-1)

    to_dict = dataclasses.asdict  # json writes the tuple as a list

    @staticmethod
    def from_dict(d: dict) -> "RunRow":
        """Inverse of :meth:`to_dict`; a field of the wrong JSON type is a FormatError."""
        row = RunRow(**{f.name: d[f.name] for f in dataclasses.fields(RunRow)})
        for f in dataclasses.fields(row):
            value = getattr(row, f.name)
            items = value if isinstance(value, list) else []
            if not _is(value, f.metadata["types"]) or not all(_is(p, _NUMBER) for p in items):
                raise FormatError(f"row field {f.name!r} has the wrong type: {value!r}")
            if isinstance(value, list):
                setattr(row, f.name, tuple(value))
        return row

    def check_shape(self, m: int) -> None:
        """A FormatError unless phi holds m values and imbalance is null just when phi is."""
        if (self.phi is None) != (self.imbalance is None):
            raise FormatError(f"row has phi {self.phi!r} but imbalance {self.imbalance!r}")
        if self.phi is not None and len(self.phi) != m:
            raise FormatError(f"row has phi {self.phi!r} for {m} modalities")


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
        def columns(row) -> list[tuple[str, object]]:
            """(name, value) per CSV column, from a row or (None) for the header."""
            out = []
            for f in dataclasses.fields(RunRow):
                value = None if row is None else getattr(row, f.name)
                if list not in f.metadata["types"]:
                    out.append((f.name, value))
                else:
                    out += [(f"{f.name}_{i + 1}", None if value is None else value[i])
                            for i in range(self.m)]
            return out

        lines = [",".join(name for name, _ in columns(None))]
        lines += [",".join("" if v is None else str(v) for _, v in columns(row))
                  for row in self.rows + self.aggregates]
        return "\n".join(lines) + "\n"

    def json_dict(self) -> dict:
        points = self.balance_points or {}
        aggregates = []
        for row in self.aggregates:
            marker = [tag for key, tag in _MARKERS if row.seed == "mean" and points.get(key)
                      and points[key]["sweep_value"] == row.sweep_value]
            aggregates.append({**row.to_dict(), "marker": marker})
        return {
            "version": _VERSION,
            "config": self.config.to_dict(),
            "sweep_param": self.sweep_param,
            "rows": [r.to_dict() for r in self.rows],
            "aggregates": aggregates,
            "balance_points": self.balance_points,
            "errors": self.errors,
        }

    def write(self, out_dir) -> None:
        os.makedirs(out_dir, exist_ok=True)
        write_text(os.path.join(out_dir, "report.csv"), self.csv_text())
        _write_json(os.path.join(out_dir, "report.json"), self.json_dict())


def write_text(path, text: str) -> None:
    """ASCII ``text`` into ``path``, whole or not at all (``datagen.write_whole``)."""
    with datagen.write_whole(path) as tmp, open(tmp, "w", encoding="ascii") as fh:
        fh.write(text)


def _write_json(path, d: dict) -> None:
    with datagen.write_whole(path) as tmp, open(tmp, "w", encoding="ascii") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
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
    """``load(path)``, its errors prefixed ``{name} {path!r}: ``.

    A file that cannot be read is a ConfigError, as is one whose content
    ``load`` rejects as a ConfigError; a malformed one stays a FormatError
    and keeps its ``line``.
    """
    try:
        return load(path)
    except ConfigError as exc:
        raise ConfigError(f"{name} {path!r}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"{name} {path!r}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{name} {path!r}: not {exc.encoding} text") from None
    except FormatError as exc:
        named = FormatError(f"{name} {path!r}: {exc}")
        named.line = exc.line
        raise named from None


def make_output_dir(name: str, path) -> None:
    """``os.makedirs(path)``, a failure mapped to ConfigError as ``read_input`` maps it."""
    read_input(name, lambda p: os.makedirs(p, exist_ok=True), path)


def load_run_data(cfg: ExperimentConfig, data_seed: int) -> datagen.Dataset:
    if cfg.dataset_path is not None:
        return read_input("dataset.path", datagen.load, cfg.dataset_path)
    return datagen.generate(cfg.synthetic_spec(seed=data_seed))


def run_splits(cfg: ExperimentConfig, run_seed: int, file_data=None):
    """A run seed's (train, val, test) splits; ``file_data`` is a dataset file already read."""
    data_seed, split_seed, _, _ = derived_seeds(cfg.master_seed, run_seed)
    data = load_run_data(cfg, data_seed) if file_data is None else file_data
    return datagen.split(data, cfg.fractions, split_seed)


def evaluate_model(cfg: ExperimentConfig, model, data: datagen.Dataset) -> metrics.Evaluation:
    """One forward's reading: ``metrics.shapley``, or without it ``evaluate_performance``."""
    read = metrics.shapley if cfg.shapley_enabled else metrics.evaluate_performance
    return read(model, data)


def modality_count(cfg: ExperimentConfig) -> int:
    """The config's modality count, or for a dataset file its header's, which
    ``eval.shapley`` needs to be 2 or 3 (a config's always is)."""
    if cfg.dataset_path is None:
        return cfg.get("dataset.modalities")
    m = read_input("dataset.path", datagen.read_header, cfg.dataset_path)[0]
    if cfg.shapley_enabled and m not in (2, 3):
        raise ConfigError(f"dataset.path {cfg.dataset_path!r}: eval.shapley needs 2 or 3 "
                          f"modalities, the file has {m} (set eval.shapley = false)")
    return m


@dataclass(frozen=True)
class _Cell:
    """One (config, seed) cell and where its results go; made once per call."""

    seed: int
    cfg: ExperimentConfig  # the call's config, with the cell's sweep value set
    sweep_param: str = ""
    sweep_value: float | None = None  # None outside a sweep
    path: str | None = None  # its cell file, None without an output directory
    fingerprint: str = ""
    ckpt: str | None = None  # its checkpoint file, None when none is asked for

    def __str__(self) -> str:
        return f"cell {self.cfg.get('method.kind')} seed={self.seed} value={self.sweep_value}"


def _train_cells(cells: list[_Cell], out_dir=None) -> list[tuple[RunRow | None, str]]:
    """Train cells, each under its own config; top-level so it can run in a pool.

    Each split (of one run seed and data config) is made once and only the
    split is kept; a dataset file, the same for every cell of a call, is
    read once, and every cell fails if it cannot be. A cell whose set-up
    raises fails alone; the others train in one ``trainer.fit`` stack per
    recipe and ``trainer.stack_key``, in order of first cell. A stack whose
    ``fit`` raises puts back its cells, as one-cell stacks. After its stack,
    each cell saves its checkpoint, is read on its own test split
    (``evaluate_model``) and is written to its cell file, each if asked for;
    a cell whose step there raises fails alone. Returns, per cell, its row or
    its error text.
    """
    outs: dict[_Cell, tuple[RunRow | None, str]] = {}
    first = cells[0].cfg  # a file config's data takes no seed, and no sweep sets its file
    try:
        file_data = None if first.dataset_path is None else load_run_data(first, data_seed=0)
    except Exception as exc:  # noqa: BLE001 - a file that cannot be read fails every cell
        return [(None, str(exc))] * len(cells)
    splits = {}
    stacks: dict[tuple, list] = {}
    for cell in cells:
        cfg = cell.cfg
        try:
            where = (cell.seed, cfg.master_seed, cfg.fractions, cfg.synthetic_spec())
            if where not in splits:
                splits[where] = run_splits(cfg, cell.seed, file_data)
            train_set, val_set, test_set = splits[where]
            _, _, init_seed, train_seed = derived_seeds(cfg.master_seed, cell.seed)
            model = fusion.init_model(cfg.arch(train_set.dims), train_set.num_classes, init_seed)
            run = trainer.Run(train_set, val_set, model, train_seed, cfg.method_spec())
        except Exception as exc:  # noqa: BLE001 - per-cell isolation
            outs[cell] = (None, str(exc))
            continue
        key = (dataclasses.astuple(cfg.train_config()), trainer.stack_key(run))
        stacks.setdefault(key, []).append((cell, run, test_set))
    del file_data

    queue = list(stacks.values())
    while queue:
        stack = queue.pop(0)
        members, runs, test_sets = zip(*stack)
        try:
            trained = trainer.fit(members[0].cfg.train_config(), list(runs))
        except Exception as exc:  # noqa: BLE001 - a stack fails only its own cells
            if len(stack) == 1:
                outs[members[0]] = (None, str(exc))
            else:
                queue[:0] = [[entry] for entry in stack]
            continue
        for cell, test_set, (best, log) in zip(members, test_sets, trained):
            try:
                if cell.ckpt is not None:
                    with datagen.write_whole(cell.ckpt) as tmp:
                        fusion.save_model(best, tmp)
                ev = evaluate_model(cell.cfg, best, test_set)
                row = RunRow(cell.cfg.get("method.kind"), cell.seed, cell.sweep_param,
                             cell.sweep_value, ev.accuracy, ev.macro_f1, ev.phi, ev.imbalance,
                             log.flops.total, log.best_epoch)
                if cell.path is not None:
                    os.makedirs(os.path.dirname(cell.path), exist_ok=True)
                    _write_json(cell.path, {**row.to_dict(), "fingerprint": cell.fingerprint})
                    _log(out_dir, f"finished {cell}")
                outs[cell] = (row, "")
            except Exception as exc:  # noqa: BLE001 - a cell's own steps fail it alone
                outs[cell] = (None, str(exc))
    return [outs[cell] for cell in cells]


def run_single(cfg: ExperimentConfig, run_seed: int) -> RunRow:
    """One cell of the configured method: its report row, or BalanceLabError with its error."""
    [(row, error)] = _train_cells([_Cell(run_seed, cfg)])
    if row is None:
        raise BalanceLabError(error)
    return row


def _cell_path(out_dir, method_kind: str, run_seed: int, sweep_value) -> str:
    value = "none" if sweep_value is None else repr(float(sweep_value))
    tag = value.replace(".", "p").replace("-", "m")
    return os.path.join(out_dir, "cells", f"{method_kind}__seed{run_seed}__{tag}.json")


def _cell_fingerprint(cfg: ExperimentConfig, sweep_param: str) -> str:
    """sha256 of everything that decides a cell's result besides its run seed:
    the cell's own config and the key it sweeps.

    The seed list and output directory are left out: adding seeds or moving
    the directory changes no existing cell. So are the config's ``method.*``
    keys: the cell's method (kind and strength) stands for them, so a key
    the cell never reads (another kind's strength) changes none.
    """
    kept = {k: v for k, v in cfg.to_dict().items()
            if k not in ("seeds", "output.dir") and not k.startswith("method.")}
    spec = cfg.method_spec()
    text = json.dumps([kept, sweep_param, spec.kind, spec.value, _VERSION], sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _read_cell(path, fingerprint: str, m: int) -> tuple[RunRow | None, str]:
    """The cached row of an m-modality call at ``path``, or None and why it cannot be used."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            d = json.load(fh)
        if d["fingerprint"] != fingerprint:
            return None, "computed under a different config"
        row = RunRow.from_dict(d)
        row.check_shape(m)
        return row, ""
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable ({type(exc).__name__}: {exc})"


def _aggregate(rows: list[RunRow]) -> list[RunRow]:
    """Mean and population-std rows per (method, sweep_value) group."""
    groups: dict[tuple[str, float | None], list[RunRow]] = {}
    for row in rows:
        groups.setdefault((row.method, row.sweep_value), []).append(row)

    out = []
    for (method, value), members in groups.items():
        for stat, fn in (("mean", np.mean), ("std", np.std)):
            agg = RunRow(method, stat, members[0].sweep_param, value)
            for f in dataclasses.fields(RunRow):
                column = [getattr(r, f.name) for r in members]
                # a field any member lacks stays None; a tuple aggregates per position
                if f.metadata["aggregated"] and None not in column:
                    per_position = isinstance(column[0], tuple)
                    stats = [float(fn(c)) for c in (zip(*column) if per_position else [column])]
                    setattr(agg, f.name, tuple(stats) if per_position else stats[0])
            out.append(agg)
    return out


def _run_cells(cells: list[_Cell], m: int, out_dir, jobs: int) -> tuple[list[RunRow], list[dict]]:
    """Run cells of m modalities, reusing completed cell files of the same config.

    The cells left to compute are split into ``jobs`` contiguous chunks,
    each trained in one process. Returns the rows in cell order and the
    failed cells.
    """
    rows: dict[_Cell, RunRow] = {}
    todo = []
    for cell in cells:
        if cell.path is not None and os.path.exists(cell.path):
            row, problem = _read_cell(cell.path, cell.fingerprint, m)
            if row is not None and cell.ckpt is not None and not os.path.exists(cell.ckpt):
                row, problem = None, "has no checkpoint"
            if row is not None:
                rows[cell] = row
                _log(out_dir, f"reused {cell}")
                continue
            _log(out_dir, f"recomputing {cell}: cached cell {problem}")
        todo.append(cell)

    # contiguous chunks in cell order, so errors list in the same order for any jobs
    n_chunks = min(jobs, len(todo))
    chunks = [todo[k * len(todo) // n_chunks:(k + 1) * len(todo) // n_chunks]
              for k in range(n_chunks)]
    if n_chunks > 1:
        with ProcessPoolExecutor(max_workers=n_chunks) as pool:
            futures = [pool.submit(_train_cells, chunk, out_dir) for chunk in chunks]
            results = []
            for chunk, fut in zip(chunks, futures):
                try:
                    results.append(fut.result())
                except Exception as exc:  # noqa: BLE001 - a lost worker fails its cells
                    results.append([(None, str(exc))] * len(chunk))
    else:
        results = [_train_cells(chunk, out_dir) for chunk in chunks]

    errors = []
    for chunk, outs in zip(chunks, results):
        for cell, (row, error) in zip(chunk, outs):
            if row is not None:
                rows[cell] = row
            else:
                errors.append({"seed": cell.seed, "sweep_value": cell.sweep_value, "error": error})
                _log(out_dir, f"cell failed seed={cell.seed} value={cell.sweep_value}: {error}")

    return [rows[cell] for cell in cells if cell in rows], errors


def _balance_points(means: list[RunRow], values: list) -> dict:
    """The argmin-imbalance ("absolute") and argmax-accuracy ("relative") settings
    among a sweep's mean rows (at least one); a tie goes to the earlier value."""
    points = {}
    with_imb = [r for r in means if r.imbalance is not None]
    if with_imb:
        best_imb = min(with_imb, key=lambda r: (r.imbalance, values.index(r.sweep_value)))
        points["absolute"] = {"sweep_value": best_imb.sweep_value, "imbalance": best_imb.imbalance}
    best_acc = max(means, key=lambda r: (r.acc, -values.index(r.sweep_value)))
    points["relative"] = {"sweep_value": best_acc.sweep_value, "acc": best_acc.acc}
    return points


def _report(cfg: ExperimentConfig, sweep_param: str, settings: list[tuple], out_dir,
            jobs: int, ckpt_dir=None) -> RunReport:
    """Run every (config, seed) cell, aggregate, and write report.csv/.json.

    ``settings`` holds one (sweep value, config) pair per setting (value
    None outside a sweep), each run over ``cfg``'s seeds. Raises when every
    cell failed, after writing the report that lists the failures.
    """
    if jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {jobs}")
    pairs = [(s, value) for value, _ in settings for s in cfg.seeds]
    repeated = next((p for k, p in enumerate(pairs) if p in pairs[:k]), None)
    if repeated is not None:
        raise ConfigError(f"run seeds and sweep values must be distinct, got cell "
                          f"(seed {repeated[0]}, value {repeated[1]}) twice")
    m = modality_count(cfg)
    if ckpt_dir is not None:
        os.makedirs(ckpt_dir, exist_ok=True)
    cells = []
    for value, cell_cfg in settings:
        kind, fingerprint = cell_cfg.get("method.kind"), _cell_fingerprint(cell_cfg, sweep_param)
        for seed in cfg.seeds:
            path = None if out_dir is None else _cell_path(out_dir, kind, seed, value)
            name = f"ckpt_{kind}_seed{seed}.mmck"
            ckpt = None if ckpt_dir is None else os.path.join(ckpt_dir, name)
            cells.append(_Cell(seed, cell_cfg, sweep_param, value, path, fingerprint, ckpt))
    rows, errors = _run_cells(cells, m, out_dir, jobs)
    aggregates = _aggregate(rows)
    means = [r for r in aggregates if r.seed == "mean"]
    points = _balance_points(means, [v for v, _ in settings]) if sweep_param and means else None
    report = RunReport(rows, aggregates, m, cfg, sweep_param, points, errors)
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
    return _report(cfg, "", [(None, cfg)], out_dir, jobs, ckpt_dir)


def run_sweep(
    cfg: ExperimentConfig,
    param_path: str,
    values: list[float],
    out_dir=None,
    jobs: int = 1,
) -> RunReport:
    """One run per (value, seed), under ``cfg.with_key(param_path, value)``, each
    built before any cell trains; marks the argmin-imbalance and
    argmax-accuracy settings among the per-value means. ``param_path`` is any
    int or float key a cell reads: not ``dataset.seed``, nor another
    method's ``method.*`` key."""
    kind = kind_of(param_path)
    own = f"method.{cfg.method_spec().method.param}"
    if kind not in ("int", "float"):
        raise ConfigError(f"can sweep only an int or float key, {param_path} is {kind}")
    if param_path == "dataset.seed" or param_path.startswith("method.") and param_path != own:
        raise ConfigError(f"no cell reads {param_path}: each run derives its own data seed, "
                          "and a method reads only its own method.* key")
    if not values:
        raise ConfigError("need at least one sweep value")
    settings = []
    for v in values:
        if kind == "int" and not float(v).is_integer():
            raise ConfigError(f"{param_path}: expected int, got {v!r}")
        settings.append((float(v), cfg.with_key(param_path, int(v) if kind == "int" else v)))
    return _report(cfg, param_path, settings, out_dir, jobs)


def compare_table(reports: list[RunReport]) -> tuple[str, str]:
    """Cross-method comparison from the reports' per-method mean rows.

    Rows follow the method registry: Baseline first, then by adjustment
    strategy (objective, optimization, feed-forward, data). Best and
    second-best per column are marked with ``*`` and ``+``. A method has one
    row, so two of its settings (a sweep's values, or two reports of one
    kind) are a ConfigError, as are a report with no successful run and
    reports read on other test rows (``dataset.*``, ``seed``, ``seeds`` or
    ``eval.fractions`` differ). Returns (aligned_text, csv_text).
    """
    if not reports:
        raise ConfigError("need at least one report")
    for rep in reports:
        if all(r.seed != "mean" for r in rep.aggregates):
            raise ConfigError(f"the report of method {rep.config.get('method.kind')} holds "
                              "no successful run, so it has no row to compare")
    test_rows = [{k: v for k, v in rep.config.to_dict().items() if k.startswith("dataset.")
                  or k in ("seed", "seeds", "eval.fractions")} for rep in reports]
    differ = sorted(k for k in set().union(*test_rows)
                    if any(t.get(k) != test_rows[0].get(k) for t in test_rows))
    if differ:
        raise ConfigError(f"the reports were read on other test rows: {', '.join(differ)} differ")

    by_method: dict[str, RunRow] = {}
    for row in (r for rep in reports for r in rep.aggregates if r.seed == "mean"):
        if row.method in by_method:
            raise ConfigError(f"the reports hold two settings of method {row.method}; "
                              "the table compares one setting per method")
        by_method[row.method] = row
    kinds = [kind for kind in METHODS if kind in by_method]

    fields = ("acc", "macro_f1", "imbalance", "flops_total")
    # the best and second-best value per column: highest acc and F1, lowest imbalance and FLOPs
    marks: dict[tuple[int, int], str] = {}
    for col, name in enumerate(fields):
        sign = -1 if col < 2 else 1
        values = [getattr(by_method[kind], name) for kind in kinds]
        ranked = sorted((sign * v, i) for i, v in enumerate(values) if v is not None)
        for (_, i), mark in zip(ranked, "*+"):
            marks[(i, col)] = mark

    header = ["method", "category", "acc", "macro_f1", "imbalance", "flops"]
    table_rows = [header]
    csv_lines = [",".join(header)]
    for i, kind in enumerate(kinds):
        cells = [kind, METHODS[kind].category]
        for col, name in enumerate(fields):
            value = getattr(by_method[kind], name)
            if value is None:
                cells.append("-")
            else:
                text = f"{value:.4f}" if col < 3 else f"{float(value):.3g}"
                cells.append(text + marks.get((i, col), ""))
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
    """Rebuild a RunReport from a report.json file; a malformed one is a FormatError."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            d = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not JSON ({exc})") from None
    if not isinstance(d, dict):
        raise FormatError(f"not a report, its top level is a JSON {type(d).__name__}")

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
        m = len(rows[0].phi) if rows and rows[0].phi else cfg.get("dataset.modalities")
        for row in rows + aggregates:
            row.check_shape(m)
    except KeyError as exc:
        raise FormatError(f"not a report, missing key {exc}") from None
    except ConfigError as exc:
        raise FormatError(f"not a report, its config is invalid: {exc}") from None
    except FormatError as exc:
        raise FormatError(f"not a report, {exc}") from None
    return RunReport(
        rows, aggregates, m, cfg,
        sweep_param=d.get("sweep_param", ""),
        balance_points=d.get("balance_points"),
        errors=d.get("errors", []),
    )
