"""Outside-in span tracing of balancelab's public functions.

The tracer replaces module attributes that the package looks up at call
time (``fusion.forward``, ``trainer.mlp_backward``,
``metrics.FlopsLedger.record``, ...) with timing wrappers, and puts the
originals back on ``uninstall``. Nothing under ``src/`` changes. Private
helpers are not wrapped, so their time folds into the nearest public parent
span (``trainer._backward_into_model`` counts as ``trainer.fit`` self time).

Spans live in flat in-memory columns (name, start, end, parent span, op id,
work) and are written out once, when the run ends. Op id -1 marks set-up.
"""

from __future__ import annotations

import json
import os
import time
from array import array

import numpy as np

from balancelab import datagen, fusion, harness, methods, metrics, trainer

SETUP_OP = -1

_METHOD_HOOKS = (
    "unimodal_blend_loss",
    "cosine_objective",
    "cosine_deploy",
    "kl_align_loss",
    "grad_modulation",
    "feature_mask",
    "feature_drop",
    "resample_weights",
)


def _rows(args, kwargs) -> float:
    return float(args[1][0].shape[0])


def _file_bytes(args, kwargs) -> float:
    return float(os.path.getsize(args[0]))


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_col = array("i")
        self.parent_col = array("i")
        self.op_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.work_col = array("d")
        self.stack = [-1]
        self.op = SETUP_OP
        self.ledgers: dict[int, tuple[int, metrics.FlopsLedger]] = {}
        self.report_rows: dict[int, int] = {}
        self._patches: list[tuple[object, str, object, object]] = []

        for attr in ("fit", "modality_scores", "sgd_step", "baseline_loss", "evaluate_accuracy"):
            self._wrap(trainer, attr, f"trainer.{attr}")
        self._wrap(fusion, "mlp_forward", "numkit.mlp_forward")
        self._wrap(trainer, "mlp_backward", "numkit.mlp_backward")
        self._wrap(fusion, "forward", "fusion.forward", work=_rows)
        for attr in ("load_model", "save_model"):
            self._wrap(fusion, attr, f"fusion.{attr}")
        for attr in _METHOD_HOOKS:
            self._wrap(methods, attr, f"methods.{attr}")
        for attr in ("shapley", "value_function", "evaluate_performance"):
            self._wrap(metrics, attr, f"metrics.{attr}")
        self._wrap(metrics.FlopsLedger, "record", "metrics.ledger_record", work=self._note_ledger)
        for attr in ("generate", "split", "batches", "save"):
            self._wrap(datagen, attr, f"datagen.{attr}")
        self._wrap(datagen, "load", "datagen.load", work=_file_bytes)
        for attr in ("run_single", "compare_table", "load_run_data"):
            self._wrap(harness, attr, f"harness.{attr}")
        for attr in ("run_sweep", "run_experiment"):
            self._wrap(harness, attr, f"harness.{attr}", after=self._note_rows)

    def _note_ledger(self, args, kwargs) -> float:
        # the ledger is held here so its id stays unique for the whole run
        ledger = args[0]
        if id(ledger) not in self.ledgers:
            self.ledgers[id(ledger)] = (self.op, ledger)
        return 0.0

    def _note_rows(self, report) -> None:
        self.report_rows[self.op] = self.report_rows.get(self.op, 0) + len(report.rows)

    def _wrap(self, owner, attr: str, span: str, work=None, after=None) -> None:
        original = getattr(owner, attr)
        name_id = len(self.names)
        self.names.append(span)
        names, parents, ops = self.name_col, self.parent_col, self.op_col
        starts, ends, works, stack = self.start_col, self.end_col, self.work_col, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(tracer.op)
            works.append(work(args, kwargs) if work is not None else 0.0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        self._patches.append((owner, attr, original, traced))

    def install(self) -> None:
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name_col, dtype=np.int32),
            "parent": np.frombuffer(self.parent_col, dtype=np.int32),
            "op": np.frombuffer(self.op_col, dtype=np.int32),
            "start": np.frombuffer(self.start_col, dtype=np.float64),
            "end": np.frombuffer(self.end_col, dtype=np.float64),
            "work": np.frombuffer(self.work_col, dtype=np.float64),
        }

    def write(self, path) -> None:
        """Write every span as columns of one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **self.columns())

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-layer figures for one set-up plus one pass over the traced round.

        Set-up spans count once; spans of timed ops are divided by the number
        of passes, which repeat the same cells, so counts come out exact.
        Every ``_s`` figure is self time: a span's duration minus the part
        its child spans cover. ``trainer.step_us`` is instead ``fit``'s whole
        time (validation included) per SGD step. A layer the workload never
        calls reads 0.
        """
        col = self.columns()
        dur = col["end"] - col["start"]
        nested = col["parent"] >= 0
        children = np.bincount(col["parent"][nested], weights=dur[nested], minlength=dur.size)
        setup = col["op"] == SETUP_OP

        def per_round(values):
            # sums of whole numbers stay exact: passes repeat the same cells
            totals = [np.bincount(col["name"][rows], weights=values[rows],
                                  minlength=len(self.names)) for rows in (setup, ~setup)]
            return dict(zip(self.names, totals[0] + totals[1] / passes))

        self_s = per_round(dur - children)
        total_s = per_round(dur)
        calls = per_round(np.ones_like(dur))
        work = per_round(col["work"])

        def share(pairs):
            totals = [0, 0]
            for op, count in pairs:
                totals[op != SETUP_OP] += count
            return totals[0] + totals[1] / passes

        flops = {kind: share((op, getattr(ledger, kind)) for op, ledger in self.ledgers.values())
                 for kind in ("forward_matmul", "backward_matmul", "elementwise", "softmax_loss")}
        report_rows = share(self.report_rows.items())

        hooks = [f"methods.{h}" for h in _METHOD_HOOKS]
        hook_s = sum(self_s[h] for h in hooks)
        harness_self = sum(self_s[f"harness.{a}"] for a in
                           ("run_sweep", "run_experiment", "compare_table", "load_run_data"))
        steps = calls["trainer.sgd_step"]

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        out = {
            "trainer.fit_self_s": self_s["trainer.fit"],
            "trainer.steps": steps,
            "trainer.step_us": ratio(total_s["trainer.fit"], steps) * 1e6,
            "trainer.modality_scores_s": self_s["trainer.modality_scores"],
            "trainer.sgd_step_s": self_s["trainer.sgd_step"],
            "trainer.baseline_loss_s": self_s["trainer.baseline_loss"],
            "trainer.evaluate_accuracy_s": self_s["trainer.evaluate_accuracy"],
            "numkit.mlp_forward_s": self_s["numkit.mlp_forward"],
            "numkit.mlp_forward_calls": calls["numkit.mlp_forward"],
            "numkit.mlp_backward_s": self_s["numkit.mlp_backward"],
            "numkit.mlp_backward_calls": calls["numkit.mlp_backward"],
            "fusion.forward_s": self_s["fusion.forward"],
            "fusion.forward_calls": calls["fusion.forward"],
            "fusion.forward_rows_per_call": ratio(work["fusion.forward"],
                                                  calls["fusion.forward"]),
            "fusion.load_model_s": self_s["fusion.load_model"],
            "fusion.save_model_s": self_s["fusion.save_model"],
            "methods.hook_s": hook_s,
            "methods.hook_calls": sum(calls[h] for h in hooks),
            "metrics.shapley_s": self_s["metrics.shapley"],
            "metrics.value_function_calls": calls["metrics.value_function"],
            "metrics.evaluate_performance_s": self_s["metrics.evaluate_performance"],
            "metrics.ledger_record_calls": calls["metrics.ledger_record"],
            "metrics.ledger_record_s": self_s["metrics.ledger_record"],
            "datagen.generate_s": self_s["datagen.generate"],
            "datagen.split_s": self_s["datagen.split"],
            "datagen.batches_s": self_s["datagen.batches"],
            "datagen.load_s": self_s["datagen.load"],
            "datagen.load_mb_per_s": ratio(work["datagen.load"] / 1e6, total_s["datagen.load"]),
            "datagen.save_s": self_s["datagen.save"],
            "harness.run_single_s": self_s["harness.run_single"],
            "harness.self_s": harness_self,
            "harness.cells": calls["harness.run_single"],
            "harness.cells_reused": report_rows - calls["harness.run_single"],
        }
        for kind, value in flops.items():
            out[f"metrics.flops_{kind}"] = value
        # FLOP rates computed from ledger counts over the self time of the
        # layers that do that category's work; not measured hardware rates.
        out["fusion.forward_gflops"] = ratio(
            flops["forward_matmul"] / 1e9,
            self_s["fusion.forward"] + self_s["numkit.mlp_forward"])
        out["numkit.backward_gflops"] = ratio(
            flops["backward_matmul"] / 1e9,
            self_s["numkit.mlp_backward"] + self_s["trainer.baseline_loss"] + hook_s)
        out["trainer.elementwise_gflops"] = ratio(
            flops["elementwise"] / 1e9, self_s["trainer.sgd_step"] + self_s["trainer.fit"])
        return out
