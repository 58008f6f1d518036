"""The benchmark's workloads: set-up, one call, and the check of its outputs.

An op is one (method, seed[, sweep value]) cell in the training workloads
and one checkpoint evaluation in ``evaluate_file``. A call is one library
call made by the closed loop; it runs ``ops_in(call)`` ops. Every call
writes into a fresh directory and returns its output texts by file name;
``check`` turns them into a list of problems (empty when the call is
correct). A workload's ``cycle`` lists its calls; ``group`` consecutive calls
make a round, and runs measure whole rounds so each sees the same mix.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from balancelab import datagen, fusion, harness, metrics
from balancelab.config import parse_config_text
from balancelab.datagen import SyntheticSpec

EFFICIENCY_TOL = 1e-9
RUN_SEEDS = (1, 2, 3, 4, 5)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _read_texts(out_dir, names) -> dict[str, str]:
    texts = {}
    for name in names:
        with open(os.path.join(out_dir, name), "r", encoding="ascii") as fh:
            texts[name] = fh.read()
    return texts


class _Training:
    """Shared pieces of the two workloads that train cells on synthetic data."""

    def __init__(self):
        self._empty_values: dict[int, np.ndarray] = {}

    def _empty_set_values(self, cfg, run_seed: int) -> np.ndarray:
        """v(empty set) candidates: the class frequencies of the cell's test split.

        The bias-only predictor answers one class for every row, so its
        accuracy is one of these frequencies.
        """
        if run_seed not in self._empty_values:
            data_seed, split_seed, _, _ = harness.derived_seeds(cfg.master_seed, run_seed)
            data = harness.load_run_data(cfg, data_seed)
            _, _, test = datagen.split(data, cfg.fractions, split_seed)
            self._empty_values[run_seed] = (
                np.bincount(test.labels, minlength=test.num_classes) / test.num_samples
            )
        return self._empty_values[run_seed]

    def check_report(self, cfg, report) -> list[str]:
        problems = [f"harness error: {e}" for e in report.errors]
        for row in report.rows:
            if not (_finite(row.acc, row.imbalance) and row.phi and _finite(*row.phi)):
                problems.append(f"non-finite acc/imbalance/phi for seed {row.seed}")
                continue
            # Shapley efficiency: sum(phi) = v(full) - v(empty), v(full) = acc
            v_empty = row.acc - math.fsum(row.phi)
            gap = np.min(np.abs(self._empty_set_values(cfg, row.seed) - v_empty))
            if gap > EFFICIENCY_TOL:
                problems.append(f"Shapley efficiency off by {gap:.3g} for seed {row.seed}")
        return problems


class SweepGradmod(_Training):
    """``harness.run_sweep`` over gradmod's alpha x seeds, as ``test_c8_sweep_harness`` does.

    Each call sweeps all alpha values for one run seed, so a multi-run
    engine has several same-shape cells to train together. The warm-up call
    sweeps the first value only.
    """

    name = "sweep_gradmod"
    values = (0.0, 0.5, 1.0, 2.0, 4.0)
    group = 1

    def setup(self, seed: int, work_dir) -> dict:
        cfg = parse_config_text(f"method.kind = gradmod\nseed = {seed}\n")
        cycle = [(s, self.values) for s in RUN_SEEDS]
        return {"cfg": cfg, "cycle": cycle, "warm_up": (RUN_SEEDS[0], self.values[:1])}

    def ops_in(self, call) -> int:
        return len(call[1])

    def key(self, call) -> str:
        return f"seed{call[0]}_alpha" + "-".join(repr(v) for v in call[1])

    def run(self, state, call, out_dir):
        run_seed, values = call
        cfg = state["cfg"].with_key("seeds", (run_seed,))
        report = harness.run_sweep(cfg, "method.alpha", list(values), out_dir=out_dir)
        return report, _read_texts(out_dir, ("report.csv", "report.json"))

    def check(self, state, op, report, texts) -> list[str]:
        return self.check_report(state["cfg"], report)


# the pinned strengths of test_c5_method_efficacy; they equal the package defaults
METHOD_SETTINGS = {
    "baseline": {},
    "gradmod": {"method.alpha": 1.0},
    "unimodal_blend": {"method.w_uni": 1.0},
    "kl_align": {"method.kl_weight": 0.5},
    "cosine": {},
    "feature_mask": {},
    "feature_drop": {},
    "resample": {},
}


class MethodMatrix(_Training):
    """``harness.run_experiment`` per method kind over the seeds, then ``compare_table``.

    This mirrors the fixture of ``test_c5_method_efficacy``: one call per
    method kind over all run seeds, and the call that completes the round of
    kinds also builds the comparison table over the round's reports. The
    warm-up call trains one baseline cell.
    """

    name = "method_matrix"
    group = len(METHOD_SETTINGS)

    def setup(self, seed: int, work_dir) -> dict:
        cfgs = {}
        for kind, overrides in METHOD_SETTINGS.items():
            text = f"method.kind = {kind}\nseed = {seed}\n"
            text += "".join(f"{k} = {v}\n" for k, v in overrides.items())
            cfgs[kind] = parse_config_text(text)
        cycle = [(kind, RUN_SEEDS) for kind in METHOD_SETTINGS]
        return {"cfgs": cfgs, "cycle": cycle, "warm_up": ("baseline", RUN_SEEDS[:1]),
                "round": {}}

    def ops_in(self, call) -> int:
        return len(call[1])

    def key(self, call) -> str:
        return f"{call[0]}_seeds" + "-".join(str(s) for s in call[1])

    def run(self, state, call, out_dir):
        kind, seeds = call
        cfg = state["cfgs"][kind].with_key("seeds", seeds)
        report = harness.run_experiment(cfg, out_dir=out_dir, save_checkpoints=True)
        texts = _read_texts(out_dir, ("report.csv", "report.json"))
        # calls run in cycle order, so the last kind closes a round
        state["round"][kind] = report
        if kind == list(METHOD_SETTINGS)[-1]:
            table, _ = harness.compare_table([state["round"][k] for k in METHOD_SETTINGS])
            texts["table.txt"] = table
        return report, texts

    def check(self, state, call, report, texts) -> list[str]:
        return self.check_report(state["cfgs"][call[0]], report)


class EvaluateFile:
    """Evaluate saved checkpoints against an MMDS dataset file.

    Set-up writes a three-modality dataset and trains one checkpoint per run
    seed; each op then makes the library calls of ``balancelab evaluate``.
    """

    name = "evaluate_file"
    run_seeds = (1, 2, 3)
    group = len(run_seeds)

    def setup(self, seed: int, work_dir) -> dict:
        spec = SyntheticSpec(num_modalities=3, num_classes=4, dims=(12, 12, 12),
                             signal=(3.0, 1.5, 1.0), sigma=1.0, samples=10000, seed=seed)
        data_path = os.path.join(work_dir, "dataset.mmds")
        datagen.save(datagen.generate(spec), data_path)
        cfg = parse_config_text(
            f'dataset.path = "{data_path}"\n'
            "eval.fractions = 0.6,0.1,0.3\n"
            "method.kind = gradmod\n"
            "train.epochs = 3\n"
            f"seed = {seed}\n"
            f"seeds = {','.join(str(s) for s in self.run_seeds)}\n"
        )
        ckpt_dir = os.path.join(work_dir, "checkpoints")
        report = harness.run_experiment(cfg, out_dir=ckpt_dir, save_checkpoints=True)
        if report.errors:
            raise RuntimeError(f"checkpoint training failed: {report.errors}")
        ckpts = {s: os.path.join(ckpt_dir, f"ckpt_gradmod_seed{s}.mmck") for s in self.run_seeds}
        cycle = list(self.run_seeds)
        return {"cfg": cfg, "cycle": cycle, "warm_up": cycle[0], "ckpts": ckpts}

    def ops_in(self, call) -> int:
        return 1

    def key(self, op) -> str:
        return f"seed{op}"

    def run(self, state, run_seed, out_dir):
        cfg = state["cfg"]
        data_seed, split_seed, _, _ = harness.derived_seeds(cfg.master_seed, run_seed)
        data = harness.load_run_data(cfg, data_seed)
        _, _, test_set = datagen.split(data, cfg.fractions, split_seed)
        model = fusion.load_model(state["ckpts"][run_seed])
        perf = metrics.evaluate_performance(model, test_set)
        rep = metrics.shapley(model, test_set)
        out = {
            "run_seed": run_seed,
            "acc": perf.accuracy,
            "macro_f1": perf.macro_f1,
            "phi": [float(p) for p in rep.phi],
            "imbalance": rep.imbalance,
            "subset_values": {
                "+".join(str(i + 1) for i in sorted(k)) or "none": v
                for k, v in rep.subset_values.items()
            },
        }
        return rep, {"evaluate.json": json.dumps(out, indent=2, sort_keys=True) + "\n"}

    def check(self, state, run_seed, rep, texts) -> list[str]:
        out = json.loads(texts["evaluate.json"])
        if not _finite(out["acc"], out["imbalance"], *out["phi"]):
            return [f"non-finite acc/imbalance/phi for seed {run_seed}"]
        m = len(rep.phi)
        v_full = rep.subset_values[frozenset(range(m))]
        v_empty = rep.subset_values[frozenset()]
        problems = []
        if v_full != out["acc"]:
            problems.append(f"v(full) {v_full} != accuracy {out['acc']} for seed {run_seed}")
        gap = abs(math.fsum(rep.phi) - (v_full - v_empty))
        if gap > EFFICIENCY_TOL:
            problems.append(f"Shapley efficiency off by {gap:.3g} for seed {run_seed}")
        return problems


WORKLOADS = {w.name: w for w in (SweepGradmod, MethodMatrix, EvaluateFile)}
