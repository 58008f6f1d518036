"""The mutation catalogue: seeded faults that named tests must catch.

Each mutant is one exact text edit of one file and the tests that must
fail once it is applied. For each mutant, in turn, the tree is copied to a
temporary directory, the edit is applied there and only the named tests
run; a named test catches the mutant when it, or any of its parametrized
cases, fails. The named tests first run once on an unmutated copy, where
they must pass, or a failure would prove nothing.

    python mutants/run.py

Prints caught or survived per mutant and exits 1 if any survives.
Standard library only; pytest runs in a child process.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, each of which must fail


CATALOGUE = [
    Mutant("spec-range-unchecked", "src/balancelab/methods.py",
           "            self.method.check(self.value)\n", "            pass\n",
           ("tests/test_harness.py::TestRunSweep::"
            "test_strength_outside_its_range_rejected_everywhere",
            "tests/test_methods.py::TestMethodSpec::test_negative_strength")),
    Mutant("kappa-on-the-weaker-modality", "src/balancelab/methods.py",
           "np.where(rho > 1.0, np.maximum(1.0 - tanh, 1e-12), 1.0)",
           "np.where(rho < 1.0, np.maximum(1.0 - tanh, 1e-12), 1.0)",
           ("tests/test_methods.py::TestGradModulation::test_worked_example",
            "tests/test_methods.py::TestGradModulation::test_range_and_ordering")),
    Mutant("weight-decay-dropped", "src/balancelab/trainer.py",
           "g_eff = grads + config.weight_decay * params", "g_eff = grads",
           ("tests/test_trainer.py::TestSgdStep::test_weight_decay_worked_example",)),
    Mutant("cell-cache-ignored", "src/balancelab/harness.py",
           "if cell.path is not None and os.path.exists(cell.path):", "if False:",
           ("tests/test_harness.py::TestRunSweep::test_resume_reuses_cells",)),
    Mutant("unimodal-term-zeroed", "src/balancelab/methods.py",
           "    g_uni *= w_uni[:, None, None]\n",
           "    g_uni *= 0.0\n    loss_uni *= 0.0\n",
           ("tests/test_methods.py::TestUnimodalBlend::test_loss_is_sum_of_terms",)),
    Mutant("feature-factor-off-the-gradient", "src/balancelab/trainer.py",
           "        feature_grads[i] *= factor\n", "        pass\n",
           ("tests/test_trainer.py::TestGradientsThroughModel::"
            "test_transformed_step_gradient_matches_finite_differences",)),
    Mutant("run-0-feature-factor-for-every-run", "src/balancelab/trainer.py",
           "factors.setdefault(i, np.ones(features[i].shape))[rows] = factor\n",
           "factors.setdefault(i, np.ones(features[i].shape))[rows] = factor[:1]\n",
           ("tests/test_engine.py::test_stack_matches_each_cell_alone",)),
    Mutant("head-bias-gradient-zeroed", "src/balancelab/trainer.py",
           "    grads.head_bias[rows] = bundle.bias_grad\n", "    grads.head_bias[rows] = 0.0\n",
           ("tests/test_trainer.py::TestGradientsThroughModel::"
            "test_loss_gradient_matches_finite_differences",
            "tests/test_trainer.py::TestGradientsThroughModel::"
            "test_transformed_step_gradient_matches_finite_differences")),
    Mutant("range-feature-grads-at-the-stack-top", "src/balancelab/trainer.py",
           "        out[rows] = g\n", "        out[:len(g)] = g\n",
           ("tests/test_engine.py::test_mixed_stack_matches_each_cell_alone",
            "tests/test_trainer.py::TestGradientsThroughModel::"
            "test_transformed_step_gradient_matches_finite_differences")),
    Mutant("eval-keys-out-of-the-fingerprint", "src/balancelab/harness.py",
           'and not k.startswith("method.")}', 'and not k.startswith(("method.", "eval."))}',
           ("tests/test_harness.py::TestRunSweep::"
            "test_fingerprint_covers_every_section_but_seeds_and_out_dir",)),
    Mutant("score-smoothing-0.8", "src/balancelab/trainer.py",
           "SCORE_SMOOTHING = 0.7  #", "SCORE_SMOOTHING = 0.8  #",
           ("tests/test_trainer.py::TestModalityScores::test_running_score_after_two_batches",)),
    Mutant("std-rows-ddof-1", "src/balancelab/harness.py",
           '("std", np.std)', '("std", lambda column: np.std(column, ddof=1))',
           ("tests/test_harness.py::TestRunExperiment::"
            "test_aggregates_are_mean_and_population_std",)),
    Mutant("gradmod-strength-x4", "src/balancelab/methods.py",
           "    x = alpha[:, None] * (rho - 1.0)\n", "    x = 4.0 * alpha[:, None] * (rho - 1.0)\n",
           ("tests/test_methods.py::TestGradModulation::test_worked_example",)),
    Mutant("run-0-seed-for-every-run", "src/balancelab/trainer.py",
           "np.random.SeedSequence([run.seed, epoch, 0])",
           "np.random.SeedSequence([plan.runs[0].seed, epoch, 0])",
           ("tests/test_engine.py::test_stack_matches_each_cell_alone",)),
    Mutant("run-0-kappa-for-every-run", "src/balancelab/trainer.py",
           "grads.flat[rows, span] *= kappa[:, i, None]",
           "grads.flat[rows, span] *= kappa[:1, i, None]",
           ("tests/test_engine.py::test_stack_matches_each_cell_alone",)),
    Mutant("one-run-charge-to-run-0", "src/balancelab/trainer.py",
           "carry.logs[r].flops", "carry.logs[0].flops",
           ("tests/test_engine.py::test_stack_matches_each_cell_alone",)),
    Mutant("hook-work-charged-to-one-run", "src/balancelab/trainer.py",
           "for ledger in self:", "for ledger in self[:1]:",
           ("tests/test_engine.py::test_ledger_matches_a_hand_count",)),
    Mutant("epoch-steps-floor", "src/balancelab/trainer.py",
           "-(-order.shape[1] // cfg.batch_size)", "order.shape[1] // cfg.batch_size",
           ("tests/test_engine.py::test_ledger_matches_a_hand_count",)),
    Mutant("validation-charged-on-train-rows", "src/balancelab/trainer.py",
           "charge_forward(model, n + run.val.num_samples, ledger)",
           "charge_forward(model, n + run.train.num_samples, ledger)",
           ("tests/test_engine.py::test_ledger_matches_a_hand_count",)),
    Mutant("head-backward-first-modality-only", "src/balancelab/trainer.py",
           "for blk in model.head_blocks:  # the head backward",
           "for blk in model.head_blocks[:1]:  # the head backward",
           ("tests/test_engine.py::test_ledger_matches_a_hand_count",)),
    Mutant("unimodal-fused-loss-charged-twice", "src/balancelab/methods.py",
           'ledger.record("softmax_loss", m * n * h)  # the unimodal losses',
           'ledger.record("softmax_loss", (1 + m) * n * h)  # the unimodal losses',
           ("tests/test_engine.py::test_ledger_matches_a_hand_count",)),
    Mutant("modality-gather-reversed", "src/balancelab/trainer.py",
           "for x, f in zip(xs, train.features):", "for x, f in zip(xs, train.features[::-1]):",
           ("tests/test_engine.py::test_stack_matches_each_cell_alone",
            "tests/test_trainer.py::TestDominanceSuppression::"
            "test_weak_modality_starves_in_joint_training")),
    Mutant("interleaved-sets-rows-misplaced", "src/balancelab/trainer.py",
           "x[rows] = f.take(idx[rows], axis=0)", "x[rows] = f.take(idx[:len(rows)], axis=0)",
           ("tests/test_engine.py::test_runs_sharing_a_train_set_match_each_run_alone",)),
    Mutant("mmds-field-rows-unchecked", "src/balancelab/datagen.py",
           "[f.shape for f in fields] == [(len(lines), d) for d in dims]",
           "[f.shape[1] for f in fields] == list(dims)",
           ("tests/test_datagen.py::TestSaveLoad::"
            "test_faults_the_one_call_parse_alone_would_miss",)),
    Mutant("mmds-bulk-control-characters-unchecked", "src/balancelab/datagen.py",
           " and not any(c in text for c in _LINE_BREAKS):", ":",
           ("tests/test_datagen.py::TestSaveLoad::"
            "test_faults_the_one_call_parse_alone_would_miss",)),
    Mutant("mmds-chunk-offset-dropped", "src/balancelab/datagen.py",
           "_parse_chunk(lines, 3 + count, ", "_parse_chunk(lines, 3, ",
           ("tests/test_datagen.py::TestSaveLoad::test_fault_names_its_line_across_chunks",
            "tests/test_harness.py::TestCli::test_bad_float_deep_in_a_file_exits_1_naming_its_line")),
    Mutant("mmds-cache-digest-unchecked", "src/balancelab/datagen.py",
           "if arrays[0].tobytes() != digest:", "if False:",
           ("tests/test_datagen.py::TestSidecar::"
            "test_a_changed_value_of_the_same_size_is_parsed_again",)),
    Mutant("mmds-cache-shape-unchecked", "src/balancelab/datagen.py",
           "if any((a.dtype, a.shape) != (np.dtype(t), s)",
           "if False and any((a.dtype, a.shape) != (np.dtype(t), s)",
           ("tests/test_datagen.py::TestSidecar::test_a_bad_sidecar_is_ignored_and_rewritten",)),
    Mutant("shapley-accuracy-from-a-subset", "src/balancelab/metrics.py",
           "return Evaluation(*scores, values,",
           "return Evaluation(values[frozenset({0})], scores[1], values,",
           ("tests/test_metrics.py::TestShapley::test_reading_matches_evaluate_performance",)),
    Mutant("relu-mask-open-at-zero", "src/balancelab/numkit.py",
           "dz *= cache.inputs[t] > 0.0", "dz *= cache.inputs[t] >= 0.0",
           ("tests/test_numkit.py::TestMlpBackward::"
            "test_zero_pre_activation_passes_no_gradient",
            "tests/test_numkit.py::TestMlpBackward::test_matches_finite_differences")),
    Mutant("split-parts-unsorted", "src/balancelab/datagen.py",
           "data.subset(np.sort(np.concatenate(b)))", "data.subset(np.concatenate(b))",
           ("tests/test_datagen.py::TestSplit::test_matches_the_list_oracle",
            "tests/test_engine.py::test_training_bits_pinned")),
    Mutant("save-hashes-records-only", "src/balancelab/datagen.py",
           "digest = hashlib.sha256(head)", "digest = hashlib.sha256()",
           ("tests/test_datagen.py::TestSaveLeavesTheSidecar::"
            "test_a_saved_file_loads_with_no_parse",
            "tests/test_datagen.py::TestSaveLeavesTheSidecar::test_a_stale_sidecar_is_replaced")),
    Mutant("save-caches-nan", "src/balancelab/datagen.py",
           "if regular and not any(np.isnan(f).any() for f in data.features):", "if regular:",
           ("tests/test_datagen.py::TestSaveLeavesTheSidecar::"
            "test_a_nan_is_read_as_the_parse_reads_it",)),
    Mutant("stack-ignores-recipe", "src/balancelab/harness.py",
           "trainer.fit(members[0].cfg.train_config(), ",
           "trainer.fit(cells[0].cfg.train_config(), ",
           ("tests/test_harness.py::TestRunSweep::"
            "test_each_cell_equals_run_experiment_at_its_value",
            "tests/test_harness.py::TestRunSweep::"
            "test_jobs_split_a_sweep_of_several_recipes_without_changing_reports")),
    Mutant("sweep-cells-use-base-config", "src/balancelab/harness.py",
           "_Cell(seed, cell_cfg, sweep_param,", "_Cell(seed, cfg, sweep_param,",
           ("tests/test_harness.py::TestRunSweep::"
            "test_each_cell_equals_run_experiment_at_its_value",)),
    Mutant("with-key-skips-kind", "src/balancelab/config.py",
           "kind = kind_of(key)\n            if not _is_kind(value, kind):",
           "kind = kind_of(key)\n            if False:",
           ("tests/test_harness.py::TestParseConfig::test_with_key_checks_the_kind",)),
    Mutant("stack-key-drops-classes", "src/balancelab/trainer.py",
           "run.model.arch, run.model.num_classes\n", "run.model.arch\n",
           ("tests/test_harness.py::TestRunSweep::"
            "test_each_cell_equals_run_experiment_at_its_value",
            "tests/test_engine.py::test_runs_of_another_stack_key_cannot_share_a_fit")),
    Mutant("stack-failure-unstacks-the-rest", "src/balancelab/harness.py",
           "queue[:0] = [[entry] for entry in stack if",
           "queue[:] = [[entry] for entry in stack + sum(queue, []) if",
           ("tests/test_harness.py::TestRunSweep::"
            "test_failing_value_fails_alone_and_the_rest_stay_stacked",)),
    Mutant("setup-failure-fails-the-worker", "src/balancelab/harness.py",
           "            outs[cell] = (None, str(exc))\n            continue\n",
           "            return [(None, str(exc))] * len(cells)\n",
           ("tests/test_harness.py::TestRunSweep::"
            "test_failing_value_fails_alone_and_the_rest_stay_stacked",)),
]


def copy_tree(dest: Path) -> Path:
    """A copy of the repository's working tree, without version control or caches."""
    tree = dest / "tree"
    shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", "*.pyc"))
    return tree


def failing(tree: Path, tests: tuple[str, ...]) -> tuple[set[str], str]:
    """The named tests that fail in ``tree``, and pytest's output."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"pytest exited {proc.returncode} on {' '.join(tests)}:\n{proc.stdout}"
                         f"{proc.stderr}")
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return {t for t in tests if any(f == t or f.startswith(t + "[") for f in failed)}, proc.stdout


def main() -> int:
    tests = tuple(dict.fromkeys(t for m in CATALOGUE for t in m.tests))
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        broken, out = failing(copy_tree(Path(tmp)), tests)
    if broken:
        print(f"error: these tests fail on the unmutated tree:\n{out}", file=sys.stderr)
        return 1
    survived = []
    for m in CATALOGUE:
        with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
            tree = copy_tree(Path(tmp))
            target = tree / m.path
            text = target.read_text()
            if text.count(m.old) != 1:
                print(f"error: {m.name}: the old text occurs {text.count(m.old)} times in {m.path}",
                      file=sys.stderr)
                return 1
            target.write_text(text.replace(m.old, m.new))
            caught, _ = failing(tree, m.tests)
        missed = [t for t in m.tests if t not in caught]
        print(f"{'survived' if missed else 'caught':8}  {m.name}"
              + "".join(f"\n          not failing: {t}" for t in missed))
        if missed:
            survived.append(m.name)
    print(f"{len(CATALOGUE) - len(survived)} of {len(CATALOGUE)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
