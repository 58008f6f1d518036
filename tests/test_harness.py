import json
import os

import numpy as np
import pytest

from balancelab import cli, config, harness, trainer
from balancelab.config import ExperimentConfig, coerce, parse_config, parse_config_text
from balancelab.datagen import SyntheticSpec
from balancelab.errors import ConfigError, FormatError, SpecError
from balancelab.methods import METHODS, MethodSpec

TINY = """
dataset.samples = 300
dataset.dims = 6,6
dataset.signal = 3.0,1.0
model.hidden = 8
model.feature_dim = 4
train.epochs = 4
train.batch_size = 32
seeds = 1,2
"""


class TestParseConfig:
    def test_minimal_fills_defaults(self):
        cfg = parse_config_text("method.kind = baseline\n")
        assert cfg.get("train.lr") == 1e-3
        assert cfg.get("train.momentum") == 0.9
        assert cfg.get("train.weight_decay") == 1e-4
        assert cfg.get("eval.fractions") == (0.8, 0.1, 0.1)
        assert cfg.seeds == (1, 2, 3, 4, 5)

    def test_method_mapping(self):
        cfg = parse_config_text('method.kind = "gradmod"\nmethod.alpha = 1.0\n')
        spec = cfg.method_spec()
        assert spec.kind == "gradmod" and spec.value == 1.0

    def test_misspelled_key_is_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("methd.kind = baseline\n")
        assert "methd.kind" in str(err.value)

    def test_unknown_method_kind(self):
        with pytest.raises(ConfigError):
            parse_config_text("method.kind = magic\n")

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError) as err:
            parse_config_text("train.epochs = soon\n")
        assert "train.epochs" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ConfigError):
            parse_config_text("seed = 1\nseed = 2\n")

    def test_round_trip_semantics(self):
        cfg = parse_config_text(TINY)
        assert ExperimentConfig.from_dict(cfg.to_dict()).values == cfg.values

    def test_empty_config_builds_the_default_objects(self):
        cfg = parse_config_text("")
        assert cfg.train_config() == trainer.TrainConfig()
        assert cfg.synthetic_spec() == SyntheticSpec()

    def test_docstring_key_table_matches_schema(self):
        table = config.__doc__.split("::", 1)[1].split("\n\n")[1]
        rows = {}
        for line in table.splitlines():
            if not line[4].isspace():  # a continuation line extends the row above
                key = line.split()[0]
                rows[key] = ""
            rows[key] += line
        params = [m.param for m in METHODS.values() if m.param is not None]
        assert set(rows) == set(config._SCHEMA) - {f"method.{p}" for p in params} | {
            "method.<param>"}
        assert all(p in rows["method.<param>"] for p in params)
        for key, (kind, default) in config._SCHEMA.items():
            if key in rows:
                _, shown_kind, rest = rows[key].split(maxsplit=2)
                assert shown_kind == kind, key
                if rest.startswith("("):
                    assert coerce(key, kind, rest[1:rest.index(")")]) == default, key
                else:
                    assert default is None, key

    def test_path_or_text(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text(TINY)
        from_file = parse_config(str(path))
        from_text = parse_config(TINY)
        assert from_file.values == from_text.values

    def test_missing_file_reported(self):
        with pytest.raises(ConfigError):
            parse_config("no_such_file.cfg")

    def test_dataset_path_excludes_synthetic_keys(self):
        with pytest.raises(ConfigError):
            parse_config_text('dataset.path = "d.mmds"\ndataset.samples = 10\n')

    def test_bad_fractions(self):
        with pytest.raises(ConfigError):
            parse_config_text("eval.fractions = 0.5,0.4,0.2\n")

    @pytest.mark.parametrize("line", ["model.hidden = 0", "model.hidden = 24,0",
                                      "model.feature_dim = -1"])
    def test_layer_size_below_1(self, line):
        with pytest.raises(ConfigError, match=r"^model\.\*: "):
            parse_config_text(line + "\n")

    def test_method_key_the_kind_never_reads_is_checked(self):
        with pytest.raises(ConfigError, match=r"^method\.\*: tau must be in"):
            parse_config_text("method.kind = gradmod\nmethod.tau = 0\n")

    def test_method_spec_of_any_kind(self):
        cfg = parse_config_text("method.kind = gradmod\nmethod.tau = 0.7\n")
        assert cfg.method_spec("resample") == MethodSpec("resample", 0.7)
        assert cfg.method_spec("baseline") == MethodSpec()
        assert cfg.method_spec() == MethodSpec("gradmod")


class TestRunExperiment:
    def test_tiny_run_schema(self, tmp_path):
        cfg = parse_config_text(TINY).with_key("seeds", (1,))
        report = harness.run_experiment(cfg, out_dir=str(tmp_path / "out"))
        assert len(report.rows) == 1
        row = report.rows[0]
        assert 0.0 <= row.acc <= 1.0 and 0.0 <= row.macro_f1 <= 1.0
        assert row.imbalance is not None and 0.0 <= row.imbalance <= 1.0
        assert len(row.phi) == 2
        assert row.flops_total > 0 and row.best_epoch >= 0
        assert (tmp_path / "out" / "report.csv").exists()
        assert (tmp_path / "out" / "report.json").exists()

    def test_two_seeds_aggregate_mean(self, tmp_path):
        cfg = parse_config_text(TINY)
        report = harness.run_experiment(cfg)
        assert len(report.rows) == 2
        means = [r for r in report.aggregates if r.seed == "mean"]
        assert len(means) == 1
        assert means[0].acc == pytest.approx(np.mean([r.acc for r in report.rows]))

    def test_byte_identical_reports(self, tmp_path):
        cfg = parse_config_text(TINY)
        a = tmp_path / "a"
        b = tmp_path / "b"
        harness.run_experiment(cfg, out_dir=str(a))
        harness.run_experiment(cfg, out_dir=str(b))
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_csv_column_order(self):
        cfg = parse_config_text(TINY).with_key("seeds", (1,))
        report = harness.run_experiment(cfg)
        header = report.csv_text().splitlines()[0]
        assert header == (
            "method,seed,sweep_param,sweep_value,acc,macro_f1,phi_1,phi_2,"
            "imbalance,flops_total,best_epoch"
        )

    def test_cells_written_incrementally(self, tmp_path):
        cfg = parse_config_text(TINY)
        out = tmp_path / "out"
        harness.run_experiment(cfg, out_dir=str(out))
        cells = sorted(os.listdir(out / "cells"))
        assert cells == ["baseline__seed1__none.json", "baseline__seed2__none.json"]

    def test_truncated_cell_recomputed(self, tmp_path):
        cfg = parse_config_text(TINY).with_key("seeds", (1,))
        out = tmp_path / "out"
        first = harness.run_experiment(cfg, out_dir=str(out))
        cell = out / "cells" / "baseline__seed1__none.json"
        text = cell.read_text()
        cell.write_text(text[: len(text) // 2])
        again = harness.run_experiment(cfg, out_dir=str(out))
        assert again.rows[0].to_dict() == first.rows[0].to_dict()
        assert "cached cell unreadable" in (out / "run.log").read_text()
        assert json.loads(cell.read_text())["acc"] == first.rows[0].acc

    def test_dataset_file_config(self, tmp_path):
        from balancelab import datagen

        cfg0 = parse_config_text(TINY)
        data = datagen.generate(cfg0.synthetic_spec())
        path = tmp_path / "d.mmds"
        datagen.save(data, path)
        cfg = parse_config_text(
            f'dataset.path = "{path}"\nmodel.hidden = 8\nmodel.feature_dim = 4\n'
            "train.epochs = 2\nseeds = 1\n"
        )
        report = harness.run_experiment(cfg)
        assert len(report.rows) == 1

    def test_failed_cells_report_the_file_modality_count(self, tmp_path, monkeypatch):
        from balancelab import datagen

        spec = datagen.SyntheticSpec(num_modalities=3, num_classes=4, dims=(4, 4, 4),
                                     signal=(3.0, 1.0, 1.0), sigma=1.0, samples=200, seed=0)
        path = tmp_path / "d.mmds"
        datagen.save(datagen.generate(spec), path)
        cfg = parse_config_text(f'dataset.path = "{path}"\ntrain.epochs = 1\nseeds = 1,2\n')

        def diverges(*args, **kwargs):
            raise FloatingPointError("diverged")

        monkeypatch.setattr(trainer, "fit", diverges)
        out = tmp_path / "out"
        with pytest.raises(harness.BalanceLabError, match="all 2 runs failed"):
            harness.run_experiment(cfg, out_dir=str(out))
        header = (out / "report.csv").read_text().splitlines()[0]
        assert "phi_3" in header.split(",")

    def test_bad_file_body_fails_each_cell_in_the_report(self, tmp_path):
        path = tmp_path / "d.mmds"
        path.write_text("MMDS v1\nm=3 H=2 N=1 dims=1,1,1\n0|1|2\n")
        cfg = parse_config_text(f'dataset.path = "{path}"\ntrain.epochs = 1\nseeds = 1,2\n')
        out = tmp_path / "out"
        with pytest.raises(harness.BalanceLabError, match="all 2 runs failed"):
            harness.run_experiment(cfg, out_dir=str(out))
        report = json.loads((out / "report.json").read_text())
        assert [e["seed"] for e in report["errors"]] == [1, 2]
        assert all("line 3" in e["error"] for e in report["errors"])
        assert "phi_3" in (out / "report.csv").read_text().splitlines()[0].split(",")

    def test_cached_file_cells_read_only_the_header(self, tmp_path, monkeypatch):
        from balancelab import datagen

        spec = datagen.SyntheticSpec(num_modalities=3, num_classes=4, dims=(4, 4, 4),
                                     signal=(3.0, 1.0, 1.0), sigma=1.0, samples=200, seed=0)
        path = tmp_path / "d.mmds"
        datagen.save(datagen.generate(spec), path)
        cfg = parse_config_text(f'dataset.path = "{path}"\nmodel.hidden = 8\n'
                                "train.epochs = 1\nseeds = 1,2\neval.shapley = false\n")
        out = tmp_path / "out"
        first = harness.run_experiment(cfg, out_dir=str(out))

        def unread(path):
            raise AssertionError("every cell is cached, so the dataset body is not needed")

        monkeypatch.setattr(datagen, "load", unread)
        again = harness.run_experiment(cfg, out_dir=str(out))
        assert [r.to_dict() for r in again.rows] == [r.to_dict() for r in first.rows]
        header = (out / "report.csv").read_text().splitlines()[0].split(",")
        assert [c for c in header if c.startswith("phi_")] == ["phi_1", "phi_2", "phi_3"]


class TestLoadReport:
    @pytest.mark.parametrize("shapley", [True, False])
    @pytest.mark.parametrize("sweep", [False, True])
    def test_round_trip(self, tmp_path, sweep, shapley):
        cfg = parse_config_text(TINY).with_key("eval.shapley", shapley)
        out = tmp_path / "out"
        if sweep:
            cfg = cfg.with_key("method.kind", "gradmod")
            report = harness.run_sweep(cfg, "method.alpha", [0.0, 1.0], out_dir=str(out))
        else:
            report = harness.run_experiment(cfg, out_dir=str(out))
        back = harness.load_report(out / "report.json")
        assert [r.to_dict() for r in back.rows] == [r.to_dict() for r in report.rows]
        assert [r.to_dict() for r in back.aggregates] == [r.to_dict() for r in report.aggregates]
        assert all((r.phi is None) == (not shapley) for r in back.rows + back.aggregates)
        assert all((r.imbalance is None) == (not shapley) for r in back.rows + back.aggregates)
        assert back.config == report.config
        assert back.json_dict() == report.json_dict()
        assert back.csv_text() == report.csv_text()

    def test_row_missing_a_key_is_a_format_error(self, tmp_path):
        out = tmp_path / "out"
        harness.run_experiment(parse_config_text(TINY).with_key("seeds", (1,)), out_dir=str(out))
        d = json.loads((out / "report.json").read_text())
        del d["rows"][0]["sweep_param"]
        (out / "report.json").write_text(json.dumps(d))
        with pytest.raises(FormatError, match="missing key 'sweep_param'"):
            harness.load_report(out / "report.json")


class TestRunSweep:
    def test_zero_alpha_matches_baseline_rows(self, tmp_path):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod").with_key("seeds", (1,))
        sweep = harness.run_sweep(cfg, "method.alpha", [0.0])
        base = harness.run_experiment(parse_config_text(TINY).with_key("seeds", (1,)))
        srow, brow = sweep.rows[0], base.rows[0]
        assert srow.acc == brow.acc
        assert srow.imbalance == brow.imbalance
        assert srow.flops_total == brow.flops_total
        assert srow.best_epoch == brow.best_epoch

    def test_rows_per_value_and_markers(self):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        sweep = harness.run_sweep(cfg, "method.alpha", [0.0, 1.0, 2.0])
        assert len(sweep.rows) == 3 * 2
        values = sorted({r.sweep_value for r in sweep.rows})
        assert values == [0.0, 1.0, 2.0]
        assert sweep.balance_points is not None
        assert "absolute" in sweep.balance_points and "relative" in sweep.balance_points
        d = sweep.json_dict()
        markers = [m for row in d["aggregates"] for m in row["marker"]]
        assert "argmin_imbalance" in markers and "argmax_accuracy" in markers

    def test_bad_param_path(self):
        cfg = parse_config_text(TINY)
        with pytest.raises(ConfigError):
            harness.run_sweep(cfg, "train.lr", [0.1])
        with pytest.raises(ConfigError):
            harness.run_sweep(cfg, "method.kind", [1.0])
        # a parameter the active method never reads would train identical cells
        with pytest.raises(ConfigError):
            harness.run_sweep(cfg, "method.alpha", [0.0, 4.0])
        with pytest.raises(ConfigError):
            harness.run_sweep(cfg.with_key("method.kind", "gradmod"), "method.tau", [1.0])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_out_of_range_value_fails_before_any_cell_trains(self, tmp_path, jobs):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        out = tmp_path / "out"
        with pytest.raises(SpecError, match="alpha must be in"):
            harness.run_sweep(cfg, "method.alpha", [1.0, -1.0], out_dir=str(out), jobs=jobs)
        assert not (out / "report.json").exists()
        assert not (out / "cells").exists()

    def test_resume_reuses_cells(self, tmp_path, monkeypatch):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        out = str(tmp_path / "out")
        calls = {"n": 0}
        real = trainer.fit

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "fit", counting)
        harness.run_sweep(cfg, "method.alpha", [0.0, 1.0], out_dir=out)
        assert calls["n"] > 0
        calls["n"] = 0
        again = harness.run_sweep(cfg, "method.alpha", [0.0, 1.0], out_dir=out)
        assert calls["n"] == 0  # every cell came from disk
        assert len(again.rows) == 4

    def test_interrupt_keeps_cells_already_evaluated(self, tmp_path, monkeypatch):
        from balancelab import metrics

        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod").with_key("seeds", (1,))
        out = tmp_path / "out"
        real = metrics.evaluate_performance
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(metrics, "evaluate_performance", interrupted)
        with pytest.raises(KeyboardInterrupt):
            harness.run_sweep(cfg, "method.alpha", [0.0, 1.0], out_dir=str(out))
        # the first cell was written before the second was evaluated
        assert os.listdir(out / "cells") == ["gradmod__seed1__0p0.json"]
        monkeypatch.setattr(metrics, "evaluate_performance", real)
        resumed = harness.run_sweep(cfg, "method.alpha", [0.0, 1.0], out_dir=str(out))
        fresh = harness.run_sweep(cfg, "method.alpha", [0.0, 1.0])
        assert [r.to_dict() for r in resumed.rows] == [r.to_dict() for r in fresh.rows]
        assert "reused cell gradmod seed=1 value=0.0" in (out / "run.log").read_text()

    def test_cell_of_another_config_recomputed(self, tmp_path):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod").with_key("seeds", (1,))
        out = str(tmp_path / "out")
        harness.run_sweep(cfg.with_key("train.epochs", 2), "method.alpha", [0.0], out_dir=out)
        short = cfg.with_key("train.epochs", 1)
        rerun = harness.run_sweep(short, "method.alpha", [0.0], out_dir=out)
        fresh = harness.run_sweep(short, "method.alpha", [0.0])
        assert rerun.rows[0].to_dict() == fresh.rows[0].to_dict()
        assert "different config" in (tmp_path / "out" / "run.log").read_text()

    def test_fingerprint_covers_every_section_but_seeds_and_out_dir(self):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        base = harness._cell_fingerprint(cfg, "method.alpha", 1.0)
        changed = {"dataset.samples": 301, "model.feature_dim": 5, "train.epochs": 3,
                   "method.alpha": 0.5, "eval.shapley": False, "seed": 9}
        for key, value in changed.items():
            assert harness._cell_fingerprint(
                cfg.with_key(key, value), "method.alpha", 1.0) != base, key
        assert harness._cell_fingerprint(cfg, "method.alpha", 2.0) != base
        for key, value in {"seeds": (7,), "output.dir": "elsewhere"}.items():
            assert harness._cell_fingerprint(
                cfg.with_key(key, value), "method.alpha", 1.0) == base, key


class TestCompareTable:
    def make_report(self, kind):
        cfg = parse_config_text(TINY).with_key("method.kind", kind).with_key("seeds", (1,))
        return harness.run_experiment(cfg)

    def test_single_report(self):
        text, csv_text = harness.compare_table([self.make_report("baseline")])
        assert "baseline" in text
        assert csv_text.splitlines()[0] == "method,category,acc,macro_f1,imbalance,flops"

    def test_grouping_order_and_markers(self):
        reports = [self.make_report(k) for k in ("resample", "gradmod", "baseline", "kl_align")]
        text, csv_text = harness.compare_table(reports)
        lines = [l.split(",")[0] for l in csv_text.splitlines()[1:]]
        assert lines == ["baseline", "kl_align", "gradmod", "resample"]
        assert "*" in text and "+" in text

    def test_conflicting_datasets_rejected(self):
        a = self.make_report("baseline")
        other = parse_config_text(TINY.replace("dataset.samples = 300", "dataset.samples = 320"))
        b = harness.run_experiment(other.with_key("seeds", (1,)))
        with pytest.raises(ConfigError):
            harness.compare_table([a, b])

    def test_two_settings_of_one_method_rejected(self):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod").with_key("seeds", (1,))
        sweep = harness.run_sweep(cfg, "method.alpha", [0.0, 4.0])
        with pytest.raises(ConfigError, match="two settings of method gradmod"):
            harness.compare_table([sweep])
        one, other = (harness.run_experiment(cfg.with_key("method.alpha", a)) for a in (0.0, 4.0))
        with pytest.raises(ConfigError, match="two settings of method gradmod"):
            harness.compare_table([self.make_report("baseline"), one, other])


class TestCli:
    def test_generate_train_evaluate_table(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + 'output.dir = "' + str(tmp_path / "runs") + '"\n')

        assert cli.main(["generate", "--config", str(cfg_path)]) == 0
        dataset = tmp_path / "runs" / "dataset.mmds"
        assert dataset.exists()

        assert cli.main(["train", "--config", str(cfg_path), "--seeds", "1"]) == 0
        out = tmp_path / "runs"
        assert (out / "report.csv").exists()
        ckpt = out / "ckpt_baseline_seed1.mmck"
        assert ckpt.exists()

        assert cli.main([
            "evaluate", "--config", str(cfg_path), "--checkpoint", str(ckpt), "--run-seed", "1",
        ]) == 0
        eval_out = capsys.readouterr().out
        assert '"acc"' in eval_out and '"imbalance"' in eval_out

        assert cli.main([
            "table", "--reports", str(out / "report.json"), "--out", str(tmp_path / "tbl"),
        ]) == 0
        assert (tmp_path / "tbl" / "table.csv").exists()

    def test_sweep_cli(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + "method.kind = gradmod\n")
        rc = cli.main([
            "sweep", "--config", str(cfg_path), "--param", "method.alpha",
            "--values", "0,1", "--out", str(tmp_path / "sw"), "--seeds", "1",
        ])
        assert rc == 0
        report = json.loads((tmp_path / "sw" / "report.json").read_text())
        assert report["sweep_param"] == "method.alpha"
        assert len(report["rows"]) == 2

    def test_checkpoint_of_another_class_count_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY)
        runs = tmp_path / "runs"
        assert cli.main(["train", "--config", TINY + "dataset.classes = 5\n", "--seeds", "1",
                         "--out", str(runs)]) == 0
        ckpt = runs / "ckpt_baseline_seed1.mmck"
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--run-seed", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --checkpoint '{ckpt}'") and "5-class" in err

    def test_missing_dataset_path_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        missing = tmp_path / "missing.mmds"
        cfg_path.write_text(f'dataset.path = "{missing}"\ntrain.epochs = 1\nseeds = 1\n')
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    @pytest.mark.parametrize("case", ["missing_checkpoint", "binary_checkpoint", "missing_report",
                                      "report_without_config", "report_not_json",
                                      "report_not_an_object", "report_row_not_an_object",
                                      "report_config_not_an_object", "report_row_wrong_type",
                                      "report_config_invalid", "config_directory",
                                      "config_not_utf8"])
    def test_unreadable_input_file_exits_1(self, tmp_path, capsys, case):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY)
        bad = tmp_path / "input"
        if case == "report_without_config":
            bad.write_text('{"rows": [], "aggregates": []}')
        elif case == "report_not_json":
            bad.write_text("rows,acc\n")
        elif case == "report_not_an_object":
            bad.write_text("[1, 2]")
        elif case == "report_row_not_an_object":
            bad.write_text('{"config": {}, "rows": [1], "aggregates": []}')
        elif case == "report_config_not_an_object":
            bad.write_text('{"config": [], "rows": [], "aggregates": []}')
        elif case == "report_row_wrong_type":
            bad.write_text('{"config": {}, "aggregates": [], "rows": [{"method": "baseline", '
                           '"seed": 1, "sweep_param": "", "sweep_value": null, "acc": 0.5, '
                           '"macro_f1": 0.5, "phi": 3, "imbalance": null, "flops_total": 0, '
                           '"best_epoch": 0}]}')
        elif case == "report_config_invalid":
            bad.write_text('{"config": {"seed": -1, "seeds": "x"}, "rows": [], "aggregates": []}')
        elif case == "binary_checkpoint":
            bad.write_bytes(b"MMCK v1\n\xff\xfe")
        elif case == "config_directory":
            bad.mkdir()
        elif case == "config_not_utf8":
            bad.write_bytes(b"\xff\xfeseed = 1\n")
        if case.startswith("config"):
            argv = ["train", "--config", str(bad), "--out", str(tmp_path / "o")]
        elif case.endswith("checkpoint"):
            argv = ["evaluate", "--config", str(cfg_path), "--checkpoint", str(bad)]
        else:
            argv = ["table", "--reports", str(bad)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err

    @pytest.mark.parametrize("command, empty", [
        pytest.param(command, empty, id=command + ("-empty" if empty else ""))
        for empty in (False, True)
        for command in ("generate", "train", "sweep", "evaluate", "table")])
    def test_out_under_a_file_exits_1(self, tmp_path, capsys, command, empty):
        """``--out`` under a regular file, or ``--out ""``, exits 1 naming ``--out``."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + "method.kind = gradmod\n")
        runs = tmp_path / "runs"
        if command in ("evaluate", "table"):
            assert cli.main(["train", "--config", str(cfg_path), "--seeds", "1",
                             "--out", str(runs)]) == 0
        (tmp_path / "afile").write_text("")
        out = "" if empty else str(tmp_path / "afile" / "out")
        argv = {
            "generate": ["--config", str(cfg_path)],
            "train": ["--config", str(cfg_path), "--seeds", "1"],
            "sweep": ["--config", str(cfg_path), "--param", "method.alpha", "--values", "1"],
            "evaluate": ["--config", str(cfg_path), "--checkpoint",
                         str(runs / "ckpt_gradmod_seed1.mmck"), "--run-seed", "1"],
            "table": ["--reports", str(runs / "report.json")],
        }[command]
        capsys.readouterr()
        assert cli.main([command, *argv, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and out in err

    @pytest.mark.parametrize("key, cfg_line, env, argv", [
        ("seed", "seed = -1", "", ["train"]),
        ("seeds", "seeds = 1,-2", "", ["train"]),
        ("dataset.seed", "dataset.seed = -2", "", ["generate"]),
        ("seed", "", "-1", ["train"]),
        ("seed", "", "", ["evaluate", "--checkpoint", "c.mmck", "--master-seed", "-1"]),
        ("seeds", "", "", ["sweep", "--param", "method.alpha", "--values", "1",
                           "--seeds", "2,-1"]),
        ("seeds", "", "", ["evaluate", "--checkpoint", "c.mmck", "--run-seed", "-3"]),
    ])
    def test_negative_seed_exits_1(self, tmp_path, monkeypatch, capsys, key, cfg_line, env, argv):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY.replace("seeds = 1,2", cfg_line or "seeds = 1,2")
                            + "method.kind = gradmod\n")
        monkeypatch.setenv("BALANCELAB_SEED", env)
        out = tmp_path / "o"
        rc = cli.main([*argv, "--config", str(cfg_path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {key}: must be non-negative, got ")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["train", "--seeds", "2,2"],
                                      ["sweep", "--param", "method.alpha", "--values", "1,1.0"]])
    def test_repeated_cell_exits_1(self, tmp_path, capsys, argv):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + "method.kind = gradmod\n")
        out = tmp_path / "o"
        assert cli.main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: run seeds and sweep values must be distinct")
        assert not (out / "cells").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_jobs_below_1_exits_1(self, tmp_path, capsys, command):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + "method.kind = gradmod\n")
        out = tmp_path / "o"
        sweep = ["--param", "method.alpha", "--values", "1"] if command == "sweep" else []
        rc = cli.main([command, "--config", str(cfg_path), "--seeds", "1", "--jobs", "0",
                       "--out", str(out), *sweep])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: --jobs must be at least 1, got 0")
        assert not (out / "cells").exists()

    @pytest.mark.parametrize("argv", [["generate", "--jobs", "2"],
                                      ["generate", "--seeds", "1,2"],
                                      ["evaluate", "--checkpoint", "m.mmck", "--jobs", "2"],
                                      ["evaluate", "--checkpoint", "m.mmck", "--seeds", "1"]])
    def test_unread_flags_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv + ["--config", "seeds = 1"])
        assert exc.value.code == 2

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("BALANCELAB_SEED", "123")
        assert cli.main(["train", "--config", str(cfg_path), "--seeds", "1",
                         "--out", str(out_a)]) == 0
        monkeypatch.delenv("BALANCELAB_SEED")
        assert cli.main(["train", "--config", str(cfg_path), "--seeds", "1",
                         "--out", str(out_b)]) == 0
        a = json.loads((out_a / "report.json").read_text())
        b = json.loads((out_b / "report.json").read_text())
        assert a["config"]["seed"] == 123 and b["config"]["seed"] == 0
        assert a["rows"][0]["acc"] != b["rows"][0]["acc"]

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY)
        monkeypatch.setenv("BALANCELAB_SEED", "123")
        out = tmp_path / "c"
        assert cli.main(["train", "--config", str(cfg_path), "--seeds", "1",
                         "--master-seed", "7", "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["seed"] == 7

    def test_timestamps_only_in_sidecar(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY)
        out = tmp_path / "runs"
        assert cli.main(["train", "--config", str(cfg_path), "--seeds", "1",
                         "--out", str(out)]) == 0
        assert (out / "run.log").exists()
        import re

        stamp = re.compile(r"\d{4}-\d{2}-\d{2} \d{2}:\d{2}:\d{2}")
        assert stamp.search((out / "run.log").read_text())
        assert not stamp.search((out / "report.csv").read_text())
        assert not stamp.search((out / "report.json").read_text())

    @pytest.mark.parametrize("source, argv", [
        ("BALANCELAB_SEED", ["train"]),
        ("--seeds", ["train", "--seeds", "1,two"]),
        ("--values", ["sweep", "--param", "method.alpha", "--values", "0,one"]),
        ("--run-seed", ["evaluate", "--checkpoint", "c.mmck", "--run-seed", "one"]),
        ("--seeds", ["train", "--seeds", ""]),
    ])
    def test_non_integer_input_names_its_source(self, tmp_path, monkeypatch, capsys,
                                                 source, argv):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY)
        monkeypatch.setenv("BALANCELAB_SEED", "seven" if source == "BALANCELAB_SEED" else "")
        rc = cli.main([*argv, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {source}: cannot parse")
