import errno
import json
import math
import os
import re
import shutil
import warnings

import numpy as np
import pytest

from balancelab import cli, config, fusion, harness, trainer
from balancelab.config import ExperimentConfig, coerce, parse_config, parse_config_text
from balancelab.datagen import SyntheticSpec
from balancelab.errors import BalanceLabError, ConfigError, FormatError, SpecError
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
TINY3 = TINY.replace("dataset.dims = 6,6\ndataset.signal = 3.0,1.0\n",
                     "dataset.modalities = 3\ndataset.dims = 6,6,6\ndataset.signal = 3.0,1.0,1.0\n")


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

    def test_infinite_tau_parses(self):
        """resample's neutral value, ``inf``, is a valid strength; float() parses it."""
        cfg = parse_config_text("method.kind = resample\nmethod.tau = inf\n")
        assert cfg.method_spec().value == math.inf

    def test_with_key_checks_the_kind(self):
        """As ``from_dict`` does: a float kind takes an int, a list kind a list or tuple."""
        cfg = parse_config_text("")
        for key, value in [("train.epochs", 2.5), ("train.epochs", True), ("seed", 1.5),
                           ("eval.shapley", 1.0), ("train.lr", "0.1"), ("seeds", (1.5,)),
                           ("dataset.signal", 3.0)]:
            with pytest.raises(ConfigError, match=f"^{re.escape(key)}: expected "):
                cfg.with_key(key, value)
        lr = cfg.with_key("train.lr", 1).get("train.lr")
        assert lr == 1.0 and isinstance(lr, float)
        assert cfg.with_key("seeds", [3, 4]).seeds == (3, 4)
        assert cfg.with_key("dataset.signal", [2, 1]).get("dataset.signal") == (2.0, 1.0)

    def test_with_key_holds_the_parsers_rules(self, tmp_path):
        """``with_key`` builds through ``from_dict``: a key set later clashes as a parsed one."""
        cfg = parse_config_text("")
        with pytest.raises(ConfigError, match=r"^dataset\.path excludes synthetic dataset keys"):
            cfg.with_key("dataset.path", str(tmp_path / "d.mmds"))
        with pytest.raises(ConfigError, match="^seeds: need at least one seed$"):
            cfg.with_key("seeds", ())

    def test_method_spec_of_any_kind(self):
        cfg = parse_config_text("method.kind = gradmod\nmethod.tau = 0.7\n")
        assert cfg.method_spec("resample") == MethodSpec("resample", 0.7)
        assert cfg.method_spec("baseline") == MethodSpec()
        assert cfg.method_spec() == MethodSpec("gradmod")


def _counted_forwards(monkeypatch) -> list:
    """One entry per ``fusion.forward`` call from here on."""
    calls = []
    real = fusion.forward
    monkeypatch.setattr(fusion, "forward", lambda *args: calls.append(None) or real(*args))
    return calls


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

    @pytest.mark.parametrize("shapley", [True, False])
    def test_one_evaluation_forward_per_cell(self, monkeypatch, shapley):
        """Validation makes one forward per run and epoch; each cell's evaluation adds one."""
        cfg = parse_config_text(TINY).with_key("eval.shapley", shapley)
        calls = _counted_forwards(monkeypatch)
        report = harness.run_experiment(cfg)
        cells = len(report.rows)
        assert cells == len(cfg.seeds) == 2
        assert len(calls) == cells * cfg.get("train.epochs") + cells

    @pytest.mark.parametrize("shapley", [True, False])
    def test_aggregates_are_mean_and_population_std(self, shapley):
        cfg = parse_config_text(TINY).with_key("seeds", (1, 2, 3))
        report = harness.run_experiment(cfg.with_key("eval.shapley", shapley))
        assert len(report.rows) == 3
        assert [r.seed for r in report.aggregates] == ["mean", "std"]
        # std rows are the population sd: numpy's default ddof of 0
        for agg, fn in zip(report.aggregates, (np.mean, np.std)):
            for name in ("acc", "macro_f1", "imbalance", "flops_total", "best_epoch"):
                values = [getattr(r, name) for r in report.rows]
                if shapley or name != "imbalance":
                    assert getattr(agg, name) == pytest.approx(fn(values)), (agg.seed, name)
                else:
                    assert getattr(agg, name) is None
            if shapley:
                per_column = fn(np.array([r.phi for r in report.rows]), axis=0)
                assert list(agg.phi) == pytest.approx(list(per_column)), agg.seed
            else:
                assert agg.phi is None
        # a spread of zero would hide the ddof
        assert report.aggregates[1].acc > 0

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

    @pytest.mark.parametrize("damage", ["truncated", "phi-without-imbalance", "three-phi"])
    def test_malformed_cell_recomputed(self, tmp_path, damage):
        cfg = parse_config_text(TINY)
        out = tmp_path / "out"
        first = harness.run_experiment(cfg, out_dir=str(out))
        csv = (out / "report.csv").read_bytes()
        cell = out / "cells" / "baseline__seed1__none.json"
        text = cell.read_text()
        if damage == "truncated":
            text = text[: len(text) // 2]
        else:
            d = json.loads(text)
            if damage == "three-phi":
                d["phi"].append(0.0)
            else:
                d["imbalance"] = None
            text = json.dumps(d)
        cell.write_text(text)
        again = harness.run_experiment(cfg, out_dir=str(out))
        assert [r.to_dict() for r in again.rows] == [r.to_dict() for r in first.rows]
        assert "cached cell unreadable" in (out / "run.log").read_text()
        assert json.loads(cell.read_text())["acc"] == first.rows[0].acc
        assert (out / "report.csv").read_bytes() == csv

    def test_interrupted_report_write_keeps_the_earlier_report(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        report = harness.run_experiment(parse_config_text(TINY), out_dir=str(out))
        before = (out / "report.json").read_bytes()

        def interrupted(obj, fh, **kwargs):
            fh.write("{")
            raise KeyboardInterrupt

        monkeypatch.setattr(json, "dump", interrupted)
        with pytest.raises(KeyboardInterrupt):
            report.write(str(out))
        assert (out / "report.json").read_bytes() == before
        assert not list(out.glob("*.tmp"))

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

    @pytest.mark.parametrize("shapley", [True, False])
    def test_one_modality_file_needs_shapley_off(self, tmp_path, monkeypatch, capsys, shapley):
        """A 1-modality file exits 1 before any cell trains under eval.shapley, else it trains."""
        from balancelab import datagen

        data = datagen.generate(parse_config_text(TINY).synthetic_spec()).select_modalities([0])
        path = tmp_path / "one.mmds"
        datagen.save(data, path)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f'dataset.path = "{path}"\nmodel.hidden = 8\ntrain.epochs = 1\n'
                            f"seeds = 1,2\neval.shapley = {str(shapley).lower()}\n")
        fits = []
        real = trainer.fit
        monkeypatch.setattr(trainer, "fit", lambda *args: fits.append(1) or real(*args))
        out = tmp_path / "out"
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        if shapley:
            assert rc == 1 and fits == []
            assert err.startswith(f"error: dataset.path {str(path)!r}: eval.shapley needs 2 or 3 "
                                  "modalities, the file has 1")
        else:
            assert rc == 0 and fits == [1]
            rows = json.loads((out / "report.json").read_text())["rows"]
            assert [row["phi"] for row in rows] == [None, None]

    def test_cell_file_that_cannot_be_written_fails_that_cell_alone(self, tmp_path, monkeypatch):
        """A cell whose own step after its stack raises (here its cell-file write) fails alone:
        its stack-mates keep their rows and files, and nothing trains again."""
        cfg = parse_config_text(TINY + "method.kind = gradmod\n").with_key("seeds", (1, 2, 3))
        out = tmp_path / "out"
        (out / "cells" / "gradmod__seed1__none.json").mkdir(parents=True)
        fits = []
        real = trainer.fit
        monkeypatch.setattr(trainer, "fit",
                            lambda c, runs: fits.append(len(runs)) or real(c, runs))
        report = harness.run_experiment(cfg, out_dir=str(out))
        assert fits == [3]
        assert [e["seed"] for e in report.errors] == [1]
        assert [r.seed for r in report.rows] == [2, 3]
        for seed in (2, 3):
            assert json.loads((out / "cells" / f"gradmod__seed{seed}__none.json").read_text())[
                "seed"] == seed


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

    @pytest.fixture(scope="class")
    def two_seed_report(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("report")
        harness.run_experiment(parse_config_text(TINY), out_dir=str(out))
        return json.loads((out / "report.json").read_text())

    @pytest.mark.parametrize("name, value", [("acc", True), ("flops_total", "12"), ("seed", [1]),
                                             ("phi", [0.5, "0.5"]), ("phi", 0.5)])
    def test_field_of_the_wrong_type_is_a_format_error(self, tmp_path, two_seed_report, name,
                                                       value):
        path = tmp_path / "report.json"
        rows = [dict(r) for r in two_seed_report["rows"]]
        rows[1][name] = value
        path.write_text(json.dumps({**two_seed_report, "rows": rows}))
        message = (f"--reports {str(path)!r}: not a report, row field {name!r} has the wrong "
                   f"type: {value!r}")
        with pytest.raises(FormatError) as err:
            harness.read_input("--reports", harness.load_report, str(path))
        assert str(err.value) == message

    @pytest.mark.parametrize("key, k, name, value", [
        ("rows", 1, "imbalance", None), ("aggregates", 1, "phi", None),
        ("rows", 1, "phi", [0.1, 0.2, 0.3]), ("aggregates", 0, "phi", [0.1])])
    def test_row_of_the_wrong_shape_is_a_format_error(self, tmp_path, two_seed_report, key, k,
                                                      name, value):
        path = tmp_path / "report.json"
        rows = [dict(r) for r in two_seed_report[key]]
        rows[k][name] = value
        path.write_text(json.dumps({**two_seed_report, key: rows}))
        with pytest.raises(FormatError) as err:
            harness.read_input("--reports", harness.load_report, str(path))
        assert str(err.value).startswith(f"--reports {str(path)!r}: not a report, row has phi ")


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
        for key in ("bogus", "method.kind", "eval.shapley", "seeds", "output.dir"):
            with pytest.raises(ConfigError):
                harness.run_sweep(cfg, key, [1.0])
        # each run derives its own data seed, so no cell reads dataset.seed
        with pytest.raises(ConfigError, match="no cell reads dataset.seed"):
            harness.run_sweep(cfg, "dataset.seed", [1.0, 2.0])
        # a parameter the active method never reads would train identical cells
        with pytest.raises(ConfigError):
            harness.run_sweep(cfg, "method.alpha", [0.0, 4.0])
        with pytest.raises(ConfigError):
            harness.run_sweep(cfg.with_key("method.kind", "gradmod"), "method.tau", [1.0])

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("key, values, stacks", [
        ("train.lr", [1e-3, 3e-2], [2, 2]),
        ("train.epochs", [2.0, 3.0], [2, 2]),
        ("dataset.sigma", [0.5, 1.5], [4]),
        ("model.feature_dim", [3.0, 5.0], [2, 2]),
        ("dataset.classes", [3.0, 5.0], [2, 2]),
    ])
    def test_each_cell_equals_run_experiment_at_its_value(self, monkeypatch, m, key, values,
                                                          stacks):
        """One fit per group of one recipe, train-set shape and model layout, bit for bit."""
        cfg = parse_config_text(TINY if m == 2 else TINY3).with_key("method.kind", "gradmod")
        sizes = []
        real = trainer.fit
        monkeypatch.setattr(trainer, "fit",
                            lambda c, runs: sizes.append(len(runs)) or real(c, runs))
        sweep = harness.run_sweep(cfg, key, values)
        assert sizes == stacks
        monkeypatch.undo()
        for value in values:
            alone = harness.run_experiment(
                cfg.with_key(key, int(value) if config.kind_of(key) == "int" else value))
            # repr is exact for floats
            assert repr([r.to_dict() for r in sweep.rows if r.sweep_value == value]) == repr(
                [{**r.to_dict(), "sweep_param": key, "sweep_value": value} for r in alone.rows])

    def test_jobs_split_a_sweep_of_several_recipes_without_changing_reports(self, tmp_path):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        for jobs in (1, 2):
            harness.run_sweep(cfg, "train.lr", [1e-3, 1e-2, 3e-2],
                              out_dir=str(tmp_path / f"jobs{jobs}"), jobs=jobs)
        for name in ("report.csv", "report.json"):
            one, two = (tmp_path / f"jobs{jobs}" / name for jobs in (1, 2))
            assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("key, values, bad, sizes", [
        ("train.lr", [1e300, 1e-3, 1e-2], 1e300, [2, 1, 1, 2, 2]),  # the 1e300 stack diverges
        ("dataset.samples", [200.0, 4.0, 300.0], 4.0, [2, 2]),  # 4 rows: an empty test split
    ])
    def test_failing_value_fails_alone_and_the_rest_stay_stacked(self, monkeypatch, key, values,
                                                                 bad, sizes):
        """A stack that raises retrains only its own cells one by one, and a cell whose set-up
        raises fails alone; the other values train in their stacks, bit for bit."""
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        fits = []
        real = trainer.fit
        monkeypatch.setattr(trainer, "fit",
                            lambda c, runs: fits.append(len(runs)) or real(c, runs))
        sweep = harness.run_sweep(cfg, key, values)
        assert fits == sizes
        assert [(e["seed"], e["sweep_value"]) for e in sweep.errors] == [(1, bad), (2, bad)]
        monkeypatch.undo()
        value_cfg = {v: cfg.with_key(key, int(v) if config.kind_of(key) == "int" else v)
                     for v in values}
        with pytest.raises(BalanceLabError) as alone:
            harness.run_experiment(value_cfg[bad])
        errors = [{**e, "sweep_value": None} for e in sweep.errors]
        assert str(alone.value) == f"all 2 runs failed: {errors}"
        for value in (v for v in values if v != bad):
            rows = harness.run_experiment(value_cfg[value]).rows
            assert repr([r.to_dict() for r in sweep.rows if r.sweep_value == value]) == repr(
                [{**r.to_dict(), "sweep_param": key, "sweep_value": value} for r in rows])

    def test_jobs_split_a_failing_sweep_without_changing_reports(self, tmp_path):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            report = harness.run_sweep(cfg, "train.lr", [1e300, 1e-3, 1e-2], out_dir=str(out),
                                       jobs=jobs)
            assert len(report.rows) == 4 and len(report.errors) == 2
            healthy = {os.path.basename(harness._cell_path(out, r.method, r.seed, r.sweep_value))
                       for r in report.rows}
            assert {p.name for p in (out / "cells").iterdir()} == healthy
        for name in ("report.csv", "report.json"):
            one, two = (tmp_path / f"jobs{jobs}" / name for jobs in (1, 2))
            assert one.read_bytes() == two.read_bytes()

    def test_cached_cell_reused_only_at_its_key_and_value(self, tmp_path, monkeypatch):
        cfg = parse_config_text(TINY).with_key("seeds", (1,))
        out = tmp_path / "out"
        first = harness.run_sweep(cfg, "train.lr", [0.01], out_dir=str(out))
        fits = []
        real = trainer.fit
        monkeypatch.setattr(trainer, "fit", lambda *args: fits.append(1) or real(*args))
        again = harness.run_sweep(cfg, "train.lr", [0.01], out_dir=str(out))
        assert fits == [] and again.rows == first.rows
        # the cell file of lr 0.01, read at another lr or under another key of that value
        cells = out / "cells"
        shutil.copy(cells / "baseline__seed1__0p01.json", cells / "baseline__seed1__0p02.json")
        harness.run_sweep(cfg, "train.lr", [0.02], out_dir=str(out))
        harness.run_sweep(cfg, "train.momentum", [0.01], out_dir=str(out))
        assert fits == [1, 1]
        assert (out / "run.log").read_text().count("computed under a different config") == 2

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_out_of_range_value_fails_before_any_cell_trains(self, tmp_path, jobs):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        out = tmp_path / "out"
        with pytest.raises(ConfigError, match=r"^method\.\*: alpha must be in"):
            harness.run_sweep(cfg, "method.alpha", [1.0, -1.0], out_dir=str(out), jobs=jobs)
        assert not (out / "report.json").exists()
        assert not (out / "cells").exists()

    @pytest.mark.parametrize("kind", [k for k, entry in METHODS.items() if entry.param])
    def test_strength_outside_its_range_rejected_everywhere(self, tmp_path, capsys, kind):
        """MethodSpec is the only range check, and a spec, a config and a sweep all reach it.

        Each value sits one float outside a finite bound, or on an open low bound.
        """
        entry = METHODS[kind]
        bad = [math.nextafter(b, toward) for b, toward in ((entry.low, -math.inf),
                                                            (entry.high, math.inf))
               if math.isfinite(b)] + ([entry.low] if entry.low_open else [])
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + f"method.kind = {kind}\n")
        for k, value in enumerate(bad):
            message = f"{entry.param} must be in"
            with pytest.raises(SpecError, match=message):
                MethodSpec(kind, value)
            with pytest.raises(ConfigError, match=f"^method\\.\\*: {message}"):
                parse_config_text(f"method.kind = {kind}\nmethod.{entry.param} = {value!r}\n")
            out = tmp_path / f"sweep{k}"
            assert cli.main(["sweep", "--config", str(cfg_path), "--param",
                             f"method.{entry.param}", f"--values={value!r}", "--out", str(out),
                             "--seeds", "1"]) == 1
            assert f"error: method.*: {message}" in capsys.readouterr().err
            assert not (out / "report.json").exists()

    def test_resume_reuses_cells(self, tmp_path, monkeypatch):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        out = tmp_path / "out"
        calls = {"n": 0}
        real = trainer.fit

        def counting(*args, **kwargs):
            calls["n"] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "fit", counting)
        # written by two worker processes, reused by one
        harness.run_sweep(cfg, "method.alpha", [0.0, 1.0], out_dir=str(out), jobs=2)
        written = (out / "report.json").read_bytes()
        calls["n"] = 0
        again = harness.run_sweep(cfg, "method.alpha", [0.0, 1.0], out_dir=str(out))
        assert calls["n"] == 0  # every cell came from disk
        assert len(again.rows) == 4
        assert (out / "report.json").read_bytes() == written
        harness.run_sweep(cfg, "method.alpha", [0.0, 1.0, 2.0], out_dir=str(out))
        assert calls["n"] == 1  # only the new value's cells trained, as one stack

    def test_cached_cell_without_its_checkpoint_recomputed(self, tmp_path):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        out = tmp_path / "out"
        first = harness.run_experiment(cfg, out_dir=str(out))
        assert not list(out.glob("*.mmck"))
        again = harness.run_experiment(cfg, out_dir=str(out), save_checkpoints=True)
        for seed in (1, 2):
            assert (out / f"ckpt_gradmod_seed{seed}.mmck").exists()
        assert (out / "run.log").read_text().count("cached cell has no checkpoint") == 2
        assert [r.to_dict() for r in again.rows] == [r.to_dict() for r in first.rows]

    def test_interrupted_checkpoint_write_is_recomputed(self, tmp_path, monkeypatch):
        """A checkpoint is written whole or not at all, so one cut short is never reused."""
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod")
        out, whole = tmp_path / "out", tmp_path / "whole"
        harness.run_experiment(cfg, out_dir=str(out))
        harness.run_experiment(cfg, out_dir=str(whole), save_checkpoints=True)
        real = fusion.save_model

        def interrupted(model, path):  # the first checkpoint's write, cut to half
            real(model, path)
            os.truncate(path, os.path.getsize(path) // 2)
            raise KeyboardInterrupt

        monkeypatch.setattr(fusion, "save_model", interrupted)
        with pytest.raises(KeyboardInterrupt):
            harness.run_experiment(cfg, out_dir=str(out), save_checkpoints=True)
        monkeypatch.undo()
        assert sorted(p.name for p in out.iterdir()) == ["cells", "report.csv", "report.json",
                                                         "run.log"]
        logged = len((out / "run.log").read_text().splitlines())
        harness.run_experiment(cfg, out_dir=str(out), save_checkpoints=True)
        assert "recomputing cell gradmod seed=1 value=None: cached cell has no checkpoint" in (
            (out / "run.log").read_text().splitlines()[logged])
        for seed in (1, 2):
            name = f"ckpt_gradmod_seed{seed}.mmck"
            assert (out / name).read_bytes() == (whole / name).read_bytes()

    def test_cache_key_pinned(self):
        # cells cached by earlier versions stay valid only while these hold; a change
        # that alters the key on purpose updates the literals
        cfg = parse_config_text("method.kind = gradmod\n")
        assert harness._cell_fingerprint(cfg.with_key("method.alpha", 0.5), "method.alpha") == (
            "21580ec4d54949b0c191775b22926c29024539dda441b00b7c7382f8ecb9f6f3")
        assert harness._cell_fingerprint(cfg, "") == (
            "f222c322664fbed691751f06d2c04e9b9902f0d6084b7b4ffd549a7b91dfc75e")
        assert harness._cell_path("out", "gradmod", 3, 0.5) == os.path.join(
            "out", "cells", "gradmod__seed3__0p5.json")

    def test_interrupt_keeps_cells_already_evaluated(self, tmp_path, monkeypatch):
        from balancelab import metrics

        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod").with_key("seeds", (1,))
        out = tmp_path / "out"
        real = metrics.shapley
        calls = []

        def interrupted(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(*args, **kwargs)

        monkeypatch.setattr(metrics, "shapley", interrupted)
        with pytest.raises(KeyboardInterrupt):
            harness.run_sweep(cfg, "method.alpha", [0.0, 1.0], out_dir=str(out))
        # the first cell was written before the second was evaluated
        assert os.listdir(out / "cells") == ["gradmod__seed1__0p0.json"]
        monkeypatch.setattr(metrics, "shapley", real)
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
        base = harness._cell_fingerprint(cfg, "method.alpha")
        changed = {"dataset.samples": 301, "model.feature_dim": 5, "train.epochs": 3,
                   "eval.shapley": False, "seed": 9, "method.alpha": 2.0}
        for key, value in changed.items():
            assert harness._cell_fingerprint(cfg.with_key(key, value), "method.alpha") != base, key
        assert harness._cell_fingerprint(cfg, "train.lr") != base
        # the cell's own method stands for the method.* keys
        for key, value in {"seeds": (7,), "output.dir": "elsewhere", "method.tau": 2.0}.items():
            assert harness._cell_fingerprint(cfg.with_key(key, value), "method.alpha") == base, key

    def test_method_keys_the_cell_never_reads_keep_its_cache(self, tmp_path, monkeypatch):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod").with_key("seeds", (1,))
        out = tmp_path / "out"
        harness.run_experiment(cfg, out_dir=str(out))
        harness.run_sweep(cfg, "method.alpha", [0.5, 2.0], out_dir=str(out / "sweep"))
        monkeypatch.setattr(trainer, "fit", None)  # any training would fail
        # resample's tau, and the alpha a sweep replaces with each cell's value
        rerun = harness.run_experiment(cfg.with_key("method.tau", 2.0), out_dir=str(out))
        assert len(rerun.rows) == 1 and not rerun.errors
        swept = harness.run_sweep(cfg.with_key("method.alpha", 3.0), "method.alpha", [0.5, 2.0],
                                  out_dir=str(out / "sweep"))
        assert len(swept.rows) == 2 and not swept.errors
        assert "recomputing" not in (out / "run.log").read_text()
        assert "recomputing" not in (out / "sweep" / "run.log").read_text()


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

    def test_reports_without_shapley_print_no_imbalance(self):
        reports = [harness.run_experiment(parse_config_text(TINY).with_key("method.kind", kind)
                                          .with_key("seeds", (1,)).with_key("eval.shapley", False))
                   for kind in ("baseline", "gradmod")]
        text, csv_text = harness.compare_table(reports)
        for lines in (text.splitlines()[2:], csv_text.splitlines()[1:]):
            assert [line.replace(",", " ").split()[4] for line in lines] == ["-", "-"]

    def test_conflicting_datasets_rejected(self):
        a = self.make_report("baseline")
        other = parse_config_text(TINY.replace("dataset.samples = 300", "dataset.samples = 320"))
        b = harness.run_experiment(other.with_key("seeds", (1,)))
        with pytest.raises(ConfigError):
            harness.compare_table([a, b])

    def test_report_without_a_successful_run_rejected(self, tmp_path):
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod").with_key("train.lr", 1e300)
        out = tmp_path / "out"
        with pytest.raises(BalanceLabError):
            harness.run_experiment(cfg, out_dir=str(out))
        failed = harness.load_report(out / "report.json")
        assert failed.errors and not failed.aggregates
        with pytest.raises(ConfigError, match="method gradmod holds no successful run"):
            harness.compare_table([self.make_report("baseline"), failed])

    def test_reports_read_on_other_test_rows_rejected(self):
        """Seeds, master seed and split fix a report's test rows; the recipe may differ."""
        base = self.make_report("baseline")
        cfg = parse_config_text(TINY).with_key("method.kind", "gradmod").with_key("seeds", (1,))
        for key, value in {"seeds": (2,), "seed": 7, "eval.fractions": (0.7, 0.2, 0.1)}.items():
            other = harness.run_experiment(cfg.with_key(key, value))
            with pytest.raises(ConfigError, match=re.escape(f"other test rows: {key} differ")):
                harness.compare_table([base, other])
        tuned = harness.run_experiment(cfg.with_key("train.lr", 0.01)
                                       .with_key("model.hidden", (6,)))
        text, _ = harness.compare_table([base, tuned])
        assert "gradmod" in text

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

    def test_evaluate_out_writes_the_printed_json(self, tmp_path, capsys):
        runs = tmp_path / "runs"
        assert cli.main(["train", "--config", TINY, "--seeds", "1", "--out", str(runs)]) == 0
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", TINY, "--checkpoint",
                         str(runs / "ckpt_baseline_seed1.mmck"), "--run-seed", "1",
                         "--out", str(tmp_path / "ev")]) == 0
        printed = capsys.readouterr().out
        assert '"subset_values"' in printed
        assert (tmp_path / "ev" / "evaluate.json").read_text() == printed

    @pytest.mark.parametrize("command, output", [
        ("generate", "dataset.mmds"), ("train", "report.csv"), ("sweep", "report.csv"),
        ("evaluate", "evaluate.json"), ("table", "table.txt")])
    def test_output_that_cannot_be_written_exits_1(self, tmp_path, capsys, command, output):
        """An output whose name a directory holds is one error line naming it, not a traceback."""
        runs = tmp_path / "runs"
        if command in ("evaluate", "table"):  # their inputs: a checkpoint, a report
            assert cli.main(["train", "--config", TINY, "--seeds", "1", "--out", str(runs)]) == 0
        argv = {
            "generate": ["generate", "--config", TINY],
            "train": ["train", "--config", TINY, "--seeds", "1"],
            "sweep": ["sweep", "--config", TINY + "method.kind = gradmod\n", "--param",
                      "method.alpha", "--values", "0,1", "--seeds", "1"],
            "evaluate": ["evaluate", "--config", TINY, "--checkpoint",
                         str(runs / "ckpt_baseline_seed1.mmck"), "--run-seed", "1"],
            "table": ["table", "--reports", str(runs / "report.json")],
        }[command]
        out = tmp_path / "out"
        (out / output).mkdir(parents=True)
        capsys.readouterr()
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {str(out / output)!r}: {os.strerror(errno.EISDIR)}\n"
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, output", [("evaluate", "evaluate.json"),
                                                 ("table", "table.txt")])
    def test_interrupted_output_write_keeps_the_earlier_file(self, tmp_path, monkeypatch, capsys,
                                                             command, output):
        """An output written whole: a write interrupted halfway leaves the earlier file."""
        runs, out = tmp_path / "runs", tmp_path / "out"
        for kind in ("baseline", "gradmod"):
            assert cli.main(["train", "--config", TINY + f"method.kind = {kind}\n", "--seeds", "1",
                             "--out", str(runs / kind)]) == 0
        evaluate = ["evaluate", "--config", TINY, "--checkpoint",
                    str(runs / "baseline" / "ckpt_baseline_seed1.mmck")]
        first, second = {
            "evaluate": [[*evaluate, "--run-seed", seed] for seed in ("1", "2")],
            "table": [["table", "--reports", *(str(runs / k / "report.json") for k in kinds)]
                      for kinds in (["baseline"], ["baseline", "gradmod"])],
        }[command]
        assert cli.main([*first, "--out", str(out)]) == 0
        before = (out / output).read_bytes()
        real_open = open

        class Halfway:
            """A file for writing that takes half of its first write, then is interrupted."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[:len(text) // 2])
                raise KeyboardInterrupt

        monkeypatch.setattr("builtins.open", lambda file, mode="r", *args, **kwargs: (
            Halfway if "w" in mode else lambda fh: fh)(real_open(file, mode, *args, **kwargs)))
        with pytest.raises(KeyboardInterrupt):
            cli.main([*second, "--out", str(out)])
        monkeypatch.undo()
        assert (out / output).read_bytes() == before
        assert not list(out.glob("*.tmp"))
        assert cli.main([*second, "--out", str(out)]) == 0  # uninterrupted, it writes another
        assert (out / output).read_bytes() != before

    @pytest.mark.parametrize("header, message", [
        (None, "missing header"),
        ("m=2 H=3 seed=0 arch=6,8,4;6,8,four", "bad header"),
        ("m=3 H=3 seed=0 arch=6,8,4;6,8,4", "arch lists 2 encoders for m=3"),
    ])
    def test_bad_checkpoint_header_exits_1(self, tmp_path, capsys, header, message):
        ckpt = tmp_path / "m.mmck"
        ckpt.write_text("MMCK v1\n" + ("" if header is None else header + "\n"))
        assert cli.main(["evaluate", "--config", TINY, "--checkpoint", str(ckpt)]) == 1
        assert capsys.readouterr().err.startswith(f"error: --checkpoint {str(ckpt)!r}: line 2: "
                                                  f"{message}")

    @pytest.mark.parametrize("shapley", [True, False])
    def test_evaluate_reads_the_model_with_one_forward(self, tmp_path, monkeypatch, capsys,
                                                       shapley):
        config = TINY + f"eval.shapley = {str(shapley).lower()}\n"
        runs = tmp_path / "runs"
        assert cli.main(["train", "--config", config, "--seeds", "1", "--out", str(runs)]) == 0
        calls = _counted_forwards(monkeypatch)
        assert cli.main(["evaluate", "--config", config, "--checkpoint",
                         str(runs / "ckpt_baseline_seed1.mmck"), "--run-seed", "1"]) == 0
        assert len(calls) == 1
        assert ('"subset_values"' in capsys.readouterr().out) == shapley

    @pytest.mark.parametrize("m", [1, 4])
    def test_evaluate_applies_trains_shapley_rule_from_the_header(self, tmp_path, monkeypatch,
                                                                   capsys, m):
        """The same line as train's, before the file body, the checkpoint or any forward."""
        from balancelab import datagen

        data = datagen.generate(parse_config_text(TINY).synthetic_spec())
        path = tmp_path / "d.mmds"
        datagen.save(datagen.Dataset((data.features * 2)[:m], data.labels, data.num_classes),
                     path)

        def unread(path):
            raise AssertionError("the header alone decides this")

        monkeypatch.setattr(datagen, "load", unread)
        monkeypatch.setattr(fusion, "load_model", unread)
        calls = _counted_forwards(monkeypatch)
        rc = cli.main(["evaluate", "--config", f'dataset.path = "{path}"\n',
                       "--checkpoint", str(tmp_path / "m.mmck")])
        assert rc == 1 and calls == []
        assert capsys.readouterr().err == (
            f"error: dataset.path {str(path)!r}: eval.shapley needs 2 or 3 modalities, "
            f"the file has {m} (set eval.shapley = false)\n")

    @pytest.mark.parametrize("key, values, message", [
        ("train.epochs", "2.5", "train.epochs: expected int, got 2.5"),
        ("train.epochs", "2,nan", "train.epochs: expected int, got nan"),
        ("train.epochs", "inf", "train.epochs: expected int, got inf"),
        ("eval.shapley", "1", "can sweep only an int or float key, eval.shapley is bool"),
        ("method.kind", "1", "can sweep only an int or float key, method.kind is str"),
        ("seeds", "1", "can sweep only an int or float key, seeds is ints"),
    ])
    def test_sweep_value_the_key_cannot_hold_exits_1(self, tmp_path, monkeypatch, capsys, key,
                                                     values, message):
        monkeypatch.setattr(trainer, "fit", lambda *args: pytest.fail("a cell trained"))
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", TINY, "--param", key, "--values", values,
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "cells").exists()

    def test_synthetic_key_sweep_on_a_dataset_file_exits_1(self, tmp_path, capsys):
        from balancelab import datagen

        path = tmp_path / "d.mmds"
        datagen.save(datagen.generate(parse_config_text(TINY).synthetic_spec()), path)
        out = tmp_path / "o"
        assert cli.main(["sweep", "--config", f'dataset.path = "{path}"\nseeds = 1\n', "--param",
                         "dataset.sigma", "--values", "0.5,1", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: dataset.path excludes synthetic dataset keys, got ['dataset.sigma']")
        assert not (out / "cells").exists()

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

    @pytest.mark.parametrize("trained_on, model", [
        (TINY + "dataset.classes = 5\n", "a 5-class model of input dims (6, 6),"),
        (TINY.replace("dataset.dims = 6,6\ndataset.signal = 3.0,1.0\n",
                      "dataset.modalities = 3\ndataset.dims = 6,6,6\ndataset.signal = 3,1,1\n"),
         "a 4-class model of input dims (6, 6, 6),"),
        (TINY.replace("dataset.dims = 6,6", "dataset.dims = 6,8"),
         "a 4-class model of input dims (6, 8),"),
    ], ids=["classes", "modalities", "input-dim"])
    def test_checkpoint_of_another_layout_exits_1(self, tmp_path, capsys, trained_on, model):
        """The checkpoint's class count and input dims are checked against the data before use."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY)
        runs = tmp_path / "runs"
        assert cli.main(["train", "--config", trained_on, "--seeds", "1", "--out", str(runs)]) == 0
        ckpt = runs / "ckpt_baseline_seed1.mmck"
        capsys.readouterr()
        assert cli.main(["evaluate", "--config", str(cfg_path), "--checkpoint", str(ckpt),
                         "--run-seed", "1"]) == 1
        assert capsys.readouterr().err == (
            f"error: --checkpoint '{ckpt}': {model} but the config's data has 4 classes of "
            "dims (6, 6)\n")

    def test_diverging_runs_print_only_the_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + "train.lr = 1e300\n")
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            assert cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 1
        assert [str(w.message) for w in seen] == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: all 2 runs failed")
        assert "non-finite logits" in err[0]

    def test_missing_dataset_path_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        missing = tmp_path / "missing.mmds"
        cfg_path.write_text(f'dataset.path = "{missing}"\ntrain.epochs = 1\nseeds = 1\n')
        rc = cli.main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err

    def test_bad_float_deep_in_a_file_exits_1_naming_its_line(self, tmp_path, capsys):
        from balancelab import datagen

        path = tmp_path / "d.mmds"
        spec = SyntheticSpec(3, 4, (2, 2, 2), (3.0, 1.0, 1.0), 1.0, 6000, 0)
        datagen.save(datagen.generate(spec), path)
        lines = path.read_text().splitlines(keepends=True)
        label, values = lines[5001].split("|", 1)  # record 5,000 is on line 5,002
        lines[5001] = f"{label}|abc {values.split(' ', 1)[1]}"
        path.write_text("".join(lines))
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(f'dataset.path = "{path}"\n')
        rc = cli.main(["evaluate", "--config", str(cfg_path), "--checkpoint", "unread.mmck"])
        assert (rc, capsys.readouterr().err) == (
            1, f"error: dataset.path {str(path)!r}: line 5002: bad float in modality 0\n")

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

    @pytest.mark.parametrize("from_file", [True, False], ids=["file", "text"])
    def test_bad_config_line_exits_1_naming_its_source(self, tmp_path, capsys, from_file):
        """A config file's error names ``--config`` and the file; literal text names its line."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("bogus = 1\n")
        source = str(cfg_path) if from_file else "bogus = 1\n"
        assert cli.main(["train", "--config", source, "--out", str(tmp_path / "o")]) == 1
        prefix = f"--config {str(cfg_path)!r}: " if from_file else ""
        assert capsys.readouterr().err == f"error: {prefix}line 1: unknown key 'bogus'\n"

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
        source = f"--config {str(cfg_path)!r}: " if cfg_line else ""  # a flag or env var is not
        assert capsys.readouterr().err.startswith(
            f"error: {source}{key}: must be non-negative, got ")
        assert not out.exists()

    @pytest.mark.parametrize("command, key, value", [
        ("train", "eval.fractions", "nan,0.5,0.5"),
        ("evaluate", "eval.fractions", "nan,0.5,0.5"),
        ("train", "train.lr", "nan"),
        ("train", "train.lr", "inf"),
        ("train", "train.weight_decay", "nan"),
        ("train", "dataset.sigma", "nan"),
        ("train", "dataset.sigma", "inf"),
        ("train", "dataset.signal", "3.0,nan"),
    ])
    def test_non_finite_value_exits_1(self, tmp_path, monkeypatch, capsys, command, key, value):
        """NaN and inf fail the range checks, so no cell trains."""
        argv = [command, "--checkpoint", "c.mmck"] if command == "evaluate" else [command]
        monkeypatch.setattr(trainer, "fit", lambda *args: pytest.fail("a cell trained"))
        cfg_path = tmp_path / "exp.cfg"
        kept = [line for line in TINY.splitlines() if not line.startswith(key)]
        cfg_path.write_text("\n".join(kept) + f"\n{key} = {value}\n")
        out = tmp_path / "o"
        assert cli.main([*argv, "--config", str(cfg_path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        section, name = key.split(".")
        assert err.startswith(f"error: --config {str(cfg_path)!r}: {section}.") and name in err
        assert not out.exists()

    @pytest.mark.parametrize("joined", [False, True], ids=["space", "equals"])
    @pytest.mark.parametrize("argv, flag, value, message", [
        pytest.param(["sweep", "--param", "method.alpha", "--seeds", "1"], "--values", "-1e-3",
                     "error: method.*: alpha must be in ", id="values-1e-3"),
        pytest.param(["sweep", "--param", "method.alpha", "--seeds", "1"], "--values", "-1,2",
                     "error: method.*: alpha must be in ", id="values-1,2"),
        pytest.param(["train"], "--seeds", "-1,2", "error: seeds: must be non-negative, got ",
                     id="seeds-1,2"),
    ])
    def test_negative_option_value_exits_1(self, tmp_path, capsys, argv, flag, value, message,
                                           joined):
        """A value starting with "-" reaches the range check in either form, not argparse."""
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(TINY + "method.kind = gradmod\n")
        out = tmp_path / "o"
        option = [f"{flag}={value}"] if joined else [flag, value]
        assert cli.main([*argv, *option, "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(message)
        assert not (out / "report.json").exists()

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
