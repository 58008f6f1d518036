"""The run-axis engine: cells trained as one stack equal each cell trained alone."""

import pytest

from balancelab import fusion, harness, methods
from balancelab.config import parse_config_text
from balancelab.datagen import SyntheticSpec, generate, split
from balancelab.fusion import init_model
from balancelab.methods import METHODS, MethodSpec
from balancelab.metrics import FlopsLedger
from balancelab.trainer import TrainConfig, fit

TINY = """
dataset.samples = 300
dataset.dims = 6,6
dataset.signal = 3.0,1.0
model.hidden = 8
model.feature_dim = 4
train.epochs = 3
train.batch_size = 32
method.kind = gradmod
seeds = 1,2
"""


def strengths(kind):
    """The default strength and the neutral one; cosine has none, so a second scale."""
    entry = METHODS[kind]
    if entry.param is None:
        return [None]
    return [entry.default, 2.0 if entry.neutral is None else entry.neutral]


def cell(kind, value, seed):
    """One run's inputs; each seed has its own data, split, init and batch order."""
    data = generate(SyntheticSpec(2, 3, (6, 6), (2.0, 1.0), 1.0, 200, seed))
    train, val, _ = split(data, (0.8, 0.1, 0.1), seed)
    model = init_model([[6, 8, 4], [6, 8, 4]], 3, 10 + seed)
    return (train, val), model, TrainConfig(epochs=3, batch_size=32, seed=100 + seed), \
        MethodSpec(kind, value)


@pytest.mark.parametrize("kind", list(METHODS))
def test_stack_matches_each_cell_alone(kind):
    cells = [cell(kind, value, seed) for value in strengths(kind) for seed in (1, 2, 3)]
    stacked = fit(*(list(part) for part in zip(*cells)), [FlopsLedger() for _ in cells])
    assert len(stacked) == len(cells) >= 3
    for inputs, (best, log) in zip(cells, stacked):
        alone, alone_log = fit(*inputs, FlopsLedger())
        assert best.flat.tobytes() == alone.flat.tobytes()
        assert log.best_epoch == alone_log.best_epoch
        # repr is exact for floats, so this compares every record bit for bit
        assert repr(log.records) == repr(alone_log.records)


def test_mixed_stack_matches_each_cell_alone():
    # every kind at its default plus a neutral gradmod run (baseline's group),
    # in an order fit must regroup, over a mix of seeds
    cells = [cell(kind, METHODS[kind].default, seed)
             for kind, seed in zip(reversed(METHODS), (1, 2, 3, 1, 2, 3, 1, 2))]
    cells.insert(3, cell("gradmod", 0.0, 2))
    stacked = fit(*(list(part) for part in zip(*cells)), [FlopsLedger() for _ in cells])
    for inputs, (best, log) in zip(cells, stacked):
        alone, alone_log = fit(*inputs, FlopsLedger())
        assert best.flat.tobytes() == alone.flat.tobytes()
        assert log.best_epoch == alone_log.best_epoch
        assert repr(log.records) == repr(alone_log.records)


@pytest.mark.parametrize("kind", [k for k in METHODS if k != "baseline"])
def test_each_hook_called_once_per_stack_step(monkeypatch, kind):
    """A 5-run stack of one kind calls each of its hooks once per batch or per epoch."""
    cells = [cell(kind, METHODS[kind].default, seed) for seed in (1, 2, 3, 4, 5)]
    for _, _, train_config, _ in cells:
        train_config.epochs = 1
    batches = -(-cells[0][0][0].num_samples // cells[0][2].batch_size)
    entry = METHODS[kind]
    # feature transforms skip the first batch, which has no running scores
    # yet; the hooks an entry lacks collapse into one None key
    expected = {entry.objective: batches, entry.grad_scale: batches,
                entry.feature_transform: batches - 1, entry.sample_weights: 1, entry.deploy: 1}
    expected.pop(None, None)
    calls = dict.fromkeys(expected, 0)
    for hook in expected:

        def counting(*args, real=getattr(methods, hook), hook=hook, **kwargs):
            calls[hook] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(methods, hook, counting)
    fit(*(list(part) for part in zip(*cells)))
    assert calls == expected


@pytest.mark.parametrize("kind", ["gradmod", "cosine"])
def test_per_fit_work_is_not_redone_per_batch(monkeypatch, kind):
    """Row views, encoder spans and hook lookups are built once per fit.

    Every model view walks ``fusion._blocks``, so an extra epoch may add one
    walk per run (its validation view) and one per deploy range, and no more
    at any batch count.
    """
    walks = []
    real = fusion._blocks
    monkeypatch.setattr(fusion, "_blocks", lambda *args: walks.append(1) or real(*args))
    entry = METHODS[kind]
    extra = []
    for batch_size in (16, 32):
        counts = []
        for epochs in (1, 2):
            cells = [cell(kind, entry.default, seed) for seed in (1, 2, 3, 4, 5)]
            for _, _, train_config, _ in cells:
                train_config.epochs, train_config.batch_size = epochs, batch_size
            walks.clear()
            fit(*(list(part) for part in zip(*cells)))
            counts.append(len(walks))
        extra.append(counts[1] - counts[0])
    assert extra[0] == extra[1] <= len(cells) + (entry.deploy is not None)


def test_failing_cell_fails_alone(monkeypatch):
    cfg = parse_config_text(TINY).with_key("seeds", (1,))
    real = methods.grad_modulation

    def fails_at_two(scores, alpha):
        if 2.0 in alpha:
            raise RuntimeError("hook failed at alpha 2")
        return real(scores, alpha)

    monkeypatch.setattr(methods, "grad_modulation", fails_at_two)
    report = harness.run_sweep(cfg, "method.alpha", [0.5, 2.0, 1.0])
    assert [(e["seed"], e["sweep_value"]) for e in report.errors] == [(1, 2.0)]
    assert report.errors[0]["error"] == "hook failed at alpha 2"
    assert [row.sweep_value for row in report.rows] == [0.5, 1.0]
    for row in report.rows:
        alone = harness.run_sweep(cfg, "method.alpha", [row.sweep_value]).rows[0]
        assert row.to_dict() == alone.to_dict()


def test_jobs_split_the_stack_without_changing_reports(tmp_path):
    cfg = parse_config_text(TINY)
    for jobs in (1, 2):
        harness.run_sweep(cfg, "method.alpha", [0.0, 1.0, 2.0], out_dir=str(tmp_path / str(jobs)),
                          jobs=jobs)
    for name in ("report.csv", "report.json"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()
