"""The run-axis engine: cells trained as one stack equal each cell trained alone."""

import copy
import dataclasses
import hashlib
import importlib.util
import math
import pathlib
from collections import Counter

import numpy as np
import pytest

from balancelab import fusion, harness, methods, trainer
from balancelab.config import parse_config_text
from balancelab.datagen import SyntheticSpec, generate, split
from balancelab.errors import ShapeError
from balancelab.fusion import init_model
from balancelab.methods import METHODS, MethodSpec
from balancelab.metrics import FlopsLedger
from balancelab.trainer import Run, TrainConfig, fit

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


CFG = TrainConfig(epochs=3, batch_size=32)


def sets(seed, m=2):
    """Seed ``seed``'s (train, val) pair, m modalities."""
    data = generate(SyntheticSpec(m, 3, (6, 6, 5)[:m], (2.0, 1.0, 0.5)[:m], 1.0, 200, seed))
    return split(data, (0.8, 0.1, 0.1), seed)[:2]


def cell(kind, value, seed, m=2, pair=None):
    """One run, m modalities; each seed has its own data, split, init and batch order.

    ``pair``, a (train, val) pair, replaces the seed's own, so runs can share a train set.
    """
    model = init_model([[d, 8, 4] for d in (6, 6, 5)[:m]], 3, 10 + seed)
    return Run(*(pair or sets(seed, m)), model, 100 + seed, MethodSpec(kind, value))


def alone(run):
    """``run`` trained by itself: its (model, log)."""
    [(best, log)] = fit(CFG, [run])
    return best, log


# m = 2 keeps the bare kind as its id
@pytest.mark.parametrize("kind, m", [pytest.param(kind, m, id=kind if m == 2 else f"{kind}-{m}")
                                     for m in (2, 3) for kind in METHODS])
def test_stack_matches_each_cell_alone(kind, m):
    cells = [cell(kind, value, seed, m) for value in strengths(kind) for seed in (1, 2, 3)]
    stacked = fit(CFG, cells)
    assert len(stacked) == len(cells) >= 3
    for run, (best, log) in zip(cells, stacked):
        alone_best, alone_log = alone(run)
        assert best.flat.tobytes() == alone_best.flat.tobytes()
        assert log.best_epoch == alone_log.best_epoch
        # repr is exact for floats, so this compares every record bit for bit
        assert repr(log.records) == repr(alone_log.records)


@pytest.mark.parametrize("m", [2, 3])
def test_mixed_stack_matches_each_cell_alone(m):
    # every kind at its default plus a neutral gradmod run (baseline's group),
    # in an order fit must regroup, over a mix of seeds
    cells = [cell(kind, METHODS[kind].default, seed, m)
             for kind, seed in zip(reversed(METHODS), (1, 2, 3, 1, 2, 3, 1, 2))]
    cells.insert(3, cell("gradmod", 0.0, 2, m))
    stacked = fit(CFG, cells)
    for run, (best, log) in zip(cells, stacked):
        alone_best, alone_log = alone(run)
        assert best.flat.tobytes() == alone_best.flat.tobytes()
        assert log.best_epoch == alone_log.best_epoch
        assert repr(log.records) == repr(alone_log.records)


@pytest.mark.parametrize("m", [2, 3])
def test_runs_sharing_a_train_set_match_each_run_alone(monkeypatch, m):
    """Runs of one seed share its train set, as a sweep's cells do; _gather takes once per set."""
    pairs = {seed: sets(seed, m) for seed in (1, 2)}
    cells = [cell("gradmod", alpha, seed, m, pairs[seed])
             for alpha in (0.5, 0.0, 2.0) for seed in (2, 1)]
    cells.insert(2, cell("baseline", None, 1, m, pairs[1]))
    gathered = []
    real = trainer._gather

    def counting(plan, idx):
        gathered.append(tuple(tuple(rows) for _, rows in plan.sources))
        return real(plan, idx)

    monkeypatch.setattr(trainer, "_gather", counting)
    stacked = fit(CFG, cells)
    # two sets, whose runs interleave in the stack
    assert set(gathered) == {((0, 2, 4, 6), (1, 3, 5))}
    for run, (best, log) in zip(cells, stacked):
        alone_best, alone_log = alone(run)
        assert best.flat.tobytes() == alone_best.flat.tobytes()
        assert log.best_epoch == alone_log.best_epoch
        assert repr(log.records) == repr(alone_log.records)


def test_each_run_keeps_its_own_ledger():
    """Each run's log gets a fresh ledger, charged with that run's work alone."""
    # gradmod's FLOPs exceed baseline's, and fit sorts baseline to the stack's top
    cells = [cell("gradmod", METHODS["gradmod"].default, 1), cell("baseline", None, 2)]
    stacked = fit(CFG, cells)
    (_, first), (_, second) = stacked
    assert first.flops is not second.flops
    assert first.flops.total != second.flops.total
    for run, (_, log) in zip(cells, stacked):
        _, solo = alone(run)
        assert log.flops.total == solo.flops.total
        assert log.records[-1].flops_total == log.flops.total


@pytest.mark.parametrize("kind, m", [(kind, m) for kind in (
    "baseline", "gradmod", "unimodal_blend", "kl_align", "cosine", "resample") for m in (2, 3)])
def test_ledger_matches_a_hand_count(kind, m):
    """Each run's ledger is the sum of its charges, counted by hand from the architecture.

    Per batch of n rows: encode and head, the fused loss and the head
    backward, the encoder backward and SGD, plus the kind's own work as its
    hooks record it; per epoch, a forward over the run's validation rows,
    cosine's deploy, and resample's forward over the train rows. 160 train
    rows in batches of 48 leave a short last batch, and the 20 validation
    rows are neither. The feature transforms are left out: their charge
    depends on which modality a draw makes dominant.
    """
    cfg = dataclasses.replace(CFG, epochs=2, batch_size=48)
    runs = [cell(kind, METHODS[kind].default, seed, m) for seed in (1, 2)]
    ledgers = [log.flops for _, log in fit(cfg, runs)]
    h, d = 3, 4  # classes, and each encoder's feature width
    layers = [(q, 8) for q in (6, 6, 5)[:m]] + [(8, d)] * m  # (d_in, d_out) per layer
    encoder_params = sum(q * r + r for q, r in layers)

    def forward(n):  # every encoder layer's activation is charged, the last one's too
        return Counter(forward_matmul=sum(2 * n * q * r + n * r for q, r in layers)
                       + m * 2 * n * d * h,
                       elementwise=sum(n * r for _, r in layers) + m * n * h)

    def own(n):  # the kind's hooks' per-batch charges beyond the fused loss and head backward
        if kind == "gradmod":  # the scores and the gradient scale
            return Counter(softmax_loss=5 * m * n * h, elementwise=m * (n * h + n) + encoder_params)
        if kind == "unimodal_blend":  # the unimodal losses, dW(uni) and the conflict guard
            return Counter(softmax_loss=5 * m * n * h, backward_matmul=m * 2 * n * d * h,
                           elementwise=m * 4 * d * h)
        if kind == "kl_align":  # the partial log-softmax and each pair's divergences
            return Counter(softmax_loss=5 * m * n * h, elementwise=math.comb(m, 2) * 10 * n * h)
        if kind == "cosine":  # the cosine products, norms, scaling and self terms
            return Counter(forward_matmul=m * 2 * n * d * h,
                           elementwise=m * (3 * (n * d + h * d) + 3 * n * h))
        return Counter()

    for run, ledger in zip(runs, ledgers):
        n_train, n_val = run.train.num_samples, run.val.num_samples
        assert n_train % cfg.batch_size and n_val not in (n_train, cfg.batch_size)
        want = Counter()
        for _ in range(cfg.epochs):
            for start in range(0, n_train, cfg.batch_size):
                n = min(cfg.batch_size, n_train - start)
                want += forward(n)
                want += Counter(softmax_loss=5 * n * h, backward_matmul=m * 4 * n * d * h)
                want += Counter(backward_matmul=sum(4 * n * q * r for q, r in layers),
                                elementwise=m * n * 8)
                want += own(n)
                want += Counter(elementwise=6 * (encoder_params + m * h * d + h))
            want += forward(n_val)
            if kind == "cosine":  # deploy normalizes each head row
                want += Counter(elementwise=m * h * d)
            if kind == "resample":  # the weights' forward, contributions and exp
                want += forward(n_train) + Counter(softmax_loss=5 * m * n_train * h,
                                                   elementwise=3 * n_train)
        for f in dataclasses.fields(FlopsLedger):
            assert getattr(ledger, f.name) == want[f.name], f.name


def test_every_ledger_fit_records_into_is_a_runs_own(monkeypatch):
    """Every ledger ``fit`` records into is one of its runs' logs', so a run's FLOPs have one home.

    A hook serving many runs records into each of their ledgers, and no
    staging ledger is charged, so a sum over every ledger that saw a record
    (perfbench's tracer takes one) counts each FLOP once.
    """
    seen = {}
    real = FlopsLedger.record

    def noting(ledger, *args, **kwargs):
        seen[id(ledger)] = ledger
        return real(ledger, *args, **kwargs)

    monkeypatch.setattr(FlopsLedger, "record", noting)
    cells = [cell(kind, METHODS[kind].default, seed) for kind in METHODS for seed in (1, 2)]
    owned = {id(log.flops) for _, log in fit(CFG, cells)}
    assert seen.keys() == owned


def restore(carry, saved):
    """Put a copy of ``saved``'s progress into ``carry``'s own objects, which the plan aliases."""
    for f in dataclasses.fields(carry):
        now, old = getattr(carry, f.name), copy.deepcopy(getattr(saved, f.name))
        if isinstance(now, fusion.FusionModel):
            now.flat[...] = old.flat
        elif isinstance(now, np.ndarray):
            now[...] = old
        elif isinstance(now, list):  # the logs, which fit's caller holds
            for obj, value in zip(now, old):
                vars(obj).update(vars(value))
        else:  # the epoch, and running scores (None before the first batch)
            setattr(carry, f.name, old)


@pytest.mark.parametrize("m", [2, 3])
def test_carry_is_all_of_a_stacks_progress(monkeypatch, m):
    """A fit whose carry is restored to epoch 2 finishes as the uninterrupted fit did."""
    pairs = {seed: sets(seed, m) for seed in (1, 2)}
    cells = [cell(kind, METHODS[kind].default, seed, m, pairs[seed])
             for kind, seed in (("gradmod", 1), ("feature_drop", 2), ("resample", 1),
                                ("cosine", 2), ("baseline", 1))]
    real = trainer._epoch
    saved, resumed_epochs = [], []

    def saving(plan, carry):
        if carry.epoch == 2:
            saved.append(copy.deepcopy(carry))
        real(plan, carry)

    def resuming(plan, carry):
        if carry.epoch == 0:
            restore(carry, saved[0])
        resumed_epochs.append(carry.epoch)
        real(plan, carry)

    outcomes = []
    for epoch_fn in (saving, resuming):
        monkeypatch.setattr(trainer, "_epoch", epoch_fn)
        outcomes.append(fit(dataclasses.replace(CFG, epochs=4), cells))
    assert resumed_epochs == [2, 3]
    whole, resumed = outcomes
    for (best, log), (again, again_log) in zip(whole, resumed):
        assert again.flat.tobytes() == best.flat.tobytes()
        assert again_log.best_epoch == log.best_epoch
        assert repr(again_log.records) == repr(log.records)
        assert repr(again_log.flops) == repr(log.flops)


@pytest.mark.parametrize("kind", [k for k in METHODS if k != "baseline"])
def test_each_hook_called_once_per_stack_step(monkeypatch, kind):
    """A 5-run stack of one kind calls each of its hooks once per batch or per epoch."""
    cells = [cell(kind, METHODS[kind].default, seed) for seed in (1, 2, 3, 4, 5)]
    batches = -(-cells[0].train.num_samples // CFG.batch_size)
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
    fit(dataclasses.replace(CFG, epochs=1), cells)
    assert calls == expected


@pytest.mark.parametrize("kind", ["gradmod", "cosine"])
def test_per_fit_work_is_not_redone_per_batch(monkeypatch, kind):
    """Row views, encoder spans and hook lookups are built once per fit, no FLOPs ledger
    beyond the runs' own is built, and the FLOPs of work many steps share are charged once
    per epoch.

    Every model view walks ``fusion._blocks``, so an extra epoch may add one
    walk per run (its validation view), one for its gradient buffer and one
    per deploy range, and no more at any batch count. A ledger the trainer
    builds it builds through ``trainer.FlopsLedger``, and it builds none:
    each run's is its log's. Every FLOPs convention is linear in the rows of
    its pass, so outside the method hooks, which record per call, an extra
    epoch records as often at any batch count.
    """
    walks, ledgers, records, inside = [], [], [], []
    real = fusion._blocks
    monkeypatch.setattr(fusion, "_blocks", lambda *args: walks.append(1) or real(*args))
    monkeypatch.setattr(trainer, "FlopsLedger", lambda: ledgers.append(1) or FlopsLedger())
    real_record = FlopsLedger.record
    monkeypatch.setattr(FlopsLedger, "record", lambda *args, **kwargs: (
        records.extend([] if inside else [1]) or real_record(*args, **kwargs)))
    entry = METHODS[kind]
    hooks = [getattr(entry, f) for f in ("objective", "grad_scale", "feature_transform",
                                         "sample_weights", "deploy")]
    for name in filter(None, hooks):

        def hooked(*args, real=getattr(methods, name), **kwargs):
            inside.append(1)
            try:
                return real(*args, **kwargs)
            finally:
                inside.pop()

        monkeypatch.setattr(methods, name, hooked)
    extra = []
    for batch_size in (16, 32):
        counts = []
        for epochs in (1, 2):
            cells = [cell(kind, entry.default, seed) for seed in (1, 2, 3, 4, 5)]
            for seen in (walks, records):
                seen.clear()
            fit(dataclasses.replace(CFG, epochs=epochs, batch_size=batch_size), cells)
            counts.append((len(walks), len(records)))
        extra.append(tuple(b - a for a, b in zip(*counts)))
    (walks_16, records_16), (walks_32, records_32) = extra
    assert walks_16 == walks_32 <= len(cells) + 1 + (entry.deploy is not None)
    assert records_16 == records_32  # records outside the hooks
    assert ledgers == []  # in any of the four fits


@pytest.mark.parametrize("change", [
    lambda run: {"train": run.train.subset(np.arange(100))},  # fewer train rows
    lambda run: {"model": init_model([[6, 9, 4]] * 2, 3, 12)},  # another arch
    lambda run: {"model": init_model([[6, 8, 4]] * 2, 4, 12)},  # another class count
], ids=["train-rows", "arch", "classes"])
def test_runs_of_another_stack_key_cannot_share_a_fit(change):
    run = cell("baseline", None, 1)
    other = dataclasses.replace(cell("baseline", None, 2), **change(run))
    assert trainer.stack_key(other) != trainer.stack_key(run)
    with pytest.raises(ShapeError, match="one train-set shape and model layout"):
        fit(CFG, [run, other])


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


RUN_PY = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
# the numpy build the pinned hashes were recorded on; float results may differ on another
PINNED_BUILD = {"numpy": "2.4.6", "blas_core": "SkylakeX"}
PINNED_BITS = {2: "b2c47286005c4ef88e0d8b32eab78b2c59457473fa5909fa35d06c25f3d384aa",
               3: "467ef57092c1183406a82a1c9b2f296f60fd6d11547cc9838ca6f2731bb2ba67"}


def _build():
    """The numpy version and OpenBLAS core, named as perfbench's digests name them."""
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run._build(run.env_stamp())


@pytest.mark.parametrize("m", [2, 3])
def test_training_bits_pinned(m):
    """A mixed fit's trained bits, logs and ledgers hash to a literal recorded once.

    Every kind at its default for two seeds (each seed's runs share its
    train set), plus three gradmod strengths on one more shared set, in an
    order fit must regroup. A change that keeps "bit for bit" keeps the hash.
    """
    build = _build()
    if build != PINNED_BUILD:
        pytest.skip(f"training bits were pinned on {PINNED_BUILD}, not {build}")
    dims, signal = (12, 8, 12)[:m], (3.0, 1.0, 0.5)[:m]
    runs = []
    for seed, settings in ((3, [MethodSpec("gradmod", a) for a in (2.0, 0.0, 0.5)]),
                           (1, [MethodSpec(kind) for kind in METHODS]),
                           (2, [MethodSpec(kind) for kind in reversed(METHODS)])):
        train, val, _ = split(generate(SyntheticSpec(m, 4, dims, signal, 1.0, 1000, seed)),
                              (0.8, 0.1, 0.1), seed)
        for spec in settings:
            model = init_model([[d, 24, 4] for d in dims], 4, 10 + seed)
            runs.append(Run(train, val, model, 100 + seed, spec))
    stacked = fit(TrainConfig(epochs=4), runs)
    digest = hashlib.sha256()
    for best, log in stacked:
        digest.update(best.flat.tobytes())
        digest.update(f"{log.records!r} {log.flops!r} {log.best_epoch}".encode())
    assert digest.hexdigest() == PINNED_BITS[m]
