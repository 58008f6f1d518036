"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

Criteria 4, 5 and 8 train on the pinned benchmark dataset (two modalities,
signal scales 3 and 1, sigma 1, dims 12/12, 4 classes, 4000 samples) at the
package's default training recipe. Run with ``pytest tests/test_acceptance.py
-s`` to see the per-criterion lines as they complete.
"""

import itertools
import math
import time

import numpy as np
import pytest

from balancelab import datagen, fusion, harness, trainer
from balancelab.config import parse_config_text
from balancelab.datagen import SyntheticSpec, generate, split
from balancelab.fusion import init_model
from balancelab.methods import MethodSpec
from balancelab.metrics import (
    FlopsLedger,
    imbalance,
    shapley,
    shapley_from_values,
    value_function,
)
from balancelab.trainer import TrainConfig, cross_entropy, fit

from oracles import fd_max_rel_error, model_gradient, shapley_subset_form

SEEDS = (1, 2, 3, 4, 5)

TINY_CFG = """
dataset.samples = 300
dataset.dims = 6,6
dataset.signal = 3.0,1.0
model.hidden = 8
model.feature_dim = 4
train.epochs = 5
train.batch_size = 32
seeds = 1
"""


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def params_bytes(model) -> bytes:
    chunks = []
    for enc in model.encoders:
        for layer in enc.layers:
            chunks.append(layer.weight.tobytes())
            chunks.append(layer.bias.tobytes())
    for blk in model.head_blocks:
        chunks.append(blk.tobytes())
    chunks.append(model.head_bias.tobytes())
    return b"".join(chunks)


def test_c1_gradient_exactness():
    """Analytic loss gradients match central differences on 20 seeded models."""
    start = time.time()
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(700 + k)
        m = 2 if k % 2 == 0 else 3
        h = int(rng.integers(2, 5))
        dims = tuple(int(rng.integers(3, 8)) for _ in range(m))
        archs = []
        for d in dims:
            hidden = [int(rng.integers(2, 17)) for _ in range(int(rng.integers(1, 3)))]
            archs.append([d, *hidden, int(rng.integers(2, 9))])
        model = init_model(archs, h, 900 + k)
        batch = [rng.standard_normal((5, d)) for d in dims]
        labels = rng.integers(0, h, 5)
        cache = fusion.forward(model, batch)
        bundle = trainer.baseline_loss(model, cache, labels)
        grads = model_gradient(model, cache, bundle)

        def loss_fn():
            c = fusion.forward(model, batch)
            return cross_entropy(c.logits, labels)[0]

        worst = max(worst, fd_max_rel_error(loss_fn, [model.flat], [grads]))
    elapsed = time.time() - start
    ok = worst < 1e-5 and elapsed < 30.0
    report(1, ok, f"max relative gradient error {worst:.3g} over 20 models in {elapsed:.1f}s")
    assert worst < 1e-5
    assert elapsed < 30.0


def random_table(rng, m):
    return {
        frozenset(s): float(rng.uniform())
        for r in range(m + 1)
        for s in itertools.combinations(range(m), r)
    }


def symmetric_table(rng, m):
    # dyadic per-size values subtract exactly, giving bit-equal phi
    levels = np.sort(rng.integers(0, 65, size=m + 1)) / 64.0
    return {
        frozenset(s): float(levels[r])
        for r in range(m + 1)
        for s in itertools.combinations(range(m), r)
    }


def check_shapley_properties(values, m, null_expected=False):
    phi = shapley_from_values(values, m)
    imb = imbalance(phi)
    # efficiency
    full = values[frozenset(range(m))]
    empty = values[frozenset()]
    assert abs(sum(phi) - (full - empty)) < 1e-9
    # bounded range
    assert 0.0 <= imb <= 1.0
    # dual-formula agreement
    alt = shapley_subset_form(values, m)
    assert max(abs(a - b) for a, b in zip(phi, alt)) < 1e-12
    # permutation invariance, exact
    for perm in itertools.permutations(range(m)):
        relabeled = {frozenset(perm[i] for i in k): v for k, v in values.items()}
        phi_p = shapley_from_values(relabeled, m)
        assert all(phi_p[perm[i]] == phi[i] for i in range(m))
        assert imbalance(phi_p) == imb
    if null_expected:
        assert len(set(phi)) == 1
        assert imb == 0.0


def test_c2_shapley_properties():
    """Null contribution, bounded range, permutation invariance, efficiency,
    and dual-formula agreement on 50 random tables and 5 trained models."""
    rng = np.random.default_rng(42)
    for k in range(50):
        m = 2 if k % 2 == 0 else 3
        if k % 5 == 4:
            check_shapley_properties(symmetric_table(rng, m), m, null_expected=True)
        else:
            check_shapley_properties(random_table(rng, m), m)

    for k in range(5):
        m = 2 if k % 2 == 0 else 3
        dims = (6,) * m
        spec = SyntheticSpec(m, 3, dims, (2.5,) + (1.0,) * (m - 1), 1.0, 300, 50 + k)
        data = generate(spec)
        tr, va, te = split(data, (0.8, 0.1, 0.1), k)
        model = init_model([[d, 8, 4] for d in dims], 3, 60 + k)
        best, _ = fit((tr, va), model, TrainConfig(epochs=4, seed=k), MethodSpec())
        rep = shapley(best, te)
        check_shapley_properties(rep.subset_values, m)
        assert abs(sum(rep.phi) - (rep.subset_values[frozenset(range(m))]
                                   - rep.subset_values[frozenset()])) < 1e-9
    report(2, True, "properties hold on 50 tables and 5 trained models")


def test_c3_worked_shapley_oracle():
    """The two hand-enumerated tables give the documented phi and index."""
    m2 = {
        frozenset(): 0.25,
        frozenset({0}): 0.60,
        frozenset({1}): 0.40,
        frozenset({0, 1}): 0.70,
    }
    phi2 = shapley_from_values(m2, 2)
    err2 = max(abs(phi2[0] - 0.325), abs(phi2[1] - 0.125), abs(imbalance(phi2) - 0.2))

    m3 = {
        frozenset(): 0.1,
        frozenset({0}): 0.5,
        frozenset({1}): 0.3,
        frozenset({2}): 0.2,
        frozenset({0, 1}): 0.6,
        frozenset({0, 2}): 0.55,
        frozenset({1, 2}): 0.35,
        frozenset({0, 1, 2}): 0.7,
    }
    phi3 = shapley_from_values(m3, 3)
    expected3 = (0.35833333333333334, 0.15833333333333333, 0.08333333333333333)
    err3 = max(abs(a - b) for a, b in zip(phi3, expected3))
    err3 = max(err3, abs(imbalance(phi3) - 0.18333333333333332))

    ok = err2 < 1e-9 and err3 < 1e-9
    report(3, ok, f"worked-table errors {err2:.2e} (m=2), {err3:.2e} (m=3)")
    assert err2 < 1e-9 and err3 < 1e-9


def _benchmark_cfg():
    return parse_config_text("")  # defaults pin the benchmark dataset and recipe


def _fit_seeds(cfg, modality=None):
    """Baseline fits of every run seed in SEEDS with the fused cells' own seeds.

    The data, split, init and train seeds are those of the fused cell for
    each run seed, so every model is scored on that cell's test rows. With
    ``modality`` given, only that modality is kept and trained alone. The
    fits train as one ``fit`` stack, whose runs each equal their solo fit
    bit for bit. Returns (best model, test split) per seed.
    """
    splits, models, configs, tests = [], [], [], []
    for run_seed in SEEDS:
        data_seed, split_seed, init_seed, train_seed = harness.derived_seeds(cfg.master_seed,
                                                                              run_seed)
        data = generate(cfg.synthetic_spec(seed=data_seed))
        arch = cfg.arch(data.dims)
        if modality is not None:
            data, arch = data.select_modalities([modality]), [arch[modality]]
        tr, va, te = split(data, cfg.fractions, split_seed)
        splits.append((tr, va))
        tests.append(te)
        models.append(init_model(arch, data.num_classes, init_seed))
        configs.append(cfg.train_config(seed=train_seed))
    fitted = fit(splits, models, configs, [MethodSpec()] * len(SEEDS))
    return [best for best, _ in fitted], tests


def _solo_accuracies(cfg, modality):
    """Per-seed test accuracy of ``modality`` trained alone (see ``_fit_seeds``)."""
    return [trainer.evaluate_accuracy(best, te) for best, te in zip(*_fit_seeds(cfg, modality))]


def test_c4_imbalance_phenomenon():
    """Joint training leaves the weak modality below its solo counterpart."""
    start = time.time()
    cfg = _benchmark_cfg()
    assert cfg.master_seed == 0 and cfg.train_config().epochs == 40
    suppressed = 0
    phi_ordered = 0
    details = []
    joints, tests = _fit_seeds(cfg)
    solos = _solo_accuracies(cfg, 1)
    for run_seed, joint_best, te, solo_acc in zip(SEEDS, joints, tests, solos):
        masked_weak = value_function(joint_best, te, (False, True))
        rep = shapley(joint_best, te)

        if masked_weak < solo_acc:
            suppressed += 1
        if rep.phi[1] < rep.phi[0]:
            phi_ordered += 1
        details.append(f"seed {run_seed}: masked {masked_weak:.3f} vs solo {solo_acc:.3f}")
    elapsed = time.time() - start
    ok = suppressed >= 4 and phi_ordered >= 4 and elapsed < 180.0
    report(
        4,
        ok,
        f"suppression in {suppressed}/5 seeds, phi2<phi1 in {phi_ordered}/5, "
        f"{elapsed:.0f}s ({'; '.join(details)})",
    )
    assert suppressed >= 4
    assert phi_ordered >= 4
    assert elapsed < 180.0


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


PINNED = ("gradmod", "unimodal_blend", "kl_align")


@pytest.fixture(scope="module")
def method_table():
    """Per-seed test accuracy and imbalance arrays (ordered as SEEDS) per method."""
    start = time.time()
    table = {}
    for kind, overrides in METHOD_SETTINGS.items():
        cfg = _benchmark_cfg().with_key("method.kind", kind)
        for key, val in overrides.items():
            cfg = cfg.with_key(key, val)
        rows = {r.seed: r for r in harness.run_experiment(cfg).rows}
        table[kind] = (
            np.array([rows[s].acc for s in SEEDS]),
            np.array([rows[s].imbalance for s in SEEDS]),
        )
    return table, time.time() - start


def test_c5_method_efficacy(method_table):
    """Pinned-strength methods cut imbalance without hurting accuracy.

    Every clause is paired per seed with baseline, or compared with a
    reference the test measures on the same test rows:

    (a) gradmod, unimodal_blend and kl_align each give lower imbalance than
        baseline in at least 4 of 5 seeds;
    (b) at least one of them gives lower imbalance and, separately, higher
        accuracy than baseline, each in at least 4 of 5 seeds;
    (c) no method's mean accuracy falls below that of the strong modality
        trained alone: a fused model worse than its best single modality is
        the failure that balancing exists to prevent.

    Fixed margins are not the claim. With two modalities the imbalance is
    |v(strong) - v(weak)|, so keeping the strong modality and lifting the weak
    one to its solo accuracy cuts the index by only ~19% on this data; and one
    accuracy point is 4 of the 400 test rows, below one binomial standard
    error of a seed's accuracy.
    """
    method_table, fixture_s = method_table
    start = time.time()
    cfg = _benchmark_cfg()
    solo_strong = float(np.mean(_solo_accuracies(cfg, 0)))
    elapsed = fixture_s + time.time() - start
    base_acc, base_imb = method_table["baseline"]
    lines = []
    failures = []
    both_ways = []
    for kind, (acc, imb) in method_table.items():
        if acc.mean() < solo_strong:
            failures.append(
                f"(c) {kind} mean accuracy {acc.mean():.4f} is "
                f"{(solo_strong - acc.mean()) * 100:.2f}pt below solo strong {solo_strong:.4f}"
            )
        if kind == "baseline":
            continue
        d_acc = (acc - base_acc) * 100
        d_imb = imb - base_imb
        acc_up = int(np.sum(d_acc > 0))
        imb_down = int(np.sum(d_imb < 0))
        lines.append(
            f"{kind}: dacc {d_acc.mean():+.2f}±{d_acc.std(ddof=1):.2f}pt up {acc_up}/5, "
            f"dimb {d_imb.mean():+.4f}±{d_imb.std(ddof=1):.4f} down {imb_down}/5"
        )
        if kind in PINNED:
            if imb_down < 4:
                failures.append(f"(a) {kind} lowers imbalance in only {imb_down}/5 seeds")
            elif acc_up >= 4:
                both_ways.append(kind)
    if not both_ways:
        failures.append("(b) no pinned method lowers imbalance and raises accuracy in >= 4/5 seeds")

    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 15 min")
    ok = not failures
    detail = (
        f"baseline acc {base_acc.mean():.4f} imb {base_imb.mean():.4f}; "
        f"solo strong floor {solo_strong:.4f}; " + "; ".join(lines)
    )
    report(5, ok, detail + (f" | FAILED: {'; '.join(failures)}" if failures else ""))
    assert not failures, "; ".join(failures)


def test_c6_method_off_equivalence():
    """Neutral-strength methods reproduce Baseline's parameters bit for bit."""
    spec = SyntheticSpec(2, 3, (6, 6), (3.0, 1.0), 1.0, 400, 9)
    data = generate(spec)
    tr, va, _ = split(data, (0.8, 0.1, 0.1), 2)
    cfg = TrainConfig(epochs=5, seed=11)
    arch = [[6, 8, 4], [6, 8, 4]]
    base, _ = fit((tr, va), init_model(arch, 3, 4), cfg, MethodSpec())
    base_bytes = params_bytes(base)
    neutrals = [
        MethodSpec("unimodal_blend", 0.0),
        MethodSpec("kl_align", 0.0),
        MethodSpec("gradmod", 0.0),
        MethodSpec("feature_mask", 0.0),
        MethodSpec("feature_drop", 0.0),
        MethodSpec("resample", math.inf),
    ]
    mismatched = []
    for method in neutrals:
        alt, _ = fit((tr, va), init_model(arch, 3, 4), cfg, method)
        if params_bytes(alt) != base_bytes:
            mismatched.append(method.kind)
    ok = not mismatched
    report(6, ok, "all neutral methods bitwise-match baseline" if ok else f"mismatch: {mismatched}")
    assert not mismatched


def test_c7_flops_determinism_and_formulas():
    """Ledger totals repeat exactly; matmul conventions match the formulas."""
    led = FlopsLedger()
    led.record("matmul_forward", (2, 3, 4), bias=True)
    assert led.total == 56  # 2*2*3*4 + 2*4
    led.record("matmul_backward", (2, 3, 4))
    assert led.total == 56 + 96  # + 4*2*3*4

    cfg = parse_config_text(TINY_CFG)
    totals = []
    for _ in range(2):
        row = harness.run_single(cfg, run_seed=3)
        totals.append(row.flops_total)
    ok = totals[0] == totals[1] and totals[0] > 0
    report(7, ok, f"repeated totals {totals[0]} == {totals[1]}; 56/96 spot checks hold")
    assert totals[0] == totals[1]


def test_c8_sweep_harness():
    """Modulation-strength sweep: valid rows, markers, monotone effect."""
    cfg = _benchmark_cfg().with_key("method.kind", "gradmod")
    rep = harness.run_sweep(cfg, "method.alpha", [0.0, 0.5, 1.0, 2.0, 4.0])
    assert len(rep.rows) == 5 * len(SEEDS)
    for row in rep.rows:
        assert math.isfinite(row.acc) and math.isfinite(row.imbalance)
    assert rep.balance_points and "absolute" in rep.balance_points
    markers = [m for row in rep.json_dict()["aggregates"] for m in row["marker"]]
    assert "argmin_imbalance" in markers and "argmax_accuracy" in markers

    by_cell = {(r.seed, r.sweep_value): r.imbalance for r in rep.rows}
    wins = sum(1 for s in SEEDS if by_cell[(s, 4.0)] < by_cell[(s, 0.0)])
    ok = wins >= 4
    report(8, ok, f"imbalance lower at alpha=4 than alpha=0 in {wins}/5 seeds; markers present")
    assert wins >= 4


def test_c9_end_to_end_determinism(tmp_path):
    """Byte-identical reports; bitwise dataset and checkpoint round-trips."""
    cfg = parse_config_text(TINY_CFG)
    a, b = tmp_path / "a", tmp_path / "b"
    harness.run_experiment(cfg, out_dir=str(a))
    harness.run_experiment(cfg, out_dir=str(b))
    csv_same = (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
    json_same = (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    data = generate(cfg.synthetic_spec())
    dpath = tmp_path / "d.mmds"
    datagen.save(data, dpath)
    back = datagen.load(dpath)
    data_same = back.labels.tobytes() == data.labels.tobytes() and all(
        x.tobytes() == y.tobytes() for x, y in zip(back.features, data.features)
    )
    datagen.save(back, tmp_path / "d2.mmds")
    data_same = data_same and dpath.read_bytes() == (tmp_path / "d2.mmds").read_bytes()

    tr, va, _ = split(data, cfg.fractions, 1)
    model, _ = fit((tr, va), init_model(cfg.arch(data.dims), data.num_classes, 5),
                   cfg.train_config(seed=8), MethodSpec())
    cpath = tmp_path / "m.mmck"
    fusion.save_model(model, cpath)
    loaded = fusion.load_model(cpath)
    ckpt_same = params_bytes(loaded) == params_bytes(model)
    fusion.save_model(loaded, tmp_path / "m2.mmck")
    ckpt_same = ckpt_same and cpath.read_bytes() == (tmp_path / "m2.mmck").read_bytes()

    ok = csv_same and json_same and data_same and ckpt_same
    report(
        9,
        ok,
        f"reports byte-identical: csv={csv_same} json={json_same}; "
        f"dataset round-trip={data_same}; checkpoint round-trip={ckpt_same}",
    )
    assert ok
