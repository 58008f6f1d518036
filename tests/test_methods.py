import dataclasses
import math

import numpy as np
import pytest

from balancelab import fusion, methods, trainer
from balancelab.datagen import SyntheticSpec, generate, split
from balancelab.errors import SpecError
from balancelab.fusion import FusionModel, init_model
from balancelab.metrics import FlopsLedger
from balancelab.methods import (
    METHODS,
    MethodSpec,
    cosine_objective,
    feature_drop,
    feature_mask,
    grad_modulation,
    kl_align_loss,
    resample_weights,
    unimodal_blend_loss,
)
from balancelab.trainer import Run, TrainConfig, cross_entropy, fit

from oracles import cosine_logits, fd_max_rel_error, mlp_copy, model_gradient, symmetric_kl


def small_model_and_batch(seed=0, m=2, h=3):
    rng = np.random.default_rng(seed)
    dims = (5, 4, 6)[:m]
    arch = [[d, 7, 5] for d in dims]
    model = init_model(arch, h, seed)
    batch = [rng.standard_normal((6, d)) for d in dims]
    labels = rng.integers(0, h, 6)
    return model, batch, labels


def stack(runs):
    """(model, batch, labels) of R runs as one stack along a leading run axis."""
    models, batches, labels = zip(*runs)
    model = models[0].like(np.stack([mdl.flat for mdl in models]))
    return model, [np.stack(xs) for xs in zip(*batches)], np.stack(labels)


def one_run(seed=0, m=2, h=3):
    """small_model_and_batch as a stack of one run."""
    return stack([small_model_and_batch(seed, m, h)])


def assert_bundles_bitwise(stacked, r, alone):
    """Run r's slice of a stacked LossBundle equals an R = 1 bundle bit for bit."""
    assert stacked.loss[r].tobytes() == alone.loss[0].tobytes()
    assert stacked.bias_grad[r].tobytes() == alone.bias_grad[0].tobytes()
    for a, b in zip(stacked.head_grads + stacked.feature_grads,
                    alone.head_grads + alone.feature_grads, strict=True):
        assert a[r].tobytes() == b[0].tobytes()


def check_objective_fd(objective, runs, strengths):
    """Finite-difference check of ``objective`` at R = 1 per run and on the R-run stack.

    The strengths differ per run; each run's slice of the stacked call must
    equal its R = 1 call bit for bit. Returns the stacked bundle.
    """

    def checked(model, batch, labels, values):
        cache = fusion.forward(model, batch)
        bundle = objective(model, cache, labels, values, FlopsLedger())
        grads = model_gradient(model, cache, bundle)

        def loss_fn():
            # runs are independent, so the summed loss has every run's gradient
            return objective(model, fusion.forward(model, batch), labels, values,
                             FlopsLedger()).loss.sum()

        assert fd_max_rel_error(loss_fn, [model.flat], [grads]) < 1e-5
        return bundle

    alone = [checked(*stack([run]), np.array([v])) for run, v in zip(runs, strengths)]
    together = checked(*stack(runs), np.array(strengths))
    for r, bundle in enumerate(alone):
        assert_bundles_bitwise(together, r, bundle)
    return together


class TestMethodSpec:
    def test_unknown_kind(self):
        with pytest.raises(SpecError):
            MethodSpec(kind="prototype")

    def test_negative_strength(self):
        with pytest.raises(SpecError):
            MethodSpec("gradmod", -1.0)

    def test_rho_range(self):
        with pytest.raises(SpecError):
            MethodSpec("feature_mask", 1.5)

    def test_neutral_values(self):
        assert MethodSpec().is_neutral()
        assert MethodSpec("unimodal_blend", 0.0).is_neutral()
        assert MethodSpec("kl_align", 0.0).is_neutral()
        assert MethodSpec("gradmod", 0.0).is_neutral()
        assert MethodSpec("feature_mask", 0.0).is_neutral()
        assert MethodSpec("feature_drop", 0.0).is_neutral()
        assert MethodSpec("resample", math.inf).is_neutral()
        assert not MethodSpec(kind="cosine").is_neutral()
        assert not MethodSpec("gradmod", 1.0).is_neutral()

    def test_a_setting_is_a_kind_and_a_value(self):
        assert [f.name for f in dataclasses.fields(MethodSpec)] == ["kind", "value"]
        assert MethodSpec().value is None
        for kind, entry in METHODS.items():
            if entry.param is not None:
                assert MethodSpec(kind).value == entry.default
                assert MethodSpec(kind, entry.default) == MethodSpec(kind)

    def test_baseline_takes_no_value(self):
        with pytest.raises(SpecError, match="baseline has no parameter"):
            MethodSpec("baseline", 0.0)

    def test_categories(self):
        assert MethodSpec(kind="kl_align").method.category == "objective"
        assert MethodSpec(kind="gradmod").method.category == "optimization"
        assert MethodSpec(kind="feature_drop").method.category == "feed-forward"
        assert MethodSpec(kind="resample").method.category == "data"


class TestGradModulation:
    def test_equal_scores_no_modulation(self):
        assert np.array_equal(grad_modulation([[0.5, 0.5]], np.array([2.0])), [[1.0, 1.0]])

    def test_zero_alpha(self):
        assert np.array_equal(grad_modulation([[0.9, 0.1]], np.array([0.0])), [[1.0, 1.0]])

    def test_worked_example(self):
        [kappa] = grad_modulation([[0.8, 0.4]], np.array([1.0]))
        assert kappa[0] == pytest.approx(1.0 - math.tanh(1.0))
        assert kappa[1] == 1.0

    def test_range_and_ordering(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 4))
            scores = rng.uniform(0.05, 0.95, m)
            alpha = float(rng.uniform(0.0, 4.0))
            [kappa] = grad_modulation([scores], np.array([alpha]))
            assert np.all(kappa > 0.0) and np.all(kappa <= 1.0)
            assert kappa[int(np.argmax(scores))] <= kappa.min() + 1e-12

    def test_stacked_rows_equal_single_runs(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0.05, 0.95, (40, 3))
        alpha = rng.uniform(0.0, 4.0, 40)
        kappa = grad_modulation(scores, alpha)
        for r in range(40):
            assert kappa[r].tobytes() == grad_modulation(scores[r:r + 1], alpha[r:r + 1]).tobytes()


def ledgers(runs):
    """One fresh ledger per run, as a transform's ``ledger[r]`` is run r's."""
    return [FlopsLedger() for _ in range(runs)]


class TestFeatureMask:
    def feats(self, rng, dims=(6, 6)):
        return [rng.standard_normal((1, 5, d)) for d in dims]

    def test_zero_fraction_identity(self):
        rng, [ledger] = np.random.default_rng(1), ledgers(1)
        factors = feature_mask(self.feats(rng), [[0.6, 0.4]], np.array([0.0]), [rng], [ledger])
        assert factors == [None, None] and ledger.total == 0

    def test_full_fraction_zeroes_dominant(self):
        rng, [ledger] = np.random.default_rng(2), ledgers(1)
        factors = feature_mask(self.feats(rng), [[0.6, 0.4]], np.array([1.0]), [rng], [ledger])
        assert not factors[0].any() and factors[1] is None
        assert ledger.elementwise == ledger.total == 5 * 6  # n * d of the masked features

    def test_tie_goes_to_lowest_index(self):
        rng = np.random.default_rng(3)
        factors = feature_mask(self.feats(rng), [[0.5, 0.5]], np.array([1.0]), [rng], ledgers(1))
        assert not factors[0].any() and factors[1] is None

    def test_subset_size(self):
        rng = np.random.default_rng(4)
        feats = self.feats(rng, dims=(10, 10))
        factors = feature_mask(feats, [[0.9, 0.1]], np.array([0.25]), [rng], ledgers(1))
        zeroed = (factors[0] == 0.0).sum()
        assert zeroed == math.ceil(0.25 * 10)

    def test_each_run_draws_from_its_own_generator(self):
        feats = [np.ones((3, 5, 10)), np.ones((3, 5, 8))]
        scores = [[0.9, 0.1], [0.5, 0.5], [0.2, 0.7]]
        runs = ledgers(3)
        factors = feature_mask(feats, scores, np.array([0.3, 0.0, 0.5]),
                               [np.random.default_rng(s) for s in (7, 8, 9)], runs)
        # each run charged its own dominant modality's n * d, run 1 (strength 0) nothing
        assert [ledger.total for ledger in runs] == [5 * 10, 0, 5 * 8]
        for r, i, rho in ((0, 0, 0.3), (2, 1, 0.5)):
            alone = feature_mask([f[r:r + 1] for f in feats], [scores[r]], np.array([rho]),
                                 [np.random.default_rng(7 + r)], ledgers(1))
            assert factors[i][r].tobytes() == alone[i][0].tobytes()
        assert (factors[0][1:] == 1.0).all() and (factors[1][:2] == 1.0).all()


class TestFeatureDrop:
    def test_zero_ceiling_identity(self):
        rng, [ledger] = np.random.default_rng(5), ledgers(1)
        feats = [rng.standard_normal((1, 5, 4)) for _ in range(2)]
        factors = feature_drop(feats, [[0.8, 0.4]], np.array([0.0]), [rng], [ledger])
        assert factors == [None, None] and ledger.total == 0

    def test_equal_scores_identity(self):
        rng, [ledger] = np.random.default_rng(6), ledgers(1)
        feats = [rng.standard_normal((1, 5, 4)) for _ in range(2)]
        factors = feature_drop(feats, [[0.5, 0.5]], np.array([0.7]), [rng], [ledger])
        assert factors == [None, None] and ledger.total == 0

    def test_worked_probability_and_scaling(self):
        # scores (0.8, 0.4): rho = 2, p = 0.5 * min(1, 1) = 0.5
        rng, [ledger] = np.random.default_rng(7), ledgers(1)
        feats = [np.ones((1, 4000, 3)), np.ones((1, 4000, 3))]
        factors = feature_drop(feats, [[0.8, 0.4]], np.array([0.5]), [rng], [ledger])
        dropped = (factors[0][0, :, 0] == 0.0).mean()
        assert dropped == pytest.approx(0.5, abs=0.03)
        kept = factors[0][factors[0] > 0]
        assert kept == pytest.approx(2.0)  # 1 / (1 - p)
        assert ledger.elementwise == ledger.total == 4000 * 3  # n * d of the scaled features

    def test_saturated_probability_warns(self):
        rng = np.random.default_rng(8)
        feats = [np.ones((1, 500, 3)), np.ones((1, 500, 3))]
        with pytest.warns(UserWarning):
            factors = feature_drop(feats, [[0.9, 0.2]], np.array([1.0]), [rng], ledgers(1))
        kept = factors[0][factors[0] > 0]
        assert kept.size > 0
        assert kept == pytest.approx(1.0 / (1.0 - 0.99))


def one_run_weights(model, batch, labels, tau):
    """``resample_weights`` for one run's train rows ``batch``, ``labels``."""
    [w] = resample_weights(model.like(model.flat[None]), [x[None] for x in batch], labels[None],
                           np.array([tau]), FlopsLedger())
    return w


class TestResampleWeights:
    def test_uniform_when_contributions_equal(self):
        model, batch, labels = small_model_and_batch(1)
        # zero encoders force identical (uniform) partial distributions
        for enc in model.encoders:
            for layer in enc.layers:
                layer.weight[:] = 0.0
                layer.bias[:] = 0.0
        assert one_run_weights(model, batch, labels, 0.4) == pytest.approx(np.ones(6))

    def test_large_tau_flattens(self):
        model, batch, labels = small_model_and_batch(2)
        assert np.abs(one_run_weights(model, batch, labels, 1e9) - 1.0).max() < 1e-6

    def test_weight_ratio_worked_example(self):
        # contributions 0.9 and 0.1 at tau 0.4 give a ratio of e^2
        assert math.exp(0.9 / 0.4) / math.exp(0.1 / 0.4) == pytest.approx(math.exp(2.0))

    def test_mean_one_normalization(self):
        model, batch, labels = small_model_and_batch(4)
        w = one_run_weights(model, batch, labels, 0.3)
        assert w.mean() == pytest.approx(1.0)
        assert np.all(w > 0)


class TestSymmetricKl:
    def test_worked_example(self):
        val = symmetric_kl([0.5, 0.5], [0.25, 0.75])
        kl_pq = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
        kl_qp = 0.25 * math.log(0.5) + 0.75 * math.log(1.5)
        assert val == pytest.approx(kl_pq + kl_qp)
        assert val == pytest.approx(0.2746, abs=2e-4)

    def test_identical_distributions(self):
        assert symmetric_kl([0.3, 0.7], [0.3, 0.7]) == 0.0


class TestKlAlignLoss:
    def test_zero_weight_matches_baseline(self):
        model, batch, labels = one_run(5)
        cache = fusion.forward(model, batch)
        base = trainer.baseline_loss(model, cache, labels)
        bundle = kl_align_loss(model, cache, labels, np.array([0.0]), FlopsLedger())
        assert bundle.loss == pytest.approx(base.loss)
        for a, b in zip(bundle.head_grads, base.head_grads):
            assert np.allclose(a, b)

    def test_identical_partials_add_nothing(self):
        model, batch, labels = small_model_and_batch(6)
        twin_model = FusionModel((model.arch[0], model.arch[0]), model.num_classes, model.seed)
        for i in range(2):
            twin_model.flat[twin_model.encoder_span(i)] = model.flat[model.encoder_span(0)]
            twin_model.head_blocks[i][:] = model.head_blocks[0]
        twin_model.head_bias[:] = model.head_bias
        model, twin, labels = stack([(twin_model, [batch[0], batch[0].copy()], labels)])
        cache = fusion.forward(model, twin)
        base = trainer.baseline_loss(model, cache, labels)
        bundle = kl_align_loss(model, cache, labels, np.array([1.0]), FlopsLedger())
        assert bundle.loss == pytest.approx(base.loss)

    def test_loss_adds_mean_symmetric_kl(self):
        run = small_model_and_batch(7, m=3)
        model, batch, labels = run
        cache = fusion.forward(model, batch)
        probs = [trainer.softmax(fusion.partial_logits(model, cache)[i]) for i in range(3)]
        kl = [np.mean([symmetric_kl(p, q) for p, q in zip(probs[i], probs[j])])
              for i, j in ((0, 1), (0, 2), (1, 2))]
        base, _ = cross_entropy(cache.logits, labels)
        model, batch, labels = stack([run])
        bundle = kl_align_loss(model, fusion.forward(model, batch), labels, np.array([0.7]),
                               FlopsLedger())
        assert bundle.loss[0] == pytest.approx(base + 0.7 * sum(kl), rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    def test_gradients_match_finite_differences(self, m):
        runs = [small_model_and_batch(seed, m=m) for seed in (7, 17, 27)]
        check_objective_fd(kl_align_loss, runs, [0.7, 0.2, 1.5])


class TestCosine:
    def test_parallel_feature_contributes_scale(self):
        model, batch, labels = small_model_and_batch(8)
        # align modality-0 features with head row 0, zero the rest
        cache = fusion.forward(model, batch)
        w_row = model.head_blocks[0][0]
        cache.features[0][:] = 3.0 * w_row  # parallel, arbitrary positive scale
        cache.features[1][:] = 0.0
        logits = cosine_logits(model, cache, 2.5)
        assert logits[:, 0] == pytest.approx(2.5, abs=1e-9)

    def test_scale_invariance(self):
        model, batch, labels = small_model_and_batch(9)
        cache = fusion.forward(model, batch)
        base = cosine_logits(model, cache, 1.0)
        cache.features[0] *= 17.0
        cache.features[1] *= 0.03
        rescaled = cosine_logits(model, cache, 1.0)
        assert np.allclose(base, rescaled, atol=1e-12)
        model.head_blocks[0] *= 5.0
        again = cosine_logits(model, cache, 1.0)
        assert np.allclose(base, again, atol=1e-12)

    def test_hand_value(self):
        # single row [1, 0] against feature [1, 1]: cos = 1/sqrt(2)
        model = init_model([[2, 2], [2, 2]], 2, 0)
        model.head_blocks[0][:] = np.array([[1.0, 0.0], [0.0, 0.0]])
        model.head_blocks[1][:] = 0.0
        cache = fusion.forward(model, [np.ones((1, 2)), np.zeros((1, 2))])
        cache.features[0][:] = np.array([[1.0, 1.0]])
        cache.features[1][:] = 0.0
        logits = cosine_logits(model, cache, 1.0)
        assert logits[0, 0] == pytest.approx(1.0 / math.sqrt(2.0))

    @pytest.mark.parametrize("m", [2, 3])
    def test_gradients_match_finite_differences(self, m):
        runs = [small_model_and_batch(seed, m=m) for seed in (10, 20, 30)]
        check_objective_fd(cosine_objective, runs, [4.0, 1.5, 7.0])

    def test_loss_is_cross_entropy_of_cosine_logits(self):
        run = small_model_and_batch(10, m=3)
        model, batch, labels = run
        expected, _ = cross_entropy(cosine_logits(model, fusion.forward(model, batch), 4.0),
                                    labels)
        model, batch, labels = stack([run])
        bundle = cosine_objective(model, fusion.forward(model, batch), labels, np.array([4.0]),
                                  FlopsLedger())
        assert bundle.loss[0] == pytest.approx(expected, rel=1e-12)

    def test_bias_gets_no_gradient(self):
        model, batch, labels = one_run(11)
        cache = fusion.forward(model, batch)
        bundle = cosine_objective(model, cache, labels, np.array([4.0]), FlopsLedger())
        assert not bundle.bias_grad.any()


class TestUnimodalBlend:
    def test_zero_weight_matches_baseline(self):
        model, batch, labels = one_run(12)
        cache = fusion.forward(model, batch)
        base = trainer.baseline_loss(model, cache, labels)
        bundle = unimodal_blend_loss(model, cache, labels, np.array([0.0]), FlopsLedger())
        assert bundle.loss == pytest.approx(base.loss)
        for a, b in zip(bundle.head_grads, base.head_grads):
            assert np.allclose(a, b)

    def test_duplicated_modalities_equal_unimodal_losses(self):
        model, batch, labels = small_model_and_batch(13)
        model.encoders[1] = mlp_copy(model.encoders[0])
        model.head_blocks[1] = model.head_blocks[0].copy()
        twin = [batch[0], batch[0].copy()]
        cache = fusion.forward(model, twin)
        l1, _ = cross_entropy(fusion.partial_logits(model, cache)[0], labels)
        l2, _ = cross_entropy(fusion.partial_logits(model, cache)[1], labels)
        assert l1 == l2

    def test_loss_is_sum_of_terms(self):
        model, batch, labels = one_run(14)
        cache = fusion.forward(model, batch)
        l_mm, _ = cross_entropy(cache.logits, labels)
        l1, _ = cross_entropy(fusion.partial_logits(model, cache)[0], labels)
        l2, _ = cross_entropy(fusion.partial_logits(model, cache)[1], labels)
        bundle = unimodal_blend_loss(model, cache, labels, np.array([0.4]), FlopsLedger())
        assert bundle.loss == pytest.approx(l_mm + 0.4 * (l1 + l2))

    @staticmethod
    def conflicts(model, cache, labels, logits=None):
        """Per modality: does the guard fire (negative head-block inner product)?"""
        g_mm = cross_entropy(cache.logits if logits is None else logits, labels)[1]
        out = []
        for i in range(model.num_modalities):
            g_uni = cross_entropy(fusion.partial_logits(model, cache)[i], labels)[1]
            out.append(bool(np.vdot(g_uni.T @ cache.features[i], g_mm.T @ cache.features[i]) < 0))
        return out

    def test_gradients_match_fd_when_no_conflict(self):
        # the projected update is not a gradient, so check conflict-free cases
        runs = [small_model_and_batch(seed) for seed in (15, 0, 1)]
        for model, batch, labels in runs:
            assert not any(self.conflicts(model, fusion.forward(model, batch), labels)), \
                "pick seeds without gradient conflict for the FD check"
        check_objective_fd(unimodal_blend_loss, runs, [0.6, 0.3, 1.2])

    def test_stacked_projection_touches_only_conflicting_runs(self):
        # scaled, reversed fused logits make the guard fire for seed 4's modality 0
        runs = [small_model_and_batch(seed) for seed in (4, 0, 1)]
        flipped = (0, 2)
        fires = []
        for r, (model, batch, labels) in enumerate(runs):
            cache = fusion.forward(model, batch)
            logits = -3.0 * cache.logits if r in flipped else None
            fires.append(self.conflicts(model, cache, labels, logits))
        assert fires == [[True, False], [False, False], [False, False]]

        def call(stacked_runs, rows, strengths):
            model, batch, labels = stack(stacked_runs)
            cache = fusion.forward(model, batch)
            cache.logits[rows] *= -3.0
            return unimodal_blend_loss(model, cache, labels, np.array(strengths), FlopsLedger())

        strengths = [0.5, 1.0, 2.0]
        together = call(runs, list(flipped), strengths)
        for r, run in enumerate(runs):
            alone = call([run], [0] if r in flipped else [], [strengths[r]])
            assert_bundles_bitwise(together, r, alone)

    def test_conflict_projection_orthogonalizes(self):
        # build a synthetic conflict: flip the multimodal gradient sign on one block
        model, batch, labels = small_model_and_batch(16)
        cache = fusion.forward(model, batch)
        g_mm = cross_entropy(cache.logits, labels)[1]
        gw_mm = g_mm.T @ cache.features[0]
        g_uni = cross_entropy(fusion.partial_logits(model, cache)[0], labels)[1]
        gw_uni = -3.0 * gw_mm + 0.01 * g_uni.T @ cache.features[0]
        inner = float(np.vdot(gw_uni, gw_mm))
        assert inner < 0
        projected = gw_uni - (inner / float(np.vdot(gw_mm, gw_mm))) * gw_mm
        assert abs(float(np.vdot(projected, gw_mm))) < 1e-9 * np.linalg.norm(gw_mm)

    def test_orthogonal_gradients_unchanged(self):
        # orthogonal unimodal gradient passes through the guard untouched
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([[0.0, 0.0], [1.0, 0.0]])
        inner = float(np.vdot(a, b))
        assert inner == 0.0  # the guard only fires on a negative inner product


# every method hook that perfbench/tracer.py wraps, with a method that calls it
WRAPPED_HOOKS = [
    ("unimodal_blend_loss", "unimodal_blend"),
    ("cosine_objective", "cosine"),
    ("cosine_deploy", "cosine"),
    ("kl_align_loss", "kl_align"),
    ("grad_modulation", "gradmod"),
    ("feature_mask", "feature_mask"),
    ("feature_drop", "feature_drop"),
    ("resample_weights", "resample"),
]


class TestHookDispatch:
    @pytest.mark.parametrize("hook, kind", WRAPPED_HOOKS)
    def test_fit_calls_the_module_attribute(self, monkeypatch, hook, kind):
        """fit looks hooks up on the module per call, not at import, so swaps see the calls."""
        calls = []
        real = getattr(methods, hook)

        def counting(*args, **kwargs):
            calls.append(hook)
            return real(*args, **kwargs)

        monkeypatch.setattr(methods, hook, counting)
        data = generate(SyntheticSpec(2, 3, (6, 6), (2.0, 1.0), 1.0, 200, 3))
        tr, va, _ = split(data, (0.8, 0.1, 0.1), 1)
        model = init_model([[6, 8, 4], [6, 8, 4]], 3, 2)
        fit(TrainConfig(epochs=1), [Run(tr, va, model, 5, MethodSpec(kind=kind))])
        assert calls


class TestNeutralEquivalence:
    @pytest.mark.parametrize(
        "method",
        [
            MethodSpec("unimodal_blend", 0.0),
            MethodSpec("kl_align", 0.0),
            MethodSpec("gradmod", 0.0),
            MethodSpec("feature_mask", 0.0),
            MethodSpec("feature_drop", 0.0),
            MethodSpec("resample", math.inf),
        ],
    )
    def test_neutral_method_is_bitwise_baseline(self, method):
        spec = SyntheticSpec(2, 3, (6, 6), (2.0, 1.0), 1.0, 200, 3)
        data = generate(spec)
        tr, va, _ = split(data, (0.8, 0.1, 0.1), 1)
        cfg = TrainConfig(epochs=3)
        [(base, _)] = fit(cfg, [Run(tr, va, init_model([[6, 8, 4], [6, 8, 4]], 3, 2), 5,
                                    MethodSpec())])
        [(alt, _)] = fit(cfg, [Run(tr, va, init_model([[6, 8, 4], [6, 8, 4]], 3, 2), 5, method)])
        assert base.head_bias.tobytes() == alt.head_bias.tobytes()
        for ba, bb in zip(base.head_blocks, alt.head_blocks):
            assert ba.tobytes() == bb.tobytes()
        for ea, eb in zip(base.encoders, alt.encoders):
            for la, lb in zip(ea.layers, eb.layers):
                assert la.weight.tobytes() == lb.weight.tobytes()
                assert la.bias.tobytes() == lb.bias.tobytes()
