import itertools

import numpy as np
import pytest

from balancelab import fusion
from balancelab.datagen import SyntheticSpec, generate
from balancelab.errors import ContractError
from balancelab.metrics import (
    FlopsLedger,
    accuracy,
    evaluate_performance,
    imbalance,
    macro_f1,
    shapley,
    shapley_from_values,
    value_function,
)

from oracles import masked_accuracy, mlp_copy, shapley_subset_form

# the two worked subset-value tables used across the suite
TABLE_M2 = {
    frozenset(): 0.25,
    frozenset({0}): 0.60,
    frozenset({1}): 0.40,
    frozenset({0, 1}): 0.70,
}
TABLE_M3 = {
    frozenset(): 0.1,
    frozenset({0}): 0.5,
    frozenset({1}): 0.3,
    frozenset({2}): 0.2,
    frozenset({0, 1}): 0.6,
    frozenset({0, 2}): 0.55,
    frozenset({1, 2}): 0.35,
    frozenset({0, 1, 2}): 0.7,
}


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_count(self):
        assert accuracy(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1])) == 0.75

    def test_all_wrong(self):
        assert accuracy(np.array([1, 1]), np.array([0, 0])) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            accuracy(np.array([]), np.array([]))


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1(np.array([0, 1, 2]), np.array([0, 1, 2]), 3) == 1.0

    def test_worked_example(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([0, 1, 1, 1])
        # class 0: P=1, R=1/2, F1=2/3; class 1: P=2/3, R=1, F1=4/5
        assert macro_f1(preds, labels, 2) == pytest.approx((2 / 3 + 4 / 5) / 2)

    def test_absent_class_scores_zero(self):
        labels = np.array([0, 0, 1, 1])
        preds = np.array([0, 0, 0, 0])
        # class 2 never true nor predicted: F1 = 0 still averaged in
        expected = (macro_f1(preds, labels, 2) * 2) / 3
        assert macro_f1(preds, labels, 3) == pytest.approx(expected)

    def test_too_few_classes(self):
        with pytest.raises(ContractError):
            macro_f1(np.array([0]), np.array([0]), 1)

    @pytest.mark.parametrize("wrong", [-1, 2])
    def test_prediction_outside_the_classes(self, wrong):
        # -1 must not count as class H-1, nor H index past the counts
        with pytest.raises(ContractError, match="predictions outside"):
            macro_f1(np.array([wrong, 0]), np.array([1, 0]), 2)

    def test_shapes_must_match(self):
        # one label would otherwise stand for every prediction
        with pytest.raises(ContractError, match="equal prediction/label shapes"):
            macro_f1(np.array([0, 1, 0]), np.array([0]), 2)


def trained_like_model(seed=0, m=2):
    dims = (6,) * m
    spec = SyntheticSpec(m, 3, dims, (2.0,) * m, 1.0, 240, seed)
    data = generate(spec)
    arch = [[d, 8, 5] for d in dims]
    model = fusion.init_model(arch, 3, seed)
    return model, data


class TestValueFunction:
    def test_empty_subset_is_bias_predictor(self):
        model, data = trained_like_model()
        model.head_bias[:] = [0.0, 1.0, 0.0]
        v0 = value_function(model, data, (False, False))
        freq = float(np.mean(data.labels == 1))
        assert v0 == pytest.approx(freq)

    def test_full_subset_is_plain_accuracy(self):
        model, data = trained_like_model(1)
        cache = fusion.forward(model, data.features)
        expected = accuracy(fusion.predict(cache.logits), data.labels)
        assert value_function(model, data, (True, True)) == expected

    def test_duplicated_modalities_symmetric(self):
        model, data = trained_like_model(2)
        model.encoders[1] = mlp_copy(model.encoders[0])
        model.head_blocks[1] = model.head_blocks[0].copy()
        shared = [data.features[0], data.features[0].copy()]
        twin = type(data)(shared, data.labels, data.num_classes)
        assert value_function(model, twin, (True, False)) == value_function(
            model, twin, (False, True)
        )


class TestShapley:
    def test_worked_m2(self):
        phi = shapley_from_values(TABLE_M2, 2)
        assert phi[0] == pytest.approx(0.325, abs=1e-12)
        assert phi[1] == pytest.approx(0.125, abs=1e-12)
        assert imbalance(phi) == pytest.approx(0.2, abs=1e-12)

    def test_worked_m3(self):
        phi = shapley_from_values(TABLE_M3, 3)
        assert phi[0] == pytest.approx(0.35833333333333334, abs=1e-9)
        assert phi[1] == pytest.approx(0.15833333333333333, abs=1e-9)
        assert phi[2] == pytest.approx(0.08333333333333333, abs=1e-9)
        assert imbalance(phi) == pytest.approx(0.18333333333333332, abs=1e-9)

    def test_symmetric_additive_game(self):
        values = {
            frozenset(s): 0.2 * len(s)
            for r in range(4)
            for s in itertools.combinations(range(3), r)
        }
        phi = shapley_from_values(values, 3)
        assert phi == pytest.approx((0.2, 0.2, 0.2))
        assert imbalance(phi) < 1e-15  # equal only up to float table roundoff

    def test_dyadic_additive_game_exact(self):
        # 0.25 steps subtract exactly, so the phi are bit-equal and I is 0.0
        values = {
            frozenset(s): 0.25 * len(s)
            for r in range(4)
            for s in itertools.combinations(range(3), r)
        }
        phi = shapley_from_values(values, 3)
        assert phi == (0.25, 0.25, 0.25)
        assert imbalance(phi) == 0.0

    def test_agrees_with_subset_weighted_form(self):
        rng = np.random.default_rng(8)
        for m in (2, 3):
            for _ in range(25):
                values = {
                    frozenset(s): float(rng.uniform())
                    for r in range(m + 1)
                    for s in itertools.combinations(range(m), r)
                }
                a = shapley_from_values(values, m)
                b = shapley_subset_form(values, m)
                assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12

    def test_efficiency_on_model(self):
        model, data = trained_like_model(3)
        rep = shapley(model, data)
        full = rep.subset_values[frozenset({0, 1})]
        empty = rep.subset_values[frozenset()]
        assert sum(rep.phi) == pytest.approx(full - empty, abs=1e-9)
        assert len(rep.subset_values) == 4
        assert 0.0 <= rep.imbalance <= 1.0

    @pytest.mark.parametrize("m", [2, 3])
    def test_subset_values_equal_masked_evaluation(self, m):
        model, data = trained_like_model(4, m=m)
        model.head_bias[:] = np.random.default_rng(m).standard_normal(3)
        rep = shapley(model, data)
        assert len(rep.subset_values) == 1 << m
        for subset, v in rep.subset_values.items():
            expected = masked_accuracy(model, data, subset)
            assert v == expected
            assert value_function(model, data, tuple(i in subset for i in range(m))) == expected

    @pytest.mark.parametrize("m", [2, 3])
    def test_reading_matches_evaluate_performance(self, m):
        """shapley's accuracy and macro-F1 are evaluate_performance's bit for bit, and the
        accuracy is v of the full set."""
        model, data = trained_like_model(6, m=m)
        model.head_bias[:] = np.random.default_rng(m).standard_normal(3)
        ev = shapley(model, data)
        perf = evaluate_performance(model, data)
        assert (ev.accuracy, ev.macro_f1) == (perf.accuracy, perf.macro_f1)
        assert ev.accuracy == ev.subset_values[frozenset(range(m))]
        assert (perf.subset_values, perf.phi, perf.imbalance) == (None, None, None)

    def test_one_forward_per_call(self, monkeypatch):
        model, data = trained_like_model(5, m=3)
        calls = []
        real = fusion.forward

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fusion, "forward", counting)
        shapley(model, data)
        assert len(calls) == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        values = {
            frozenset(s): float(rng.uniform())
            for r in range(4)
            for s in itertools.combinations(range(3), r)
        }
        phi = shapley_from_values(values, 3)
        for perm in itertools.permutations(range(3)):
            relabeled = {
                frozenset(perm[i] for i in key): v for key, v in values.items()
            }
            phi_p = shapley_from_values(relabeled, 3)
            assert all(phi_p[perm[i]] == phi[i] for i in range(3))
            assert imbalance(phi_p) == imbalance(phi)


class TestImbalance:
    def test_equal_contributions(self):
        assert imbalance((0.4, 0.4)) == 0.0
        assert imbalance((0.1, 0.1, 0.1)) == 0.0

    def test_trimodal_mean_of_pairs(self):
        assert imbalance((0.35833333333333334, 0.15833333333333333, 0.08333333333333333)) == (
            pytest.approx(0.18333333333333332)
        )

    def test_wrong_length(self):
        with pytest.raises(ContractError):
            imbalance((0.5,))
        with pytest.raises(ContractError):
            imbalance((0.1, 0.2, 0.3, 0.4))


class TestFlops:
    def test_linear_forward_count(self):
        led = FlopsLedger()
        led.record("matmul_forward", (2, 3, 4), bias=True)
        assert led.total == 2 * 2 * 3 * 4 + 2 * 4 == 56

    def test_linear_backward_count(self):
        led = FlopsLedger()
        led.record("matmul_backward", (2, 3, 4))
        assert led.total == 4 * 2 * 3 * 4 == 96

    def test_empty_total(self):
        assert FlopsLedger().total == 0

    def test_categories_sum(self):
        led = FlopsLedger()
        led.record("matmul_forward", (1, 2, 3))
        led.record("elementwise", 10)
        led.record("softmax_loss", 4)
        assert led.total == led.forward_matmul + led.backward_matmul + led.elementwise + (
            led.softmax_loss
        ) == 2 * 1 * 2 * 3 + 10 + 5 * 4

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            FlopsLedger().record("conv", (1, 2, 3))
