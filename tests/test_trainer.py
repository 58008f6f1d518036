import math

import numpy as np
import pytest

from balancelab import fusion, trainer
from balancelab.datagen import SyntheticSpec, generate, split
from balancelab.errors import ContractError, DivergenceError
from balancelab.fusion import init_model
from balancelab.metrics import FlopsLedger, value_function
from balancelab.methods import METHODS, MethodSpec
from balancelab.trainer import (
    Carry,
    Plan,
    Run,
    TrainConfig,
    TrainLog,
    baseline_loss,
    cross_entropy,
    fit,
    modality_scores,
    sgd_step,
    softmax,
    step_lr,
)

from oracles import fd_max_rel_error, mlp_copy, model_gradient, per_modality_scores


def plan_and_carry(stack, kinds=("baseline",)):
    """A plan and carry, as ``fit`` builds them, for a stack of one run per kind.

    Each run has its kind's default strength; ``kinds`` is in fit's order.
    The plan holds no runs or train sets, which only gather, the feature
    transforms and validation read.
    """
    specs = [MethodSpec(kind) for kind in kinds]
    hooks = {field: trainer._ranges(stack, [spec.active() for spec in specs], field)
             for field in ("objective", "grad_scale", "feature_transform", "sample_weights",
                           "deploy")}
    spans = [stack.encoder_span(i) for i in range(stack.num_modalities)]
    plan = Plan(TrainConfig(), [], [], np.array([spec.value for spec in specs], float), hooks,
                spans)
    carry = Carry(stack, np.zeros_like(stack.flat), None, stack.flat.copy(),
                  [TrainLog([]) for _ in specs], 0)
    return plan, carry


def tiny_data(seed=0, m=2, signal=(2.0, 2.0), n=240, sigma=1.0, h=3, d=6):
    spec = SyntheticSpec(m, h, (d,) * m, signal[:m], sigma, n, seed)
    return generate(spec)


class TestSoftmax:
    def test_symmetry(self):
        assert np.array_equal(softmax(np.array([[0.0, 0.0]])), np.array([[0.5, 0.5]]))

    def test_no_overflow(self):
        out = softmax(np.array([[1000.0, 0.0]]))
        assert out[0, 0] == 1.0 and out[0, 1] == 0.0

    def test_uniform(self):
        assert softmax(np.array([[1.0, 1.0, 1.0]]))[0] == pytest.approx([1 / 3] * 3)

    @pytest.mark.parametrize("h", range(2, 17))
    def test_bitwise_the_reduce_form(self, h):
        """The column chains give numpy's reduce bits; a numpy that reorders short sums fails."""
        rng = np.random.default_rng(h)
        wide = rng.standard_normal((3, 40, h)) * 10.0 ** rng.uniform(-4, 2, (3, 40, h))
        tied = rng.choice([-0.0, 0.0, 1.5, -2.0], (3, 40, h))
        tied[..., -1] = tied[..., 0]
        near_one_hot = rng.standard_normal((3, 40, h)) * 1e-3
        near_one_hot[np.arange(3)[:, None], np.arange(40), rng.integers(0, h, (3, 40))] += 30.0
        for x in (wide, tied, near_one_hot):
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            assert softmax(x).tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()


class TestCrossEntropy:
    def test_symmetric_logits(self):
        loss, grad = cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(math.log(2.0))
        assert grad[0] == pytest.approx([-0.5, 0.5])

    def test_worked_gradient(self):
        loss, grad = cross_entropy(np.array([[math.log(2.0), 0.0]]), np.array([1]))
        assert grad[0] == pytest.approx([2 / 3, -2 / 3])

    def test_confident_limit(self):
        loss, _ = cross_entropy(np.array([[60.0, 0.0]]), np.array([0]))
        assert loss < 1e-20

    def test_bad_label(self):
        with pytest.raises(ContractError):
            cross_entropy(np.zeros((1, 2)), np.array([5]))

    def test_any_memory_layout(self):
        # true-class entries are found by flat index, which must follow C order
        # for a Fortran-ordered or strided input too
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 7, 3)), rng.integers(0, 3, (2, 7))
        loss, grad = cross_entropy(x, y)
        for other in (np.asfortranarray(x), np.ascontiguousarray(x.T).T):
            other_loss, other_grad = cross_entropy(other, y)
            assert other_loss.tobytes() == loss.tobytes()
            assert np.array_equal(other_grad, grad)


class TestSgdStep:
    def make_model(self, w):
        model = init_model([[1, 1], [1, 1]], 2, 0)
        model.head_blocks[0][:] = 0.0
        model.head_blocks[0][0, 0] = w
        return model

    def step(self, model, velocity, g, cfg):
        grads = np.zeros_like(model.flat)
        model.like(grads).head_blocks[0][0, 0] = g
        sgd_step(model.flat, velocity, grads, cfg.lr, cfg)

    def test_reduces_to_plain_gradient_descent(self):
        cfg = TrainConfig(lr=0.05, momentum=0.0, weight_decay=0.0, epochs=1)
        model = self.make_model(1.0)
        self.step(model, np.zeros_like(model.flat), 0.25, cfg)
        assert model.head_blocks[0][0, 0] == 1.0 - 0.05 * 0.25

    def test_zero_gradient_zero_velocity_is_noop(self):
        cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.0, epochs=1)
        model = self.make_model(0.7)
        before = model.head_blocks[0].copy()
        self.step(model, np.zeros_like(model.flat), 0.0, cfg)
        assert np.array_equal(model.head_blocks[0], before)

    def test_weight_decay_worked_example(self):
        cfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.1, epochs=1)
        model = self.make_model(1.0)
        self.step(model, np.zeros_like(model.flat), 1.0, cfg)
        assert model.head_blocks[0][0, 0] == pytest.approx(0.89)

    def test_momentum_accumulates(self):
        # two steps with g=1: v1=1, v2=mu+1; hand-rolled comparison
        cfg = TrainConfig(lr=0.1, momentum=0.5, weight_decay=0.0, epochs=1)
        model = self.make_model(1.0)
        velocity = np.zeros_like(model.flat)
        self.step(model, velocity, 1.0, cfg)
        self.step(model, velocity, 1.0, cfg)
        assert model.head_blocks[0][0, 0] == pytest.approx(1.0 - 0.1 - 0.1 * 1.5)


class TestStepLr:
    def test_initial(self):
        assert step_lr(TrainConfig(lr=1e-3), 0) == 1e-3

    def test_after_one_decay(self):
        assert step_lr(TrainConfig(lr=1e-3, step_size=30, gamma=0.1), 30) == pytest.approx(1e-4)

    def test_after_two_decays(self):
        assert step_lr(TrainConfig(lr=1e-3, step_size=30, gamma=0.1), 65) == pytest.approx(1e-5)


class TestModalityScores:
    def test_zero_features_uniform(self):
        model = init_model([[4, 5], [4, 5]], 4, 0)
        batch = [np.zeros((3, 4)), np.zeros((3, 4))]
        for enc in model.encoders:
            for layer in enc.layers:
                layer.weight[:] = 0.0
        cache = fusion.forward(model, batch)
        scores = modality_scores(model, cache, np.array([0, 1, 2]))
        assert scores == pytest.approx([0.25, 0.25])

    def test_duplicate_modalities_equal(self):
        model = init_model([[4, 5], [4, 5]], 3, 1)
        model.encoders[1] = mlp_copy(model.encoders[0])
        model.head_blocks[1] = model.head_blocks[0].copy()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 4))
        cache = fusion.forward(model, [x, x.copy()])
        scores = modality_scores(model, cache, rng.integers(0, 3, 6))
        assert scores[0] == scores[1]

    def test_worked_example(self):
        # partial logits ([2,0],[0,0]) with y=0: e^2/(e^2+1) and 0.5
        model = init_model([[1, 1], [1, 1]], 2, 0)
        for i, enc in enumerate(model.encoders):
            enc.layers[0].weight[:] = 1.0
        model.head_blocks[0][:] = np.array([[2.0], [0.0]])
        model.head_blocks[1][:] = np.array([[0.0], [0.0]])
        model.head_bias[:] = 0.0
        cache = fusion.forward(model, [np.array([[1.0]]), np.array([[1.0]])])
        scores = modality_scores(model, cache, np.array([0]))
        assert scores[0] == pytest.approx(math.exp(2) / (math.exp(2) + 1))
        assert scores[1] == pytest.approx(0.5)

    def test_running_score_after_two_batches(self):
        # partial logits (2x, 0) and (0, x) with y=0: sigmoid(2x) and sigmoid(-x)
        model = init_model([[1, 1], [1, 1]], 2, 0)
        for enc in model.encoders:
            enc.layers[0].weight[:] = 1.0
        model.head_blocks[0][:] = np.array([[2.0], [0.0]])
        model.head_blocks[1][:] = np.array([[0.0], [1.0]])
        model.head_bias[:] = 0.0
        stack = model.like(model.flat[None].copy())
        plan, carry = plan_and_carry(stack)
        for b, x in enumerate((1.0, 2.0)):
            batch = [np.full((1, 1, 1), x), np.full((1, 1, 1), x)]
            trainer._forward(plan, carry, batch, np.zeros((1, 1), dtype=int), b)

        def sigmoid(z):
            return 1.0 / (1.0 + math.exp(-z))

        # running score = 0.7 * the first batch's + 0.3 * the second's
        expected = [0.7 * sigmoid(2.0) + 0.3 * sigmoid(4.0),
                    0.7 * sigmoid(-1.0) + 0.3 * sigmoid(-2.0)]
        assert carry.running_scores.shape == (1, 2)
        assert list(carry.running_scores[0]) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("runs", [None, 3])
    def test_stacked_softmax_matches_per_modality_loop(self, m, runs):
        rng = np.random.default_rng(10 * m + (runs or 0))
        arch = [[d, 7, f] for d, f in zip((5, 6, 4), (4, 3, 5))][:m]
        models = [init_model(arch, 4, seed) for seed in range(runs or 1)]
        for mdl in models:
            mdl.head_bias[:] = rng.standard_normal(4)
            for blk in mdl.head_blocks:
                blk *= 3.0  # spread the partial logits away from uniform
        lead = (runs, 9) if runs else (9,)
        batch = [rng.standard_normal(lead + (sizes[0],)) for sizes in arch]
        labels = rng.integers(0, 4, lead)
        model = models[0].like(np.stack([mdl.flat for mdl in models])) if runs else models[0]
        cache = fusion.forward(model, batch)
        expected = per_modality_scores(model, cache, labels)
        # every score differs, so a swap of modalities or runs shows
        assert len(np.unique(expected)) == expected.size
        got = modality_scores(model, cache, labels)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestGradientsThroughModel:
    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for m, seed in ((2, 1), (3, 2)):
            dims = tuple(int(rng.integers(3, 6)) for _ in range(m))
            arch = [[d, 7, 5] for d in dims]
            model = init_model(arch, 3, seed)
            batch = [rng.standard_normal((6, d)) for d in dims]
            labels = rng.integers(0, 3, 6)
            cache = fusion.forward(model, batch)
            bundle = baseline_loss(model, cache, labels)
            grads = model_gradient(model, cache, bundle)

            def loss_fn():
                c = fusion.forward(model, batch)
                return cross_entropy(c.logits, labels)[0]

            assert fd_max_rel_error(loss_fn, [model.flat], [grads]) < 1e-5

    def test_transformed_step_gradient_matches_finite_differences(self):
        """_objectives scales a transformed modality's feature gradient by its factor.

        On a one-run stack, then on a two-run stack of two objective ranges
        (baseline, kl_align: both exact) with the factor on the second run
        only, so a range's rows landing elsewhere in the stack show.
        """
        rng = np.random.default_rng(3)
        for kinds in (("baseline",), ("baseline", "kl_align")):
            runs = len(kinds)
            models = [init_model([[4, 7, 5], [5, 7, 5]], 3, 1 + r) for r in range(runs)]
            stack = models[0].like(np.stack([mdl.flat for mdl in models]))  # as fit trains
            batch = [rng.standard_normal((runs, 6, d)) for d in (4, 5)]
            labels = rng.integers(0, 3, (runs, 6))
            factor = np.ones((runs, 6, 5))  # modality 0's, per sample and coordinate
            factor[-1] = rng.uniform(0.0, 2.0, (6, 5))

            def transformed():
                features, enc_caches = fusion.encode(stack, batch)
                features[0] = features[0] * factor
                return fusion.head(stack, features, enc_caches)

            plan, carry = plan_and_carry(stack, kinds)
            grads = stack.like(np.empty_like(stack.flat))
            trainer._objectives(plan, carry, transformed(), {0: factor}, labels, np.zeros(runs), 0,
                                grads)

            def loss_fn():
                cache = transformed()
                return sum(objective(view, trainer._cache_rows(cache, rows), labels[rows],
                                     plan.values[rows], FlopsLedger()).loss.sum()
                           for objective, rows, view in plan.hooks["objective"])

            assert len(plan.hooks["objective"]) == runs
            assert fd_max_rel_error(loss_fn, [stack.flat], [grads.flat]) < 1e-5


class TestFit:
    def test_zero_epochs(self):
        data = tiny_data()
        tr, va, te = split(data, (0.8, 0.1, 0.1), 0)
        model = init_model([[6, 8, 5], [6, 8, 5]], 3, 0)
        [(out, log)] = fit(TrainConfig(epochs=0), [Run(tr, va, model, 0, MethodSpec())])
        assert out is model and log.records == []

    def test_no_runs(self):
        assert fit(TrainConfig(epochs=1), []) == []

    def test_separable_data_learns(self):
        spec = SyntheticSpec(2, 3, (6, 6), (3.0, 3.0), 0.3, 600, 5)
        data = generate(spec)
        tr, va, te = split(data, (0.8, 0.1, 0.1), 1)
        model = init_model([[6, 8, 5], [6, 8, 5]], 3, 2)
        cfg = TrainConfig(lr=5e-3, epochs=20)
        [(best, log)] = fit(cfg, [Run(tr, va, model, 3, MethodSpec())])
        assert trainer.evaluate_accuracy(best, tr) >= 0.95

    def test_bitwise_deterministic(self):
        data = tiny_data(4)
        tr, va, _ = split(data, (0.8, 0.1, 0.1), 2)
        results = []
        for _ in range(2):
            model = init_model([[6, 8, 5], [6, 8, 5]], 3, 7)
            [(best, _)] = fit(TrainConfig(epochs=4), [Run(tr, va, model, 9, MethodSpec())])
            results.append(best)
        a, b = results
        assert a.head_bias.tobytes() == b.head_bias.tobytes()
        for ea, eb in zip(a.encoders, b.encoders):
            for la, lb in zip(ea.layers, eb.layers):
                assert la.weight.tobytes() == lb.weight.tobytes()
        for ba, bb in zip(a.head_blocks, b.head_blocks):
            assert ba.tobytes() == bb.tobytes()

    def test_divergence_reported(self):
        data = tiny_data(2)
        tr, va, _ = split(data, (0.8, 0.1, 0.1), 0)
        model = init_model([[6, 8, 5], [6, 8, 5]], 3, 0)
        # a huge wrong-way bias makes the true-class probability underflow
        model.head_bias[:] = [900.0, -900.0, -900.0]
        for enc in model.encoders:
            for layer in enc.layers:
                layer.weight[:] = 0.0
        with pytest.raises(DivergenceError) as err:
            fit(TrainConfig(epochs=1, lr=1e-9), [Run(tr, va, model, 0, MethodSpec())])
        assert err.value.epoch == 0

    def test_log_schema(self):
        data = tiny_data(3)
        tr, va, _ = split(data, (0.8, 0.1, 0.1), 0)
        model = init_model([[6, 8, 5], [6, 8, 5]], 3, 1)
        [(_, log)] = fit(TrainConfig(epochs=3), [Run(tr, va, model, 2, MethodSpec())])
        assert len(log.records) == 3
        assert log.records[-1].flops_total == log.flops.total
        assert all(len(r.scores) == 2 for r in log.records)

    def test_flops_monotone(self):
        data = tiny_data(6)
        tr, va, _ = split(data, (0.8, 0.1, 0.1), 0)
        model = init_model([[6, 8, 5], [6, 8, 5]], 3, 1)
        [(_, log)] = fit(TrainConfig(epochs=3), [Run(tr, va, model, 2, MethodSpec())])
        totals = [r.flops_total for r in log.records]
        assert totals == sorted(totals) and totals[0] > 0


class TestNamesLookedUpAtCallTime:
    @pytest.mark.parametrize("path, per_epoch, per_batch", [
        ("trainer.sgd_step", 0, 1),
        ("trainer.modality_scores", 0, 1),
        ("trainer.baseline_loss", 0, 1),
        ("trainer.evaluate_accuracy", 1, 0),
        ("trainer.mlp_backward", 0, 2),  # one per modality
        ("fusion.forward", 1, 0),  # validation only
        ("fusion.encode", 1, 1),  # training's and validation's
        ("fusion.head", 1, 1),
    ])
    def test_swapped_name_sees_every_call(self, monkeypatch, path, per_epoch, per_batch):
        """A span tracer swaps these module attributes, so fit must look each up per call."""
        module, name = path.split(".")
        owner = {"trainer": trainer, "fusion": fusion}[module]
        calls = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        tr, va, _ = split(tiny_data(1), (0.8, 0.1, 0.1), 0)
        epochs, batch_size = 3, 50
        batches = -(-tr.num_samples // batch_size)
        assert batches == 4
        model = init_model([[6, 8, 5], [6, 8, 5]], 3, 0)
        fit(TrainConfig(epochs=epochs, batch_size=batch_size),
            [Run(tr, va, model, 4, MethodSpec())])
        assert len(calls) == epochs * (per_epoch + per_batch * batches)

    def test_one_backward_per_modality_however_many_objective_ranges(self, monkeypatch):
        """Three objective ranges share one encoder backward per modality and batch."""
        calls = []
        real = trainer.mlp_backward

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer, "mlp_backward", counting)
        tr, va, _ = split(tiny_data(1), (0.8, 0.1, 0.1), 0)
        epochs, batch_size = 2, 50
        batches = -(-tr.num_samples // batch_size)
        runs = [Run(tr, va, init_model([[6, 8, 5], [6, 8, 5]], 3, seed), 4, MethodSpec(kind))
                for seed, kind in enumerate(("kl_align", "baseline", "unimodal_blend"))]
        fit(TrainConfig(epochs=epochs, batch_size=batch_size), runs)
        assert len(calls) == epochs * batches * 2  # m = 2


class TestDominanceSuppression:
    def test_weak_modality_starves_in_joint_training(self):
        """Joint training leaves the weak branch worse than solo training."""
        wins = 0
        score_order_ok = 0
        for seed in range(5):
            spec = SyntheticSpec(2, 3, (8, 8), (3.0, 1.0), 1.0, 900, 100 + seed)
            data = generate(spec)
            tr, va, te = split(data, (0.8, 0.1, 0.1), seed)
            arch = [[8, 12, 6], [8, 12, 6]]
            cfg = TrainConfig(lr=5e-3, epochs=12)

            joint = init_model(arch, 3, 200 + seed)
            [(joint_best, joint_log)] = fit(cfg, [Run(tr, va, joint, seed, MethodSpec())])
            masked_weak = value_function(joint_best, te, (False, True))

            solo_data = data.select_modalities([1])
            str_, sva, ste = split(solo_data, (0.8, 0.1, 0.1), seed)
            solo = init_model([arch[1]], 3, 300 + seed)
            [(solo_best, _)] = fit(cfg, [Run(str_, sva, solo, seed, MethodSpec())])
            solo_acc = trainer.evaluate_accuracy(solo_best, ste)

            if masked_weak < solo_acc:
                wins += 1
            if joint_log.records[-1].scores[0] > joint_log.records[-1].scores[1]:
                score_order_ok += 1
        assert wins >= 3
        assert score_order_ok >= 3
