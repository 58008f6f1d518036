import numpy as np
import pytest

from balancelab.errors import FormatError, NumericError, ShapeError
from balancelab.fusion import (
    FusionModel,
    forward,
    init_model,
    load_model,
    partial_logits,
    predict,
    save_model,
)

from oracles import glorot_flat

ARCH = [[5, 8, 6], [4, 8, 6]]


def make_batch(rng, n=7, dims=(5, 4)):
    return [rng.standard_normal((n, d)) for d in dims]


class TestInit:
    def test_deterministic(self):
        a = init_model(ARCH, 3, 11)
        b = init_model(ARCH, 3, 11)
        for ea, eb in zip(a.encoders, b.encoders):
            for la, lb in zip(ea.layers, eb.layers):
                assert la.weight.tobytes() == lb.weight.tobytes()
        for ba, bb in zip(a.head_blocks, b.head_blocks):
            assert ba.tobytes() == bb.tobytes()

    def test_biases_zero(self):
        model = init_model(ARCH, 3, 0)
        assert not model.head_bias.any()
        for enc in model.encoders:
            for layer in enc.layers:
                assert not layer.bias.any()

    def test_weight_bound(self):
        model = init_model(ARCH, 3, 5)
        for enc in model.encoders:
            for layer in enc.layers:
                d_out, d_in = layer.weight.shape
                a = np.sqrt(6.0 / (d_in + d_out))
                assert np.abs(layer.weight).max() <= a
        for blk in model.head_blocks:
            a = np.sqrt(6.0 / (blk.shape[0] + blk.shape[1]))
            assert np.abs(blk).max() <= a

    def test_bad_arch(self):
        with pytest.raises(ShapeError):
            init_model([[5], [4, 8, 6]], 3, 0)

    @pytest.mark.parametrize("arch, h", [
        (ARCH, 3),
        ([[3, 6, 4], [3, 6, 4], [2, 6, 4]], 4),
        ([[5, 7, 3], [2, 4], [6, 9, 8, 5]], 3),
    ])
    def test_matches_per_array_reference(self, arch, h):
        assert init_model(arch, h, 21).flat.tobytes() == glorot_flat(arch, h, 21).tobytes()


class TestForward:
    def test_full_equals_sum_of_single_masks_minus_bias(self):
        model = init_model(ARCH, 3, 3)
        model.head_bias[:] = np.random.default_rng(9).standard_normal(3)
        batch = make_batch(np.random.default_rng(2))
        cache = forward(model, batch)
        only = [cache.block_products[i] + model.head_bias for i in range(2)]
        recombined = only[0] + only[1] - model.head_bias
        assert np.abs(cache.logits - recombined).max() < 1e-12

    def test_linearity_of_fusion(self):
        model = init_model(ARCH, 3, 4)
        batch = make_batch(np.random.default_rng(3))
        full = forward(model, batch)
        contribution = full.features[1] @ model.head_blocks[1].T
        # the cached block product is the contribution, bit for bit
        assert full.block_products[1].tobytes() == contribution.tobytes()
        # leaving modality 1 out removes its partial logits, up to one rounding
        dropped = partial_logits(model, full)[0] + model.head_bias / 2
        assert np.abs((full.logits - dropped) - contribution).max() < 1e-12

    def test_dim_mismatch(self):
        model = init_model(ARCH, 3, 6)
        with pytest.raises(ShapeError):
            forward(model, [np.ones((3, 9)), np.ones((3, 4))])

    @pytest.mark.parametrize("shapes", [[(5,), (4,)], [(3, 5), (2, 4)], [(3, 5)]])
    def test_batch_shape_rejected(self, shapes):
        """Vectors, unequal row counts and a missing modality are ShapeErrors."""
        with pytest.raises(ShapeError):
            forward(init_model(ARCH, 3, 6), [np.ones(s) for s in shapes])


class TestPartialLogits:
    def test_partials_sum_to_full(self):
        model = init_model(ARCH, 3, 7)
        model.head_bias[:] = [1.0, 2.0, -3.0]
        batch = make_batch(np.random.default_rng(5))
        cache = forward(model, batch)
        total = partial_logits(model, cache)[0] + partial_logits(model, cache)[1]
        assert np.abs(total - cache.logits).max() < 1e-12

    def test_three_modalities_sum(self):
        arch = [[3, 6, 4], [3, 6, 4], [2, 6, 4]]
        model = init_model(arch, 4, 8)
        model.head_bias[:] = np.random.default_rng(10).standard_normal(4)
        rng = np.random.default_rng(6)
        batch = [rng.standard_normal((5, d)) for d in (3, 3, 2)]
        cache = forward(model, batch)
        total = sum(partial_logits(model, cache)[i] for i in range(3))
        assert np.abs(total - cache.logits).max() < 1e-12

    def test_zero_features_give_bias_share(self):
        model = init_model(ARCH, 3, 9)
        model.head_bias[:] = [0.5, 1.0, 1.5]
        batch = [np.zeros((2, 5)), np.zeros((2, 4))]
        for enc in model.encoders:
            for layer in enc.layers:
                layer.weight[:] = 0.0
        cache = forward(model, batch)
        assert np.array_equal(partial_logits(model, cache)[0], np.tile(model.head_bias / 2, (2, 1)))

    def test_hand_value(self):
        # class-0 row: W=[2], phi=[3], b=[1], two modalities: 2*3 + 1/2 = 6.5
        model = FusionModel(arch=((1, 1), (1, 1)), num_classes=2, seed=0)
        for enc in model.encoders:
            enc.layers[0].weight[:] = np.eye(1)
        model.head_blocks[0][:] = [[2.0], [0.0]]
        model.head_blocks[1][:] = [[4.0], [0.0]]
        model.head_bias[:] = [1.0, 0.0]
        cache = forward(model, [np.array([[3.0]]), np.array([[5.0]])])
        assert partial_logits(model, cache)[0][0, 0] == 6.5

class TestPredict:
    def test_examples(self):
        assert predict(np.array([[0.1, 0.9]]))[0] == 1
        assert predict(np.array([[1.0, 3.0, 2.0]]))[0] == 1

    def test_tie_breaks_low(self):
        assert predict(np.array([[0.5, 0.5]]))[0] == 0

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            predict(np.array([[np.nan, 1.0]]))


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_model(ARCH, 3, 13)
        # train-ish perturbation so values are not just init samples
        model.head_bias[:] = [0.1, -0.7, 1e-17]
        path = tmp_path / "model.mmck"
        save_model(model, path)
        back = load_model(path)
        assert back.seed == model.seed and back.arch == model.arch
        assert back.head_bias.tobytes() == model.head_bias.tobytes()
        for ea, eb in zip(model.encoders, back.encoders):
            for la, lb in zip(ea.layers, eb.layers):
                assert la.weight.tobytes() == lb.weight.tobytes()
                assert la.bias.tobytes() == lb.bias.tobytes()
        for ba, bb in zip(model.head_blocks, back.head_blocks):
            assert ba.tobytes() == bb.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.mmck"
        path.write_text("WRONG\n")
        with pytest.raises(FormatError):
            load_model(path)

    @pytest.mark.parametrize("case, line, message", [
        ("misnamed", 3, "expected block 'enc0.layer0.weight 8x5'"),
        ("out_of_order", 3, "expected block 'enc0.layer0.weight 8x5'"),
        ("wrong_shape", 3, "expected block 'enc0.layer0.weight 8x5'"),
        ("missing", 23, "expected block 'bias 3', got 'end of file'"),
        ("extra", 25, "unexpected line after the last block"),
        ("value_count", 4, "needs 40 values"),
        ("one_value", 4, "needs 40 values, got 1"),
        ("huge_header", 3, "expected block 'enc0.layer0.weight 100000x100000'"),
        ("no_values", 24, "needs 3 values"),
        ("zero_size", 2, "must chain at least two positive sizes"),
        ("one_class", 2, "need at least 2 classes"),
        ("junk_header", 2, "bad header token 'junk'"),
        ("no_header", 2, "missing header"),
        ("non_integer_header", 2, "bad header: invalid literal for int"),
        ("arch_for_other_m", 2, "arch lists 2 encoders for m=3"),
    ])
    def test_rejects_any_other_block_list(self, tmp_path, case, line, message):
        path = tmp_path / "m.mmck"
        save_model(init_model(ARCH, 3, 13), path)
        lines = path.read_text().splitlines()
        if case == "misnamed":
            lines[2] = "enc0.layer0.w 8x5"
        elif case == "out_of_order":
            lines[2:4], lines[4:6] = lines[4:6], lines[2:4]
        elif case == "wrong_shape":
            lines[2] = "enc0.layer0.weight 5x8"
        elif case == "missing":
            lines = lines[:-2]
        elif case == "extra":
            lines += ["bias2 3", "0 0 0"]
        elif case == "value_count":
            lines[3] = lines[3].rsplit(" ", 1)[0]
        elif case == "one_value":
            lines[3] = "0.5"
        elif case == "huge_header":
            lines[1] = lines[1].replace("arch=5,8,6", "arch=100000,100000,100000")
        elif case == "no_values":
            lines = lines[:-1]
        elif case == "junk_header":
            lines[1] += " junk"
        elif case == "no_header":
            lines = lines[:1]
        elif case == "non_integer_header":
            lines[1] = lines[1].replace("H=3", "H=3.0")
        elif case == "arch_for_other_m":
            lines[1] = lines[1].replace("m=2", "m=3")
        elif case == "zero_size":
            lines[1] = lines[1].replace("arch=5,8,6", "arch=5,0,6")
        else:
            lines[1] = lines[1].replace("H=3", "H=1")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match=message) as exc:
            load_model(path)
        assert exc.value.line == line
