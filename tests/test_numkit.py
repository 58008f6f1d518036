import dataclasses

import numpy as np
import pytest

from balancelab.errors import ContractError, ShapeError
from balancelab.numkit import LayerParams, MlpParams, mlp_backward, mlp_forward

from oracles import fd_max_rel_error, mlp_copy


def layer_arrays(params):
    return [a for layer in params.layers for a in (layer.weight, layer.bias)]


def random_mlp(sizes, rng):
    layers = [
        LayerParams(rng.standard_normal((sizes[t + 1], sizes[t])), rng.standard_normal(sizes[t + 1]))
        for t in range(len(sizes) - 1)
    ]
    return MlpParams(layers)


class TestMlpForward:
    def test_zero_weights_bias_collapse(self):
        bias = np.array([1.5, -2.0])
        params = MlpParams([LayerParams(np.zeros((2, 3)), bias)])
        out, _ = mlp_forward(params, np.random.default_rng(1).standard_normal((5, 3)))
        assert np.array_equal(out, np.tile(bias, (5, 1)))

    def test_identity_layer(self):
        params = MlpParams([LayerParams(np.eye(4), np.zeros(4))])
        x = np.random.default_rng(2).standard_normal((3, 4))
        out, _ = mlp_forward(params, x)
        assert np.array_equal(out, x)

    def test_one_unit_net_rectifies(self):
        # hidden pre-activation is -1, rectified to 0, so output equals the output bias
        params = MlpParams(
            [
                LayerParams(np.array([[1.0]]), np.zeros(1)),
                LayerParams(np.array([[1.0]]), np.array([0.75])),
            ]
        )
        out, cache = mlp_forward(params, np.array([[-1.0]]))
        assert cache.inputs[1][0, 0] == 0.0
        assert out[0, 0] == 0.75

    def test_cache_holds_layer_inputs_and_output_only(self):
        rng = np.random.default_rng(6)
        params = random_mlp([4, 7, 5, 3], rng)
        x = rng.standard_normal((9, 4))
        before = x.tobytes()
        out, cache = mlp_forward(params, x)
        assert [f.name for f in dataclasses.fields(cache)] == ["inputs", "output", "shapes"]
        assert x.tobytes() == before and cache.inputs[0] is x and cache.output is out
        h = x
        for t, layer in enumerate(params.layers[:-1]):
            h = np.maximum(h @ layer.weight.T + layer.bias, 0.0)
            # the rectified output of layer t, with no negative pre-activation kept
            assert cache.inputs[t + 1].tobytes() == h.tobytes()
        assert len(cache.inputs) == len(params.layers)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        params = random_mlp([4, 8, 2], rng)
        x = rng.standard_normal((6, 4))
        a, _ = mlp_forward(params, x)
        b, _ = mlp_forward(params, x)
        assert a.tobytes() == b.tobytes()

    def test_dim_mismatch(self):
        params = MlpParams([LayerParams(np.ones((2, 3)), np.zeros(2))])
        with pytest.raises(ShapeError):
            mlp_forward(params, np.ones((4, 5)))

    def test_layer_chain_checked(self):
        with pytest.raises(ShapeError):
            MlpParams(
                [
                    LayerParams(np.ones((3, 2)), np.zeros(3)),
                    LayerParams(np.ones((2, 4)), np.zeros(2)),
                ]
            )


class TestMlpBackward:
    def test_zero_output_grad(self):
        rng = np.random.default_rng(4)
        params = random_mlp([3, 5, 2], rng)
        out, cache = mlp_forward(params, rng.standard_normal((4, 3)))
        grads = mlp_copy(params)
        mlp_backward(params, cache, np.zeros_like(out), grads)
        for layer in grads.layers:
            assert not layer.weight.any() and not layer.bias.any()

    def test_linear_weight_grad_sums_inputs(self):
        # loss = sum(output): dW = ones.T @ x = column sums of the batch
        params = MlpParams([LayerParams(np.full((2, 3), 0.5), np.zeros(2))])
        x = np.arange(12.0).reshape(4, 3)
        out, cache = mlp_forward(params, x)
        grads = mlp_copy(params)
        mlp_backward(params, cache, np.ones_like(out), grads)
        assert np.array_equal(grads.layers[0].weight, np.tile(x.sum(axis=0), (2, 1)))

    def test_matches_finite_differences(self):
        """Also: it returns None and keeps ``output_grad``'s bits; six seeds draw 3 layers."""
        for seed in range(8):
            rng = np.random.default_rng(seed)
            depth = rng.integers(1, 4)
            sizes = [int(rng.integers(1, 17)) for _ in range(depth + 1)]
            params = random_mlp(sizes, rng)
            x = rng.standard_normal((5, sizes[0]))
            direction = rng.standard_normal((5, sizes[-1]))
            _, cache = mlp_forward(params, x)
            grads = mlp_copy(params)
            before = direction.tobytes()
            assert mlp_backward(params, cache, direction, grads) is None
            assert direction.tobytes() == before

            def loss():
                out, _ = mlp_forward(params, x)
                return float((out * direction).sum())

            assert fd_max_rel_error(loss, layer_arrays(params), layer_arrays(grads), 1e-5) < 1e-5

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["plus-zero", "minus-zero"])
    def test_zero_pre_activation_passes_no_gradient(self, zero):
        params = MlpParams(
            [
                LayerParams(np.array([[1.0]]), np.array([-2.0])),
                LayerParams(np.array([[1.5]]), np.array([0.25])),
            ]
        )
        out, cache = mlp_forward(params, np.array([[2.0]]))
        assert cache.inputs[1][0, 0] == 0.0  # the pre-activation 2 * 1 - 2 is exactly +0.0
        # matmul and the bias add here never form -0.0, so rectify that one by hand
        np.maximum(np.array([[zero]]), 0.0, out=cache.inputs[1])
        grads = mlp_copy(params)
        mlp_backward(params, cache, np.ones_like(out), grads)
        assert grads.layers[0].weight[0, 0] == 0.0 and grads.layers[0].bias[0] == 0.0
        assert grads.layers[1].weight[0, 0] == 0.0 and grads.layers[1].bias[0] == 1.0

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(5)
        params = random_mlp([3, 4, 2], rng)
        other = random_mlp([3, 5, 2], rng)
        out, cache = mlp_forward(params, rng.standard_normal((2, 3)))
        with pytest.raises(ContractError):
            mlp_backward(other, cache, np.zeros_like(out), mlp_copy(other))
        with pytest.raises(ContractError):
            mlp_backward(params, cache, np.zeros((2, 7)), mlp_copy(params))


class TestFiniteDiffCheck:
    """The finite-difference oracle that every analytic gradient is checked against."""

    def test_quadratic_closed_form(self):
        w = np.array([3.0])
        analytic = np.array([6.0])  # d/dw of w^2 at w=3
        assert fd_max_rel_error(lambda: w[0] ** 2, [w], [analytic], eps=1e-5) < 1e-8

    def test_detects_zeroed_analytic(self):
        # numeric gradient is 0.6 < 1, so the error equals |numeric| exactly
        w = np.array([0.3])
        err = fd_max_rel_error(lambda: w[0] ** 2, [w], [np.zeros(1)], eps=1e-5)
        assert err == pytest.approx(0.6, rel=1e-6)

    def test_constant_function_passes(self):
        w = np.array([3.0])
        assert fd_max_rel_error(lambda: 2.5, [w], [np.zeros(1)]) < 1e-12

    def test_bad_eps(self):
        with pytest.raises(ValueError):
            fd_max_rel_error(lambda: 0.0, [np.array([3.0])], [np.zeros(1)], eps=0.0)

    def test_non_finite_objective(self):
        with pytest.raises(FloatingPointError):
            fd_max_rel_error(lambda: float("nan"), [np.array([3.0])], [np.zeros(1)])
