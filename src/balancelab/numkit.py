"""A hand-derived float64 MLP forward/backward and its parameter containers.

Conventions used throughout the package:

- A "matrix" is a 2-D C-contiguous ``float64`` ndarray (row-major).
- An MLP layer stores ``weight`` with shape ``(d_out, d_in)`` and ``bias``
  with shape ``(d_out,)``; batches are row-major ``(B, d)`` matrices, so a
  layer maps ``x`` to ``x @ weight.T + bias``.
- Hidden layers use the rectifier; the output layer is affine (identity).
  The rectifier subgradient at exactly 0 is defined as 0, so bit-exact
  reproducibility does not depend on how ties are broken.

All functions here are pure: they never mutate their arguments and are safe
to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError


@dataclass
class LayerParams:
    """One affine layer: ``weight`` is (d_out, d_in), ``bias`` is (d_out,)."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weight.ndim != 2:
            raise ShapeError(f"layer weight must be 2-D, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match weight {self.weight.shape}"
            )


@dataclass
class MlpParams:
    """Parameters of one MLP: rectified hidden layers, affine output layer.

    Consecutive layer dimensions must chain: layer t's d_out equals layer
    t+1's d_in.
    """

    layers: list[LayerParams]

    def __post_init__(self):
        if not self.layers:
            raise ShapeError("an MLP needs at least one layer")
        for t in range(1, len(self.layers)):
            d_out_prev = self.layers[t - 1].weight.shape[0]
            d_in = self.layers[t].weight.shape[1]
            if d_out_prev != d_in:
                raise ShapeError(
                    f"layer {t - 1} outputs {d_out_prev} features but layer {t} expects {d_in}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]

    def copy(self) -> "MlpParams":
        return type(self)(
            [LayerParams(l.weight.copy(), l.bias.copy()) for l in self.layers]
        )


class MlpGradients(MlpParams):
    """Per-layer gradients, shaped exactly like the parameters they differentiate."""


def zeros_like_params(params: MlpParams) -> MlpGradients:
    return MlpGradients(
        [LayerParams(np.zeros_like(l.weight), np.zeros_like(l.bias)) for l in params.layers]
    )


@dataclass
class MlpCache:
    """Intermediate values from one forward pass, sufficient for exact backward.

    ``inputs[t]`` is the batch fed into layer t; ``preacts[t]`` the affine
    output of layer t before any activation. ``shapes`` records the layer
    shapes so a mismatched cache can be rejected in backward.
    """

    inputs: list[np.ndarray]
    preacts: list[np.ndarray]
    shapes: tuple[tuple[int, int], ...]


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Run the MLP on a batch ``x`` of shape (B, d_in).

    Returns the (B, d_out) output and a cache for :func:`mlp_backward`.
    """
    if x.ndim != 2:
        raise ShapeError(f"input must be 2-D, got shape {x.shape}")
    if x.shape[1] != params.input_dim:
        raise ShapeError(
            f"input has {x.shape[1]} features, first layer expects {params.input_dim}"
        )
    inputs: list[np.ndarray] = []
    preacts: list[np.ndarray] = []
    h = x
    last = len(params.layers) - 1
    for t, layer in enumerate(params.layers):
        inputs.append(h)
        z = h @ layer.weight.T + layer.bias
        preacts.append(z)
        h = z if t == last else np.maximum(z, 0.0)
    shapes = tuple(l.weight.shape for l in params.layers)
    return h, MlpCache(inputs, preacts, shapes)


def mlp_backward(
    params: MlpParams, cache: MlpCache, output_grad: np.ndarray
) -> tuple[MlpGradients, np.ndarray]:
    """Exact gradients of the forward map for a given output gradient.

    ``output_grad`` must have the shape of the forward output. Returns the
    parameter gradients and the gradient with respect to the input batch.
    The rectifier contributes zero gradient where its pre-activation was
    exactly 0.
    """
    shapes = tuple(l.weight.shape for l in params.layers)
    if cache.shapes != shapes:
        raise ContractError(
            f"cache built for layer shapes {cache.shapes}, params have {shapes}"
        )
    if output_grad.shape != cache.preacts[-1].shape:
        raise ContractError(
            f"output_grad shape {output_grad.shape} does not match forward "
            f"output {cache.preacts[-1].shape}"
        )
    grads = [None] * len(params.layers)
    dz = output_grad
    for t in range(len(params.layers) - 1, -1, -1):
        layer = params.layers[t]
        if t < len(params.layers) - 1:
            dz = dz * (cache.preacts[t] > 0.0)
        grads[t] = LayerParams(dz.T @ cache.inputs[t], dz.sum(axis=0))
        dz = dz @ layer.weight
    return MlpGradients(grads), dz

