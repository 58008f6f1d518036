"""A hand-derived float64 MLP forward/backward and its parameter containers.

Conventions used throughout the package:

- A "matrix" is a 2-D C-contiguous ``float64`` ndarray (row-major).
- An MLP layer stores ``weight`` with shape ``(d_out, d_in)`` and ``bias``
  with shape ``(d_out,)``; batches are row-major ``(B, d)`` matrices, so a
  layer maps ``x`` to ``x @ weight.T + bias``.
- Parameters and batches may carry the same leading run axes, e.g. weights
  ``(R, d_out, d_in)`` and batches ``(R, B, d)``: R models then run in
  lockstep, and each run's slice is computed bit for bit as it would be
  alone.
- Hidden layers use the rectifier, in place; the output layer is
  affine (identity). The rectifier subgradient at exactly 0 is defined as
  0, so bit-exact reproducibility does not depend on how ties are broken.

``mlp_forward`` is pure; ``mlp_backward`` writes parameter gradients, and
nothing else, into the container it is given.

Bias gradients (here and in the trainer's and the methods' head bias) are
batch sums taken by :func:`row_sum`, which adds each column's rows in order,
first to last: bitwise numpy's own ``x.sum(axis=-2)`` in about half its
time.
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
        if self.weight.ndim < 2:
            raise ShapeError(f"layer weight must be 2-D, got {self.weight.shape}")
        if self.bias.shape != self.weight.shape[:-1]:
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
            d_out_prev = self.layers[t - 1].weight.shape[-2]
            d_in = self.layers[t].weight.shape[-1]
            if d_out_prev != d_in:
                raise ShapeError(
                    f"layer {t - 1} outputs {d_out_prev} features but layer {t} expects {d_in}"
                )

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[-1]


@dataclass
class MlpCache:
    """Intermediate values from one forward pass, sufficient for exact backward.

    ``inputs[t]`` is the batch fed into layer t; for t >= 1, layer t-1's
    rectified output, made in place over its affine output, so no hidden
    pre-activation is kept: it is > 0 exactly where that pre-activation is.
    ``output`` is the last layer's affine output. ``shapes`` records the
    layer shapes so a mismatched cache can be rejected in backward.
    """

    inputs: list[np.ndarray]
    output: np.ndarray
    shapes: tuple[tuple[int, int], ...]


def row_sum(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x.sum(axis=-2, out=out)``, bit for bit, for (B, d) or (R, B, d) ``x``.

    For d >= 2 numpy sums the rows of each column in order, and einsum's
    reduction does the same in fewer passes. A single column is a contiguous
    axis, which numpy's sum adds pairwise and einsum does not, so at d = 1
    it stays ``np.sum``.
    """
    if x.shape[-1] == 1:
        return x.sum(axis=-2, out=out)
    return np.einsum("...bd->...d", x, out=out)


def mlp_forward(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, MlpCache]:
    """Run the MLP on a batch ``x`` of shape (B, d_in), or (R, B, d_in) for R runs.

    Returns the (B, d_out) output and a cache for :func:`mlp_backward`.
    """
    if x.ndim < 2:
        raise ShapeError(f"input must be 2-D, got shape {x.shape}")
    if x.shape[-1] != params.input_dim:
        raise ShapeError(
            f"input has {x.shape[-1]} features, first layer expects {params.input_dim}"
        )
    inputs: list[np.ndarray] = []
    h = x
    for t, layer in enumerate(params.layers):
        if t:
            np.maximum(h, 0.0, out=h)  # rectify layer t-1's output in place
        inputs.append(h)
        h = h @ layer.weight.swapaxes(-1, -2)
        h += layer.bias[..., None, :]
    shapes = tuple(l.weight.shape[-2:] for l in params.layers)
    return h, MlpCache(inputs, h, shapes)


def mlp_backward(
    params: MlpParams, cache: MlpCache, output_grad: np.ndarray, out: MlpParams
) -> None:
    """Exact parameter gradients of the forward map for a given output gradient.

    ``output_grad``, shaped like the forward output, is only read. The gradients
    go into ``out``, shaped like ``params`` (in training, views into the flat
    gradient buffer); none is formed for the input batch. The rectifier
    contributes zero gradient where its pre-activation was exactly 0.
    """
    shapes = tuple(l.weight.shape[-2:] for l in params.layers)
    if cache.shapes != shapes:
        raise ContractError(
            f"cache built for layer shapes {cache.shapes}, params have {shapes}"
        )
    if output_grad.shape != cache.output.shape:
        raise ContractError(
            f"output_grad shape {output_grad.shape} does not match forward "
            f"output {cache.output.shape}"
        )
    dz = output_grad
    for t in range(len(params.layers) - 1, -1, -1):
        np.matmul(dz.swapaxes(-1, -2), cache.inputs[t], out=out.layers[t].weight)
        row_sum(dz, out=out.layers[t].bias)
        if t:
            dz = dz @ params.layers[t].weight
            dz *= cache.inputs[t] > 0.0  # the product just made, never output_grad

