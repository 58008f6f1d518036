"""Concatenation-fusion multimodal classifier.

The model is m per-modality MLP encoders feeding one blocked linear head:
``logits = sum_i head_blocks[i] @ phi_i + head_bias``, which is exactly the
concatenation of encoder features through a single linear classifier. The
blocked form keeps each modality's additive share of the logits explicit.
Partial logits carry ``head_bias / m`` so the per-modality partials sum back
to the full logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import FLOAT_FMT
from .errors import FormatError, NumericError, ShapeError
from .numkit import LayerParams, MlpCache, MlpParams, mlp_forward


@dataclass
class FusionModel:
    """Per-modality encoders plus a blocked linear head, over one flat buffer.

    ``head_blocks[i]`` has shape (H, d_phi_i) and multiplies encoder i's
    features; ``head_bias`` has shape (H,). ``arch`` records the per-modality
    layer sizes used at init, ``seed`` the init seed (both checkpoint
    metadata only).

    Every parameter array is a view into ``flat``, a float64 vector laid out
    as encoder 0's layers (weight, then bias), encoder 1's, ..., the head
    blocks, then the head bias; arrays passed in are copied into it. Change
    values in place, not by rebinding an array, so that ``flat`` keeps
    seeing them. A stacked model of R runs has ``flat`` of shape (R, P) and
    every array gains the same leading run axis.
    """

    encoders: list[MlpParams]
    head_blocks: list[np.ndarray]
    head_bias: np.ndarray
    arch: tuple[tuple[int, ...], ...]
    seed: int
    flat: np.ndarray | None = None

    def __post_init__(self):
        if len(self.encoders) != len(self.head_blocks):
            raise ShapeError("one head block per encoder required")
        h = self.head_bias.shape[-1]
        if h < 2:
            raise ShapeError(f"need at least 2 classes, got {h}")
        for i, (enc, blk) in enumerate(zip(self.encoders, self.head_blocks)):
            if blk.shape[-2:] != (h, enc.output_dim):
                raise ShapeError(
                    f"head block {i} has shape {blk.shape}, expected ({h}, {enc.output_dim})"
                )
        if self.flat is None:
            lead = self.head_bias.shape[:-1]
            arrays = [a for enc in self.encoders for l in enc.layers for a in (l.weight, l.bias)]
            arrays += [*self.head_blocks, self.head_bias]
            flat = np.concatenate([a.reshape(lead + (-1,)) for a in arrays], axis=-1)
            self.encoders, self.head_blocks, self.head_bias = _views(flat, self.layout())
            self.flat = flat

    def layout(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """Per-encoder layer weight shapes and the class count: what fixes ``flat``."""
        layers = tuple(tuple(l.weight.shape[-2:] for l in e.layers) for e in self.encoders)
        return layers, self.num_classes

    @property
    def num_modalities(self) -> int:
        return len(self.encoders)

    @property
    def num_classes(self) -> int:
        return int(self.head_bias.shape[-1])

    def encoder_span(self, i: int) -> slice:
        """Where encoder i's parameters sit along the last axis of ``flat``."""
        sizes = [sum(d_out * (d_in + 1) for d_out, d_in in enc) for enc in self.layout()[0]]
        return slice(sum(sizes[:i]), sum(sizes[: i + 1]))

    def like(self, flat: np.ndarray) -> "FusionModel":
        """A model with this layout and metadata whose arrays view ``flat``.

        ``flat`` may have other leading run axes than ``self.flat``:
        ``stack.like(stack.flat[r])`` is run r of a stacked model, and
        ``model.like(grads)`` lays a gradient buffer out as parameters.
        """
        encoders, head_blocks, head_bias = _views(flat, self.layout())
        return FusionModel(encoders, head_blocks, head_bias, self.arch, self.seed, flat)

    def copy(self) -> "FusionModel":
        return self.like(self.flat.copy())


def _views(flat: np.ndarray, layout) -> tuple[list[MlpParams], list[np.ndarray], np.ndarray]:
    """Encoders, head blocks and head bias as views into ``flat``."""
    enc_layers, h = layout
    lead = flat.shape[:-1]
    start = 0

    def take(*shape: int) -> np.ndarray:
        nonlocal start
        size = int(np.prod(shape))
        view = flat[..., start:start + size].reshape(lead + shape)
        start += size
        return view

    encoders = [
        MlpParams([LayerParams(take(d_out, d_in), take(d_out)) for d_out, d_in in layers])
        for layers in enc_layers
    ]
    head_blocks = [take(h, layers[-1][0]) for layers in enc_layers]
    head_bias = take(h)
    if start != flat.shape[-1]:
        raise ShapeError(f"flat buffer has {flat.shape[-1]} values, the layout needs {start}")
    return encoders, head_blocks, head_bias


@dataclass
class ForwardCache:
    """Everything one forward pass computed.

    ``features[i]`` is the (possibly hook-transformed) encoder output used
    for the logits. ``block_products[i]`` is ``features[i] @ head_blocks[i].T``,
    so ``logits = (head_bias + block_products[0]) + block_products[1] + ...``
    exactly as computed.
    """

    features: list[np.ndarray]
    enc_caches: list[MlpCache]
    block_products: list[np.ndarray]
    logits: np.ndarray


def init_model(
    arch: list[list[int]] | tuple[tuple[int, ...], ...], num_classes: int, seed: int
) -> FusionModel:
    """Seeded Glorot-uniform init: weights ~ U(-a, a) with a = sqrt(6/(fan_in+fan_out)).

    ``arch[i]`` lists encoder i's layer sizes from input dim to feature dim,
    e.g. ``[12, 16, 8]``. All biases start at zero. Draw order is fixed
    (encoder 0 layers, encoder 1 layers, ..., then head blocks), so equal
    seeds give equal models.
    """
    arch = tuple(tuple(int(s) for s in sizes) for sizes in arch)
    if num_classes < 2:
        raise ShapeError(f"need at least 2 classes, got {num_classes}")
    for sizes in arch:
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ShapeError(f"encoder arch {sizes} must chain at least two positive sizes")
    rng = np.random.default_rng(seed)

    def glorot(d_out: int, d_in: int) -> np.ndarray:
        a = np.sqrt(6.0 / (d_in + d_out))
        return rng.uniform(-a, a, size=(d_out, d_in))

    encoders = []
    for sizes in arch:
        layers = [
            LayerParams(glorot(sizes[t + 1], sizes[t]), np.zeros(sizes[t + 1]))
            for t in range(len(sizes) - 1)
        ]
        encoders.append(MlpParams(layers))
    head_blocks = [glorot(num_classes, sizes[-1]) for sizes in arch]
    head_bias = np.zeros(num_classes)
    return FusionModel(encoders, head_blocks, head_bias, arch, seed)


def forward(
    model: FusionModel,
    batch: list[np.ndarray],
    feature_hook=None,
    ledger=None,
) -> ForwardCache:
    """Forward pass over a batch (one feature matrix per modality).

    A stacked model takes a stacked batch, (R, B, d_i) per modality.
    ``feature_hook``, when given, maps the list of encoder outputs
    to a transformed list before the head (used by feed-forward balancing
    methods during training). ``ledger`` is an optional FlopsLedger that
    records the matmul work.
    """
    m = model.num_modalities
    if len(batch) != m:
        raise ShapeError(f"batch has {len(batch)} modalities, model expects {m}")
    lead_n = batch[0].shape[:-1]
    n = lead_n[-1]
    for i, x in enumerate(batch):
        if x.ndim < 2 or x.shape[:-1] != lead_n:
            raise ShapeError(f"modality {i} batch must be ({n}, d), got {x.shape}")

    features: list[np.ndarray] = []
    enc_caches: list[MlpCache] = []
    for i in range(m):
        phi, cache = mlp_forward(model.encoders[i], batch[i])
        if ledger is not None:
            for layer in model.encoders[i].layers:
                d_out, d_in = layer.weight.shape[-2:]
                ledger.record("matmul_forward", (n, d_in, d_out), bias=True)
                ledger.record("elementwise", n * d_out)  # activation
        features.append(phi)
        enc_caches.append(cache)
    if feature_hook is not None:
        features = feature_hook(features)

    block_products = []
    h = model.num_classes
    for i in range(m):
        block_products.append(features[i] @ model.head_blocks[i].swapaxes(-1, -2))
        if ledger is not None:
            ledger.record("matmul_forward", (n, features[i].shape[-1], h))
            ledger.record("elementwise", n * h)  # accumulate into logits
    # (bias + p_0) + p_1 + ...: accumulated in modality order
    logits = block_products[0] + model.head_bias[..., None, :]
    for p in block_products[1:]:
        logits += p
    if not np.all(np.isfinite(logits)):
        raise NumericError("forward produced non-finite logits")
    return ForwardCache(features, enc_caches, block_products, logits)


def partial_logits(model: FusionModel, cache: ForwardCache, i: int) -> np.ndarray:
    """Modality i's additive share of the logits: ``W_i phi_i + b/m``."""
    return cache.block_products[i] + (model.head_bias / model.num_modalities)[..., None, :]


def predict(logits: np.ndarray) -> np.ndarray:
    """Row-wise argmax; ties break toward the lowest class index."""
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits")
    if logits.ndim < 2 or logits.shape[-1] < 2:
        raise ShapeError(f"logits must be (B, H>=2), got {logits.shape}")
    return logits.argmax(axis=-1)


def save_model(model: FusionModel, path) -> None:
    """Write a checkpoint in the MMCK v1 text format (bitwise round-trip)."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("MMCK v1\n")
        arch = ";".join(",".join(str(s) for s in sizes) for sizes in model.arch)
        fh.write(
            f"m={model.num_modalities} H={model.num_classes} seed={model.seed} arch={arch}\n"
        )

        def block(name: str, arr: np.ndarray):
            shape = "x".join(str(s) for s in arr.shape)
            fh.write(f"{name} {shape}\n")
            fh.write(" ".join(FLOAT_FMT % v for v in arr.reshape(-1)) + "\n")

        for i, enc in enumerate(model.encoders):
            for t, layer in enumerate(enc.layers):
                block(f"enc{i}.layer{t}.weight", layer.weight)
                block(f"enc{i}.layer{t}.bias", layer.bias)
        for i, blk in enumerate(model.head_blocks):
            block(f"head{i}", blk)
        block("bias", model.head_bias)


def load_model(path) -> FusionModel:
    """Read an MMCK v1 checkpoint written by :func:`save_model`."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "MMCK v1":
        raise FormatError("bad magic, expected 'MMCK v1'", line=1)
    if len(lines) < 2:
        raise FormatError("missing header", line=2)
    header = dict(tok.split("=", 1) for tok in lines[1].split() if "=" in tok)
    try:
        m = int(header["m"])
        num_classes = int(header["H"])
        seed = int(header["seed"])
        arch = tuple(
            tuple(int(s) for s in sizes.split(",")) for sizes in header["arch"].split(";")
        )
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header: {exc}", line=2) from None
    if len(arch) != m:
        raise FormatError(f"arch lists {len(arch)} encoders for m={m}", line=2)

    blocks: dict[str, np.ndarray] = {}
    k = 2
    while k < len(lines):
        if k + 1 >= len(lines):
            raise FormatError("block header without values", line=k + 1)
        try:
            name, shape_s = lines[k].split()
            shape = tuple(int(s) for s in shape_s.split("x"))
            vals = np.array([float(v) for v in lines[k + 1].split()], dtype=np.float64)
            blocks[name] = vals.reshape(shape)
        except ValueError as exc:
            raise FormatError(f"bad block: {exc}", line=k + 1) from None
        k += 2

    try:
        encoders = []
        for i, sizes in enumerate(arch):
            layers = [
                LayerParams(
                    blocks[f"enc{i}.layer{t}.weight"], blocks[f"enc{i}.layer{t}.bias"]
                )
                for t in range(len(sizes) - 1)
            ]
            encoders.append(MlpParams(layers))
        head_blocks = [blocks[f"head{i}"] for i in range(m)]
        head_bias = blocks["bias"]
    except KeyError as exc:
        raise FormatError(f"missing block {exc}") from None
    model = FusionModel(encoders, head_blocks, head_bias, arch, seed)
    if model.num_classes != num_classes:
        raise FormatError(f"bias has {model.num_classes} classes, header says {num_classes}")
    return model
