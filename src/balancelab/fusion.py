"""Concatenation-fusion multimodal classifier.

The model is m per-modality MLP encoders feeding one blocked linear head:
``logits = sum_i head_blocks[i] @ phi_i + head_bias``, which is exactly the
concatenation of encoder features through a single linear classifier. The
blocked form keeps each modality's additive share of the logits explicit.
Partial logits carry ``head_bias / m`` so the per-modality partials sum back
to the full logits; in logit space the m modalities are one array axis.
A forward pass is :func:`encode` then :func:`head`; training transforms
features between the two, only those of the modalities a transform touched.

A model's shape is its ``arch`` and class count. They fix the one list of
parameter blocks (``_blocks``) that lays out the flat parameter buffer, the
order :func:`init_model` draws weights in, and the blocks of a checkpoint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datagen import FLOAT_FMT, header_fields
from .errors import FormatError, NumericError, ShapeError
from .numkit import LayerParams, MlpCache, MlpParams, mlp_forward


def _blocks(arch, num_classes: int) -> list[tuple[str, tuple[int, ...], slice]]:
    """(checkpoint name, shape, span of ``flat``) of every parameter array, in ``flat`` order.

    The order is encoder 0's layers (weight, then bias), encoder 1's, ...,
    the head blocks, then the head bias.
    """
    shapes = []
    for i, sizes in enumerate(arch):
        for t, (d_in, d_out) in enumerate(zip(sizes, sizes[1:])):
            shapes += [(f"enc{i}.layer{t}.weight", (d_out, d_in)),
                       (f"enc{i}.layer{t}.bias", (d_out,))]
    shapes += [(f"head{i}", (num_classes, sizes[-1])) for i, sizes in enumerate(arch)]
    shapes.append(("bias", (num_classes,)))
    blocks, start = [], 0
    for name, shape in shapes:
        size = math.prod(shape)
        blocks.append((name, shape, slice(start, start + size)))
        start += size
    return blocks


def _checked_arch(arch, num_classes: int) -> tuple[tuple[int, ...], ...]:
    """``arch`` as int tuples, or a ShapeError if it or the class count fixes no model."""
    arch = tuple(tuple(int(s) for s in sizes) for sizes in arch)
    if num_classes < 2:
        raise ShapeError(f"need at least 2 classes, got {num_classes}")
    for sizes in arch:
        if len(sizes) < 2 or min(sizes) < 1:
            raise ShapeError(f"encoder arch {sizes} must chain at least two positive sizes")
    return arch


@dataclass
class FusionModel:
    """Per-modality encoders plus a blocked linear head, over one flat buffer.

    ``arch[i]`` lists encoder i's layer sizes from input dim to feature dim,
    e.g. ``(12, 24, 4)``; with ``num_classes`` H it fixes every array's
    shape. ``seed`` records the init seed (checkpoint metadata only).
    ``flat`` holds every parameter, laid out as ``_blocks`` lists them; it
    defaults to zeros. ``encoders``, ``head_blocks`` (``head_blocks[i]`` is
    (H, d_phi_i) and multiplies encoder i's features) and ``head_bias``
    ((H,)) are views into it: change values in place, not by rebinding an
    array, so that ``flat`` keeps seeing them. A stacked model of R runs has
    ``flat`` of shape (R, P) and every array gains the same leading run axis.
    """

    arch: tuple[tuple[int, ...], ...]
    num_classes: int
    seed: int
    flat: np.ndarray | None = None
    encoders: list[MlpParams] = field(init=False, repr=False)
    head_blocks: list[np.ndarray] = field(init=False, repr=False)
    head_bias: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.arch = _checked_arch(self.arch, self.num_classes)
        blocks = _blocks(self.arch, self.num_classes)
        size = blocks[-1][2].stop
        if self.flat is None:
            self.flat = np.zeros(size)
        if self.flat.shape[-1] != size:
            raise ShapeError(f"flat buffer has {self.flat.shape[-1]} values, the layout needs {size}")
        lead = self.flat.shape[:-1]
        views = iter(self.flat[..., span].reshape(lead + shape) for _, shape, span in blocks)
        self.encoders = [MlpParams([LayerParams(next(views), next(views)) for _ in sizes[1:]])
                         for sizes in self.arch]
        self.head_blocks = [next(views) for _ in self.arch]
        self.head_bias = next(views)

    @property
    def num_modalities(self) -> int:
        return len(self.arch)

    def encoder_span(self, i: int) -> slice:
        """Where encoder i's parameters sit along the last axis of ``flat``."""
        spans = [span for name, _, span in _blocks(self.arch, self.num_classes)
                 if name.startswith(f"enc{i}.")]
        return slice(spans[0].start, spans[-1].stop)

    def like(self, flat: np.ndarray) -> "FusionModel":
        """A model with this layout and metadata whose arrays view ``flat``.

        ``flat`` may have other leading run axes than ``self.flat``:
        ``stack.like(stack.flat[r])`` is run r of a stacked model, and
        ``model.like(grads)`` lays a gradient buffer out as parameters.
        """
        return FusionModel(self.arch, self.num_classes, self.seed, flat)

    def copy(self) -> "FusionModel":
        return self.like(self.flat.copy())


@dataclass
class ForwardCache:
    """Everything one forward pass computed.

    ``features[i]`` is what the head read (in training, after any transform
    of modality i). ``block_products`` stacks ``features[i] @ head_blocks[i].T``
    over i into one (m, ..., B, H) array, so ``logits = (head_bias +
    block_products[0]) + block_products[1] + ...`` exactly as computed.
    """

    features: list[np.ndarray]
    enc_caches: list[MlpCache]
    block_products: np.ndarray
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
    model = FusionModel(arch, num_classes, seed)
    rng = np.random.default_rng(seed)
    for weight in [l.weight for enc in model.encoders for l in enc.layers] + model.head_blocks:
        d_out, d_in = weight.shape
        a = np.sqrt(6.0 / (d_in + d_out))
        weight[:] = rng.uniform(-a, a, size=(d_out, d_in))
    return model


def encode(model: FusionModel, batch: list[np.ndarray]) -> tuple[list[np.ndarray], list[MlpCache]]:
    """Each encoder's features for a batch (one matrix per modality), and its cache.

    A stacked model takes a stacked batch, (R, B, d_i) per modality.
    ``features[i]`` is ``enc_caches[i].output`` itself, the one pre-activation
    the cache keeps (hidden layers are rectified in place), so copy it before
    changing it. Its FLOPs are :func:`charge_forward`'s.
    """
    m = model.num_modalities
    if len(batch) != m:
        raise ShapeError(f"batch has {len(batch)} modalities, model expects {m}")
    lead_n = batch[0].shape[:-1]
    for i, x in enumerate(batch):
        if x.ndim < 2 or x.shape[:-1] != lead_n:
            raise ShapeError(f"modality {i} batch must be (B, d) as modality 0's, got {x.shape}")
    passes = [mlp_forward(enc, x) for enc, x in zip(model.encoders, batch)]
    return [phi for phi, _ in passes], [cache for _, cache in passes]


def head(model: FusionModel, features: list[np.ndarray],
         enc_caches: list[MlpCache]) -> ForwardCache:
    """The blocked linear head over ``features``, and the cache of the whole pass."""
    m, h = model.num_modalities, model.num_classes
    block_products = np.empty((m,) + features[0].shape[:-1] + (h,))
    for i in range(m):
        np.matmul(features[i], model.head_blocks[i].swapaxes(-1, -2), out=block_products[i])
    # (bias + p_0) + p_1 + ...: accumulated in modality order
    logits = block_products[0] + model.head_bias[..., None, :]
    for p in block_products[1:]:
        logits += p
    if not np.all(np.isfinite(logits)):
        raise NumericError("forward produced non-finite logits")
    return ForwardCache(features, enc_caches, block_products, logits)


def forward(model: FusionModel, batch: list[np.ndarray]) -> ForwardCache:
    """:func:`head` of :func:`encode`, each looked up per call, as a tracer may swap them."""
    return head(model, *encode(model, batch))


def charge_forward(model: FusionModel, n: int, ledger) -> None:
    """Record in ``ledger`` one run's FLOPs of :func:`forward` over n rows.

    Any object with ``FlopsLedger``'s ``record`` will do, such as the
    trainer's list of several runs' ledgers, each of which it charges.
    """
    for layer in [l for enc in model.encoders for l in enc.layers]:
        d_out, d_in = layer.weight.shape[-2:]
        ledger.record("matmul_forward", (n, d_in, d_out), bias=True)
        ledger.record("elementwise", n * d_out)  # activation
    for blk in model.head_blocks:
        ledger.record("matmul_forward", (n, blk.shape[-1], model.num_classes))
        ledger.record("elementwise", n * model.num_classes)  # accumulate into logits


def partial_logits(model: FusionModel, cache: ForwardCache) -> np.ndarray:
    """Every modality's share of the logits, ``W_i phi_i + b/m``, stacked (m, ..., B, H)."""
    return cache.block_products + (model.head_bias / model.num_modalities)[..., None, :]


def predict(logits: np.ndarray) -> np.ndarray:
    """Row-wise argmax; ties break toward the lowest class index."""
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits")
    if logits.ndim < 2 or logits.shape[-1] < 2:
        raise ShapeError(f"logits must be (B, H>=2), got {logits.shape}")
    return logits.argmax(axis=-1)


def save_model(model: FusionModel, path) -> None:
    """Write a checkpoint in the MMCK v1 text format (bitwise round-trip).

    After the two header lines, each block of ``_blocks`` takes two lines in
    ``flat`` order: its name and shape (``enc0.layer0.weight 24x12``), then
    its values.
    """
    with open(path, "w", encoding="ascii") as fh:
        fh.write("MMCK v1\n")
        arch = ";".join(",".join(str(s) for s in sizes) for sizes in model.arch)
        fh.write(
            f"m={model.num_modalities} H={model.num_classes} seed={model.seed} arch={arch}\n"
        )
        for name, shape, span in _blocks(model.arch, model.num_classes):
            fh.write(f"{name} {'x'.join(str(s) for s in shape)}\n")
            fh.write(" ".join(FLOAT_FMT % v for v in model.flat[span]) + "\n")


def load_model(path) -> FusionModel:
    """Read an MMCK v1 checkpoint written by :func:`save_model`.

    The blocks must be exactly those :func:`save_model` writes for the
    header's arch and class count, in its order; any other block, shape or
    line is a FormatError naming its line.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "MMCK v1":
        raise FormatError("bad magic, expected 'MMCK v1'", line=1)
    if len(lines) < 2:
        raise FormatError("missing header", line=2)
    header = header_fields(lines[1])
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
    try:
        arch = _checked_arch(arch, num_classes)
    except ShapeError as exc:
        raise FormatError(f"bad header: {exc}", line=2) from None

    # Each block is read into its own array, so memory follows the file,
    # not the header's sizes.
    k, parts = 2, []
    for name, shape, span in _blocks(arch, num_classes):
        expected = f"{name} {'x'.join(str(s) for s in shape)}"
        got = lines[k] if k < len(lines) else "end of file"
        if got != expected:
            raise FormatError(f"expected block {expected!r}, got {got!r}", line=k + 1)
        size = span.stop - span.start
        try:
            values = np.array([float(v) for v in lines[k + 1].split()])
        except (IndexError, ValueError) as exc:
            raise FormatError(f"block {name} needs {size} values: {exc}", line=k + 2) from None
        if values.size != size:
            raise FormatError(f"block {name} needs {size} values, got {values.size}",
                              line=k + 2)
        parts.append(values)
        k += 2
    if k < len(lines):
        raise FormatError(f"unexpected line after the last block: {lines[k]!r}", line=k + 1)
    return FusionModel(arch, num_classes, seed, np.concatenate(parts))
