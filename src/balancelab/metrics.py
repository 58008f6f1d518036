"""Performance, Shapley-based modality contribution, and FLOPs accounting.

The value function v(A) is the masked-evaluation accuracy of the model when
only the modalities in subset A are active: the features of every other
modality are zeroed, so v on the empty set is the accuracy of the pure bias
predictor. The head is linear in each modality's features, so a zeroed
modality adds an exact zero block to the logits. v(A) is therefore read from
one unmasked forward pass as the argmax of ``head_bias + sum_{i in A}
block_products[i]``, added in modality order as ``fusion.forward`` adds
them, which reproduces the masked logits bit for bit; all 2^m values cost
one forward pass.

Modality contributions phi_i average the marginal gain v(S + i) - v(S) over
all orderings of modality inclusion; the imbalance index is the mean
absolute pairwise difference of the phi (plain |phi_1 - phi_2| for two
modalities). With accuracy-valued v the index lies in [0, 1], is 0 exactly
when contributions are equal, and is invariant to relabeling modalities.

FLOPs conventions (fixed, so totals are reproducible; each is linear in its pass's rows):

- forward matmul (p, q) x (q, r): ``2pqr`` plus ``pr`` when a bias is added
  (one multiply-add = 2 FLOPs);
- its backward: ``4pqr`` (two matmuls);
- elementwise work: 1 FLOP per element;
- softmax plus cross-entropy: 5 FLOPs per logit;
- an optimizer update: 6 FLOPs per parameter.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import fusion
from .datagen import Dataset
from .errors import ContractError
from .fusion import ForwardCache, FusionModel


def accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of predictions equal to the labels."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape or preds.size == 0:
        raise ContractError(
            f"need equal non-empty prediction/label arrays, got {preds.shape} and {labels.shape}"
        )
    return float(np.mean(preds == labels))


def macro_f1(preds: np.ndarray, labels: np.ndarray, num_classes: int) -> float:
    """Unweighted mean over classes of the per-class F1 score.

    A class with zero precision+recall contributes an F1 of 0.
    """
    if num_classes < 2:
        raise ContractError(f"need at least 2 classes, got {num_classes}")
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:  # the counts below would broadcast one against the other
        raise ContractError(
            f"need equal prediction/label shapes, got {preds.shape} and {labels.shape}")
    for name, values in (("labels", labels), ("predictions", preds)):
        if values.size and (values.min() < 0 or values.max() >= num_classes):
            raise ContractError(f"{name} outside 0..H-1")
    # counts with true classes on rows and predictions on columns
    cm = np.bincount(labels * num_classes + preds, minlength=num_classes * num_classes)
    cm = cm.reshape(num_classes, num_classes).astype(np.float64)
    tp = np.diag(cm)
    predicted = cm.sum(axis=0)
    actual = cm.sum(axis=1)
    f1 = np.zeros(num_classes)
    denom = predicted + actual  # 2*TP + FP + FN
    nz = denom > 0
    f1[nz] = 2.0 * tp[nz] / denom[nz]
    return float(f1.mean())


@dataclass
class PerfReport:
    accuracy: float
    macro_f1: float


def evaluate_performance(model: FusionModel, data: Dataset) -> PerfReport:
    cache = fusion.forward(model, data.features)
    preds = fusion.predict(cache.logits)
    return PerfReport(
        accuracy(preds, data.labels),
        macro_f1(preds, data.labels, data.num_classes),
    )


def _subset_accuracy(model: FusionModel, cache: ForwardCache, labels: np.ndarray,
                     kept) -> float:
    """v(A) for the modality indices ``kept`` (ascending) from an unmasked pass."""
    logits = np.broadcast_to(model.head_bias, cache.logits.shape)
    for i in kept:
        logits = logits + cache.block_products[i]
    return accuracy(fusion.predict(logits), labels)


def value_function(model: FusionModel, data: Dataset, subset: tuple[bool, ...]) -> float:
    """Masked-evaluation accuracy using only the modalities flagged in ``subset``."""
    if data.num_samples == 0:
        raise ContractError("cannot evaluate on an empty dataset")
    if len(subset) != model.num_modalities:
        raise ContractError(
            f"subset length {len(subset)} does not match m={model.num_modalities}"
        )
    cache = fusion.forward(model, data.features)
    return _subset_accuracy(model, cache, data.labels, [i for i, on in enumerate(subset) if on])


@dataclass
class ShapleyReport:
    """Per-modality contributions, the full subset-value table, and the index."""

    phi: tuple[float, ...]
    subset_values: dict[frozenset[int], float]
    imbalance: float


def imbalance(phi) -> float:
    """Mean absolute pairwise difference of the contributions (2 or 3 of them)."""
    phi = tuple(float(p) for p in phi)
    if len(phi) not in (2, 3):
        raise ContractError(f"imbalance is defined for 2 or 3 modalities, got {len(phi)}")
    # fsum keeps the value invariant under modality relabeling
    return math.fsum(abs(a - b) for a, b in itertools.combinations(phi, 2)) / math.comb(len(phi), 2)


def shapley_from_values(values: dict[frozenset[int], float], m: int) -> tuple[float, ...]:
    """Average marginal contributions over all m! inclusion orderings.

    ``values`` must hold one entry per subset of range(m), including the
    empty set and the full set.
    """
    need = 1 << m
    if len(values) != need:
        raise ContractError(f"need all {need} subset values, got {len(values)}")
    marginals: list[list[float]] = [[] for _ in range(m)]
    for perm in itertools.permutations(range(m)):
        seen: set[int] = set()
        for i in perm:
            before = values[frozenset(seen)]
            seen.add(i)
            after = values[frozenset(seen)]
            marginals[i].append(after - before)
    # fsum makes each phi independent of enumeration order, so relabeling
    # modalities permutes the phi bit for bit
    scale = 1.0 / math.factorial(m)
    return tuple(math.fsum(ms) * scale for ms in marginals)


def shapley(model: FusionModel, data: Dataset) -> ShapleyReport:
    """Modality contributions on ``data`` via exhaustive masked evaluation.

    Evaluates v once per subset, all 2^m of them from one forward pass,
    before the permutation average.
    """
    m = model.num_modalities
    if m not in (2, 3):
        raise ContractError(f"shapley supports 2 or 3 modalities, got {m}")
    cache = fusion.forward(model, data.features)
    values: dict[frozenset[int], float] = {}
    for bits in range(1 << m):
        kept = [i for i in range(m) if bits >> i & 1]
        values[frozenset(kept)] = _subset_accuracy(model, cache, data.labels, kept)
    phi = shapley_from_values(values, m)
    return ShapleyReport(phi, values, imbalance(phi))


@dataclass
class FlopsLedger:
    """Monotone counter of floating-point operations by category."""

    forward_matmul: int = 0
    backward_matmul: int = 0
    elementwise: int = 0
    softmax_loss: int = 0

    @property
    def total(self) -> int:
        return self.forward_matmul + self.backward_matmul + self.elementwise + self.softmax_loss

    def record(self, kind: str, shape, bias: bool = False) -> "FlopsLedger":
        """Add one operation's cost.

        * ``matmul_forward`` with shape (p, q, r): 2pqr, plus pr if ``bias``;
        * ``matmul_backward`` with shape (p, q, r): 4pqr;
        * ``matmul`` with shape (p, q, r): 2pqr counted as backward-side work
          (used for extra gradient products);
        * ``elementwise`` with an element count: 1 per element;
        * ``softmax_loss`` with a logit count: 5 per logit.
        """
        if kind == "matmul_forward":
            p, q, r = shape
            self.forward_matmul += 2 * p * q * r
            if bias:
                self.forward_matmul += p * r
        elif kind == "matmul_backward":
            p, q, r = shape
            self.backward_matmul += 4 * p * q * r
        elif kind == "matmul":
            p, q, r = shape
            self.backward_matmul += 2 * p * q * r
        elif kind == "elementwise":
            self.elementwise += int(shape)
        elif kind == "softmax_loss":
            self.softmax_loss += 5 * int(shape)
        else:
            raise ContractError(f"unknown op kind {kind!r}")
        return self
