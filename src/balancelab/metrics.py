"""Performance, Shapley-based modality contribution, and FLOPs accounting.

A model's reading on a dataset is one ``Evaluation`` from one forward pass:
accuracy and macro-F1 (``evaluate_performance``), plus, from ``shapley``,
every subset value, the contributions and the imbalance index. Validation
reads accuracy alone (``evaluate_accuracy``).

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
class Evaluation:
    """One reading of a model on a dataset; the subset fields are None unless from ``shapley``."""

    accuracy: float
    macro_f1: float
    subset_values: dict[frozenset[int], float] | None = None
    phi: tuple[float, ...] | None = None
    imbalance: float | None = None


def _scores(logits: np.ndarray, data: Dataset) -> tuple[float, float]:
    """Accuracy and macro-F1 of the predictions ``logits`` give for ``data``."""
    preds = fusion.predict(logits)
    return accuracy(preds, data.labels), macro_f1(preds, data.labels, data.num_classes)


def evaluate_accuracy(model: FusionModel, data: Dataset) -> float:
    """Accuracy alone, from one forward pass; validation reads this each epoch."""
    return accuracy(fusion.predict(fusion.forward(model, data.features).logits), data.labels)


def evaluate_performance(model: FusionModel, data: Dataset) -> Evaluation:
    """Accuracy and macro-F1 from one forward pass."""
    return Evaluation(*_scores(fusion.forward(model, data.features).logits, data))


def _subset_accuracy(model: FusionModel, cache: ForwardCache, labels: np.ndarray,
                     kept) -> float:
    """v(A) for the modality indices ``kept`` (ascending) from an unmasked pass."""
    logits = np.broadcast_to(model.head_bias, cache.logits.shape)
    for n, i in enumerate(kept):  # the first sum makes the one array the others add into
        logits = np.add(logits, cache.block_products[i], out=logits if n else None)
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


def shapley(model: FusionModel, data: Dataset) -> Evaluation:
    """The whole reading of a model on ``data`` from one forward pass.

    Accuracy and macro-F1 as ``evaluate_performance`` gives them, v for
    every one of the 2^m subsets (v of the full set is the accuracy), the
    contributions averaged over all orderings, and the imbalance index.
    """
    m = model.num_modalities
    if m not in (2, 3):
        raise ContractError(f"shapley supports 2 or 3 modalities, got {m}")
    cache = fusion.forward(model, data.features)
    scores = _scores(cache.logits, data)
    values: dict[frozenset[int], float] = {}
    for bits in range((1 << m) - 1):  # the full set last, its v the accuracy just read
        kept = [i for i in range(m) if bits >> i & 1]
        values[frozenset(kept)] = _subset_accuracy(model, cache, data.labels, kept)
    values[frozenset(range(m))] = scores[0]
    phi = shapley_from_values(values, m)
    return Evaluation(*scores, values, phi, imbalance(phi))


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
