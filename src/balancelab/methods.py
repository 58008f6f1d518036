"""The balancing methods: one registry entry each, plus their hook functions.

``METHODS`` declares every method once: its strategy, its strength parameter
(default, valid range, neutral value) and the hooks it implements. Config
keys, sweepable parameters, table order and the trainer's dispatch are all
read from it. A setting is one ``MethodSpec(kind, value)``: a registry kind
and the strength of its parameter.

Every hook takes a stack of R runs along a leading run axis, as
``fusion.forward`` does, and ``value``, the (R,) array of their strengths;
a run's slice of a result is bitwise what the run alone (R = 1) gives.
``ledger`` is the ledgers of the runs the call serves, and one ``record``
of one run's work charges each of them. An objective records only its work
beyond the loss on the fused logits and the head backward, which every
objective has and the trainer charges once per epoch. ``trainer.fit`` calls
each hook once per group of runs that share it, per batch unless noted:

- ``objective(model, cache, labels, value, ledger) -> LossBundle`` replaces
  the plain cross-entropy;
- ``grad_scale(scores, value) -> kappa`` scales run r's encoder i gradients
  by ``kappa[r, i]``;
- ``feature_transform(features, scores, value, rngs) -> (factors, applied)``
  multiplies modality i's features and their gradient by ``factors[i]``
  (None: identity) in training, between ``fusion.encode`` and
  ``fusion.head``; only modalities with a factor are touched. Run r draws
  from ``rngs[r]``, and ``applied[r, i]`` marks what changed;
- ``sample_weights(model, data, value, ledger) -> weights``: (R, N)
  batch-sampler weights for the runs' train sets, per epoch;
- ``deploy(model) -> model``: what validation and evaluation see, per epoch.

Entries name their hooks by attribute of this module, and ``trainer.fit``
looks each up with ``Method.hook`` once per call, never at import, so code
that swaps a module attribute (a tracer, a test's counting wrapper) sees
every call. A strength is range-checked once, when its ``MethodSpec`` is
built; the hooks trust the values they are given.

Dominance is always judged by the trainer's running modality score (the
exponentially smoothed batch-mean true-class probability of each modality's
partial logits); ties go to the lowest modality index. Every method's
strength parameter has a neutral value at which the trainer short-circuits
to the exact baseline path, except the cosine objective, which has no off
switch (its scale must be positive).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import fusion
from .datagen import Dataset
from .errors import SpecError
from .fusion import ForwardCache, FusionModel
from .metrics import FlopsLedger
from .trainer import LossBundle, assemble_grads, cross_entropy, true_class_probs


@dataclass(frozen=True)
class Method:
    """One registry entry: a balancing method and the hooks it implements.

    ``param`` is the method's strength parameter, valid in ``[low, high]``
    (``(low, high]`` when ``low_open``); ``neutral`` is the value at which
    training is exactly baseline (None: no such value). Hook fields hold the
    name of a function in this module, or None.
    """

    name: str
    category: str
    param: str | None = None
    default: float | None = None
    low: float = 0.0
    high: float = math.inf
    low_open: bool = False
    neutral: float | None = None
    objective: str | None = None
    grad_scale: str | None = None
    feature_transform: str | None = None
    sample_weights: str | None = None
    deploy: str | None = None

    def check(self, value: float) -> None:
        """Raise SpecError unless the strength ``value`` is in range."""
        above = value > self.low if self.low_open else value >= self.low
        if not (above and value <= self.high):
            bounds = f"{'(' if self.low_open else '['}{self.low:g}, {self.high:g}]"
            raise SpecError(f"{self.param} must be in {bounds}, got {value}")

    def hook(self, field: str):
        """The function this module binds, now, to the hook named in ``field`` (None: no hook)."""
        name = getattr(self, field)
        return None if name is None else globals()[name]


# Grouped by strategy in comparison-table order: baseline, objective,
# optimization, feed-forward, data.
METHODS = {m.name: m for m in (
    Method("baseline", "baseline"),
    # conflict projection after MMPareto (Wei & Hu, ICML 2024)
    Method("unimodal_blend", "objective", "w_uni", 1.0, neutral=0.0,
           objective="unimodal_blend_loss"),
    Method("cosine", "objective", "scale", 4.0, low_open=True,
           objective="cosine_objective", deploy="cosine_deploy"),
    Method("kl_align", "objective", "kl_weight", 0.5, neutral=0.0,
           objective="kl_align_loss"),
    # OGM-GE's gradient modulation (Peng et al., CVPR 2022)
    Method("gradmod", "optimization", "alpha", 1.0, neutral=0.0,
           grad_scale="grad_modulation"),
    Method("feature_mask", "feed-forward", "rho_mask", 0.2, high=1.0, neutral=0.0,
           feature_transform="feature_mask"),
    # after OPM's on-the-fly modality dropping (Wei et al., TPAMI 2024)
    Method("feature_drop", "feed-forward", "p_max", 0.3, high=1.0, neutral=0.0,
           feature_transform="feature_drop"),
    # after sample-level modality valuation (Wei et al., CVPR 2024)
    Method("resample", "data", "tau", 0.5, low_open=True, neutral=math.inf,
           sample_weights="resample_weights"),
)}

_COS_EPS = 1e-12


@dataclass(frozen=True)
class MethodSpec:
    """Which balancing method is active, and its strength.

    ``MethodSpec("gradmod", 2.0)``: ``value`` is the strength of ``kind``'s
    registry parameter, range-checked against that entry; None takes the
    registry default. Baseline has no parameter, so its value stays None.
    """

    kind: str = "baseline"
    value: float | None = None

    def __post_init__(self):
        if self.kind not in METHODS:
            raise SpecError(
                f"unknown method kind {self.kind!r}, choose from {', '.join(METHODS)}"
            )
        if self.value is None:
            object.__setattr__(self, "value", self.method.default)
        elif self.method.param is None:
            raise SpecError(f"method {self.kind} has no parameter, got value {self.value}")
        else:
            self.method.check(self.value)

    @property
    def method(self) -> Method:
        return METHODS[self.kind]

    def is_neutral(self) -> bool:
        """True when the value is the entry's do-nothing value (baseline's is None)."""
        return self.value == self.method.neutral

    def active(self) -> Method:
        """The entry whose hooks training runs: baseline's when neutral."""
        return METHODS["baseline"] if self.is_neutral() else self.method


# ---------------------------------------------------------------------------
# objective hooks


def unimodal_blend_loss(
    model: FusionModel,
    cache: ForwardCache,
    labels: np.ndarray,
    w_uni: np.ndarray,
    ledger: FlopsLedger,
) -> LossBundle:
    """Multimodal loss plus weighted unimodal losses with a conflict guard.

    The total is ``L_mm + w_uni * sum_i L_uni_i`` where ``L_uni_i`` is
    cross-entropy on modality i's partial logits. If a unimodal term's
    head-block gradient points against the multimodal one (negative Frobenius
    inner product), its component along the multimodal direction is removed
    before the two are summed, so the blended update never undoes the
    multimodal step on that block.
    """
    m = model.num_modalities
    n, h = cache.logits.shape[-2:]
    loss, g_mm = cross_entropy(cache.logits, labels)
    loss_uni, g_uni = cross_entropy(fusion.partial_logits(model, cache),
                                    np.broadcast_to(labels, (m,) + labels.shape))
    g_uni *= w_uni[:, None, None]
    ledger.record("softmax_loss", m * n * h)  # the unimodal losses

    head_grads: list[np.ndarray] = []
    feature_grads: list[np.ndarray] = []
    bias_grad = g_mm.sum(axis=-2)
    for i, g_i in enumerate(g_uni):
        loss += w_uni * loss_uni[i]

        gw_mm = g_mm.swapaxes(-1, -2) @ cache.features[i]
        gw_uni = g_i.swapaxes(-1, -2) @ cache.features[i]
        # per-run Frobenius inner products, as a stacked matmul: bitwise np.vdot's
        col_mm = gw_mm.reshape(len(w_uni), -1, 1)
        inner = (gw_uni.reshape(len(w_uni), 1, -1) @ col_mm)[:, 0, 0]
        norm_sq = (gw_mm.reshape(len(w_uni), 1, -1) @ col_mm)[:, 0, 0]
        # touch only the runs the guard fires for: x - 0 * y can flip a zero's sign
        fire = (inner < 0.0) & (norm_sq > 0.0)
        if fire.any():
            gw_uni[fire] -= (inner[fire] / norm_sq[fire])[:, None, None] * gw_mm[fire]
        head_grads.append(gw_mm + gw_uni)
        feature_grads.append((g_mm + g_i) @ model.head_blocks[i])
        bias_grad = bias_grad + g_i.sum(axis=-2) / m
        d = cache.features[i].shape[-1]
        ledger.record("matmul", (n, d, h))       # dW(uni), separate for the guard
        ledger.record("elementwise", 4 * d * h)  # inner products + projection
    return LossBundle(loss, head_grads, bias_grad, feature_grads)


def cosine_objective(
    model: FusionModel,
    cache: ForwardCache,
    labels: np.ndarray,
    scale: np.ndarray,
    ledger: FlopsLedger,
) -> LossBundle:
    """Cross-entropy on the cosine logits, with exact gradients.

    The head bias receives no gradient (the cosine logits do not use it);
    weight decay still applies to it in the optimizer.
    """
    m = model.num_modalities
    n, h = cache.logits.shape[-2:]
    per_mod = []
    logits = np.zeros(cache.logits.shape)
    for i in range(m):
        w = model.head_blocks[i]
        phi = cache.features[i]
        wnorm = np.linalg.norm(w, axis=-1)
        fnorm = np.linalg.norm(phi, axis=-1)
        wn = np.maximum(wnorm, _COS_EPS)
        fn = np.maximum(fnorm, _COS_EPS)
        cos = (phi @ w.swapaxes(-1, -2)) / (fn[..., :, None] * wn[..., None, :])
        per_mod.append((w, phi, wn, fn, wnorm > _COS_EPS, fnorm > _COS_EPS, cos))
        logits += cos
    logits *= scale[:, None, None]

    loss, g = cross_entropy(logits, labels)
    head_grads = []
    feature_grads = []
    for i in range(m):
        w, phi, wn, fn, w_live, f_live, cos = per_mod[i]
        gc = scale[:, None, None] * g       # dL/dcos for this modality
        a = gc * cos
        g_over_fn = gc / fn[..., None]
        w_over_wn = w / wn[..., None]
        dphi = g_over_fn @ w_over_wn
        self_f = (a.sum(axis=-1) / fn**2) * f_live
        dphi -= self_f[..., None] * phi
        dw = (g_over_fn.swapaxes(-1, -2) @ phi) / wn[..., None]
        self_w = (a.sum(axis=-2) / wn**2) * w_live
        dw -= self_w[..., None] * w
        head_grads.append(dw)
        feature_grads.append(dphi)
        d = phi.shape[-1]
        ledger.record("matmul_forward", (n, d, h))  # cos products
        ledger.record("elementwise", n * d + h * d + 3 * n * h)  # norms + scaling
        ledger.record("elementwise", 2 * (n * d + h * d))  # self terms
    return LossBundle(loss, head_grads, np.zeros(model.head_bias.shape), feature_grads)


def cosine_deploy(model: FusionModel) -> FusionModel:
    """Deployment form of a cosine-trained model.

    Cosine training constrains directions, not magnitudes, and never uses
    the head bias. Normalizing each head row (and zeroing the bias) bakes
    the learned directions into an ordinary linear head so that standard
    masked evaluation ranks classes the way the cosine objective trained
    them to be ranked.
    """
    out = model.copy()
    for blk in out.head_blocks:
        norms = np.maximum(np.linalg.norm(blk, axis=-1, keepdims=True), _COS_EPS)
        blk /= norms
    out.head_bias[...] = 0.0
    return out


def kl_align_loss(
    model: FusionModel,
    cache: ForwardCache,
    labels: np.ndarray,
    kl_weight: np.ndarray,
    ledger: FlopsLedger,
) -> LossBundle:
    """Cross-entropy plus a symmetric KL alignment of partial predictions.

    The addend is ``kl_weight * mean_batch sum_{i<j} [KL(p_i||p_j) +
    KL(p_j||p_i)]`` with ``p_i`` the softmax of modality i's partial logits;
    gradients flow into both operands of every divergence.
    """
    m = model.num_modalities
    n, h = cache.logits.shape[-2:]
    loss, g_mm = cross_entropy(cache.logits, labels)

    zs = fusion.partial_logits(model, cache)
    zs -= zs.max(axis=-1, keepdims=True)
    logps = zs - np.log(np.exp(zs).sum(axis=-1, keepdims=True))
    probs = np.exp(logps)
    ledger.record("softmax_loss", m * n * h)

    dz = np.zeros(logps.shape)
    addend = np.zeros(kl_weight.shape)
    for i in range(m):
        for j in range(i + 1, m):
            s = logps[i] - logps[j]
            kl_ij = (probs[i] * s).sum(axis=-1)
            kl_ji = -(probs[j] * s).sum(axis=-1)
            addend += kl_ij.mean(axis=-1) + kl_ji.mean(axis=-1)
            dz[i] += probs[i] * (s - kl_ij[..., None]) + (probs[i] - probs[j])
            dz[j] += probs[j] * (-s - kl_ji[..., None]) + (probs[j] - probs[i])
            ledger.record("elementwise", 10 * n * h)
    partial_grads = (kl_weight / n)[:, None, None] * dz
    loss += kl_weight * addend

    head_grads, bias_grad, feature_grads = assemble_grads(model, cache, g_mm, partial_grads)
    return LossBundle(loss, head_grads, bias_grad, feature_grads)


# ---------------------------------------------------------------------------
# optimization hook


def _score_ratio(scores) -> np.ndarray:
    """Each modality's running score over the mean of the other modalities' scores."""
    s = np.asarray(scores, dtype=np.float64)
    return s / ((s.sum(axis=-1, keepdims=True) - s) / (s.shape[-1] - 1))


def grad_modulation(scores, alpha: np.ndarray) -> np.ndarray:
    """Slow-down coefficients for encoders of better-performing modalities.

    For modality i with score ratio ``rho_i = score_i / mean(others)``, the
    coefficient is ``1 - tanh(alpha * (rho_i - 1))`` when ``rho_i > 1`` and
    1 otherwise. Coefficients lie in (0, 1]: the mathematical value is always
    positive, and a floor of 1e-12 keeps it so where tanh saturates to 1.0 in
    float64. Only encoders are rescaled; the head keeps its full gradient.
    """
    rho = _score_ratio(scores)
    x = alpha[:, None] * (rho - 1.0)
    # math.tanh per element: np.tanh rounds differently on some inputs
    tanh = np.array([math.tanh(v) for v in x.ravel().tolist()]).reshape(x.shape)
    return np.where(rho > 1.0, np.maximum(1.0 - tanh, 1e-12), 1.0)


# ---------------------------------------------------------------------------
# feed-forward hooks


def feature_mask(
    features: list[np.ndarray], scores, rho_mask: np.ndarray, rngs: list[np.random.Generator]
) -> tuple[list[np.ndarray | None], np.ndarray]:
    """Zero a random fraction of the dominant modality's feature coordinates.

    Only each run's highest-running-score modality is touched; its zeroed
    subset (ceil(rho_mask * d) coordinates) is redrawn per batch from the
    run's generator in ``rngs``.
    """
    dom = np.argmax(scores, axis=-1)
    factors: list[np.ndarray | None] = [None] * len(features)
    applied = np.zeros((len(rngs), len(features)), dtype=bool)
    for r in np.flatnonzero(rho_mask != 0.0):
        i = dom[r]
        runs, _, d = features[i].shape
        coords = rngs[r].choice(d, size=int(np.ceil(rho_mask[r] * d)), replace=False)
        if factors[i] is None:
            factors[i] = np.ones((runs, 1, d))
        factors[i][r, 0, coords] = 0.0
        applied[r, i] = True
    return factors, applied


def feature_drop(
    features: list[np.ndarray], scores, p_max: np.ndarray, rngs: list[np.random.Generator]
) -> tuple[list[np.ndarray | None], np.ndarray]:
    """Drop the dominant modality's whole feature vector per sample.

    The drop probability is ``p_max * clip(rho - 1, 0, 1)`` with rho the
    dominant modality's score ratio; surviving rows are scaled by 1/(1-p) to
    preserve the expected feature value. A numerically saturated p is capped
    at 0.99 with a warning.
    """
    rho = _score_ratio(scores)
    runs, m = rho.shape
    dom = np.argmax(scores, axis=-1)
    p = p_max * np.clip(rho[np.arange(runs), dom] - 1.0, 0.0, 1.0)
    if np.any(p >= 1.0):
        warnings.warn("feature_drop probability saturated; capping at 0.99")
        p = np.where(p >= 1.0, 0.99, p)
    factors: list[np.ndarray | None] = [None] * m
    applied = np.zeros((runs, m), dtype=bool)
    for r in np.flatnonzero(p != 0.0):
        i = dom[r]
        n = features[i].shape[-2]
        dropped = rngs[r].random(n) < p[r]
        if factors[i] is None:
            factors[i] = np.ones((runs, n, 1))
        factors[i][r, :, 0] = np.where(dropped, 0.0, 1.0 / (1.0 - p[r]))
        applied[r, i] = True
    return factors, applied


# ---------------------------------------------------------------------------
# data hook


def resample_weights(
    model: FusionModel,
    data: list[Dataset],
    tau: np.ndarray,
    ledger: FlopsLedger,
) -> np.ndarray:
    """Sampling weights that favor samples where the weak modality is informative.

    One forward over each run's data set, charged as one run's, yields each
    sample's per-modality contribution (true-class probability under the
    partial logits). The run's weakest modality is the one with the lowest
    mean contribution; sample k gets weight ``exp(contribution_k_weak / tau)``,
    normalized to mean 1. Larger tau flattens the weighting toward uniform.
    """
    features = [np.stack([d.features[i] for d in data]) for i in range(model.num_modalities)]
    labels = np.stack([d.labels for d in data])
    cache = fusion.forward(model, features)
    contribs = true_class_probs(model, cache, labels)  # (m, R, N)
    m, runs, n = contribs.shape
    weak = np.argmin(contribs.mean(axis=-1), axis=0)
    w = np.exp(contribs[weak, np.arange(runs)] / tau[:, None])
    w /= w.mean(axis=-1, keepdims=True)
    fusion.charge_forward(model, n, ledger)
    ledger.record("softmax_loss", m * n * model.num_classes)
    ledger.record("elementwise", 3 * n)
    return w
