"""Cross-entropy training with SGD momentum, step decay and method hooks.

``fit`` trains R runs (``Run``, R >= 1) of one recipe (``TrainConfig``) in
lockstep. Their parameters, gradients and velocities each live in one
(R, P) float64 buffer (``FusionModel.flat``), so a momentum step is four
vector operations, and forward, loss, backward and running scores are
stacked matmuls and axis reductions along a leading run axis. Each run's
slice is computed bit for bit as it would be alone, so a result never
depends on which runs shared its stack. The method hooks take the same
run axis: ``fit`` groups the runs by active registry entry and calls each
hook once per group, per batch for objectives, gradient scales and feature
transforms, per epoch for sample weights and deploy. Runs without an
objective share one plain cross-entropy call. Only validation runs per
run, once per epoch.

``fit`` builds a ``Plan``, fixed while it trains (the sorted runs, their
joined train sets and their hook ranges), and a ``Carry``, the stack's
progress, then calls ``_epoch`` until the carry's epoch reaches
``cfg.epochs``. An epoch stacks every run's batch order (weighted by any
sample-weights hook) into one (R, N) index block of rows in the joined
sets; per batch it calls ``_gather``, ``_forward``, ``_objectives`` (every
objective range, then one encoder backward of the whole stack),
``_scale_grads`` and ``sgd_step`` on the epoch's gradient buffer, then
``_charge_epoch`` and ``_validate`` once. A run's ``TrainLog.flops`` is its
one ledger. The trainer records into it in one place, ``_charge_epoch``,
which charges the epoch's work the trainer does (every objective's fused
loss and head backward included); a hook records its own work. Every
stochastic choice is a deterministic function of ``(run.seed, epoch, batch
index)``, so a run is bitwise reproducible.

A step costs numpy dispatch more than arithmetic, so a stack's shared work
is done once. ``fit`` joins each modality's distinct train sets once (the
cells of one seed share one, which is not copied), and each run's batch
order is offset to its own set, so ``_gather`` is one ``take`` per modality
and one for the labels. The runs of one seed share one unweighted batch
order per epoch.
``softmax`` reduces its short class axis as a chain of column ``np.maximum``
and ``np.add`` calls, bitwise numpy's own reduction; the running scores
divide only the true-class entries by their row total, and the losses reach
true-class entries through one flat index. Bias gradients are batch sums by
``numkit.row_sum``.

Per-modality performance scores (batch mean of the true-class probability
under each modality's partial logits) are tracked as an exponential moving
average with persistence 0.7; balancing methods that need a dominance
indicator read this running trace.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import datagen, fusion
from .datagen import Dataset
from .errors import ContractError, DivergenceError, ShapeError, SpecError
from .fusion import ForwardCache, FusionModel
from .metrics import FlopsLedger, evaluate_accuracy
from .numkit import mlp_backward, row_sum

if TYPE_CHECKING:  # methods imports this module
    from .methods import MethodSpec

SCORE_SMOOTHING = 0.7  # running score = 0.7 * old + 0.3 * batch


@dataclass
class TrainConfig:
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    step_size: int = 30
    gamma: float = 0.1
    epochs: int = 40
    batch_size: int = 64

    def __post_init__(self):
        # each test is written so that NaN fails it
        if not 0.0 < self.lr < math.inf:
            raise SpecError(f"lr must be positive and finite, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise SpecError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise SpecError(
                f"weight_decay must be non-negative and finite, got {self.weight_decay}")
        if not 0.0 < self.gamma <= 1.0:
            raise SpecError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.step_size < 1:
            raise SpecError(f"step_size must be >= 1, got {self.step_size}")
        if self.epochs < 0 or self.batch_size < 1:
            raise SpecError("epochs must be >= 0 and batch_size >= 1")


@dataclass(frozen=True)
class Run:
    """One run of a ``fit``: its data, initial model, seed and method.

    ``spec`` is a ``methods.MethodSpec``, range-checked when it was built.
    """

    train: Dataset
    val: Dataset
    model: FusionModel
    seed: int  # every stochastic choice of the run derives from it
    spec: MethodSpec


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_accuracy: float
    scores: tuple[float, ...]
    flops_total: int


@dataclass
class TrainLog:
    """A run's epoch records, best epoch and FLOPs: ``flops`` is the run's one ledger."""

    records: list[EpochRecord]
    best_epoch: int = -1
    flops: FlopsLedger = dataclasses.field(default_factory=FlopsLedger)


@dataclass(frozen=True)
class Plan:
    """What ``fit`` derives from its inputs, runs sorted by active entry; fixed while it trains.

    The hook ranges' row views alias the carry's model buffer, so a carry is
    restored in place (``flat[...] = saved``), never replaced. Besides those
    views the plan holds no mutable state.
    """

    cfg: TrainConfig
    runs: list[Run]  # sorted by active entry, objective-free first
    features: list[np.ndarray]  # per modality, the runs' distinct train sets joined (if > 1)
    labels: np.ndarray  # their labels, joined the same way
    offsets: np.ndarray  # (R, 1): each run's first row in the joined sets
    values: np.ndarray  # each run's method strength (baseline: nan)
    hooks: dict[str, list[tuple]]  # (hook, rows, model view) per range, per hook field
    spans: list[slice]  # each encoder's span of flat


@dataclass
class Carry:
    """What training changes: with the plan, all of a stack's progress.

    Each run's FLOPs ledger is its log's. The carry holds no scratch: the
    gradient buffer each step overwrites belongs to ``_epoch``, so saving a
    carry saves exactly what a resume needs.
    """

    model: FusionModel  # the stack, (R, P) in model.flat
    velocity: np.ndarray  # shaped like model.flat
    running_scores: np.ndarray | None  # (R, m); None before the first batch
    best: np.ndarray  # each run's best-validation parameters
    logs: list[TrainLog]  # each run's records and FLOPs
    epoch: int  # the next epoch to train


def _fold(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc`` folded left to right across the last axis: ``ufunc(ufunc(x0, x1), x2)``..."""
    out = x[..., 0]
    for k in range(1, x.shape[-1]):
        out = ufunc(out, x[..., k])
    return out


def _shifted_exp(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``e = exp(x - x.max(-1))`` and its row total ``e.sum(-1)``: softmax before its division.

    Bitwise numpy's max and sum in fewer calls on a short class axis: a max
    is exact in any order, and below 8 terms numpy's sum adds left to right,
    as the ``np.add`` column chain does.
    """
    e = np.exp(logits - _fold(np.maximum, logits)[..., None])
    return e, (_fold(np.add, e) if e.shape[-1] < 8 else e.sum(axis=-1))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    e, total = _shifted_exp(logits)
    e /= total[..., None]
    return e


def _true_index(labels: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Index of each true-class entry in the C-order flattening of an array of ``shape``.

    ``labels`` broadcasts against ``shape[:-1]``, as one label row serves every modality.
    """
    return np.arange(0, math.prod(shape), shape[-1]).reshape(shape[:-1]) + labels


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its logit gradient (softmax - onehot)/B.

    Stacked (R, B, H) logits with (R, B) labels give one loss per run.
    """
    n, h = logits.shape[-2:]
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ContractError(f"labels must have shape {logits.shape[:-1]}, got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= h):
        raise ContractError("label outside 0..H-1")
    grad = softmax(logits)
    at = _true_index(labels, grad.shape)
    true = grad.take(at)  # take and put index the C-ordered flattening, whatever the layout
    with np.errstate(divide="ignore"):
        # an underflowed true-class probability yields inf, caught by the
        # trainer's divergence check
        loss = -(np.log(true).sum(axis=-1) / n)
    grad.put(at, true - 1.0)
    grad /= n
    return (float(loss) if loss.ndim == 0 else loss), grad


def step_lr(config: TrainConfig, epoch: int) -> float:
    """Step-decay schedule: lr * gamma^floor(epoch / step_size)."""
    if epoch < 0:
        raise SpecError(f"epoch must be >= 0, got {epoch}")
    return config.lr * config.gamma ** (epoch // config.step_size)


def true_class_probs(model: FusionModel, cache: ForwardCache, labels: np.ndarray) -> np.ndarray:
    """Each modality's true-class probability, (m, *labels.shape), from one softmax.

    Only the true-class entries are divided by their row total, each as
    ``softmax`` divides it.
    """
    e, total = _shifted_exp(fusion.partial_logits(model, cache))
    # a C-ordered result, so batch means sum as they do for one modality
    return e.take(_true_index(labels, e.shape)) / total


def modality_scores(model: FusionModel, cache: ForwardCache, labels: np.ndarray) -> np.ndarray:
    """Batch-mean true-class probability under each modality's partial logits.

    :func:`true_class_probs`'s batch mean, modality axis last: (m,); (R, m) for (R, B) labels.
    """
    probs = true_class_probs(model, cache, labels)
    return (probs.sum(axis=-1) / probs.shape[-1]).T


def sgd_step(params: np.ndarray, velocity: np.ndarray, grads: np.ndarray, lr: float,
             config: TrainConfig) -> None:
    """One momentum-SGD update in place: v = mu*v + (g + wd*p); p -= lr*v."""
    g_eff = grads + config.weight_decay * params
    velocity *= config.momentum
    velocity += g_eff
    params -= lr * velocity


@dataclass
class LossBundle:
    """An objective's value plus gradients for every top-level block.

    ``feature_grads[i]`` is the gradient with respect to the features the
    head read; the trainer copies it into the stack's, which it scales by
    modality i's transform factor and backpropagates. For a stack of runs,
    ``loss`` holds one value per run and every array gains the run axis.
    """

    loss: float | np.ndarray
    head_grads: list[np.ndarray]
    bias_grad: np.ndarray
    feature_grads: list[np.ndarray]


def assemble_grads(
    model: FusionModel,
    cache: ForwardCache,
    fused_grad: np.ndarray,
    partial_grads: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """Turn logit-space gradients into head, bias, and feature gradients.

    ``fused_grad`` is dL/d(logits); ``partial_grads`` an optional extra
    dL/d(partial logits), stacked like them. The two are combined per modality
    before the head products since both multiply the same feature block.
    Its FLOPs are the head backward, which ``_charge_epoch`` charges.
    """
    m = model.num_modalities
    head_grads = []
    feature_grads = []
    bias_grad = row_sum(fused_grad)
    for i in range(m):
        eff = fused_grad
        if partial_grads is not None:
            eff = fused_grad + partial_grads[i]
            bias_grad = bias_grad + row_sum(partial_grads[i]) / m
        head_grads.append(eff.swapaxes(-1, -2) @ cache.features[i])
        feature_grads.append(eff @ model.head_blocks[i])
    return head_grads, bias_grad, feature_grads


def baseline_loss(model: FusionModel, cache: ForwardCache, labels: np.ndarray) -> LossBundle:
    """Plain multimodal cross-entropy on the fused logits."""
    loss, grad = cross_entropy(cache.logits, labels)
    head_grads, bias_grad, feature_grads = assemble_grads(model, cache, grad)
    return LossBundle(loss, head_grads, bias_grad, feature_grads)


def _put_range(bundle: LossBundle, rows: slice, grads: FusionModel, feature_grads: list) -> None:
    """A range's ``bundle`` into its ``rows`` of ``grads`` and of ``feature_grads``."""
    for blk, g in zip(grads.head_blocks, bundle.head_grads):
        blk[rows] = g
    grads.head_bias[rows] = bundle.bias_grad
    for out, g in zip(feature_grads, bundle.feature_grads):
        out[rows] = g


def _backward_into_model(
    model: FusionModel,
    cache: ForwardCache,
    feature_grads: list[np.ndarray],
    grads: FusionModel,
) -> None:
    """Backpropagate ``feature_grads`` through the encoders into ``grads`` (laid out like model)."""
    for i, fgrad in enumerate(feature_grads):
        mlp_backward(model.encoders[i], cache.enc_caches[i], fgrad, grads.encoders[i])


def _cache_rows(cache: ForwardCache, rows: slice) -> ForwardCache:
    """The runs ``rows`` of a stacked forward pass, as views; objectives read no encoder cache."""
    return ForwardCache([f[rows] for f in cache.features], [], cache.block_products[:, rows],
                        cache.logits[rows])


class _Ledgers(list):
    """A range's runs' ledgers, handed to its hook: ``ledger[r]`` is run r's alone, and one
    ``record`` charges each run."""

    def record(self, *args, **kwargs) -> None:
        for ledger in self:
            ledger.record(*args, **kwargs)


def _ranges(model: FusionModel, actives: list, field: str) -> list[tuple]:
    """(hook, rows, rows of the stack) per row range."""
    out, start = [], 0
    for name, group in itertools.groupby(actives, key=lambda a: getattr(a, field)):
        group = list(group)
        rows = slice(start, start + len(group))
        start = rows.stop
        if name is not None or field == "objective":
            # looked up once per fit, so an attribute swapped before fit sees every call
            hook = group[0].hook(field) or (
                lambda mdl, cache, y, _, led: baseline_loss(mdl, cache, y))
            out.append((hook, rows, model.like(model.flat[rows])))
    return out


def _gather(plan: Plan, idx: np.ndarray):
    """Rows ``idx`` of the joined train sets, each run's already offset to its own set:
    (per-modality features, labels)."""
    return [f.take(idx, axis=0) for f in plan.features], plan.labels.take(idx)


def _forward(plan: Plan, carry: Carry, xb: list[np.ndarray], yb: np.ndarray, b: int):
    """Encode, transform, head, then the running scores; returns the cache and the factors."""
    features, enc_caches = fusion.encode(carry.model, xb)
    # per modality a transform touched: its factor over the stack (rows left alone: ones)
    factors: dict[int, np.ndarray] = {}
    if carry.running_scores is not None:
        for transform, rows, _ in plan.hooks["feature_transform"]:
            rngs = [np.random.default_rng([run.seed, carry.epoch, b, 1]) for run in plan.runs[rows]]
            made = transform([f[rows] for f in features], carry.running_scores[rows],
                             plan.values[rows], rngs,
                             _Ledgers(log.flops for log in carry.logs[rows]))
            for i, factor in enumerate(made):
                if factor is not None:
                    factors.setdefault(i, np.ones(features[i].shape))[rows] = factor
    for i, factor in factors.items():
        # a new array: features[i] is also the encoder cache's last pre-activation
        features[i] = features[i] * factor
    cache = fusion.head(carry.model, features, enc_caches)

    scores = modality_scores(carry.model, cache, yb)
    if carry.running_scores is not None:
        scores = SCORE_SMOOTHING * carry.running_scores + (1.0 - SCORE_SMOOTHING) * scores
    carry.running_scores = scores
    return cache, factors


def _objectives(plan: Plan, carry: Carry, cache: ForwardCache, factors: dict[int, np.ndarray],
                yb: np.ndarray, loss_sum: np.ndarray, b: int, grads: FusionModel) -> None:
    """Each range's objective into its rows of ``grads`` and of the stack's feature gradients,
    then one backward; adds loss * n to loss_sum."""
    feature_grads = [np.empty(f.shape) for f in cache.features]
    for objective, rows, view in plan.hooks["objective"]:
        bundle = objective(view, _cache_rows(cache, rows), yb[rows], plan.values[rows],
                           _Ledgers(log.flops for log in carry.logs[rows]))
        finite = np.isfinite(bundle.loss)
        if not finite.all():
            raise DivergenceError(carry.epoch, b, float(bundle.loss[np.argmin(finite)]))
        loss_sum[rows] += bundle.loss * yb.shape[-1]
        _put_range(bundle, rows, grads, feature_grads)
    for i, factor in factors.items():
        feature_grads[i] *= factor
    _backward_into_model(carry.model, cache, feature_grads, grads)


def _scale_grads(plan: Plan, carry: Carry, grads: FusionModel) -> None:
    """Scale each encoder's gradient in a range's rows by the range's grad-scale hook."""
    for grad_scale, rows, _ in plan.hooks["grad_scale"]:
        kappa = grad_scale(carry.running_scores[rows], plan.values[rows])
        for i, span in enumerate(plan.spans):
            grads.flat[rows, span] *= kappa[:, i, None]


def _charge_epoch(plan: Plan, carry: Carry, n: int, steps: int) -> None:
    """Charge each run the epoch's work the trainer does, n rows in ``steps`` steps, and its
    validation; hooks record their own. Each charge is linear in its rows."""
    model, m, h = carry.model, carry.model.num_modalities, carry.model.num_classes
    for run, log in zip(plan.runs, carry.logs):
        ledger, active = log.flops, run.spec.active()
        fusion.charge_forward(model, n + run.val.num_samples, ledger)  # training's and validation's
        ledger.record("softmax_loss", n * h)  # every objective's loss on the fused logits
        for blk in model.head_blocks:  # the head backward
            ledger.record("matmul_backward", (n, blk.shape[-1], h))
        for enc in model.encoders:  # the encoder backward
            for layer in enc.layers:
                d_out, d_in = layer.weight.shape[-2:]
                ledger.record("matmul_backward", (n, d_in, d_out))
            for layer in enc.layers[:-1]:
                ledger.record("elementwise", n * layer.weight.shape[-2])
        ledger.record("elementwise", steps * 6 * model.flat.shape[-1])  # SGD
        if active.grad_scale or active.feature_transform:  # the scores it reads
            ledger.record("softmax_loss", m * n * h)  # partial softmax + mean per modality
            ledger.record("elementwise", m * (n * h + n))
        if active.grad_scale:
            ledger.record("elementwise", steps * sum(s.stop - s.start for s in plan.spans))


def _validate(plan: Plan, carry: Carry, lr: float, loss_sum: np.ndarray) -> None:
    """Deploy, validate each run and keep its best."""
    deployers = plan.hooks["deploy"]
    # select on the deployed form so validation ranks what evaluation will see
    shown = carry.model.flat.copy() if deployers else carry.model.flat
    for deploy, rows, view in deployers:  # charged before the epoch's records read the totals
        shown[rows] = deploy(view, _Ledgers(log.flops for log in carry.logs[rows])).flat
    for r, (run, log) in enumerate(zip(plan.runs, carry.logs)):
        # per run: a stacked pass takes no less time and holds R runs' activations
        val_acc = evaluate_accuracy(carry.model.like(shown[r]), run.val)
        log.records.append(EpochRecord(carry.epoch, lr, float(loss_sum[r]) / run.train.num_samples,
                                       val_acc, tuple(float(s) for s in carry.running_scores[r]),
                                       log.flops.total))
        if log.best_epoch < 0 or val_acc > log.records[log.best_epoch].val_accuracy:
            carry.best[r] = shown[r]
            log.best_epoch = carry.epoch


def _epoch(plan: Plan, carry: Carry) -> None:
    """One pass over every run's train set, then validation; advances ``carry.epoch``."""
    cfg, epoch = plan.cfg, carry.epoch
    lr = step_lr(cfg, epoch)
    weights = [None] * len(plan.runs)
    for sample_weights, rows, view in plan.hooks["sample_weights"]:
        xs, ys = _gather(plan, plan.offsets[rows] + np.arange(plan.runs[0].train.num_samples))
        weights[rows] = sample_weights(view, xs, ys, plan.values[rows],
                                       _Ledgers(log.flops for log in carry.logs[rows]))
    # an unweighted order depends on the run seed alone (stack_key fixes the row count), so
    # the runs of one seed share it; a weighted order is its run's own
    keys = [run.seed if w is None else (r,) for r, (run, w) in enumerate(zip(plan.runs, weights))]
    orders: dict = {}
    for key, run, w in zip(keys, plan.runs, weights):
        if key not in orders:
            batch_seed = int(np.random.SeedSequence([run.seed, epoch, 0]).generate_state(1)[0])
            orders[key] = np.concatenate(datagen.batches(run.train, cfg.batch_size, batch_seed, w))
    # (R, N): batch b of run r is order[r, b * batch_size:][:batch_size], offset to its set
    order = np.stack([orders[key] for key in keys])
    order += plan.offsets
    loss_sum = np.zeros(len(plan.runs))
    grads = carry.model.like(np.empty_like(carry.model.flat))  # scratch each step overwrites
    for b, start in enumerate(range(0, order.shape[1], cfg.batch_size)):
        xb, yb = _gather(plan, order[:, start:start + cfg.batch_size])
        cache, factors = _forward(plan, carry, xb, yb, b)
        _objectives(plan, carry, cache, factors, yb, loss_sum, b, grads)
        _scale_grads(plan, carry, grads)
        sgd_step(carry.model.flat, carry.velocity, grads.flat, lr, cfg)
    _charge_epoch(plan, carry, order.shape[1], -(-order.shape[1] // cfg.batch_size))
    _validate(plan, carry, lr, loss_sum)
    carry.epoch += 1


def stack_key(run: Run) -> tuple:
    """What the runs of one ``fit`` share: train-set dims and row count, arch, class count."""
    return run.train.dims, run.train.num_samples, run.model.arch, run.model.num_classes


def fit(cfg: TrainConfig, runs: list[Run]) -> list[tuple[FusionModel, TrainLog]]:
    """Train each run under the one recipe ``cfg``; return each best-validation model and log.

    The result is a list of (model, log) pairs in ``runs``' order, each
    bitwise equal to training that run alone: the R runs train together,
    and they must agree in ``stack_key`` (train-set shape and model layout);
    their seeds and methods may differ. Each run's FLOPs go to its log's ``flops``, fresh
    for each fit. Validation accuracy ties break toward the earlier epoch. A non-finite
    training loss aborts with DivergenceError, non-finite logits with
    NumericError, and numpy does not warn on the way. With ``cfg.epochs == 0``
    each input model is returned unchanged with an empty log; no runs give
    no results. Methods whose
    strength parameter sits at its neutral value run the exact baseline code
    path, so they are bitwise-identical to Baseline under the same seed.
    """
    if len({stack_key(run) for run in runs}) > 1:
        raise ShapeError("runs trained together need one train-set shape and model layout")
    if cfg.epochs == 0 or not runs:
        return [(run.model, TrainLog(records=[])) for run in runs]

    # sorted by active entry (objective-free first), the runs sharing a hook are one row range
    actives = [run.spec.active() for run in runs]
    order = sorted(range(len(runs)), key=lambda r: (actives[r].objective or "", actives[r].name))
    runs, actives = [runs[r] for r in order], [actives[r] for r in order]
    stack = runs[0].model.like(np.stack([run.model.flat for run in runs]))
    logs = [TrainLog(records=[]) for _ in runs]
    carry = Carry(stack, np.zeros_like(stack.flat), running_scores=None, best=stack.flat.copy(),
                  logs=logs, epoch=0)
    trains = list({id(run.train): run.train for run in runs}.values())  # each distinct set
    start = {id(t): k * t.num_samples for k, t in enumerate(trains)}  # its first joined row
    # one set (the cells of one seed) is taken from as it is; more are joined, one copy
    *features, labels = [parts[0] if len(parts) == 1 else np.concatenate(parts)
                         for parts in zip(*([*t.features, t.labels] for t in trains))]
    plan = Plan(
        cfg, runs, features, labels, offsets=np.array([[start[id(run.train)]] for run in runs]),
        values=np.array([run.spec.value for run in runs], float),
        hooks={field: _ranges(stack, actives, field) for field in (
            "objective", "grad_scale", "feature_transform", "sample_weights", "deploy")},
        spans=[stack.encoder_span(i) for i in range(stack.num_modalities)])
    # a diverging run overflows on its way to the finite checks, which raise
    # NumericError or DivergenceError; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        while carry.epoch < cfg.epochs:
            _epoch(plan, carry)
    # back to the caller's run order: argsort inverts the permutation
    return [(runs[k].model.like(carry.best[k]), logs[k]) for k in np.argsort(order)]
