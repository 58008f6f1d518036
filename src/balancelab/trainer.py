"""Cross-entropy training with SGD momentum, step decay and method hooks.

``fit`` is one engine for one run or for R runs in lockstep. The R runs'
parameters, gradients and velocities each live in one (R, P) float64 buffer
(``FusionModel.flat``), so a momentum step is four vector operations, and
forward, loss, backward and running scores are stacked matmuls and axis
reductions along a leading run axis. Each run's slice is computed bit for
bit as it would be alone, so a result never depends on which runs shared
its stack. The method hooks take the same run axis: ``fit`` groups the runs
by active registry entry and calls each hook once per group, per batch for
objectives, gradient scales and feature transforms, per epoch for sample
weights and deploy. Runs without an objective share one plain
cross-entropy call. Only validation runs per run, once per epoch.

``fit`` holds a stack's state in one ``TrainState`` and calls ``_epoch`` once
per epoch. An epoch draws each run's batch order (weighted by any
sample-weights hook) and stacks the orders into one (R, N) index block;
per batch it calls ``_gather``, ``_forward`` (``fusion.encode``, feature
transforms of the modalities a range touched, ``fusion.head``, running
scores), ``_objectives`` (objectives, those factors on the feature gradients,
backward), ``_scale_grads`` and ``sgd_step``; then ``_validate`` deploys,
flushes the ledgers, validates and keeps each run's best model. Every
stochastic choice is a deterministic function of ``(config.seed, epoch,
batch index)``, so a run is bitwise reproducible.

A step costs numpy dispatch more than arithmetic, so it makes few calls.
``_gather`` takes each modality once per train set, however many runs share
it (the cells of one seed do), and puts the rows in stack order; distinct
sets are never joined into one copy. ``softmax`` reduces its short class
axis as a chain of column ``np.maximum`` and ``np.add`` calls, bitwise
numpy's own reduction, and the losses reach true-class entries through one
flat index.

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

import numpy as np

from . import datagen, fusion
from .datagen import Dataset
from .errors import ContractError, DivergenceError, ShapeError, SpecError
from .fusion import ForwardCache, FusionModel
from .metrics import FlopsLedger, accuracy
from .numkit import MlpCache, mlp_backward

SCORE_SMOOTHING = 0.7  # running score = 0.7 * old + 0.3 * batch
_FLOP_KINDS = tuple(f.name for f in dataclasses.fields(FlopsLedger))


@dataclass
class TrainConfig:
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 1e-4
    step_size: int = 30
    gamma: float = 0.1
    epochs: int = 40
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.lr <= 0:
            raise SpecError(f"lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise SpecError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise SpecError(f"weight_decay must be non-negative, got {self.weight_decay}")
        if not 0.0 < self.gamma <= 1.0:
            raise SpecError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.step_size < 1:
            raise SpecError(f"step_size must be >= 1, got {self.step_size}")
        if self.epochs < 0 or self.batch_size < 1:
            raise SpecError("epochs must be >= 0 and batch_size >= 1")


@dataclass
class TrainState:
    """Mutable state owned by one training stack, its runs sorted by active entry."""

    model: FusionModel
    velocity: np.ndarray  # shaped like model.flat
    running_scores: np.ndarray | None = None
    grads: FusionModel | None = None  # the gradient buffer, laid out like model
    splits: list[tuple[Dataset, Dataset]] = dataclasses.field(default_factory=list)
    # each distinct train set and the stack rows that train on it
    sources: list[tuple[Dataset, np.ndarray]] = dataclasses.field(default_factory=list)
    unsort: np.ndarray | None = None  # sources' rows joined -> stack order; None: already in it
    seeds: list[int] = dataclasses.field(default_factory=list)
    values: np.ndarray | None = None  # each run's method strength
    ledgers: list[FlopsLedger] = dataclasses.field(default_factory=list)
    hooks: dict[str, list[tuple]] = dataclasses.field(default_factory=dict)  # _ranges per field
    spans: list[slice] = dataclasses.field(default_factory=list)  # each encoder's span of flat
    # per row range, the FLOPs each of its runs did since the last epoch's end
    work: dict[tuple[int, int], FlopsLedger] = dataclasses.field(default_factory=dict)
    best: np.ndarray | None = None  # each run's best-validation parameters
    logs: list[TrainLog] = dataclasses.field(default_factory=list)

    def charge(self, rows: slice) -> FlopsLedger:
        """The ledger of the row range ``rows``."""
        return self.work.setdefault((rows.start, rows.stop), FlopsLedger())


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
    records: list[EpochRecord]
    best_epoch: int = -1


def _fold(ufunc, x: np.ndarray) -> np.ndarray:
    """``ufunc`` applied left to right across the last axis: ``ufunc(ufunc(x0, x1), x2)``..."""
    out = x[..., 0]
    for k in range(1, x.shape[-1]):
        out = ufunc(out, x[..., k])
    return out


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety.

    Bitwise ``e = exp(x - x.max(-1))``, ``e / e.sum(-1)`` in fewer calls on a
    short class axis: a max is exact in any order, and below 8 terms numpy's
    sum adds left to right, as the ``np.add`` column chain does.
    """
    e = np.exp(logits - _fold(np.maximum, logits)[..., None])
    total = _fold(np.add, e) if e.shape[-1] < 8 else e.sum(axis=-1)
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
    """Each modality's true-class probability, (m, *labels.shape), from one softmax."""
    probs = softmax(fusion.partial_logits(model, cache))
    # a C-ordered result, so batch means sum as they do for one modality
    return probs.take(_true_index(labels, probs.shape))


def modality_scores(model: FusionModel, cache: ForwardCache, labels: np.ndarray) -> np.ndarray:
    """Batch-mean true-class probability under each modality's partial logits.

    :func:`true_class_probs`'s batch mean, modality axis last: (m,); (R, m) for (R, B) labels.
    """
    probs = true_class_probs(model, cache, labels)
    return np.moveaxis(probs.sum(axis=-1) / probs.shape[-1], 0, -1)


def sgd_step(state: TrainState, grads: np.ndarray, lr: float,
             config: TrainConfig) -> TrainState:
    """One momentum-SGD update of the flat buffers: v = mu*v + (g + wd*p); p -= lr*v."""
    params = state.model.flat
    g_eff = grads + config.weight_decay * params
    state.velocity *= config.momentum
    state.velocity += g_eff
    params -= lr * state.velocity
    return state


@dataclass
class LossBundle:
    """An objective's value plus gradients for every top-level block.

    ``feature_grads[i]`` is the gradient with respect to the features the
    head read; the trainer scales it by modality i's transform factor, if a
    range transformed i, and backpropagates it. For a stack of runs, ``loss``
    holds one value per run and every array gains the leading run axis.
    """

    loss: float | np.ndarray
    head_grads: list[np.ndarray]
    bias_grad: np.ndarray
    feature_grads: list[np.ndarray]


def assemble_grads(
    model: FusionModel,
    cache: ForwardCache,
    fused_grad: np.ndarray,
    ledger: FlopsLedger,
    partial_grads: np.ndarray | None = None,
) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """Turn logit-space gradients into head, bias, and feature gradients.

    ``fused_grad`` is dL/d(logits); ``partial_grads`` an optional extra
    dL/d(partial logits), stacked like them. The two are combined per modality
    before the head products since both multiply the same feature block.
    """
    m = model.num_modalities
    n, h = fused_grad.shape[-2:]
    head_grads = []
    feature_grads = []
    bias_grad = fused_grad.sum(axis=-2)
    for i in range(m):
        eff = fused_grad
        if partial_grads is not None:
            eff = fused_grad + partial_grads[i]
            bias_grad = bias_grad + partial_grads[i].sum(axis=-2) / m
        head_grads.append(eff.swapaxes(-1, -2) @ cache.features[i])
        feature_grads.append(eff @ model.head_blocks[i])
        ledger.record("matmul_backward", (n, cache.features[i].shape[-1], h))
    return head_grads, bias_grad, feature_grads


def baseline_loss(
    model: FusionModel,
    cache: ForwardCache,
    labels: np.ndarray,
    ledger: FlopsLedger,
) -> LossBundle:
    """Plain multimodal cross-entropy on the fused logits."""
    loss, grad = cross_entropy(cache.logits, labels)
    n, h = cache.logits.shape[-2:]
    ledger.record("softmax_loss", n * h)
    head_grads, bias_grad, feature_grads = assemble_grads(model, cache, grad, ledger)
    return LossBundle(loss, head_grads, bias_grad, feature_grads)


def _backward_into_model(
    model: FusionModel,
    cache: ForwardCache,
    bundle: LossBundle,
    grads: FusionModel,
    ledger: FlopsLedger,
) -> None:
    """Push a LossBundle through the encoder backward passes into ``grads``.

    ``grads`` lays out a gradient buffer like ``model.flat``
    (``model.like(buffer)``); every value of it is overwritten.
    """
    for i in range(model.num_modalities):
        fgrad = bundle.feature_grads[i]
        mlp_backward(model.encoders[i], cache.enc_caches[i], fgrad, grads.encoders[i])
        n = fgrad.shape[-2]
        for layer in model.encoders[i].layers:
            d_out, d_in = layer.weight.shape[-2:]
            ledger.record("matmul_backward", (n, d_in, d_out))
        for layer in model.encoders[i].layers[:-1]:
            ledger.record("elementwise", n * layer.weight.shape[-2])
    for blk, g in zip(grads.head_blocks, bundle.head_grads):
        blk[...] = g
    grads.head_bias[...] = bundle.bias_grad


def evaluate_accuracy(model: FusionModel, data: Dataset,
                      ledger: FlopsLedger | None = None) -> float:
    cache = fusion.forward(model, data.features, ledger=ledger)
    return accuracy(fusion.predict(cache.logits), data.labels)


def _cache_rows(cache: ForwardCache, rows: slice) -> ForwardCache:
    """The runs ``rows`` of a stacked forward pass, as views."""
    enc_caches = [MlpCache([x[rows] for x in c.inputs], [z[rows] for z in c.preacts], c.shapes)
                  for c in cache.enc_caches]
    return ForwardCache([f[rows] for f in cache.features], enc_caches,
                        cache.block_products[:, rows], cache.logits[rows])


def _ranges(state: TrainState, actives: list, field: str) -> list[tuple]:
    """(hook, rows, rows of the stack, rows of the gradient buffer) per row range."""
    out, start = [], 0
    for name, group in itertools.groupby(actives, key=lambda a: getattr(a, field)):
        group = list(group)
        rows = slice(start, start + len(group))
        start = rows.stop
        if name is not None or field == "objective":
            # looked up once per fit, so a swapped module attribute sees every
            # call; objective-free runs take the plain cross-entropy
            hook = group[0].hook(field) or (
                lambda mdl, cache, y, _, led: baseline_loss(mdl, cache, y, led))
            out.append((hook, rows, state.model.like(state.model.flat[rows]),
                        state.grads.like(state.grads.flat[rows])))
    return out


def _gather(state: TrainState, idx: np.ndarray):
    """Rows ``idx[r]`` of run r's train set, for every run: (per-modality features, labels)."""
    # one take per train set, however many runs share it; sets are never joined
    parts = [(train, idx[rows]) for train, rows in state.sources]
    blocks = [[t.features[i].take(at, axis=0) for t, at in parts]
              for i in range(state.model.num_modalities)] + [[t.labels.take(at) for t, at in parts]]
    out = [np.concatenate(b) for b in blocks]
    if state.unsort is not None:
        out = [a.take(state.unsort, axis=0) for a in out]
    return out[:-1], out[-1]


def _forward(state: TrainState, xb: list[np.ndarray], yb: np.ndarray, epoch: int, b: int):
    """Encode, transform, head, then the running scores; returns the cache and the factors."""
    features, enc_caches = fusion.encode(state.model, xb, ledger=state.charge(slice(None)))
    # per modality a transform touched: its factor over the stack (rows left alone: ones)
    factors: dict[int, np.ndarray] = {}
    # with no score history yet (first batch) features pass through
    if state.running_scores is not None:
        for transform, rows, _, _ in state.hooks["feature_transform"]:
            rngs = [np.random.default_rng([seed, epoch, b, 1]) for seed in state.seeds[rows]]
            made, applied = transform([f[rows] for f in features], state.running_scores[rows],
                                      state.values[rows], rngs)
            for i, factor in enumerate(made):
                if factor is not None:
                    factors.setdefault(i, np.ones(features[i].shape))[rows] = factor
            for r, i in np.argwhere(applied) + (rows.start, 0):
                state.charge(slice(r, r + 1)).record("elementwise", features[i][0].size)
    for i, factor in factors.items():
        # a new array: features[i] is also the encoder cache's last pre-activation
        features[i] = features[i] * factor
    cache = fusion.head(state.model, features, enc_caches, ledger=state.charge(slice(None)))

    scores = modality_scores(state.model, cache, yb)
    if state.running_scores is not None:
        scores = SCORE_SMOOTHING * state.running_scores + (1.0 - SCORE_SMOOTHING) * scores
    state.running_scores = scores
    m, (n, h) = state.model.num_modalities, cache.logits.shape[-2:]
    for _, rows, _, _ in state.hooks["grad_scale"] + state.hooks["feature_transform"]:
        # the hook reads the scores: partial softmax + mean per modality
        state.charge(rows).record("softmax_loss", m * n * h)
        state.charge(rows).record("elementwise", m * (n * h + n))
    return cache, factors


def _objectives(state: TrainState, cache: ForwardCache, factors: dict[int, np.ndarray],
                yb: np.ndarray, loss_sum: np.ndarray, epoch: int, b: int) -> None:
    """Each range's objective, backpropagated into ``state.grads``; adds loss * n to loss_sum."""
    for objective, rows, view, view_grads in state.hooks["objective"]:
        view_cache = cache if rows == slice(0, len(state.seeds)) else _cache_rows(cache, rows)
        bundle = objective(view, view_cache, yb[rows], state.values[rows], state.charge(rows))
        finite = np.isfinite(bundle.loss)
        if not finite.all():
            raise DivergenceError(epoch, b, float(bundle.loss[np.argmin(finite)]))
        loss_sum[rows] += bundle.loss * yb.shape[-1]
        for i, factor in factors.items():
            bundle.feature_grads[i] *= factor[rows]
        _backward_into_model(view, view_cache, bundle, view_grads, state.charge(rows))


def _scale_grads(state: TrainState) -> None:
    """Scale each encoder's gradient by its range's grad-scale hook (runs without one: 1)."""
    if state.hooks["grad_scale"]:
        kappa = np.ones((len(state.seeds), state.model.num_modalities))
        n_encoder_params = sum(span.stop - span.start for span in state.spans)
        for grad_scale, rows, _, _ in state.hooks["grad_scale"]:
            kappa[rows] = grad_scale(state.running_scores[rows], state.values[rows])
            state.charge(rows).record("elementwise", n_encoder_params)
        for i, span in enumerate(state.spans):
            state.grads.flat[:, span] *= kappa[:, i, None]


def _validate(state: TrainState, epoch: int, lr: float, loss_sum: np.ndarray) -> None:
    """Deploy, add the range ledgers to the runs', validate each run and keep its best."""
    deployers = state.hooks["deploy"]
    # select on the deployed form so validation ranks what evaluation will see
    shown = state.model.flat.copy() if deployers else state.model.flat
    for deploy, rows, view, _ in deployers:
        shown[rows] = deploy(view).flat
        state.charge(rows).record("elementwise", sum(blk[0].size for blk in view.head_blocks))
    for (first, stop), led in state.work.items():
        for kind in _FLOP_KINDS:
            for target in state.ledgers[first:stop]:
                setattr(target, kind, getattr(target, kind) + getattr(led, kind))
            # zeroed in place, not replaced: perfbench's tracer sums every ledger it saw
            setattr(led, kind, 0)
    for r, ((train, val), log, ledger) in enumerate(zip(state.splits, state.logs, state.ledgers)):
        # per run: a stacked pass takes no less time and holds R runs' activations
        val_acc = evaluate_accuracy(state.model.like(shown[r]), val, ledger=ledger)
        log.records.append(EpochRecord(epoch, lr, float(loss_sum[r]) / train.num_samples,
                                       val_acc, tuple(float(s) for s in state.running_scores[r]),
                                       ledger.total))
        if log.best_epoch < 0 or val_acc > log.records[log.best_epoch].val_accuracy:
            state.best[r] = shown[r]
            log.best_epoch = epoch


def _epoch(state: TrainState, cfg: TrainConfig, epoch: int) -> None:
    """One pass over every run's train set, then validation."""
    lr = step_lr(cfg, epoch)
    trains = [t for t, _ in state.splits]
    weights = [None] * len(trains)
    for sample_weights, rows, view, _ in state.hooks["sample_weights"]:
        weights[rows] = sample_weights(view, trains[rows], state.values[rows], state.charge(rows))
    orders = []
    for t, seed, w in zip(trains, state.seeds, weights):
        batch_seed = int(np.random.SeedSequence([seed, epoch, 0]).generate_state(1)[0])
        orders.append(np.concatenate(datagen.batches(t, cfg.batch_size, batch_seed, w)))
    order = np.stack(orders)  # (R, N): batch b of run r is order[r, b * batch_size:][:batch_size]
    loss_sum = np.zeros(len(trains))
    for b, start in enumerate(range(0, order.shape[1], cfg.batch_size)):
        xb, yb = _gather(state, order[:, start:start + cfg.batch_size])
        cache, factors = _forward(state, xb, yb, epoch, b)
        _objectives(state, cache, factors, yb, loss_sum, epoch, b)
        _scale_grads(state)
        sgd_step(state, state.grads.flat, lr, cfg)
        state.charge(slice(None)).record("elementwise", 6 * state.model.flat.shape[-1])
    _validate(state, epoch, lr, loss_sum)


def fit(
    splits: tuple[Dataset, Dataset] | list[tuple[Dataset, Dataset]],
    model: FusionModel | list[FusionModel],
    config: TrainConfig | list[TrainConfig],
    method,
    ledger: FlopsLedger | None | list[FlopsLedger | None] = None,
) -> tuple[FusionModel, TrainLog] | list[tuple[FusionModel, TrainLog]]:
    """Train on (train, val); return the best-validation-accuracy model and the log.

    Validation accuracy ties break toward the earlier epoch. A non-finite
    training loss aborts with DivergenceError, non-finite logits with
    NumericError, and numpy does not warn on the way. With ``config.epochs == 0``
    the input model is returned unchanged with an empty log. Methods whose
    strength parameter sits at its neutral value run the exact baseline code
    path, so they are bitwise-identical to Baseline under the same seed.

    ``method`` is a ``methods.MethodSpec``, range-checked when it was built.
    To train R runs together, pass lists of R (train, val) pairs, models,
    configs, specs and optionally ledgers (a None ledger starts empty).
    The runs must agree in train-set shape, model layout and every config
    field but ``seed``; their methods may differ. The result is a list of R
    (model, log) pairs, each bitwise equal to training that run alone.
    """
    single = isinstance(model, FusionModel)
    if single:
        splits, model, config, method, ledger = [splits], [model], [config], [method], [ledger]
    runs = len(model)
    ledgers = [FlopsLedger() if l is None else l for l in (ledger or [None] * runs)]
    if not len(splits) == len(config) == len(method) == len(ledgers) == runs:
        raise ContractError("fit needs one split, model, config, method and ledger per run")
    cfg = config[0]
    if any(dataclasses.replace(c, seed=cfg.seed) != cfg for c in config):
        raise ContractError("runs trained together must share every config field but seed")
    if len({(t.dims, t.num_samples) for t, _ in splits}) > 1:
        raise ShapeError("runs trained together need train sets of equal shapes")
    if len({(mdl.arch, mdl.num_classes) for mdl in model}) > 1:
        raise ShapeError("runs trained together need models of one layout")
    logs = [TrainLog(records=[]) for _ in range(runs)]
    if cfg.epochs == 0:
        return (model[0], logs[0]) if single else list(zip(model, logs))

    # Sorted by active entry (objective-free first), the runs sharing a hook
    # form one row range of the stack, and each hook is called once per range;
    # all objective-free runs share one plain cross-entropy call.
    actives = [spec.active() for spec in method]
    order = sorted(range(runs), key=lambda r: (actives[r].objective or "", actives[r].name))
    splits, model, config, method, ledgers, actives, logs = (
        [seq[r] for r in order] for seq in (splits, model, config, method, ledgers, actives, logs))
    stack = model[0].like(np.stack([mdl.flat for mdl in model]))
    state = TrainState(
        stack, np.zeros_like(stack.flat), grads=stack.like(np.empty_like(stack.flat)),
        splits=splits, seeds=[c.seed for c in config], ledgers=ledgers, logs=logs,
        values=np.array([spec.value for spec in method], dtype=np.float64),  # baseline: nan
        spans=[stack.encoder_span(i) for i in range(stack.num_modalities)], best=stack.flat.copy())
    state.hooks = {field: _ranges(state, actives, field) for field in (
        "objective", "grad_scale", "feature_transform", "sample_weights", "deploy")}
    rows_of: dict[int, tuple[Dataset, list[int]]] = {}
    for r, (train, _) in enumerate(splits):
        rows_of.setdefault(id(train), (train, []))[1].append(r)
    state.sources = [(train, np.array(rows)) for train, rows in rows_of.values()]
    joined = np.concatenate([rows for _, rows in state.sources])
    if (joined != np.arange(runs)).any():
        state.unsort = np.argsort(joined)
    # a diverging run overflows on its way to the finite checks, which raise
    # NumericError or DivergenceError; numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(cfg.epochs):
            _epoch(state, cfg, epoch)
    # back to the caller's run order: argsort inverts the permutation
    results = [(model[k].like(state.best[k]), logs[k]) for k in np.argsort(order)]
    return results[0] if single else results
