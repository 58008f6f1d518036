"""Cross-entropy training with SGD momentum, step decay and method hooks.

``fit`` is one engine for one run or for R runs in lockstep. The R runs'
parameters, gradients and velocities each live in one (R, P) float64 buffer
(``FusionModel.flat``), so a momentum step is four vector operations, and
forward, loss, backward and running scores are stacked matmuls and axis
reductions along a leading run axis. Each run's slice is computed bit for
bit as it would be alone, so a result never depends on which runs shared
its stack. Method hooks keep their one-run signatures and are called per
run on row views, as are the steps whose control flow depends on a run's
data (sample weights, feature transforms, deploy) and the once-per-epoch
validation.

One epoch iterates index batches (weighted when the active method has a
sample-weights hook), runs the fusion forward with any feature-transform
hook applied to the encoder outputs, computes the method's objective (plain
cross-entropy by default), backpropagates by hand, applies any
encoder-gradient scale, and takes one SGD step. The hooks come from the
active method's entry in ``methods.METHODS``. Every stochastic choice is a
deterministic function of ``(config.seed, epoch, batch index)``, so a run is
bitwise reproducible.

Per-modality performance scores (batch mean of the true-class probability
under each modality's partial logits) are tracked as an exponential moving
average with persistence 0.7; balancing methods that need a dominance
indicator read this running trace.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import datagen, fusion
from .datagen import Dataset
from .errors import ContractError, DispatchError, DivergenceError, ShapeError, SpecError
from .fusion import ForwardCache, FusionModel
from .metrics import FlopsLedger, accuracy
from .numkit import mlp_backward

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
    """Mutable state owned by one training stack."""

    model: FusionModel
    velocity: np.ndarray  # shaped like model.flat
    epoch: int
    running_scores: np.ndarray | None = None


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

    def write_csv(self, path) -> None:
        m = len(self.records[0].scores) if self.records else 0
        cols = ["epoch", "lr", "train_loss", "val_acc"]
        cols += [f"score_{i + 1}" for i in range(m)]
        cols += ["flops_cumulative"]
        with open(path, "w", encoding="ascii") as fh:
            fh.write(",".join(cols) + "\n")
            for r in self.records:
                row = [str(r.epoch), repr(r.lr), repr(r.train_loss), repr(r.val_accuracy)]
                row += [repr(s) for s in r.scores]
                row += [str(r.flops_total)]
                fh.write(",".join(row) + "\n")


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _true_class(labels: np.ndarray) -> tuple:
    """Index of each sample's true-class entry in an array shaped labels.shape + (H,)."""
    return (*np.indices(labels.shape, sparse=True), labels)


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
    probs = softmax(logits)
    true = _true_class(labels)
    with np.errstate(divide="ignore"):
        # an underflowed true-class probability yields inf, caught by the
        # trainer's divergence check
        loss = -np.mean(np.log(probs[true]), axis=-1)
    grad = probs
    grad[true] -= 1.0
    grad /= n
    return (float(loss) if loss.ndim == 0 else loss), grad


def step_lr(config: TrainConfig, epoch: int) -> float:
    """Step-decay schedule: lr * gamma^floor(epoch / step_size)."""
    if epoch < 0:
        raise SpecError(f"epoch must be >= 0, got {epoch}")
    return config.lr * config.gamma ** (epoch // config.step_size)


def modality_scores(model: FusionModel, cache: ForwardCache, labels: np.ndarray) -> np.ndarray:
    """Batch-mean true-class probability under each modality's partial logits.

    Shape (m,); (R, m) for a stacked forward with (R, B) labels.
    """
    true = _true_class(labels)
    scores = np.empty(labels.shape[:-1] + (model.num_modalities,))
    for i in range(model.num_modalities):
        probs = softmax(fusion.partial_logits(model, cache, i))
        scores[..., i] = probs[true].mean(axis=-1)
    return scores


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

    ``feature_grads[i]`` is the gradient with respect to the (post-hook)
    encoder output of modality i; the trainer pushes it through the feature
    hook factor and the encoder backward pass. For a stack of runs, ``loss``
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
    partial_grads: list[np.ndarray] | None = None,
    ledger: FlopsLedger | None = None,
) -> tuple[list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """Turn logit-space gradients into head, bias, and feature gradients.

    ``fused_grad`` is dL/d(logits); ``partial_grads[i]`` an optional extra
    dL/d(partial_logits_i). The two are combined per modality before the
    head products since both multiply the same feature block.
    """
    m = model.num_modalities
    n, h = fused_grad.shape[-2:]
    head_grads = []
    feature_grads = []
    bias_grad = fused_grad.sum(axis=-2)
    for i in range(m):
        eff = fused_grad
        if partial_grads is not None and partial_grads[i] is not None:
            eff = fused_grad + partial_grads[i]
            bias_grad = bias_grad + partial_grads[i].sum(axis=-2) / m
        head_grads.append(eff.swapaxes(-1, -2) @ cache.features[i])
        feature_grads.append(eff @ model.head_blocks[i])
        if ledger is not None:
            ledger.record("matmul_backward", (n, cache.features[i].shape[-1], h))
    return head_grads, bias_grad, feature_grads


def baseline_loss(
    model: FusionModel,
    cache: ForwardCache,
    labels: np.ndarray,
    ledger: FlopsLedger | None = None,
) -> LossBundle:
    """Plain multimodal cross-entropy on the fused logits."""
    loss, grad = cross_entropy(cache.logits, labels)
    if ledger is not None:
        n, h = cache.logits.shape[-2:]
        ledger.record("softmax_loss", n * h)
    head_grads, bias_grad, feature_grads = assemble_grads(model, cache, grad, ledger=ledger)
    return LossBundle(loss, head_grads, bias_grad, feature_grads)


def _backward_into_model(
    model: FusionModel,
    cache: ForwardCache,
    bundle: LossBundle,
    grads: FusionModel,
    ledger: FlopsLedger | None,
) -> None:
    """Push a LossBundle through the encoder backward passes into ``grads``.

    ``grads`` lays out a gradient buffer like ``model.flat``
    (``model.like(buffer)``); every value of it is overwritten.
    """
    for i in range(model.num_modalities):
        fgrad = bundle.feature_grads[i]
        mlp_backward(model.encoders[i], cache.enc_caches[i], fgrad, grads.encoders[i])
        if ledger is not None:
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


def _derived_seed(*parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(list(parts))


def _stack_bundles(bundles: list[LossBundle]) -> LossBundle:
    return LossBundle(
        np.array([b.loss for b in bundles]),
        [np.stack(g) for g in zip(*(b.head_grads for b in bundles))],
        np.stack([b.bias_grad for b in bundles]),
        [np.stack(g) for g in zip(*(b.feature_grads for b in bundles))],
    )


def fit(
    splits: tuple[Dataset, Dataset] | list[tuple[Dataset, Dataset]],
    model: FusionModel | list[FusionModel],
    config: TrainConfig | list[TrainConfig],
    method=None,
    ledger: FlopsLedger | None | list[FlopsLedger | None] = None,
) -> tuple[FusionModel, TrainLog] | list[tuple[FusionModel, TrainLog]]:
    """Train on (train, val); return the best-validation-accuracy model and the log.

    Validation accuracy ties break toward the earlier epoch. A non-finite
    training loss aborts with DivergenceError. With ``config.epochs == 0``
    the input model is returned unchanged with an empty log. Methods whose
    strength parameter sits at its neutral value run the exact baseline code
    path, so they are bitwise-identical to Baseline under the same seed.

    To train R runs together, pass lists of R (train, val) pairs, models,
    configs, methods and ledgers (the last two may be None or hold None).
    The runs must agree in train-set shape, model layout and every config
    field but ``seed``; their methods may differ. The result is a list of R
    (model, log) pairs, each bitwise equal to training that run alone.
    """
    from . import methods as bm  # deferred: methods imports this module

    single = isinstance(model, FusionModel)
    if single:
        splits, model, config, method, ledger = [splits], [model], [config], [method], [ledger]
    runs = len(model)
    method = [bm.MethodSpec() if s is None else s for s in (method or [None] * runs)]
    ledgers = [FlopsLedger() if l is None else l for l in (ledger or [None] * runs)]
    if not len(splits) == len(config) == len(method) == len(ledgers) == runs:
        raise ContractError("fit needs one split, model, config, method and ledger per run")
    for spec in method:
        if spec.kind not in bm.METHODS:
            raise DispatchError(f"unknown method kind {spec.kind!r}")
    cfg = config[0]
    if any(dataclasses.replace(c, seed=cfg.seed) != cfg for c in config):
        raise ContractError("runs trained together must share every config field but seed")
    if len({(t.dims, t.num_samples) for t, _ in splits}) > 1:
        raise ShapeError("runs trained together need train sets of equal shapes")
    if len({mdl.layout() for mdl in model}) > 1:
        raise ShapeError("runs trained together need models of one layout")

    values = [spec.value for spec in method]
    actives = [spec.active() for spec in method]

    def hooks(name: str) -> list:
        # looked up per run, so a swapped module attribute sees every call
        return [bm.resolve(getattr(a, name)) for a in actives]

    objective, grad_scale, transform, sample_weights, deploy = (
        hooks(name) for name in
        ("objective", "grad_scale", "feature_transform", "sample_weights", "deploy"))

    logs = [TrainLog(records=[]) for _ in range(runs)]
    if cfg.epochs == 0:
        return (model[0], logs[0]) if single else list(zip(model, logs))

    stack = model[0].like(np.stack([mdl.flat for mdl in model]))
    state = TrainState(stack, np.zeros_like(stack.flat), 0)
    views = [state.model.like(state.model.flat[r]) for r in range(runs)]
    grads = state.model.like(np.empty_like(state.model.flat))
    trains = [t for t, _ in splits]
    # the work every run of the stack does, added to each run's ledger at
    # the end of an epoch, before any run's total is read
    shared = FlopsLedger()
    m = state.model.num_modalities
    h = state.model.num_classes
    n_params = state.model.flat.shape[-1]
    spans = [state.model.encoder_span(i) for i in range(m)]
    n_encoder_params = sum(span.stop - span.start for span in spans)
    best = state.model.flat.copy()
    best_acc = [-1.0] * runs

    for epoch in range(cfg.epochs):
        state.epoch = epoch
        lr = step_lr(cfg, epoch)

        orders = []
        for r in range(runs):
            weights = None
            if sample_weights[r] is not None:
                weights = sample_weights[r](views[r], trains[r], values[r], ledgers[r])
            batch_seed = int(_derived_seed(config[r].seed, epoch, 0).generate_state(1)[0])
            orders.append(datagen.batches(trains[r], cfg.batch_size, batch_seed, weights))

        loss_sum = np.zeros(runs)
        for b in range(len(orders[0])):
            idx = np.stack([order[b] for order in orders])
            # each run takes from its own train set, so no joined copy is held
            xb = [np.empty(idx.shape + (d,)) for d in trains[0].dims]
            yb = np.empty(idx.shape, dtype=np.int64)
            for r, t in enumerate(trains):
                for x, f in zip(xb, t.features):
                    np.take(f, idx[r], axis=0, out=x[r])
                np.take(t.labels, idx[r], out=yb[r])
            n = yb.shape[-1]

            # per run and modality: the factor a feature transform applied
            factors: list[list | None] = [None] * runs
            hook = None
            # with no score history yet (first batch) features pass through
            if state.running_scores is not None and any(transform):

                def hook(feats):
                    out = list(feats)
                    for r, fn in enumerate(transform):
                        if fn is None:
                            continue
                        rng = np.random.default_rng(_derived_seed(config[r].seed, epoch, b, 1))
                        mine = [f[r] for f in feats]
                        new, factors[r] = fn(mine, state.running_scores[r], values[r], rng)
                        for i in range(m):
                            if new[i] is not mine[i]:
                                if out[i] is feats[i]:
                                    out[i] = feats[i].copy()
                                out[i][r] = new[i]
                    return out

            cache = fusion.forward(state.model, xb, feature_hook=hook, ledger=shared)

            batch_scores = modality_scores(state.model, cache, yb)
            if state.running_scores is None:
                state.running_scores = batch_scores
            else:
                state.running_scores = (
                    SCORE_SMOOTHING * state.running_scores
                    + (1.0 - SCORE_SMOOTHING) * batch_scores
                )
            for r in range(runs):
                if grad_scale[r] is not None or transform[r] is not None:
                    # the hook reads the scores: partial softmax + mean per modality
                    ledgers[r].record("softmax_loss", m * n * h)
                    ledgers[r].record("elementwise", m * (n * h + n))

            if not any(objective):
                bundle = baseline_loss(state.model, cache, yb, shared)
            else:
                bundle = _stack_bundles([
                    baseline_loss(views[r], cache.run(r), yb[r], ledgers[r])
                    if objective[r] is None else
                    objective[r](views[r], cache.run(r), yb[r], values[r], ledgers[r])
                    for r in range(runs)
                ])
            finite = np.isfinite(bundle.loss)
            if not finite.all():
                raise DivergenceError(epoch, b, float(bundle.loss[np.argmin(finite)]))
            loss_sum += bundle.loss * n

            for r, run_factors in enumerate(factors):
                for i, factor in enumerate(run_factors or ()):
                    if factor is not None:
                        bundle.feature_grads[i][r] *= factor
                        ledgers[r].record("elementwise", bundle.feature_grads[i][r].size)
            _backward_into_model(state.model, cache, bundle, grads, shared)

            if any(grad_scale):
                kappa = np.ones((runs, m))
                for r, fn in enumerate(grad_scale):
                    if fn is not None:
                        kappa[r] = fn(state.running_scores[r], values[r])
                        ledgers[r].record("elementwise", n_encoder_params)
                for i, span in enumerate(spans):
                    grads.flat[:, span] *= kappa[:, i, None]

            sgd_step(state, grads.flat, lr, cfg)
            shared.record("elementwise", 6 * n_params)

        # select on the deployed form so validation ranks what evaluation will see
        evaluated = views
        if any(deploy):
            evaluated = [view if fn is None else fn(view) for view, fn in zip(views, deploy)]
            for r, fn in enumerate(deploy):
                if fn is not None:
                    ledgers[r].record("elementwise",
                                      sum(b.size for b in evaluated[r].head_blocks))
        for kind in _FLOP_KINDS:
            for led in ledgers:
                setattr(led, kind, getattr(led, kind) + getattr(shared, kind))
            setattr(shared, kind, 0)
        for r, (_, val) in enumerate(splits):
            # per run: a stacked pass takes no less time and holds R runs' activations
            val_acc = evaluate_accuracy(evaluated[r], val, ledger=ledgers[r])
            logs[r].records.append(
                EpochRecord(
                    epoch,
                    lr,
                    float(loss_sum[r]) / trains[r].num_samples,
                    val_acc,
                    tuple(float(s) for s in state.running_scores[r]),
                    ledgers[r].total,
                )
            )
            if val_acc > best_acc[r]:
                best_acc[r] = val_acc
                best[r] = evaluated[r].flat
                logs[r].best_epoch = epoch

    results = [(mdl.like(best[r]), log) for r, (mdl, log) in enumerate(zip(model, logs))]
    return results[0] if single else results
