"""Cross-entropy training loop with SGD momentum, step decay, and method hooks.

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

import math
from dataclasses import dataclass

import numpy as np

from . import datagen, fusion
from .datagen import Dataset
from .errors import ContractError, DivergenceError, ShapeError, SpecError
from .fusion import ForwardCache, FusionModel
from .metrics import FlopsLedger, accuracy
from .numkit import MlpGradients, mlp_backward, zeros_like_params

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
class ModelGradients:
    """Gradients for every parameter block of a FusionModel."""

    encoders: list[MlpGradients]
    head_blocks: list[np.ndarray]
    head_bias: np.ndarray


def zeros_like_model(model: FusionModel) -> ModelGradients:
    return ModelGradients(
        [zeros_like_params(e) for e in model.encoders],
        [np.zeros_like(b) for b in model.head_blocks],
        np.zeros_like(model.head_bias),
    )


def model_param_count(model: FusionModel) -> int:
    n = sum(l.weight.size + l.bias.size for e in model.encoders for l in e.layers)
    n += sum(b.size for b in model.head_blocks) + model.head_bias.size
    return n


@dataclass
class TrainState:
    """Mutable state owned by one training run."""

    model: FusionModel
    velocity: ModelGradients
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


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood and its logit gradient (softmax - onehot)/B."""
    n, h = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ContractError(f"labels must have shape ({n},), got {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= h):
        raise ContractError("label outside 0..H-1")
    probs = softmax(logits)
    with np.errstate(divide="ignore"):
        # an underflowed true-class probability yields inf, caught by the
        # trainer's divergence check
        loss = float(-np.mean(np.log(probs[np.arange(n), labels])))
    grad = probs
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return loss, grad


def step_lr(config: TrainConfig, epoch: int) -> float:
    """Step-decay schedule: lr * gamma^floor(epoch / step_size)."""
    if epoch < 0:
        raise SpecError(f"epoch must be >= 0, got {epoch}")
    return config.lr * config.gamma ** (epoch // config.step_size)


def modality_scores(model: FusionModel, cache: ForwardCache, labels: np.ndarray) -> np.ndarray:
    """Batch-mean true-class probability under each modality's partial logits."""
    if not all(cache.mask):
        raise ContractError("modality scores need a full-mask forward cache")
    n = cache.logits.shape[0]
    rows = np.arange(n)
    scores = np.empty(model.num_modalities)
    for i in range(model.num_modalities):
        probs = softmax(fusion.partial_logits(model, cache, i))
        scores[i] = probs[rows, labels].mean()
    return scores


def sgd_step(state: TrainState, grads: ModelGradients, lr: float,
             config: TrainConfig) -> TrainState:
    """One momentum-SGD update: v = mu*v + (g + wd*p); p -= lr*v."""

    def update(p: np.ndarray, v: np.ndarray, g: np.ndarray):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")
        g_eff = g + config.weight_decay * p
        v *= config.momentum
        v += g_eff
        p -= lr * v

    for enc, venc, genc in zip(state.model.encoders, state.velocity.encoders, grads.encoders):
        for layer, vlayer, glayer in zip(enc.layers, venc.layers, genc.layers):
            update(layer.weight, vlayer.weight, glayer.weight)
            update(layer.bias, vlayer.bias, glayer.bias)
    for blk, vblk, gblk in zip(state.model.head_blocks, state.velocity.head_blocks,
                               grads.head_blocks):
        update(blk, vblk, gblk)
    update(state.model.head_bias, state.velocity.head_bias, grads.head_bias)
    return state


@dataclass
class LossBundle:
    """An objective's value plus gradients for every top-level block.

    ``feature_grads[i]`` is the gradient with respect to the (post-hook)
    encoder output of modality i; the trainer pushes it through the feature
    hook factor and the encoder backward pass.
    """

    loss: float
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
    n, h = fused_grad.shape
    head_grads = []
    feature_grads = []
    bias_grad = fused_grad.sum(axis=0)
    for i in range(m):
        eff = fused_grad
        if partial_grads is not None and partial_grads[i] is not None:
            eff = fused_grad + partial_grads[i]
            bias_grad = bias_grad + partial_grads[i].sum(axis=0) / m
        head_grads.append(eff.T @ cache.features[i])
        feature_grads.append(eff @ model.head_blocks[i])
        if ledger is not None:
            ledger.record("matmul_backward", (n, cache.features[i].shape[1], h))
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
        ledger.record("softmax_loss", cache.logits.size)
    head_grads, bias_grad, feature_grads = assemble_grads(model, cache, grad, ledger=ledger)
    return LossBundle(loss, head_grads, bias_grad, feature_grads)


def _backward_into_model(
    model: FusionModel,
    cache: ForwardCache,
    bundle: LossBundle,
    hook_factors: list[np.ndarray | None] | None,
    ledger: FlopsLedger | None,
) -> ModelGradients:
    """Push a LossBundle through feature hooks and encoder backward passes."""
    enc_grads = []
    for i in range(model.num_modalities):
        fgrad = bundle.feature_grads[i]
        if hook_factors is not None and hook_factors[i] is not None:
            fgrad = fgrad * hook_factors[i]
            if ledger is not None:
                ledger.record("elementwise", fgrad.size)
        if cache.enc_caches[i] is None:
            enc_grads.append(zeros_like_params(model.encoders[i]))
            continue
        g, _ = mlp_backward(model.encoders[i], cache.enc_caches[i], fgrad)
        if ledger is not None:
            n = fgrad.shape[0]
            for layer in model.encoders[i].layers:
                d_out, d_in = layer.weight.shape
                ledger.record("matmul_backward", (n, d_in, d_out))
            for layer in model.encoders[i].layers[:-1]:
                ledger.record("elementwise", n * layer.weight.shape[0])
        enc_grads.append(g)
    return ModelGradients(enc_grads, bundle.head_grads, np.asarray(bundle.bias_grad))


def evaluate_accuracy(model: FusionModel, data: Dataset,
                      ledger: FlopsLedger | None = None) -> float:
    cache = fusion.forward(model, data.features, ledger=ledger)
    return accuracy(fusion.predict(cache.logits), data.labels)


def _derived_seed(*parts: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(list(parts))


def fit(
    splits: tuple[Dataset, Dataset],
    model: FusionModel,
    config: TrainConfig,
    method=None,
    ledger: FlopsLedger | None = None,
) -> tuple[FusionModel, TrainLog]:
    """Train on (train, val); return the best-validation-accuracy model and the log.

    Validation accuracy ties break toward the earlier epoch. A non-finite
    training loss aborts with DivergenceError. With ``config.epochs == 0``
    the input model is returned unchanged with an empty log. Methods whose
    strength parameter sits at its neutral value run the exact baseline code
    path, so they are bitwise-identical to Baseline under the same seed.
    """
    from . import methods as bm  # deferred: methods imports this module

    train, val = splits
    if method is None:
        method = bm.MethodSpec()
    if method.kind not in bm.METHODS:
        from .errors import DispatchError

        raise DispatchError(f"unknown method kind {method.kind!r}")
    if ledger is None:
        ledger = FlopsLedger()
    active = method.active()
    value = method.value
    # looked up per run, so a swapped module attribute sees every call
    objective = bm.resolve(active.objective)
    grad_scale = bm.resolve(active.grad_scale)
    transform = bm.resolve(active.feature_transform)
    sample_weights = bm.resolve(active.sample_weights)
    deploy = bm.resolve(active.deploy)

    log = TrainLog(records=[])
    if config.epochs == 0:
        return model, log

    state = TrainState(model.copy(), zeros_like_model(model), 0)
    n_params = model_param_count(model)
    m = model.num_modalities
    best_acc = -1.0
    best_model = state.model.copy()

    for epoch in range(config.epochs):
        state.epoch = epoch
        lr = step_lr(config, epoch)

        weights = None
        if sample_weights is not None:
            weights = sample_weights(state.model, train, value, ledger)
        batch_seed = int(_derived_seed(config.seed, epoch, 0).generate_state(1)[0])
        idx_batches = datagen.batches(train, config.batch_size, batch_seed, weights)

        loss_sum = 0.0
        for b, idx in enumerate(idx_batches):
            xb = [f[idx] for f in train.features]
            yb = train.labels[idx]

            hook_factors: list[np.ndarray | None] | None = None
            hook = None
            if transform is not None:
                hook_rng = np.random.default_rng(_derived_seed(config.seed, epoch, b, 1))
                scores_for_hook = state.running_scores

                def hook(feats, _rng=hook_rng, _scores=scores_for_hook):
                    nonlocal hook_factors
                    if _scores is None:
                        # no score history yet (first batch): pass through
                        hook_factors = [None] * m
                        return feats
                    out, hook_factors = transform(feats, _scores, value, _rng)
                    return out

            cache = fusion.forward(state.model, xb, feature_hook=hook, ledger=ledger)

            batch_scores = modality_scores(state.model, cache, yb)
            if state.running_scores is None:
                state.running_scores = batch_scores
            else:
                state.running_scores = (
                    SCORE_SMOOTHING * state.running_scores
                    + (1.0 - SCORE_SMOOTHING) * batch_scores
                )
            if grad_scale is not None or transform is not None:
                # the hook reads the scores: partial softmax + mean per modality
                ledger.record("softmax_loss", m * cache.logits.size)
                ledger.record("elementwise", m * (cache.logits.size + len(yb)))

            if objective is None:
                bundle = baseline_loss(state.model, cache, yb, ledger)
            else:
                bundle = objective(state.model, cache, yb, value, ledger)
            if not math.isfinite(bundle.loss):
                raise DivergenceError(epoch, b, bundle.loss)
            loss_sum += bundle.loss * len(idx)

            grads = _backward_into_model(state.model, cache, bundle, hook_factors, ledger)

            if grad_scale is not None:
                kappa = grad_scale(state.running_scores, value)
                for i in range(m):
                    for layer in grads.encoders[i].layers:
                        layer.weight *= kappa[i]
                        layer.bias *= kappa[i]
                        ledger.record("elementwise", layer.weight.size + layer.bias.size)

            sgd_step(state, grads, lr, config)
            ledger.record("elementwise", 6 * n_params)

        # select on the deployed form so validation ranks what evaluation will see
        eval_model = state.model
        if deploy is not None:
            eval_model = deploy(state.model)
            ledger.record("elementwise", sum(b.size for b in eval_model.head_blocks))
        val_acc = evaluate_accuracy(eval_model, val, ledger=ledger)
        log.records.append(
            EpochRecord(
                epoch,
                lr,
                loss_sum / train.num_samples,
                val_acc,
                tuple(float(s) for s in state.running_scores),
                ledger.total,
            )
        )
        if val_acc > best_acc:
            best_acc = val_acc
            best_model = eval_model if eval_model is not state.model else state.model.copy()
            log.best_epoch = epoch

    return best_model, log
