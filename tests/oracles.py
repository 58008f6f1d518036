"""Independent oracles used by the tests.

These deliberately avoid the library's own gradient/Shapley code paths:
finite differences run over a flat parameter vector, the Bayes classifier
uses the true generative means, and the Shapley check uses the
subset-weighted formula instead of permutation averaging.
"""

import itertools
import math

import numpy as np

from balancelab import datagen, trainer


def model_gradient(model, cache, bundle):
    """The trainer's analytic gradient of ``bundle``, as a flat vector like ``model.flat``."""
    grads = model.like(np.empty_like(model.flat))
    trainer._backward_into_model(model, cache, bundle, grads, None)
    return grads.flat


def fd_max_rel_error(loss_fn, params, grads, eps=1e-6):
    """Max relative error of analytic vs central-difference gradients.

    ``params`` and ``grads`` are matching lists of arrays (for a model, its
    flat buffer and the flat gradient). ``loss_fn()`` reads
    the parameters, which are perturbed in place one coordinate at a time and
    restored. At each coordinate the error is ``|analytic - numeric| /
    max(1, |numeric|)``.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    worst = 0.0
    for arr, garr in zip(params, grads, strict=True):
        assert arr.shape == garr.shape, (arr.shape, garr.shape)
        view = arr.reshape(-1)
        gview = garr.reshape(-1)
        for j in range(view.size):
            orig = view[j]
            view[j] = orig + eps
            f_plus = float(loss_fn())
            view[j] = orig - eps
            f_minus = float(loss_fn())
            view[j] = orig
            if not (math.isfinite(f_plus) and math.isfinite(f_minus)):
                raise FloatingPointError("objective returned a non-finite value")
            numeric = (f_plus - f_minus) / (2.0 * eps)
            worst = max(worst, abs(gview[j] - numeric) / max(1.0, abs(numeric)))
    return worst


def bayes_accuracy(spec, modalities=None, n_samples=10_000, sample_seed=123_456):
    """Monte-Carlo accuracy of the Bayes classifier on true class means."""
    if modalities is None:
        modalities = list(range(spec.num_modalities))
    means = datagen.class_means(spec)
    rng = np.random.default_rng(sample_seed)
    labels = rng.integers(0, spec.num_classes, size=n_samples)
    correct = 0
    feats = [
        spec.signal[i] * means[i][labels] + spec.sigma * rng.standard_normal((n_samples, spec.dims[i]))
        for i in range(spec.num_modalities)
    ]
    scores = np.zeros((n_samples, spec.num_classes))
    for i in modalities:
        scaled = spec.signal[i] * means[i]
        for h in range(spec.num_classes):
            diff = feats[i] - scaled[h]
            scores[:, h] -= (diff * diff).sum(axis=1)
    preds = scores.argmax(axis=1)
    correct = (preds == labels).sum()
    return correct / n_samples


def shapley_subset_form(values, m):
    """phi_i = sum over A not containing i of |A|!(m-|A|-1)!/m! * marginal."""
    phi = [0.0] * m
    fact = math.factorial
    players = list(range(m))
    for i in players:
        rest = [j for j in players if j != i]
        for r in range(m):
            for combo in itertools.combinations(rest, r):
                a = frozenset(combo)
                weight = fact(len(a)) * fact(m - len(a) - 1) / fact(m)
                phi[i] += weight * (values[a | {i}] - values[a])
    return tuple(phi)
