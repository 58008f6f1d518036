"""Independent oracles used by the tests.

These deliberately avoid the library's own gradient/Shapley code paths:
finite differences run over a flat parameter vector, the Bayes classifier
uses the true generative means, the Shapley check uses the
subset-weighted formula instead of permutation averaging, masked evaluation
zeroes features between the encoders and the head, the modality scores take one
softmax per modality, the cosine and KL references restate their
methods' definitions directly, the MMDS reader and writer parse and
format one record, one value at a time, and the split moves its indices
through Python lists.
"""

import itertools
import math

import numpy as np

from balancelab import datagen, fusion, metrics, trainer
from balancelab.datagen import FLOAT_FMT, Dataset, header_fields
from balancelab.errors import FormatError, SpecError
from balancelab.numkit import LayerParams, MlpParams


def mlp_copy(params):
    """An MlpParams whose layers are copies of ``params``'s."""
    return MlpParams([LayerParams(l.weight.copy(), l.bias.copy()) for l in params.layers])


def glorot_flat(arch, num_classes, seed):
    """Seeded Glorot-uniform init, one array at a time, concatenated into a flat vector.

    Encoder weights are drawn first (encoder 0's layers, encoder 1's, ...),
    then the head blocks; biases are zero. The vector lists each encoder's
    layers (weight, then bias), the head blocks, then the head bias.
    """
    rng = np.random.default_rng(seed)

    def glorot(d_out, d_in):
        a = np.sqrt(6.0 / (d_in + d_out))
        return rng.uniform(-a, a, size=(d_out, d_in))

    arrays = []
    for sizes in arch:
        for d_in, d_out in zip(sizes, sizes[1:]):
            arrays += [glorot(d_out, d_in), np.zeros(d_out)]
    arrays += [glorot(num_classes, sizes[-1]) for sizes in arch]
    arrays.append(np.zeros(num_classes))
    return np.concatenate([a.reshape(-1) for a in arrays])


def model_gradient(model, cache, bundle):
    """The trainer's analytic gradient of ``bundle``, as a flat vector like ``model.flat``."""
    grads = model.like(np.empty_like(model.flat))
    feature_grads = [np.empty(g.shape) for g in bundle.feature_grads]
    trainer._put_range(bundle, slice(None), grads, feature_grads)
    trainer._backward_into_model(model, cache, feature_grads, grads)
    return grads.flat


def per_modality_scores(model, cache, labels):
    """Batch-mean true-class probability, one softmax and gather per modality.

    Shape (m,), or (R, m) for a stacked forward with (R, B) labels.
    """
    m = model.num_modalities
    true = (*np.indices(labels.shape, sparse=True), labels)
    scores = np.empty(labels.shape[:-1] + (m,))
    for i in range(m):
        partial = cache.block_products[i] + (model.head_bias / m)[..., None, :]
        scores[..., i] = trainer.softmax(partial)[true].mean(axis=-1)
    return scores


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


def masked_accuracy(model, data, subset):
    """Accuracy with the features of every modality outside ``subset`` zeroed."""
    features, enc_caches = fusion.encode(model, data.features)
    features = [f if i in subset else np.zeros_like(f) for i, f in enumerate(features)]
    cache = fusion.head(model, features, enc_caches)
    return metrics.accuracy(fusion.predict(cache.logits), data.labels)


def cosine_logits(model, cache, scale, eps=1e-12):
    """Norm-free logits: ``scale * sum_i cos(angle(W_i[h], phi_i))``, norms clamped at eps."""
    logits = np.zeros((cache.logits.shape[0], model.num_classes))
    for w, phi in zip(model.head_blocks, cache.features):
        wn = np.maximum(np.linalg.norm(w, axis=1), eps)
        fn = np.maximum(np.linalg.norm(phi, axis=1), eps)
        logits += (phi @ w.T) / (fn[:, None] * wn[None, :])
    return scale * logits


def symmetric_kl(p, q):
    """KL(p||q) + KL(q||p) in nats for two probability vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(np.sum(p * np.log(p / q)) + np.sum(q * np.log(q / p)))


def split_lists(data, fractions, seed):
    """``datagen.split``'s train/val/test parts, each index moved through a list.

    Each class's seeded shuffle gives floor(f * count) indices to each
    split in turn; the rest, class by class, top the splits up in order to
    their largest-remainder sizes, and each part takes its rows ascending.
    """
    datagen.check_fractions(fractions)
    n = data.num_samples
    sizes = datagen._largest_remainder(tuple(fractions), n)
    if any(s == 0 for s in sizes):
        raise SpecError(f"split sizes {sizes} include an empty split for N={n}")
    rng = np.random.default_rng(seed)
    buckets, leftover = [[], [], []], []
    for h in range(data.num_classes):
        idx = np.flatnonzero(data.labels == h)
        idx = idx[rng.permutation(idx.size)]
        pos = 0
        for s in range(3):
            base = int(np.floor(fractions[s] * idx.size))
            buckets[s].extend(idx[pos : pos + base].tolist())
            pos += base
        leftover.extend(idx[pos:].tolist())
    pos = 0
    for s in range(3):
        need = sizes[s] - len(buckets[s])
        buckets[s].extend(leftover[pos : pos + need])
        pos += need
    parts = []
    for bucket in buckets:
        order = np.array(sorted(bucket), dtype=np.int64)
        parts.append(Dataset([f[order] for f in data.features], data.labels[order],
                             data.num_classes))
    return parts


def mmds_save(data, path):
    """Write the dataset in the MMDS v1 text format."""
    dims = ",".join(str(d) for d in data.dims)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("MMDS v1\n")
        fh.write(
            f"m={data.num_modalities} H={data.num_classes} N={data.num_samples} dims={dims}\n"
        )
        for k in range(data.num_samples):
            cols = [str(int(data.labels[k]))]
            for f in data.features:
                cols.append(" ".join(FLOAT_FMT % v for v in f[k]))
            fh.write("|".join(cols) + "\n")


def _mmds_header(lines):
    """``(m, H, N, dims)`` from the first two lines of an MMDS v1 file."""
    if not lines:
        raise FormatError("empty file", line=1)
    if lines[0] != "MMDS v1":
        raise FormatError(f"bad magic {lines[0]!r}, expected 'MMDS v1'", line=1)
    if len(lines) < 2:
        raise FormatError("missing header line", line=2)
    header = header_fields(lines[1])
    try:
        m = int(header["m"])
        num_classes = int(header["H"])
        n = int(header["N"])
        dims = tuple(int(d) for d in header["dims"].split(","))
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad header: {exc}", line=2) from None
    if len(dims) != m:
        raise FormatError(f"dims lists {len(dims)} values for m={m}", line=2)
    return m, num_classes, n, dims


def mmds_load(path):
    """Read an MMDS v1 file whole, then each record with ``int()`` and ``float()``."""
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.read().splitlines()
    m, num_classes, n, dims = _mmds_header(lines[:2])
    if len(lines) - 2 != n:
        raise FormatError(f"header declares N={n} but file has {len(lines) - 2} records", line=2)

    labels = np.empty(n, dtype=np.int64)
    features = [np.empty((n, d), dtype=np.float64) for d in dims]
    for k in range(n):
        lineno = k + 3
        parts = lines[k + 2].split("|")
        if len(parts) != m + 1:
            raise FormatError(f"expected {m + 1} '|'-fields, got {len(parts)}", line=lineno)
        try:
            labels[k] = int(parts[0])
        except ValueError:
            raise FormatError(f"bad label {parts[0]!r}", line=lineno) from None
        if not (0 <= labels[k] < num_classes):
            raise FormatError(f"label {labels[k]} outside 0..{num_classes - 1}", line=lineno)
        for i in range(m):
            vals = parts[i + 1].split()
            if len(vals) != dims[i]:
                raise FormatError(
                    f"modality {i} has {len(vals)} values, header declares {dims[i]}",
                    line=lineno,
                )
            try:
                features[i][k] = [float(v) for v in vals]
            except ValueError:
                raise FormatError(f"bad float in modality {i}", line=lineno) from None
    return Dataset(features, labels, num_classes)
