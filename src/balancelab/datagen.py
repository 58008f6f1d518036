"""Seeded synthetic multimodal classification datasets.

The generative model is Gaussian class-conditional per modality: class h and
modality i get a unit-norm mean direction ``mu[h, i]`` drawn once from the
seeded generator, and a sample with label y has features
``signal[i] * mu[y, i] + sigma * eps`` with standard normal ``eps``. The
per-modality ``signal`` scale is the imbalance knob: a larger scale makes
that modality carry more class information by construction.

Labels are 0-based (0 .. H-1) everywhere, including on disk.

Dataset file format (text, one record per line)::

    MMDS v1
    m=<int> H=<int> N=<int> dims=<d1,...,dm>
    <label>|<v1 ... v_d1>|<v1 ... v_d2>|...

Values are decimal with 17 significant digits, which round-trips float64
bitwise; a NaN is written ``nan``, so it reads back as the default quiet NaN
whatever its sign and payload were. ``load`` also reads other blank layouts:
tabs or runs of spaces between values, blanks around a field, CRLF line
ends, no final newline.

``load`` keeps each regular file's parse in a binary sidecar ``<path>.cache``
next to it, keyed by the sha256 of the file's bytes, so a later load of the
same bytes skips the text parse. ``save`` hashes the bytes it writes and
leaves the same sidecar, so a file it wrote is never parsed. The sidecar is
safe to delete. None is written for a path that is not a regular file (a
FIFO, ``/dev/stdin``), for a file that fails to parse, where the directory
is not writable, or by ``save`` for data holding a NaN.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import stat
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .errors import FormatError, SpecError

FLOAT_FMT = "%.17g"  # checkpoints (fusion.save_model) write with it too
CHUNK_LINES = 1024  # records per chunk that save formats and load parses, a loadtxt per modality
# str.splitlines() ends a line at these, readline() does not: a record holding one is rejected
_LINE_BREAKS = "\x0b\x0c\x1c\x1d\x1e"


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic dataset; equal specs generate equal datasets."""

    num_modalities: int = 2
    num_classes: int = 4
    dims: tuple[int, ...] = (12, 12)
    signal: tuple[float, ...] = (3.0, 1.0)
    sigma: float = 1.0
    samples: int = 4000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "signal", tuple(float(s) for s in self.signal))
        if self.num_modalities not in (2, 3):
            raise SpecError(f"num_modalities must be 2 or 3, got {self.num_modalities}")
        if self.num_classes < 2:
            raise SpecError(f"num_classes must be >= 2, got {self.num_classes}")
        if len(self.dims) != self.num_modalities:
            raise SpecError("one dimension per modality required")
        if any(d < 1 for d in self.dims):
            raise SpecError(f"all dims must be >= 1, got {self.dims}")
        if len(self.signal) != self.num_modalities:
            raise SpecError("one signal scale per modality required")
        # each test is written so that NaN fails it
        if not all(0.0 <= s < math.inf for s in self.signal):
            raise SpecError(f"signal scales must be non-negative and finite, got {self.signal}")
        if not 0.0 < self.sigma < math.inf:
            raise SpecError(f"sigma must be positive and finite, got {self.sigma}")
        if self.samples < self.num_classes:
            raise SpecError(
                f"need at least one sample per class: N={self.samples} < H={self.num_classes}"
            )


@dataclass
class Dataset:
    """Per-sample, per-modality feature matrices plus 0-based class labels.

    Values are immutable by convention once constructed.
    """

    features: list[np.ndarray]
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.features = [np.ascontiguousarray(f, dtype=np.float64) for f in self.features]
        n = self.labels.shape[0]
        for i, f in enumerate(self.features):
            if f.ndim != 2 or f.shape[0] != n:
                raise SpecError(f"modality {i} features must be ({n}, d), got {f.shape}")
        if n and (self.labels.min() < 0 or self.labels.max() >= self.num_classes):
            raise SpecError("labels outside 0..H-1")

    @property
    def num_modalities(self) -> int:
        return len(self.features)

    @property
    def num_samples(self) -> int:
        return int(self.labels.shape[0])

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[1] for f in self.features)

    def subset(self, idx: np.ndarray) -> "Dataset":
        """The rows ``idx``, an integer index array, each gathered into a new array."""
        return Dataset(
            [f.take(idx, axis=0) for f in self.features],
            self.labels.take(idx),
            self.num_classes,
        )

    def select_modalities(self, keep: list[int]) -> "Dataset":
        """A copy of the dataset restricted to the given modality indices."""
        return Dataset(
            [self.features[i].copy() for i in keep],
            self.labels.copy(),
            self.num_classes,
        )


def class_means(spec: SyntheticSpec, rng=None) -> list[np.ndarray]:
    """The spec's unit-norm class means, one (H, d_i) array per modality: the first
    draws of ``rng``, by default the spec's own generator, as in ``generate``."""
    rng = np.random.default_rng(spec.seed) if rng is None else rng
    raws = [rng.standard_normal((spec.num_classes, d)) for d in spec.dims]
    return [raw / np.linalg.norm(raw, axis=1, keepdims=True) for raw in raws]


def generate(spec: SyntheticSpec) -> Dataset:
    """Draw one dataset from the spec. Identical specs give identical bytes.

    Generator consumption order is fixed: class means per modality
    (``class_means``), then labels, then per-modality noise. Labels are drawn
    uniformly and then adjusted deterministically so every class appears at
    least once.
    """
    rng = np.random.default_rng(spec.seed)
    means = class_means(spec, rng)
    labels = rng.integers(0, spec.num_classes, size=spec.samples).astype(np.int64)

    counts = np.bincount(labels, minlength=spec.num_classes)
    for h in range(spec.num_classes):
        if counts[h] == 0:
            # steal the first sample whose class still has spares
            for k in range(spec.samples):
                if counts[labels[k]] > 1:
                    counts[labels[k]] -= 1
                    labels[k] = h
                    counts[h] += 1
                    break

    features = []
    for i, d in enumerate(spec.dims):
        eps = rng.standard_normal((spec.samples, d))
        features.append(spec.signal[i] * means[i][labels] + spec.sigma * eps)
    return Dataset(features, labels, spec.num_classes)


def _largest_remainder(fractions: tuple[float, ...], total: int) -> list[int]:
    raw = [f * total for f in fractions]
    sizes = [int(np.floor(r)) for r in raw]
    remainders = [r - s for r, s in zip(raw, sizes)]
    short = total - sum(sizes)
    # ties go to the earlier split
    order = sorted(range(len(fractions)), key=lambda j: (-remainders[j], j))
    for j in order[:short]:
        sizes[j] += 1
    return sizes


def check_fractions(fractions: tuple[float, ...]) -> None:
    """Three positive (train, val, test) fractions summing to 1 within 1e-9; NaN or inf fails."""
    if len(fractions) != 3:
        raise SpecError("exactly three fractions (train, val, test) required")
    if not all(f > 0 for f in fractions):
        raise SpecError(f"all fractions must be positive, got {fractions}")
    if not abs(sum(fractions) - 1.0) <= 1e-9:
        raise SpecError(f"fractions must sum to 1, got {sum(fractions)}")


def split(
    data: Dataset, fractions: tuple[float, float, float], seed: int
) -> tuple[Dataset, Dataset, Dataset]:
    """Deterministic stratified train/val/test split.

    ``fractions`` must pass :func:`check_fractions`. Global split sizes
    follow the largest-remainder rule; within each class, indices are
    shuffled by the seeded generator and allocated proportionally, so the
    split is stratified whenever class counts permit. Small splits may lack
    some classes; ``num_classes`` is carried over regardless.
    """
    check_fractions(fractions)
    n = data.num_samples
    sizes = _largest_remainder(tuple(fractions), n)
    if any(s == 0 for s in sizes):
        raise SpecError(f"split sizes {sizes} include an empty split for N={n}")

    rng = np.random.default_rng(seed)
    buckets: list[list[np.ndarray]] = [[], [], []]
    leftover = []
    for h in range(data.num_classes):
        idx = np.flatnonzero(data.labels == h)
        idx = idx[rng.permutation(idx.size)]
        pos = 0
        for s, f in enumerate(fractions):
            base = int(np.floor(f * idx.size))
            buckets[s].append(idx[pos : pos + base])
            pos += base
        leftover.append(idx[pos:])
    # top up deficits in split order from the leftover pool
    pool = np.concatenate(leftover)
    pos = 0
    for s in range(3):
        need = sizes[s] - sum(part.size for part in buckets[s])
        buckets[s].append(pool[pos : pos + need])
        pos += need
    return tuple(data.subset(np.sort(np.concatenate(b))) for b in buckets)


def batches(
    data: Dataset,
    batch_size: int,
    shuffle_seed: int,
    weights: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Index batches for one epoch.

    Without weights: a seeded permutation of all indices chunked into batches
    (the last may be short). With weights: N draws by weighted sampling with
    replacement, chunked the same way. Weights must be non-negative with at
    least one positive entry; zero-weight samples are never drawn.
    """
    if batch_size < 1:
        raise SpecError(f"batch_size must be >= 1, got {batch_size}")
    n = data.num_samples
    rng = np.random.default_rng(shuffle_seed)
    if weights is None:
        order = rng.permutation(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (n,):
            raise SpecError(f"weights must have length {n}, got shape {w.shape}")
        if np.any(w < 0):
            raise SpecError("weights must be non-negative")
        total = w.sum()
        if total <= 0:
            raise SpecError("at least one weight must be positive")
        order = rng.choice(n, size=n, replace=True, p=w / total)
    return [order[k : k + batch_size] for k in range(0, n, batch_size)]


def save(data: Dataset, path) -> None:
    """Write the dataset in the MMDS v1 text format, one format string per record.

    :func:`load` reads every value back bit for bit, except that each NaN
    comes back as the default quiet NaN (``%.17g`` drops a NaN's sign and
    payload). Every byte written goes through one sha256, and a regular file
    gets the sidecar ``<path>.cache`` that its first load would write, so no
    load parses the text just written. No sidecar is left for data holding a
    NaN (the parse's bits are not the data's), for a path that is not a
    regular file, or where the sidecar cannot be written; :func:`load`'s digest
    check then rejects any sidecar of earlier bytes still there.
    """
    dims = ",".join(str(d) for d in data.dims)
    record = "|".join(["%d"] + [" ".join([FLOAT_FMT] * d) for d in data.dims]) + "\n"
    head = (f"MMDS v1\nm={data.num_modalities} H={data.num_classes} N={data.num_samples} "
            f"dims={dims}\n").encode("ascii")
    digest = hashlib.sha256(head)
    with open(path, "wb") as fh:
        fh.write(head)
        # a chunk at a time: tolist() of the whole table would hold every value as a Python float
        for start in range(0, data.num_samples, CHUNK_LINES):
            rows = slice(start, start + CHUNK_LINES)
            values = np.hstack([f[rows] for f in data.features]).tolist()
            chunk = "".join([record % (label, *row) for label, row
                             in zip(data.labels[rows].tolist(), values)]).encode("ascii")
            digest.update(chunk)
            fh.write(chunk)
        regular = stat.S_ISREG(os.fstat(fh.fileno()).st_mode)
    if regular and not any(np.isnan(f).any() for f in data.features):
        _write_cache(f"{os.fspath(path)}.cache", digest.digest(), data)


def header_fields(line: str) -> dict[str, str]:
    """The ``key=value`` tokens of a text file's header (line 2 of MMDS and MMCK files).

    Any other token is a FormatError.
    """
    fields = {}
    for tok in line.split():
        if "=" not in tok:
            raise FormatError(f"bad header token {tok!r}", line=2)
        key, val = tok.split("=", 1)
        fields[key] = val
    return fields


def _read_header(fh) -> tuple[int, int, int, tuple[int, ...]]:
    """``(m, H, N, dims)`` from the first two lines of an open MMDS v1 file."""
    lines = [line.rstrip("\n") for line in (fh.readline(), fh.readline()) if line]
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
    if min(dims) < 1:
        raise FormatError(f"dims must be positive, got {dims}", line=2)
    if not 1 <= num_classes < 2**63:  # labels are int64
        raise FormatError(f"H={num_classes} outside 1..2**63-1", line=2)
    return m, num_classes, n, dims


def read_header(path) -> tuple[int, int, int, tuple[int, ...]]:
    """``(m, H, N, dims)`` of an MMDS v1 file, reading only its first two lines."""
    with open(path, "r", encoding="ascii") as fh:
        return _read_header(fh)


def _record(line: str, lineno: int, m: int, num_classes: int,
            dims: tuple[int, ...]) -> tuple[int, list[float]]:
    """One record's label and values, field by field; a fault is a FormatError naming ``lineno``."""
    if any(c in line for c in _LINE_BREAKS):
        raise FormatError("control character inside the record", line=lineno)
    parts = line.split("|")
    if len(parts) != m + 1:
        raise FormatError(f"expected {m + 1} '|'-fields, got {len(parts)}", line=lineno)
    try:
        label = int(parts[0])
    except ValueError:
        raise FormatError(f"bad label {parts[0]!r}", line=lineno) from None
    if not 0 <= label < num_classes:
        raise FormatError(f"label {label} outside 0..{num_classes - 1}", line=lineno)
    values = []
    for i, (field, d) in enumerate(zip(parts[1:], dims)):
        vals = field.split()
        if len(vals) != d:
            raise FormatError(f"modality {i} has {len(vals)} values, header declares {d}",
                              line=lineno)
        try:
            values += map(float, vals)
        except ValueError:
            raise FormatError(f"bad float in modality {i}", line=lineno) from None
    return label, values


def _parse_chunk(lines: list[str], first: int, m: int, num_classes: int,
                 dims: tuple[int, ...]) -> tuple[list[int], np.ndarray]:
    """Labels and (len(lines), sum(dims)) values of the records from line ``first`` on.

    Each record is split at '|' once; then modality i's fields take one
    ``np.loadtxt`` call for the whole chunk, whose values equal ``float()``'s
    bit for bit, and its array must be (len(lines), dims[i]). A chunk failing
    any check is parsed record by record, which reads what ``float()`` reads
    (``1_0`` too) and names the first bad line.
    """
    rows = [line.split("|") for line in lines]
    text = "".join(lines)
    if all(len(parts) == m + 1 for parts in rows) and not any(c in text for c in _LINE_BREAKS):
        label_column, *columns = zip(*rows)
        try:
            labels = list(map(int, label_column))
            # loadtxt warns on a column without values; its empty stand-in fails the shape check
            fields = [np.loadtxt(column, comments=None, ndmin=2) if any(map(str.strip, column))
                      else np.empty((0, 0)) for column in columns]
        except ValueError:
            pass
        else:
            if (all(0 <= label < num_classes for label in labels)
                    and [f.shape for f in fields] == [(len(lines), d) for d in dims]):
                return labels, np.hstack(fields)
    records = [_record(line, first + k, m, num_classes, dims) for k, line in enumerate(lines)]
    return [label for label, _ in records], np.array([values for _, values in records])


def _sha256(raw) -> bytes:
    """The sha256 of a binary file's bytes from its start, read a block at a time."""
    raw.seek(0)
    digest = hashlib.sha256()
    while block := raw.read(1 << 18):
        digest.update(block)
    return digest.digest()


def _read_cache(path: str, digest: bytes, n: int,
                dims: tuple[int, ...]) -> tuple[np.ndarray, list[np.ndarray]] | None:
    """The labels and features a sidecar holds, or None unless it is readable,
    records ``digest`` and holds the dtypes and shapes of the header ``(n, dims)``."""
    expected = [(np.uint8, (len(digest),)), (np.int64, (n,)), *((np.float64, (n, d)) for d in dims)]
    try:
        with open(path, "rb") as fh:
            arrays = [np.lib.format.read_array(fh, allow_pickle=False) for _ in expected]
    except (OSError, ValueError):
        return None
    if arrays[0].tobytes() != digest:
        return None
    if any((a.dtype, a.shape) != (np.dtype(t), s) for a, (t, s) in zip(arrays, expected)):
        return None
    return arrays[1], arrays[2:]


@contextlib.contextmanager
def write_whole(path):
    """A temporary path beside ``path`` to write, moved onto ``path`` when the block ends.

    So ``path`` is written whole or not at all: an interrupted or failed
    write leaves neither a partial file nor the temporary one.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_cache(path: str, digest: bytes, data: Dataset) -> None:
    """Write the sidecar whole (``write_whole``): digest, labels, then each modality's
    features, one ``np.save`` each. A location that cannot be written is skipped."""
    with contextlib.suppress(OSError), write_whole(path) as tmp, open(tmp, "wb") as fh:
        for array in (np.frombuffer(digest, np.uint8), data.labels, *data.features):
            np.save(fh, array, allow_pickle=False)


def load(path) -> Dataset:
    """Read an MMDS v1 file; inverse of :func:`save` bit for bit, but for a NaN's sign
    and payload (every NaN reads as the default quiet NaN).

    Records are read and parsed :data:`CHUNK_LINES` at a time, by
    :func:`_parse_chunk`. A wrong record count is reported (on line 2)
    before any fault inside a record.

    For a regular file, the sidecar ``<path>.cache`` records the sha256 of
    the bytes parsed beside the arrays. When it records the digest of the
    file as it is now, and holds the header's dtypes and shapes, its arrays
    are returned with no parse. Otherwise the file is parsed, hashed again,
    and the sidecar (re)written if the two digests agree. A missing,
    truncated, foreign or stale sidecar is ignored; deleting one costs one
    parse. A path that is not a regular file, or a file that fails to
    parse, is never cached.
    """
    with open(path, "r", encoding="ascii") as fh:
        cache = f"{os.fspath(path)}.cache" if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else None
        if cache is not None:
            digest = _sha256(fh.buffer)
            fh.seek(0)
        m, num_classes, n, dims = _read_header(fh)
        cached = _read_cache(cache, digest, n, dims) if cache is not None else None
        if cached is not None:
            return Dataset(cached[1], cached[0], num_classes)
        labels: list[int] = []
        tables = [np.empty((0, sum(dims)))]  # so that N = 0 gives (0, d) features
        count = 0
        while lines := list(islice(fh, CHUNK_LINES)):
            try:
                chunk_labels, values = _parse_chunk(lines, 3 + count, m, num_classes, dims)
            except FormatError:
                count += len(lines) + sum(1 for _ in fh)
                if count != n:
                    break
                raise
            labels += chunk_labels
            tables.append(values)
            count += len(lines)
        # the digest must be of the bytes parsed: a file that changed meanwhile is not cached
        unchanged = cache is not None and _sha256(fh.buffer) == digest
    if count != n:
        raise FormatError(f"header declares N={n} but file has {count} records", line=2)
    bounds = [0, *accumulate(dims)]
    features = [np.concatenate([t[:, a:b] for t in tables]) for a, b in zip(bounds, bounds[1:])]
    data = Dataset(features, labels, num_classes)
    if unchanged:
        _write_cache(cache, digest, data)
    return data
