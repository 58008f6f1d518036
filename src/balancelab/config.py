"""Strict dotted-key experiment configuration.

The format is plain text, one ``key = value`` pair per line; ``#`` starts a
comment. Keys are dotted paths from the reference table below; unknown keys,
type mismatches, and malformed lines are hard errors that name the key, so a
typo can never silently fall back to a default. Lists are comma-separated;
strings may be quoted.

The ``train.*`` keys are the fields of ``trainer.TrainConfig``; the
synthetic ``dataset.*`` keys are those of ``datagen.SyntheticSpec``
(``modalities`` and ``classes`` name its ``num_modalities`` and
``num_classes``). Each takes its kind and default from its field; the
``method.<param>`` keys come from ``methods.METHODS``.

Key reference (every key is optional; defaults in parentheses)::

    dataset.path        str    dataset file to load instead of generating
    dataset.modalities  int    (2)      number of modalities, 2 or 3
    dataset.classes     int    (4)      number of classes
    dataset.dims        ints   (12,12)  per-modality feature dimensions
    dataset.signal      floats (3.0,1.0) per-modality class-mean scales
    dataset.sigma       float  (1.0)    noise standard deviation
    dataset.samples     int    (4000)   dataset size
    dataset.seed        int    (0)      generation seed for `generate`
    model.hidden        ints   (24)     hidden sizes shared by all encoders
    model.feature_dim   int    (4)      encoder output dimension
    train.lr            float  (1e-3)
    train.momentum      float  (0.9)
    train.weight_decay  float  (1e-4)
    train.step_size     int    (30)     epochs between lr decays
    train.gamma         float  (0.1)    lr decay factor
    train.epochs        int    (40)
    train.batch_size    int    (64)
    method.kind         str    (baseline)  one of the method kinds
    method.<param>      float  one key per method parameter (w_uni, scale,
                               kl_weight, alpha, rho_mask, p_max, tau);
                               defaults and ranges in ``methods.METHODS``
    eval.fractions      floats (0.8,0.1,0.1) train/val/test fractions
    eval.shapley        bool   (true)   compute Shapley contributions
    output.dir          str    (runs)
    seed                int    (0)      master seed, see below
    seeds               ints   (1,2,3,4,5) per-run seeds

Each run's generators derive from the pair (master seed, run seed), so the
master seed shifts every run at once while the run seeds index repetitions.
Every seed (``seed``, ``seeds``, ``dataset.seed``) must be non-negative.
The ``BALANCELAB_SEED`` environment variable overrides the master seed; a
CLI flag overrides both (flag > environment > config).
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, fields
from typing import get_type_hints

from .datagen import SyntheticSpec, check_fractions
from .errors import ConfigError, SpecError
from .methods import METHODS, MethodSpec
from .trainer import TrainConfig

# each kind the parser reads, by the field annotation it fills
_KINDS = {int: "int", float: "float", tuple[int, ...]: "ints", tuple[float, ...]: "floats"}


def _field_entries(cls, keys: dict[str, str]) -> dict[str, tuple[str, object]]:
    """Schema entries (kind, default) read off the annotated fields of ``cls``."""
    hints, defaults = get_type_hints(cls), cls()
    return {key: (_KINDS[hints[name]], getattr(defaults, name)) for key, name in keys.items()}


_RENAMED = {"num_modalities": "modalities", "num_classes": "classes"}
# config key -> field of the object it builds
_DATASET_KEYS = {f"dataset.{_RENAMED.get(f.name, f.name)}": f.name for f in fields(SyntheticSpec)}
_TRAIN_KEYS = {f"train.{f.name}": f.name for f in fields(TrainConfig)}

_SCHEMA: dict[str, tuple[str, object]] = {
    "dataset.path": ("str", None),
    **_field_entries(SyntheticSpec, _DATASET_KEYS),
    "model.hidden": ("ints", (24,)),
    "model.feature_dim": ("int", 4),
    **_field_entries(TrainConfig, _TRAIN_KEYS),
    "method.kind": ("str", "baseline"),
    **{f"method.{m.param}": ("float", m.default) for m in METHODS.values() if m.param},
    "eval.fractions": ("floats", (0.8, 0.1, 0.1)),
    "eval.shapley": ("bool", True),
    "output.dir": ("str", "runs"),
    "seed": ("int", 0),
    "seeds": ("ints", (1, 2, 3, 4, 5)),
}


def coerce(key: str, kind: str, raw: str):
    """Parse one raw value as ``kind``; failures raise ConfigError naming ``key``."""
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        raw = raw[1:-1]
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(f"not a bool: {raw!r}")
        if kind == "ints":
            return tuple(int(v.strip()) for v in raw.split(","))
        if kind == "floats":
            return tuple(float(v.strip()) for v in raw.split(","))
        return raw  # str
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind} ({exc})") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: dataset, model shape, training recipe, method, eval."""

    values: tuple[tuple[str, object], ...]  # canonical (key, value) pairs

    def get(self, key: str):
        for k, v in self.values:
            if k == key:
                return v
        raise KeyError(key)

    # --- derived objects -------------------------------------------------

    @property
    def dataset_path(self) -> str | None:
        return self.get("dataset.path")

    def synthetic_spec(self, seed: int | None = None) -> SyntheticSpec:
        spec = SyntheticSpec(**{name: self.get(key) for key, name in _DATASET_KEYS.items()})
        return spec if seed is None else dataclasses.replace(spec, seed=seed)

    def train_config(self) -> TrainConfig:
        return TrainConfig(**{name: self.get(key) for key, name in _TRAIN_KEYS.items()})

    def method_spec(self, kind: str | None = None) -> MethodSpec:
        """The configured method, or registry ``kind``, at its ``method.<param>`` value."""
        kind = self.get("method.kind") if kind is None else kind
        param = METHODS[kind].param if kind in METHODS else None
        return MethodSpec(kind, None if param is None else self.get(f"method.{param}"))

    def arch(self, input_dims: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        hidden = self.get("model.hidden")
        feat = self.get("model.feature_dim")
        return tuple((d, *hidden, feat) for d in input_dims)

    @property
    def fractions(self) -> tuple[float, float, float]:
        return self.get("eval.fractions")

    @property
    def shapley_enabled(self) -> bool:
        return self.get("eval.shapley")

    @property
    def out_dir(self) -> str:
        return self.get("output.dir")

    @property
    def master_seed(self) -> int:
        return self.get("seed")

    @property
    def seeds(self) -> tuple[int, ...]:
        return self.get("seeds")

    # --- updates and serialization ---------------------------------------

    def with_key(self, key: str, value) -> "ExperimentConfig":
        """This config with ``key`` set to ``value``, held to ``from_dict``'s rules."""
        return ExperimentConfig.from_dict({**self.to_dict(), key: value})

    def to_dict(self) -> dict:
        has_path = self.dataset_path is not None
        return {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in self.values
            if v is not None
            and not (has_path and k.startswith("dataset.") and k != "dataset.path")
        }

    @staticmethod
    def from_dict(d: dict) -> "ExperimentConfig":
        """Inverse of :meth:`to_dict`, held to the parser's rules.

        The keys it leaves out take their defaults. An unknown key, a value
        of the wrong kind, or a config the parser would reject is a
        ConfigError.
        """
        for key, value in d.items():
            kind = kind_of(key)
            if not _is_kind(value, kind):
                raise ConfigError(f"{key}: expected {kind}, got {value!r}")
        cfg = ExperimentConfig(tuple((key, _from_json(kind, d[key]) if key in d else default)
                                     for key, (kind, default) in _SCHEMA.items()))
        _validate(cfg, explicit=set(d))
        return cfg


def kind_of(key: str) -> str:
    """The schema kind of ``key``: int, float, bool, str, ints or floats."""
    if key not in _SCHEMA:
        raise ConfigError(f"unknown key {key!r}")
    return _SCHEMA[key][0]


def _is_kind(value, kind: str) -> bool:
    """Whether a JSON or parsed value can stand for a schema ``kind`` value (a float
    kind takes ints; a list kind, a list or tuple)."""
    if kind in ("ints", "floats"):
        return isinstance(value, (list, tuple)) and all(_is_kind(v, kind[:-1]) for v in value)
    if kind == "bool" or isinstance(value, bool):
        return kind == "bool" and isinstance(value, bool)
    return isinstance(value, {"int": int, "float": (int, float), "str": str}[kind])


def _from_json(kind: str, value):
    """A value of schema ``kind`` as the parser would hold it."""
    if kind in ("ints", "floats"):
        return tuple(_from_json(kind[:-1], v) for v in value)
    return float(value) if kind == "float" else value


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse config text; unknown keys and bad values raise ConfigError."""
    seen: dict[str, object] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, raw_val = (part.strip() for part in line.split("=", 1))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen[key] = coerce(key, kind_of(key), raw_val)
    return ExperimentConfig.from_dict(seen)


def parse_config(source) -> ExperimentConfig:
    """Parse a config from a file path, or from literal text if the string
    contains a newline or '=' and no such file exists."""
    source = os.fspath(source) if not isinstance(source, str) else source
    if os.path.exists(source):
        with open(source, "r", encoding="utf-8") as fh:
            return parse_config_text(fh.read())
    if "=" in source or "\n" in source:
        return parse_config_text(source)
    raise ConfigError(f"no such config file: {source!r}")


def _validate(cfg: ExperimentConfig, explicit: set[str]) -> None:
    if cfg.dataset_path is not None:
        clash = [k for k in explicit if k.startswith("dataset.") and k != "dataset.path"]
        if clash:
            raise ConfigError(
                f"dataset.path excludes synthetic dataset keys, got {sorted(clash)}"
            )
    else:
        try:
            cfg.synthetic_spec()
        except SpecError as exc:
            raise ConfigError(f"dataset.*: {exc}") from None
    try:
        cfg.method_spec()
        for kind in METHODS:
            cfg.method_spec(kind)
    except SpecError as exc:
        raise ConfigError(f"method.*: {exc}") from None
    hidden, feat = cfg.get("model.hidden"), cfg.get("model.feature_dim")
    if min(hidden + (feat,)) < 1:
        raise ConfigError(f"model.*: every layer size must be at least 1, got hidden {hidden} "
                          f"and feature_dim {feat}")
    try:
        cfg.train_config()
    except SpecError as exc:
        raise ConfigError(f"train.*: {exc}") from None
    if len(cfg.seeds) < 1:
        raise ConfigError("seeds: need at least one seed")
    for key in ("seed", "seeds", "dataset.seed"):
        value = cfg.get(key)
        if min(value if isinstance(value, tuple) else (value,)) < 0:
            raise ConfigError(f"{key}: must be non-negative, got {value}")
    try:
        check_fractions(cfg.fractions)
    except SpecError as exc:
        raise ConfigError(f"eval.fractions: {exc}") from None
