"""Flat key-value configuration: parsing, canonical dumping, hashing.

The file format is one `key = value` pair per line, `#` comments allowed.
Every run prints the hash of the resolved configuration so results can be
tied back to an exact setup.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields
from functools import reduce

from .blocks import DenseBlockSpec, GpfcaConfig, ModelConfig
from .losses import LossWeights
from .spectral import SpectroConfig
from .trainer import OptConfig, ToyTaskSpec


class ConfigError(ValueError):
    def __init__(self, message, line_no=None, key=None):
        loc = []
        if line_no is not None:
            loc.append(f"line {line_no}")
        if key is not None:
            loc.append(f"key {key!r}")
        prefix = f"[{', '.join(loc)}] " if loc else ""
        super().__init__(prefix + message)
        self.line_no = line_no
        self.key = key


@dataclass
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    spectro: SpectroConfig = field(default_factory=SpectroConfig)
    weights: LossWeights = field(default_factory=LossWeights)
    opt: OptConfig = field(default_factory=OptConfig)
    task: ToyTaskSpec = field(default_factory=ToyTaskSpec)
    loss_mode: str = "new"
    train_steps: int = 2000
    batch_size: int = 2


def tiny_run_config():
    """Desk-scale defaults: small model, short segments, fast steps."""
    return RunConfig(
        model=ModelConfig(
            channels=8,
            dense=DenseBlockSpec(depth=2, dilations=(1, 2)),
            gpfca=GpfcaConfig(ffn_expansion=2),
            ts_block_count=1,
        ),
        spectro=SpectroConfig(
            fft_size=128, win_length=128, hop=32, segment_seconds=0.128
        ),
        task=ToyTaskSpec(segment_samples=2048),
    )


def default_run_config():
    """Full-scale defaults calibrated to the published model size."""
    return RunConfig()


_PRESETS = {"default": default_run_config, "tiny": tiny_run_config}


# ---------------------------------------------------------------------------
# flat representation
# ---------------------------------------------------------------------------

# Keys are `<section>.<field>` over the fields of these RunConfig objects,
# so the dataclasses are the only place a key or its default is written.
_SECTIONS = {
    "model": ("model",),
    "dense": ("model", "dense"),
    "gpfca": ("model", "gpfca"),
    "spectro": ("spectro",),
    "loss": ("weights",),
    "opt": ("opt",),
    "task": ("task",),
}
_TOP_LEVEL = {
    "loss.mode": ("loss_mode",),
    "train.steps": ("train_steps",),
    "train.batch_size": ("batch_size",),
}
_SECTION_OF = {path: section for section, path in _SECTIONS.items()}


def _field_paths(cfg):
    """Map `<section>.<field>` and the top-level keys to RunConfig paths."""
    paths = dict(_TOP_LEVEL)
    for section, path in _SECTIONS.items():
        for f in fields(reduce(getattr, path, cfg)):
            if (*path, f.name) not in _SECTIONS.values():
                paths[f"{section}.{f.name}"] = (*path, f.name)
    return paths


def _fmt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return ",".join(str(x) for x in v)
    return str(v)


def dump(cfg):
    """Canonical flat text form of a RunConfig (sorted keys)."""
    pairs = {key: reduce(getattr, path, cfg)
             for key, path in _field_paths(cfg).items()}
    return "\n".join(f"{k} = {_fmt(v)}" for k, v in sorted(pairs.items())) + "\n"


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def config_hash(cfg):
    return _digest(dump(cfg))


def model_hash(cfg):
    """Hash of the model.*, dense.*, gpfca.* and spectro.* keys, the ones a
    checkpoint's weights depend on. Checkpoints record it."""
    lines = dump(cfg).splitlines(keepends=True)
    return _digest("".join(
        line for line in lines
        if line.split(".")[0] in ("model", "dense", "gpfca", "spectro")
    ))


def _parse_value(raw, like):
    if isinstance(like, tuple):
        return tuple(int(x) for x in raw.split(","))
    if isinstance(like, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if isinstance(like, int):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    return raw


def parse(text):
    """Parse flat key-value text into a key -> string mapping."""
    pairs = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("expected 'key = value'", line_no=line_no)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError("empty key or value", line_no=line_no)
        if key in pairs:
            raise ConfigError("duplicate key", line_no=line_no, key=key)
        pairs[key] = value
    return pairs


def _construct(proto, path, values):
    """A copy of dataclass `proto` (at `path` in RunConfig) built from the
    given field values; every other field keeps its dataclass default. A
    value the dataclass rejects is reported with the section's name."""
    kwargs = {}
    for f in fields(proto):
        sub = (*path, f.name)
        if sub in values:
            kwargs[f.name] = values[sub]
        elif sub in _SECTIONS.values():
            kwargs[f.name] = _construct(getattr(proto, f.name), sub, values)
    try:
        return type(proto)(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"section {_SECTION_OF[path]!r}: {exc}") from exc


def build(pairs):
    """Materialize a RunConfig from flat pairs; unknown keys are rejected."""
    base = RunConfig()
    paths = _field_paths(base)
    for key in pairs:
        if key not in paths:
            raise ConfigError("unknown configuration key", key=key)
    values = {}
    for key, raw in pairs.items():
        try:
            values[paths[key]] = _parse_value(raw, reduce(getattr, paths[key], base))
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc), key=key) from exc
    cfg = _construct(base, (), values)
    if cfg.loss_mode not in ("old", "new"):
        raise ConfigError("loss.mode must be 'old' or 'new'", key="loss.mode")
    for key, value in (("train.steps", cfg.train_steps),
                       ("train.batch_size", cfg.batch_size)):
        if value < 1:
            raise ConfigError(f"{value} must be >= 1", key=key)
    # two STFT frames at least (the phase losses average over frame
    # differences), and with centre padding more samples than it reflects
    sp = cfg.spectro
    least = max(sp.win_length + sp.hop - 2 * sp.pad, sp.pad + 1)
    for key, samples in (("task.segment_samples", cfg.task.segment_samples),
                         ("spectro.segment_seconds", sp.segment_samples)):
        if samples < least:
            raise ConfigError(
                f"{samples} samples are too short for the STFT (at least "
                f"{least} give 2 frames and fit its centre padding)", key=key)
    return cfg


def load(source):
    """Load a RunConfig from a preset name or a config file path."""
    if source in _PRESETS:
        return _PRESETS[source]()
    try:
        with open(source) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {source!r}: {exc}") from exc
    return build(parse(text))
