"""Plain `key = value` run configuration files.

One flat, order-independent namespace covers the network, training recipe,
sensor preprocessing, and dataset generation. Unknown keys are rejected and
every key of a section being parsed must be present, so configs stay diffable
and cannot silently drift. `#` starts a comment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import get_type_hints

from .arch import NetworkConfig
from .rawdata import PreprocessSpec
from .tensor import ConfigurationError
from .train import TrainConfig


@dataclass
class DatasetParams:
    count: int = 200
    noise_sigma: float = 0.002
    kernel_kind: str = "gaussian"
    kernel_size: int = 5
    sigma_min: float = 0.8
    sigma_max: float = 2.0

    def validate(self) -> None:
        if self.count < 1:
            raise ConfigurationError(f"count must be >= 1, got {self.count}")
        if self.noise_sigma < 0:
            raise ConfigurationError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.kernel_kind not in ("gaussian", "motion", "mixed", "none"):
            raise ConfigurationError(f"unknown kernel_kind {self.kernel_kind!r}")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigurationError(f"kernel_size must be odd and positive, got {self.kernel_size}")
        if self.kernel_kind in ("motion", "mixed") and self.kernel_size < 3:
            raise ConfigurationError(
                f"kernel_size must be >= 3 for {self.kernel_kind} blur (a motion path spans 3 or more "
                f"taps), got {self.kernel_size}"
            )
        if self.sigma_min <= 0:
            raise ConfigurationError(f"sigma_min must be > 0, got {self.sigma_min}")
        if self.sigma_min > self.sigma_max:
            raise ConfigurationError("sigma_min must not exceed sigma_max")


@dataclass
class RunConfig:
    network: NetworkConfig
    train: TrainConfig
    preprocess: PreprocessSpec
    data: DatasetParams


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return f"{value:g}" if isinstance(value, float) else str(value)


def _schema() -> dict[str, tuple[str, str, object]]:
    """key -> (section attribute on RunConfig, field name, field type).

    Every field of the four section dataclasses is a key, in field order;
    ``model`` names the field ``NetworkConfig.name``.
    """
    schema = {}
    for section, cls in get_type_hints(RunConfig).items():
        hints = get_type_hints(cls)
        for f in fields(cls):
            key = "model" if (cls, f.name) == (NetworkConfig, "name") else f.name
            schema[key] = (section, f.name, hints[f.name])
    return schema


_SCHEMA = _schema()
# Checkpoints store only what rebuilding the network and its input scaling needs.
_CHECKPOINT_KEYS = tuple(k for k, (sec, _, _) in _SCHEMA.items() if sec in ("network", "preprocess"))


def _parse_lines(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        values[key] = raw
    return values


def _convert(key: str, raw: str, kind):
    """Parse ``raw`` as a value of the field type ``kind``; failures name the key."""
    try:
        if kind is bool:
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw == "true"
        if kind == tuple[int, ...]:
            return tuple(int(part) for part in raw.split(","))
        if kind == int | None:
            return None if raw == "none" else int(raw)
        if kind is float:
            value = float(raw)
            if not math.isfinite(value):
                raise ValueError("not a finite number")
            return value
        if kind in (int, str):
            return kind(raw)
    except ValueError as exc:
        name = kind.__name__ if isinstance(kind, type) else kind
        raise ConfigurationError(f"{key}: cannot parse {raw!r} as {name}") from exc
    raise TypeError(f"config key {key} has unsupported field type {kind}")


def _build_sections(values: dict[str, str], keys: tuple[str, ...]):
    unknown = sorted(set(values) - set(keys))
    missing = sorted(set(keys) - set(values))
    problems = []
    if unknown:
        problems.append("unknown keys: " + ", ".join(unknown))
    if missing:
        problems.append("missing keys: " + ", ".join(missing))
    if problems:
        raise ConfigurationError("bad config: " + "; ".join(problems))
    sections: dict[str, dict] = {section: {} for section, _, _ in _SCHEMA.values()}
    for key in keys:
        section, name, kind = _SCHEMA[key]
        sections[section][name] = _convert(key, values[key], kind)
    return sections


def parse_run_config(text: str) -> RunConfig:
    sections = _build_sections(_parse_lines(text), tuple(_SCHEMA))
    cfg = RunConfig(
        network=NetworkConfig(**sections["network"]),
        train=TrainConfig(**sections["train"]),
        preprocess=PreprocessSpec(**sections["preprocess"]),
        data=DatasetParams(**sections["data"]),
    )
    cfg.network.validate()
    cfg.train.validate()
    cfg.data.validate()
    return cfg


def render_checkpoint_config(network: NetworkConfig, preprocess: PreprocessSpec) -> str:
    """Canonical network + preprocess subset stored inside checkpoints."""
    sections = {"network": network, "preprocess": preprocess}
    lines = []
    for key in _CHECKPOINT_KEYS:
        section, name, _ = _SCHEMA[key]
        lines.append(f"{key} = {_fmt(getattr(sections[section], name))}")
    return "\n".join(lines) + "\n"


def parse_checkpoint_config(text: str) -> tuple[NetworkConfig, PreprocessSpec]:
    sections = _build_sections(_parse_lines(text), _CHECKPOINT_KEYS)
    network = NetworkConfig(**sections["network"])
    network.validate()
    return network, PreprocessSpec(**sections["preprocess"])
