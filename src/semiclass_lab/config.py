"""Experiment configuration: defaults, strict key=value parsing, validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .catmap import DEFAULT_MAP, CatMap
from .errors import ConfigError
from .experiments import _SUITES

EXPERIMENTS = tuple(_SUITES)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = ""
    N: int = 512
    a: int = DEFAULT_MAP.a
    b: int = DEFAULT_MAP.b
    c: int = DEFAULT_MAP.c
    d: int = DEFAULT_MAP.d
    h: float = 0.01
    seed: int = 0
    out_dir: str = "."
    dump_state: bool = False

    def cat_map(self) -> CatMap:
        try:
            return CatMap(self.a, self.b, self.c, self.d)
        except ValueError as exc:
            raise ConfigError(f"invalid map entries: {exc}") from exc

    def validated(self) -> "ExperimentConfig":
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.N < 1:
            raise ConfigError("N must be >= 1 (dimension of the Hilbert space)")
        if not 0 < self.h < math.inf:  # also rejects NaN
            raise ConfigError("h must be finite and > 0 (grid spacing)")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        self.cat_map()
        return self


_FIELD_TYPES = {f.name: f.type for f in fields(ExperimentConfig)}
_KEY_ALIASES = {"out": "out_dir"}


def _coerce(key: str, raw: str):
    t = _FIELD_TYPES[key]
    try:
        if t == "int":
            return int(raw)
        if t == "float":
            return float(raw)
        if t == "bool":
            if raw.lower() in ("1", "true", "yes"):
                return True
            if raw.lower() in ("0", "false", "no"):
                return False
            raise ValueError(raw)
        return raw
    except ValueError as exc:
        raise ConfigError(f"bad value for key {key!r}: {raw!r}") from exc


def parse_config(path=None, overrides=None) -> ExperimentConfig:
    """Defaults, then key=value lines from the file, then explicit overrides
    (command-line flags win). Unknown keys are rejected."""
    cfg = ExperimentConfig()
    if path is not None:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"config file {path}: {exc.strerror}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path}: not UTF-8 text "
                              f"(byte {exc.start}: {exc.reason})") from exc
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, raw = (part.strip() for part in line.split("=", 1))
            key = _KEY_ALIASES.get(key, key)
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            cfg = replace(cfg, **{key: _coerce(key, raw)})
    for key, value in (overrides or {}).items():
        key = _KEY_ALIASES.get(key, key)
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown override key {key!r}")
        if value is not None:
            cfg = replace(cfg, **{key: value})
    return cfg
