"""Run configuration: a flat dataclass, readable from key=value files.

The file format is one ``key = value`` pair per line (``#`` comments and
blank lines ignored), diff-friendly for experiment logs.  Every field can
also be overridden by a command-line flag of the same name.
"""

import dataclasses
import typing
from dataclasses import dataclass

from .errors import ConfigError, IoError
from .model import MODES


@dataclass
class RunConfig:
    mode: str = "gaussian"
    corpus: str = "builtin:alternating"
    tokenizer: str = "char"
    max_len: int = 64
    seed: int = 0
    steps: int = 2000
    batch_size: int = 8
    log_interval: int = 10
    lr: float = 2e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    embed_dim: int = 32
    layers: int = 2
    heads: int = 2
    d_model: int = 64
    d_ff: int = 128
    dropout: float = 0.0
    max_positions: int = 512
    time_dim: int = 16
    schedule_kind: str = "sqrt"
    schedule_steps: int = 100
    n_ratio: float = 2.0
    eta_ratio: typing.Optional[float] = 0.1
    eta_fixed: typing.Optional[int] = None
    k_curves: int = 1
    margin: float = 0.01
    l_min: typing.Optional[int] = None
    l_max: typing.Optional[int] = None
    unit_norm: bool = True
    lambda_anchor: float = 1.0
    resume: typing.Optional[str] = None

    def validate(self) -> "RunConfig":
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.steps < 1 or self.batch_size < 1 or self.log_interval < 1:
            raise ConfigError("steps, batch_size, and log_interval must be positive")
        if self.eta_ratio is not None and self.eta_fixed is not None:
            raise ConfigError("set only one of eta_ratio / eta_fixed")
        if self.eta_ratio is None and self.eta_fixed is None:
            raise ConfigError("one of eta_ratio / eta_fixed is required")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        return self


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _base_type(tp):
    origin = typing.get_origin(tp)
    if origin is typing.Union:
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        return args[0], True
    return tp, False


def parse_value(name: str, raw: str):
    if name not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {name!r}")
    tp, optional = _base_type(_FIELD_TYPES[name])
    raw = raw.strip()
    if optional and raw.lower() in ("none", ""):
        return None
    if tp is bool:
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"cannot parse boolean {name}={raw!r}")
    try:
        return tp(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {name}={raw!r} as {tp.__name__}") from exc


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    values = {}
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        values[key] = parse_value(key, raw)
    return RunConfig(**values).validate()


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Replace fields with explicitly provided (already typed) values.

    Every key present in ``overrides`` is applied; a None value clears an
    optional field (e.g. ``--eta-ratio none --eta-fixed 5``).
    """
    bad = set(overrides) - set(_FIELD_TYPES)
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    return dataclasses.replace(config, **overrides).validate()


def dump_config(config: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        lines.append(f"{f.name} = {value if value is not None else 'none'}")
    return "\n".join(lines) + "\n"
