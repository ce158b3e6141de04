"""Run configuration: a flat dataclass, readable from key=value files.

The file format is one ``key = value`` pair per line (``#`` comments and
blank lines ignored), diff-friendly for experiment logs.  Every field can
also be overridden by a command-line flag of the same name.
"""

import bisect
import dataclasses
import math
import typing
from dataclasses import dataclass

from .corpus import BUILTIN_CORPORA, TOKENIZERS
from .curvemap import CurveConfig, resolve_dims
from .errors import ConfigError, IoError
from .model import IDENTITY_MODES, MODES, AdamConfig, BackboneConfig, build_schedule


@dataclass(frozen=True)
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
    lambda_anchor: float = 1.0
    resume: typing.Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.steps < 1 or self.batch_size < 1 or self.log_interval < 1:
            raise ConfigError("steps, batch_size, and log_interval must be positive")
        if self.k_curves < 1:
            raise ConfigError(f"k_curves must be >= 1, got {self.k_curves}")
        # one activation of 2**16 sequences of 64 tokens at d_model 64 already takes 2 GiB,
        # and the K-curve head runs k_curves copies of each sequence through the backbone
        if self.k_curves * self.batch_size > 2**16:
            raise ConfigError(f"k_curves * batch_size must be <= {2**16}, got {self.k_curves} * {self.batch_size}")
        if self.embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {self.embed_dim}")
        if self.tokenizer not in TOKENIZERS:
            raise ConfigError(f"unknown tokenizer {self.tokenizer!r}; choices: {sorted(TOKENIZERS)}")
        if self.corpus.startswith("builtin:") and self.corpus.split(":", 1)[1] not in BUILTIN_CORPORA:
            raise ConfigError(f"unknown builtin corpus {self.corpus!r}; choices: {sorted(BUILTIN_CORPORA)}")
        if self.max_len < 2:
            raise ConfigError(f"max_len must be >= 2, got {self.max_len}")
        if not (math.isfinite(self.lambda_anchor) and self.lambda_anchor >= 0.0):
            raise ConfigError(f"lambda_anchor must be finite and non-negative, got {self.lambda_anchor}")
        # the objects a run builds check their own fields
        self.backbone_config()
        self.curve_config()
        self.adam_config()
        build_schedule(self.schedule_steps, self.schedule_kind)

    def backbone_config(self) -> BackboneConfig:
        return BackboneConfig(
            layers=self.layers,
            heads=self.heads,
            d_model=self.d_model,
            d_ff=self.d_ff,
            dropout=self.dropout,
            max_positions=self.max_positions,
            time_dim=self.time_dim,
        )

    def curve_config(self) -> CurveConfig:
        """Curve settings over the lengths [2, l_cap] the model can run.

        l_cap is the largest length whose N control points (L tokens in
        the identity modes) fit in max_positions, so a length the model
        could never run is out of range before its pair is built.  Pairs
        are built on first use, so a wide range costs nothing until a
        length is used.
        """
        config = CurveConfig(
            n_ratio=self.n_ratio,
            eta_ratio=self.eta_ratio,
            eta_fixed=self.eta_fixed,
            margin=self.margin,
            l_min=2,
            l_max=self.max_positions,
            identity=self.mode in IDENTITY_MODES,
        )
        if config.identity:
            return config
        # N grows with L, so the lengths that fit are a prefix of the range
        fits = bisect.bisect_right(
            range(2, self.max_positions + 1),
            self.max_positions,
            key=lambda length: resolve_dims(length, config)[0],
        )
        if fits == 0:
            raise ConfigError(f"no length from 2 has N control points within max_positions {self.max_positions}")
        return dataclasses.replace(config, l_max=1 + fits)

    def adam_config(self) -> AdamConfig:
        return AdamConfig(lr=self.lr, beta1=self.beta1, beta2=self.beta2, eps=self.adam_eps)


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
    return RunConfig(**values)


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Replace fields with explicitly provided (already typed) values.

    Every key present in ``overrides`` is applied; a None value clears an
    optional field (e.g. ``--eta-ratio none --eta-fixed 5``).
    """
    bad = set(overrides) - set(_FIELD_TYPES)
    if bad:
        raise ConfigError(f"unknown config keys: {sorted(bad)}")
    return dataclasses.replace(config, **overrides)


def dump_config(config: RunConfig) -> str:
    lines = []
    for f in dataclasses.fields(RunConfig):
        value = getattr(config, f.name)
        lines.append(f"{f.name} = {value if value is not None else 'none'}")
    return "\n".join(lines) + "\n"
