"""Length-dependent curve hyperparameters, basis caching, and the
reconstruction sweep.

The number of control points scales with sentence length through
``n_ratio``; the degree comes either from a ratio of N or a fixed value.
Each length's pair is built on first use and then reused, since B and
B_pinv depend only on (L, N, eta, margin).  The model applies the pairs
(``SclmModel.to_points`` and ``to_words``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import splines
from .errors import ConfigError, LengthOutOfRange
from .rng import RngStream
from .splines import BasisPair


@dataclass(frozen=True)
class CurveConfig:
    n_ratio: float = 2.0
    eta_ratio: float | None = 0.1
    eta_fixed: int | None = None
    k_curves: int = 1
    margin: float = 0.01
    l_min: int = 2
    l_max: int = 250
    identity: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.n_ratio) and self.n_ratio > 0):
            raise ConfigError(f"n_ratio must be finite and positive, got {self.n_ratio}")
        if self.eta_ratio is not None and not np.isfinite(self.eta_ratio):
            raise ConfigError(f"eta_ratio must be finite, got {self.eta_ratio}")
        if not 0.0 <= self.margin < 0.5:
            raise ConfigError(f"margin must be in [0, 0.5), got {self.margin}")
        if self.k_curves < 1:
            raise ConfigError(f"k_curves must be >= 1, got {self.k_curves}")
        if not 2 <= self.l_min <= self.l_max:
            raise ConfigError(f"need 2 <= l_min <= l_max, got [{self.l_min}, {self.l_max}]")
        if (self.eta_ratio is None) == (self.eta_fixed is None):
            raise ConfigError("exactly one of eta_ratio / eta_fixed must be set")


def resolve_dims(length: int, config: CurveConfig) -> tuple[int, int]:
    """Control-point count and degree for a sentence of length L.

    N = trunc(L * n_ratio) clamped to >= 2.  The degree is either
    max(trunc(N * eta_ratio), 2) or the fixed value, then clamped into
    [1, N-1] so the clamped knot vector stays valid for short sentences.
    """
    if not config.l_min <= length <= config.l_max:
        raise LengthOutOfRange(f"length {length} outside [{config.l_min}, {config.l_max}]")
    n_points = max(int(length * config.n_ratio), 2)
    if config.eta_fixed is not None:
        eta = config.eta_fixed
    else:
        eta = max(int(n_points * config.eta_ratio), 2)
    eta = max(min(eta, n_points - 1), 1)
    return n_points, eta


class BasisCache:
    """Map from each sentence length in [l_min, l_max] to its BasisPair.

    A pair is built on the first ``get`` of its length and kept; length,
    membership and ``lengths()`` describe the whole range whether or not
    a pair has been built yet.
    """

    def __init__(self, config: CurveConfig):
        self.config = config
        self._range = range(config.l_min, config.l_max + 1)
        self._pairs: dict[int, BasisPair] = {}

    def __len__(self) -> int:
        return len(self._range)

    def __contains__(self, length: int) -> bool:
        return length in self._range

    def lengths(self) -> list[int]:
        return list(self._range)

    def get(self, length: int) -> BasisPair:
        pair = self._pairs.get(length)
        if pair is None:
            if length not in self._range:
                raise LengthOutOfRange(f"length {length} outside [{self.config.l_min}, {self.config.l_max}]")
            pair = self._pairs[length] = _make_pair(length, self.config)
        return pair


def _make_pair(length: int, config: CurveConfig) -> BasisPair:
    if config.identity:
        return splines.identity_pair(length)
    n_points, eta = resolve_dims(length, config)
    return splines.build_pair(length, n_points, eta, config.margin)


def build_cache(config: CurveConfig) -> BasisCache:
    """A cache over [l_min, l_max] whose pairs are built on first use."""
    return BasisCache(config)


def _recon_noise(length: int, trials: int, seed: int, dim: int) -> np.ndarray:
    """The (trials, dim, L) Gaussian inputs of the round trip at length L.

    Trial i is drawn from the stream (seed, "recon", L, i), so every
    configuration at one length sees the same inputs.
    """
    values = np.empty((trials, dim, length))
    base = RngStream(seed, "recon", length)
    for trial in range(trials):
        base.child(trial).generator().standard_normal(out=values[trial])
    return values


@splines.one_blas_thread()
def _projector(length: int, config: CurveConfig) -> tuple[np.ndarray, int, float]:
    """B_pinv @ B at length L, with B_pinv's rank and condition number.

    Multiplies by the dense B its pseudo-inverse came from, instead of
    building a pair and scattering its band again.  Nothing is kept, so B
    and B_pinv are freed before the caller allocates the noise stack and
    the residual.
    """
    if config.identity:
        return np.eye(length), length, 1.0
    n_points, eta = resolve_dims(length, config)
    B = splines.basis_matrix(length, n_points, eta, config.margin)
    B_pinv, rank, cond = splines.pseudo_inverse(B)
    return B_pinv @ B, rank, cond


def _round_trip_mse(values: np.ndarray, proj: np.ndarray) -> float:
    """Mean over trials of the MSE between each (dim, L) input and its round trip."""
    residual = np.matmul(values, proj)
    np.subtract(values, residual, out=residual)
    np.square(residual, out=residual)
    # one mean per trial, summed in trial order like a running total
    total = 0.0
    for mse in residual.reshape(len(values), -1).mean(axis=1):
        total += float(mse)
    return total / len(values)


def reconstruction_error(
    length: int,
    config: CurveConfig,
    trials: int = 100,
    seed: int = 0,
    dim: int = 16,
) -> float:
    """Mean squared error of the E -> P -> E round trip on Gaussian noise.

    Noise streams are keyed by (seed, length, trial) only, so sweeps over
    curve hyperparameters compare configurations on identical inputs.
    """
    if trials < 1 or dim < 1:
        raise ConfigError(f"trials and dim must be >= 1, got {trials} and {dim}")
    proj, _, _ = _projector(length, config)
    return _round_trip_mse(_recon_noise(length, trials, seed, dim), proj)


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell: its round-trip MSE, and the rank and condition number of its B_pinv."""

    length: int
    n_ratio: float
    eta_ratio: float
    mse: float
    rank: int
    cond: float


@dataclass(frozen=True)
class SweepTable:
    rows: list[SweepRow] = field(default_factory=list)

    def to_csv(self) -> str:
        lines = ["L,n_ratio,eta_ratio,mse,rank,cond"]
        for row in self.rows:
            lines.append(f"{row.length},{row.n_ratio!r},{row.eta_ratio!r},{row.mse!r},{row.rank},{row.cond!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = [
            {
                "L": row.length,
                "n_ratio": row.n_ratio,
                "eta_ratio": row.eta_ratio,
                "mse": row.mse,
                "rank": row.rank,
                "cond": row.cond,
            }
            for row in self.rows
        ]
        return json.dumps(payload, indent=2)


DEFAULT_SWEEP_LENGTHS = tuple(range(25, 251, 25))
DEFAULT_SWEEP_N_RATIOS = (1.0, 1.5, 2.0, 2.5, 3.0)
DEFAULT_SWEEP_ETA_RATIOS = (0.0, 0.33, 0.66)


def reconstruction_sweep(
    lengths=DEFAULT_SWEEP_LENGTHS,
    n_ratios=DEFAULT_SWEEP_N_RATIOS,
    eta_ratios=DEFAULT_SWEEP_ETA_RATIOS,
    trials: int = 100,
    seed: int = 0,
    dim: int = 16,
) -> SweepTable:
    """Round-trip error over the full (L, n_ratio, eta_ratio) grid.

    Row order is the cross product with L outermost and eta_ratio
    innermost.  The minimum degree of 2 comes from the eta formula in
    resolve_dims, so eta_ratio = 0.0 still uses quadratic bases.  Each
    row equals reconstruction_error for its cell; the noise of a length
    is drawn once and shared by its cells.
    """
    if not (lengths and n_ratios and eta_ratios):
        raise ConfigError("sweep sets must be non-empty")
    if trials < 1 or dim < 1:
        raise ConfigError(f"trials and dim must be >= 1, got {trials} and {dim}")
    rows = []
    for length in lengths:
        # drawn after the length's first pair, so a bad length fails in
        # resolve_dims as it does in reconstruction_error
        values = None
        for n_ratio in n_ratios:
            for eta_ratio in eta_ratios:
                config = CurveConfig(
                    n_ratio=n_ratio,
                    eta_ratio=eta_ratio,
                    l_min=2,
                    l_max=max(length, 250),
                )
                proj, rank, cond = _projector(length, config)
                if values is None:
                    values = _recon_noise(length, trials, seed, dim)
                mse = _round_trip_mse(values, proj)
                rows.append(
                    SweepRow(length=length, n_ratio=n_ratio, eta_ratio=eta_ratio, mse=mse, rank=rank, cond=cond)
                )
    return SweepTable(rows=rows)
