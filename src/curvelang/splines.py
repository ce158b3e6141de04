"""Clamped B-spline bases, their pseudo-inverses, and spectral analysis.

Conventions: a basis matrix ``B`` has shape (N, L) — one column per
sampled curve index gamma_j, one row per control point.  Control points
act on the left (``E = P @ B``), so the pseudo-inverse ``B_pinv`` with
shape (L, N) maps embeddings back to control points (``P = E @ B_pinv``).
All spline math is float64 regardless of what the model side uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegreeTooHigh,
    LengthTooShort,
    NumericalFailure,
    OutOfRange,
    ShapeMismatch,
)


@dataclass(frozen=True)
class KnotVector:
    """Clamped (open-uniform) knot vector on [0, 1]."""

    knots: np.ndarray
    degree: int

    @property
    def n_basis(self) -> int:
        return len(self.knots) - self.degree - 1


@dataclass(frozen=True)
class SampleIndices:
    """The curve indices Gamma at which the L embedding points are read off."""

    gammas: np.ndarray
    margin: float


@dataclass(frozen=True)
class BasisPair:
    """A basis matrix, kept as its band, together with its Moore-Penrose pseudo-inverse.

    Column j of ``B`` is zero outside rows ``first[j]`` to
    ``first[j] + len(band) - 1``, whose values are ``band[:, j]``: the
    eta+1 live basis functions of a curve pair, the single 1 of an
    identity pair.  ``B`` scatters the band into a fresh dense (N, L)
    array on every access.
    """

    band: np.ndarray
    first: np.ndarray
    B_pinv: np.ndarray
    N: int
    L: int
    eta: int
    rank: int
    cond: float
    gammas: np.ndarray = field(repr=False, default=None)

    @property
    def B(self) -> np.ndarray:
        return _scatter(self.band, self.first, self.N)


def clamped_knots(n_points: int, eta: int) -> KnotVector:
    """Open-uniform knot vector for ``n_points`` control points of degree eta.

    Endpoints are repeated eta+1 times so the curve interpolates the first
    and last control point; interior knots are uniform on (0, 1).
    """
    if eta < 1:
        raise DegreeTooHigh(f"degree must be >= 1, got {eta}")
    if eta > n_points - 1:
        raise DegreeTooHigh(f"degree {eta} needs at least {eta + 1} control points, got {n_points}")
    n_interior = n_points - eta - 1
    interior = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    knots = np.concatenate([np.zeros(eta + 1), interior, np.ones(eta + 1)])
    return KnotVector(knots=knots, degree=eta)


def _first_live(knots: KnotVector, gammas: np.ndarray) -> np.ndarray:
    """Index of the first of the eta+1 basis functions alive at each curve index.

    Spans are half-open [t_s, t_{s+1}), except the last, which is closed
    so that gamma = 1 lands on the final basis function.
    """
    eta = knots.degree
    return np.clip(np.searchsorted(knots.knots, gammas, side="right") - 1, eta, knots.n_basis - 1) - eta


def _band_index(first: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices in the dense matrix of a (depth, len) band's entries."""
    return first + np.arange(depth)[:, None], np.arange(first.size)


def _scatter(band: np.ndarray, first: np.ndarray, n_rows: int) -> np.ndarray:
    """The dense (n_rows, len) matrix whose columns hold ``band`` from row ``first`` on."""
    out = np.zeros((n_rows, first.size))
    out[_band_index(first, len(band))] = band
    return out


def _basis_columns(knots: KnotVector, gammas: np.ndarray) -> np.ndarray:
    """All N basis functions at each curve index in ``gammas``, as an (N, len) matrix.

    Cox-de Boor recursion restricted to the eta+1 functions alive on each
    index's knot span, run for every index at once: one (eta+1, len)
    array per quantity, row r for the r-th live function, one degree
    level per iteration.  The band is then scattered into the dense
    matrix.
    """
    t = knots.knots
    eta = knots.degree
    n = gammas.size
    first = _first_live(knots, gammas)
    span = first + eta
    offsets = np.arange(eta)[:, None]
    # right[k] = t[s+1+k] - gamma and rleft[k] = gamma - t[s+1-eta+k]: the
    # left distances stored in reverse, so level j reads rows rleft[eta-j:]
    # in the order left[j], left[j-1], ..., left[1]
    right = t[span + 1 + offsets] - gammas
    rleft = gammas - t[span + 1 - eta + offsets]
    vals = np.zeros((eta + 1, n))
    vals[0] = 1.0
    denom = np.empty((eta, n))
    terms = np.empty((eta, n))
    # Level j mixes each of the j live values into its two neighbours:
    # vals[r] <- right[r] * term[r] + left[j-r+1] * term[r-1].  Row j is
    # still zero when level j starts.
    for j in range(1, eta + 1):
        d, tm, lj = denom[:j], terms[:j], rleft[eta - j :]
        np.add(right[:j], lj, out=d)
        np.divide(vals[:j], d, out=tm)
        np.multiply(right[:j], tm, out=vals[:j])
        np.multiply(lj, tm, out=d)
        vals[1 : j + 1] += d
    return _scatter(vals, first, knots.n_basis)


def basis_vector(gamma: float, knots: KnotVector) -> np.ndarray:
    """Evaluate all N basis functions at curve index gamma.

    Returns a length-N vector with entries in [0, 1] summing to 1, of which
    at most eta+1 are nonzero.
    """
    if not 0.0 <= gamma <= 1.0:
        raise OutOfRange(f"curve index {gamma} outside [0, 1]")
    return _basis_columns(knots, np.array([float(gamma)]))[:, 0]


def sample_indices(length: int, margin: float = 0.01) -> SampleIndices:
    """L uniformly spaced curve indices spanning [margin, 1 - margin]."""
    if length < 2:
        raise LengthTooShort(f"need at least 2 sample points, got {length}")
    if not 0.0 <= margin < 0.5:
        raise OutOfRange(f"margin {margin} outside [0, 0.5)")
    i = np.arange(length, dtype=np.float64)
    gammas = margin + (1.0 - 2.0 * margin) * i / (length - 1)
    return SampleIndices(gammas=gammas, margin=margin)


def basis_matrix(length: int, n_points: int, eta: int, margin: float = 0.01) -> np.ndarray:
    """Basis vectors at the L sample indices, one per column of an (N, L) matrix."""
    return _basis_columns(clamped_knots(n_points, eta), sample_indices(length, margin).gammas)


def pseudo_inverse(B: np.ndarray) -> tuple[np.ndarray, int, float]:
    """SVD-based Moore-Penrose pseudo-inverse with relative cutoff.

    Singular values at or below 1e-12 * max(B.shape) * sigma_max are
    truncated.  Returns
    (B_pinv, rank, cond) where cond is sigma_max / sigma_min over the
    retained spectrum.  Agrees with (B^T B)^{-1} B^T whenever B has full
    column rank, and stays well-defined when it does not.
    """
    B = np.asarray(B, dtype=np.float64)
    if not np.all(np.isfinite(B)):
        raise NumericalFailure("basis matrix contains non-finite entries")
    try:
        u, s, vt = np.linalg.svd(B, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((B.shape[1], B.shape[0])), 0, np.inf
    cutoff = 1e-12 * max(B.shape) * s[0]
    keep = s > cutoff
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    B_pinv = (vt.T * inv_s) @ u.T
    cond = float(s[0] / s[keep][-1]) if rank > 0 else np.inf
    return B_pinv, rank, cond


def build_pair(length: int, n_points: int, eta: int, margin: float = 0.01) -> BasisPair:
    """Construct B and its pseudo-inverse for one (L, N, eta, m) setting.

    The dense B lives only as long as its SVD; the pair keeps its band.
    """
    B = basis_matrix(length, n_points, eta, margin)
    B_pinv, rank, cond = pseudo_inverse(B)
    gammas = sample_indices(length, margin).gammas
    first = _first_live(clamped_knots(n_points, eta), gammas)
    band = B[_band_index(first, eta + 1)]
    return BasisPair(
        band=band, first=first, B_pinv=B_pinv, N=n_points, L=length, eta=eta, rank=rank, cond=cond, gammas=gammas
    )


def identity_pair(length: int) -> BasisPair:
    """Degenerate pair with B = B_pinv = I, bypassing the curve mapping."""
    gammas = sample_indices(length, 0.0).gammas if length >= 2 else np.zeros(length)
    return BasisPair(
        band=np.ones((1, length)),
        first=np.arange(length),
        B_pinv=np.eye(length),
        N=length,
        L=length,
        eta=1,
        rank=length,
        cond=1.0,
        gammas=gammas,
    )


def error_importance(V: np.ndarray, B_pinv: np.ndarray) -> float:
    """Squared Frobenius norm of V @ B_pinv.

    Measures how strongly an embedding-space error pattern V (d rows, L
    columns) shows up in control-point space; equals sum over rows v of
    v G v^T with G = B_pinv B_pinv^T.
    """
    V = np.asarray(V, dtype=np.float64)
    if V.ndim != 2 or V.shape[1] != B_pinv.shape[0]:
        raise ShapeMismatch(f"V has shape {V.shape}, expected (*, {B_pinv.shape[0]})")
    return float(np.sum((V @ B_pinv) ** 2))


@dataclass(frozen=True)
class SpectralReport:
    """Eigenstructure of G = B_pinv B_pinv^T and the global/local importance ratio."""

    eigenvalues: np.ndarray
    lambda_max: float
    lambda_min: float
    lambda_min_nonzero: float
    ratio_bound: float
    importance_global: float
    importance_local: np.ndarray
    ratio: float
    rank: int

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [float(x) for x in self.eigenvalues],
            "lambda_max": self.lambda_max,
            "lambda_min": self.lambda_min,
            "lambda_min_nonzero": self.lambda_min_nonzero,
            "ratio_bound": self.ratio_bound,
            "importance_global": self.importance_global,
            "importance_local": [float(x) for x in self.importance_local],
            "ratio": self.ratio,
            "rank": self.rank,
        }


def importance_ratio(B_pinv: np.ndarray, check_bound: bool = True) -> SpectralReport:
    """Spectrum of G and the ratio of global to local error importance.

    Importances are computed per embedding dimension (one row of the error
    matrix), which makes the identity mapping come out at ratio exactly 1:
    global importance is ||1^T B_pinv||^2 / L, local importance at
    position i is ||B_pinv[i, :]||^2.  The reported ratio divides the
    global importance by the largest local one; the bound lambda_max /
    lambda_min uses the smallest eigenvalue above 1e-12 * lambda_max
    since G is rank-deficient whenever N < L.
    """
    B_pinv = np.asarray(B_pinv, dtype=np.float64)
    L = B_pinv.shape[0]
    G = B_pinv @ B_pinv.T
    try:
        eigenvalues = np.linalg.eigvalsh(G)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed: {exc}") from exc
    lam_max = float(eigenvalues[-1])
    lam_min = float(eigenvalues[0])
    nonzero = eigenvalues[eigenvalues > 1e-12 * max(lam_max, 0.0)]
    rank = int(nonzero.size)
    lam_min_nz = float(nonzero[0]) if rank > 0 else 0.0
    bound = lam_max / lam_min_nz if lam_min_nz > 0 else np.inf

    ones = np.ones(L)
    importance_global = float(np.sum((ones @ B_pinv) ** 2) / L)
    importance_local = np.sum(B_pinv**2, axis=1)
    local_max = float(importance_local.max())
    ratio = importance_global / local_max if local_max > 0 else np.inf

    if check_bound and rank == L and ratio > bound + 1e-9:
        raise NumericalFailure(f"importance ratio {ratio} exceeds spectral bound {bound}")
    return SpectralReport(
        eigenvalues=eigenvalues,
        lambda_max=lam_max,
        lambda_min=lam_min,
        lambda_min_nonzero=lam_min_nz,
        ratio_bound=float(bound),
        importance_global=importance_global,
        importance_local=importance_local,
        ratio=float(ratio),
        rank=rank,
    )
