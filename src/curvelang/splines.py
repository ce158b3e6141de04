"""Clamped B-spline bases, their pseudo-inverses, and spectral analysis.

Conventions: a basis matrix ``B`` has shape (N, L) — one column per
sampled curve index gamma_j, one row per control point.  Control points
act on the left (``E = P @ B``), so the pseudo-inverse ``B_pinv`` with
shape (L, N) maps embeddings back to control points (``P = E @ B_pinv``).
All spline math is float64 regardless of what the model side uses.
"""

from __future__ import annotations

import ctypes
import glob
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegreeTooHigh,
    LengthTooShort,
    NumericalFailure,
    OutOfRange,
    ShapeMismatch,
)


def _blas_threads():
    """The thread-count getter and setter of numpy's bundled OpenBLAS, or None where they are missing."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "libscipy_openblas64_*")
    for path in glob.glob(libs):
        try:
            lib = ctypes.CDLL(path)
            return lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
    return None


# OpenBLAS may sum a product or an SVD in another order on another
# number of threads: at 2 threads against 1, the pseudo-inverses of 80 of
# the 249 default lengths differ, all at L >= 159.  So every pseudo-
# inverse, and the sweep's projector, runs on one thread
# (``one_blas_thread``) and is the same at any OPENBLAS_NUM_THREADS.
# BLAS_PINNED is False, and nothing is pinned, where numpy's
# OpenBLAS or its thread setter is not found.
_BLAS_THREADS = _blas_threads()
BLAS_PINNED = _BLAS_THREADS is not None


@contextmanager
def one_blas_thread():
    """Run the block, or the decorated function, on one OpenBLAS thread; then restore the previous count."""
    # nothing to pin where the setter is missing, and no set call at one
    # thread already: with one, the benchmark's cache build read 12%
    # slower at OPENBLAS_NUM_THREADS=1 (10 pairs)
    before = _BLAS_THREADS[0]() if _BLAS_THREADS else 1
    if before == 1:
        yield
        return
    set_ = _BLAS_THREADS[1]
    set_(1)
    try:
        yield
    finally:
        set_(before)


@dataclass(frozen=True)
class KnotVector:
    """Clamped (open-uniform) knot vector on [0, 1]."""

    knots: np.ndarray
    degree: int

    @property
    def n_basis(self) -> int:
        return len(self.knots) - self.degree - 1


@dataclass(frozen=True)
class BasisPair:
    """A basis matrix, kept as its band, and the top half of its pseudo-inverse.

    Column j of ``B`` is zero outside rows ``first[j]`` to
    ``first[j] + len(band) - 1``, whose values are ``band[:, j]``: the
    eta+1 live basis functions of a curve pair, the single 1 of an
    identity pair.  ``B`` scatters the band into a fresh dense (N, L)
    array on every access.

    ``B_pinv`` is centrosymmetric, so ``pinv_top`` holds only its first
    ceil(L/2) rows; each access of ``B_pinv`` returns a fresh dense
    (L, N) array whose other rows are those reversed in both axes.
    """

    band: np.ndarray
    first: np.ndarray
    pinv_top: np.ndarray
    N: int
    L: int
    eta: int
    rank: int
    cond: float

    @property
    def B(self) -> np.ndarray:
        return _scatter(self.band, self.first, self.N)

    @property
    def B_pinv(self) -> np.ndarray:
        B_pinv = np.empty((self.L, self.N))
        B_pinv[: len(self.pinv_top)] = self.pinv_top
        _mirror_rows(B_pinv)
        return B_pinv


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


def sample_indices(length: int, margin: float = 0.01) -> np.ndarray:
    """The L curve indices Gamma, uniformly spaced over [margin, 1 - margin]."""
    if length < 2:
        raise LengthTooShort(f"need at least 2 sample points, got {length}")
    if not 0.0 <= margin < 0.5:
        raise OutOfRange(f"margin {margin} outside [0, 0.5)")
    i = np.arange(length, dtype=np.float64)
    return margin + (1.0 - 2.0 * margin) * i / (length - 1)


def basis_matrix(length: int, n_points: int, eta: int, margin: float = 0.01) -> np.ndarray:
    """Basis vectors at the L sample indices, one per column of an (N, L) matrix."""
    return _basis_columns(clamped_knots(n_points, eta), sample_indices(length, margin))


def _cutoff(shape: tuple[int, int], sigma_max: float) -> float:
    """Singular values at or below this are truncated."""
    return 1e-12 * max(shape) * sigma_max


def _is_centrosymmetric(B: np.ndarray) -> bool:
    """True when B's part that is not centrosymmetric is within B's own cutoff.

    That part is (B - B[::-1, ::-1]) / 2.  Its Frobenius norm is compared
    with the cutoff at max|B|, at most sigma_max, so no SVD is needed, and
    dropping it moves no singular value by more than the cutoff.
    """
    if min(B.shape) < 2:
        return False
    skew = np.linalg.norm(B - B[::-1, ::-1]) / 2.0
    return bool(skew <= _cutoff(B.shape, np.abs(B).max()))


def _centro_blocks(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd blocks of B's centrosymmetric part (B + B[::-1, ::-1]) / 2.

    Row pairs (i, N-1-i) and column pairs (j, L-1-j) go to (sum, difference)
    / sqrt(2); a middle row or column of odd N or L stays in the even block
    unscaled.  The even block is ceil(N/2) x ceil(L/2), the odd one
    floor(N/2) x floor(L/2).
    """
    n, l = B.shape
    p, q = n // 2, l // 2
    flipped = B[::-1, ::-1]
    # corners B[i, j] + B[N-1-i, L-1-j] and B[i, L-1-j] + B[N-1-i, j]
    direct = B[:p, :q] + flipped[:p, :q]
    crossed = B[:p, ::-1][:, :q] + flipped[:p, ::-1][:, :q]
    even = np.empty((n - p, l - q))
    np.add(direct, crossed, out=even[:p, :q])
    even[:p, :q] *= 0.5
    odd = np.subtract(direct, crossed, out=direct)
    odd *= 0.5
    half = np.sqrt(0.5)
    if n % 2:
        even[p, :q] = (B[p, :q] + flipped[p, :q]) * half
    if l % 2:
        even[:p, q] = (B[:p, q] + flipped[:p, q]) * half
    if n % 2 and l % 2:
        even[p, q] = B[p, q]
    return even, odd


def _mirror_rows(B_pinv: np.ndarray) -> None:
    """Fill the last floor(L/2) rows of a centrosymmetric (L, N) array from its first rows."""
    q = len(B_pinv) // 2
    B_pinv[len(B_pinv) - q :] = B_pinv[:q][::-1, ::-1]


@one_blas_thread()
def _centro_pseudo_inverse(B: np.ndarray, top: np.ndarray) -> tuple[int, float]:
    """Top of the pseudo-inverse of B's centrosymmetric part, from its even and odd blocks.

    The even/odd change of basis is orthogonal, so the blocks' singular
    values together are the part's, and its pseudo-inverse is the inverse
    change of basis applied to the blocks' pseudo-inverses; that is itself
    centrosymmetric, so only its first ceil(L/2) rows are computed, into
    ``top``, and its other rows are those reversed in both axes
    (``_mirror_rows``).  Returns (rank, cond).  A B that is not
    centrosymmetric raises NumericalFailure.
    """
    if not _is_centrosymmetric(B):
        raise NumericalFailure(f"{B.shape[0]} x {B.shape[1]} matrix is not centrosymmetric")
    n, l = B.shape
    p, q = n // 2, l // 2
    try:
        blocks = [np.linalg.svd(block, full_matrices=False) for block in _centro_blocks(B)]
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"SVD did not converge: {exc}") from exc
    sigma_max = max(s[0] for _, s, _ in blocks)
    # a zero B has cutoff 0, keeps nothing and gets a zero top
    cutoff = _cutoff(B.shape, sigma_max)
    rank, sigma_min = 0, np.inf
    for i, (u, s, vt) in enumerate(blocks):
        keep = s > cutoff
        r = int(np.count_nonzero(keep))
        if r:
            sigma_min = min(sigma_min, s[r - 1])
        # half the block's pseudo-inverse: the inverse change of basis
        # scales each of its entries by 1/2, or by sqrt(1/2) on a middle
        # row or column
        blocks[i] = (vt[:r].T * (0.5 / s[:r])) @ u[:, :r].T
        rank += r
        # each block's factors are freed once its half is formed
        del u, vt
    even, odd = blocks
    np.add(even[:q, :p], odd, out=top[:q, :p])
    np.subtract(even[:q, :p], odd, out=top[:q, ::-1][:, :p])
    if n % 2:
        top[:q, p] = even[:q, p] * np.sqrt(2.0)
    if l % 2:
        top[q, :p] = top[q, ::-1][:p] = even[q, :p] * np.sqrt(2.0)
    if n % 2 and l % 2:
        top[q, p] = even[q, p] * 2.0
    cond = float(sigma_max / sigma_min) if rank > 0 else np.inf
    return rank, cond


def pseudo_inverse(B: np.ndarray) -> tuple[np.ndarray, int, float]:
    """SVD-based Moore-Penrose pseudo-inverse of a centrosymmetric B, with relative cutoff.

    Singular values at or below 1e-12 * max(B.shape) * sigma_max are
    truncated.  Returns (B_pinv, rank, cond) where cond is sigma_max /
    sigma_min over the retained spectrum.  Agrees with (B^T B)^{-1} B^T
    whenever B has full column rank, and stays well-defined when it does
    not.

    A curve basis is centrosymmetric, B[::-1, ::-1] == B up to rounding,
    since its sample indices and knots are symmetric about 1/2.  It is
    inverted as two half-size blocks (Cantoni and Butler 1976): pairing
    rows (i, N-1-i) and columns (j, L-1-j) into sums and differences is an
    orthogonal change of basis, under which the centrosymmetric part
    (B + B[::-1, ::-1]) / 2 is block diagonal, an even block of about
    ceil(N/2) x ceil(L/2) and an odd one of floor(N/2) x floor(L/2).  Their
    two SVDs cost about a quarter of the full one.  One cutoff, from the
    larger sigma_max of the two, truncates both spectra.  Any other B,
    including one with fewer than two rows or columns, raises
    NumericalFailure (``_is_centrosymmetric``).
    """
    B = np.asarray(B, dtype=np.float64)
    # ahead of the symmetry test, whose arithmetic would itself warn on inf
    if not np.all(np.isfinite(B)):
        raise NumericalFailure("basis matrix contains non-finite entries")
    n, l = B.shape
    B_pinv = np.empty((l, n))
    rank, cond = _centro_pseudo_inverse(B, B_pinv[: l - l // 2])
    _mirror_rows(B_pinv)
    return B_pinv, rank, cond


def build_pair(length: int, n_points: int, eta: int, margin: float = 0.01) -> BasisPair:
    """Construct B and its pseudo-inverse for one (L, N, eta, m) setting.

    The dense B lives only as long as its SVD; the pair keeps its band.
    The top ceil(L/2) rows of B_pinv are written straight into an array
    of their own, so the dense B_pinv is never formed.
    """
    B = basis_matrix(length, n_points, eta, margin)
    pinv_top = np.empty((length - length // 2, n_points))
    rank, cond = _centro_pseudo_inverse(B, pinv_top)
    first = _first_live(clamped_knots(n_points, eta), sample_indices(length, margin))
    band = B[_band_index(first, eta + 1)]
    return BasisPair(band=band, first=first, pinv_top=pinv_top, N=n_points, L=length, eta=eta, rank=rank, cond=cond)


def identity_pair(length: int) -> BasisPair:
    """Degenerate pair with B = B_pinv = I, bypassing the curve mapping."""
    return BasisPair(
        band=np.ones((1, length)),
        first=np.arange(length),
        pinv_top=np.eye(length - length // 2, length),
        N=length,
        L=length,
        eta=1,
        rank=length,
        cond=1.0,
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


def importance_ratio(B_pinv: np.ndarray) -> SpectralReport:
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
