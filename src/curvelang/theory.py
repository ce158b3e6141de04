"""Numeric verification of the package's theoretical claims.

Each check constructs an instance where a claim can be evaluated exactly
(by enumeration, closed form, or direct linear algebra) and reports the
residual between the two sides.  Records flagged ``asserted=False`` are
informational: the claim's hypotheses do not hold on that instance, so a
large residual is expected rather than a failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import (
    ConfigError,
    DegenerateDistribution,
    NotUnitNorm,
    ShapeMismatch,
    TooFewSamples,
)
from .model import forward_noise_gaussian
from .rng import RngStream
from .splines import BasisPair, error_importance, importance_ratio


@dataclass(frozen=True)
class VerificationRecord:
    claim: str
    lhs: float
    rhs: float
    residual: float
    tolerance: float
    passed: bool
    asserted: bool = True
    detail: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        def clean(value):
            if isinstance(value, (bool, np.bool_)):
                return bool(value)
            if isinstance(value, (int, np.integer)):
                return int(value)
            if isinstance(value, (float, np.floating)):
                return float(value)
            if isinstance(value, np.ndarray):
                return value.tolist()
            if isinstance(value, (list, tuple)):
                return [clean(v) for v in value]
            return value

        return {
            "claim": self.claim,
            "lhs": float(self.lhs),
            "rhs": float(self.rhs),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "asserted": bool(self.asserted),
            "detail": {k: clean(v) for k, v in self.detail.items()},
        }


def _record(claim, lhs, rhs, tolerance, asserted=True, detail=None) -> VerificationRecord:
    residual = float(abs(lhs - rhs))
    return VerificationRecord(
        claim=claim,
        lhs=float(lhs),
        rhs=float(rhs),
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        asserted=asserted,
        detail=detail or {},
    )


# ----------------------------------------------------- continuous relaxation


def relaxation_posterior_check(E: np.ndarray, z: np.ndarray, sigma2: float, tolerance: float = 1e-12) -> VerificationRecord:
    """Exact Bayes posterior under Gaussian likelihoods vs the softmax form.

    With unit-norm embedding columns and a uniform prior, the two agree
    identically whenever ||z|| = 1; off the sphere the residual is
    reported without being asserted.
    """
    E = np.asarray(E, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64).ravel()
    col_norms = np.linalg.norm(E, axis=0)
    if not np.allclose(col_norms, 1.0, atol=1e-9):
        raise NotUnitNorm(f"embedding columns must be unit-norm, got norms {col_norms}")
    sq_dist = np.sum((E - z[:, None]) ** 2, axis=0)
    log_like = -sq_dist / (2.0 * sigma2)
    log_like -= log_like.max()
    bayes = np.exp(log_like)
    bayes /= bayes.sum()
    logits = E.T @ z / sigma2
    logits -= logits.max()
    soft = np.exp(logits)
    soft /= soft.sum()
    residual = float(np.abs(bayes - soft).max())
    on_sphere = abs(np.linalg.norm(z) - 1.0) <= 1e-9
    return VerificationRecord(
        claim="relaxation",
        lhs=float(bayes[0]),
        rhs=float(soft[0]),
        residual=residual,
        tolerance=tolerance,
        passed=residual <= tolerance,
        asserted=on_sphere,
        detail={"z_norm": float(np.linalg.norm(z)), "bayes": bayes.tolist(), "softmax": soft.tolist()},
    )


# ----------------------------------------------------------- MLE optimality


def lemma1_stationarity(E: np.ndarray, y: int, tolerance: float = 1e-10) -> VerificationRecord:
    """Tangential gradient of the NLL at h = e_y, plus the isotropy defect.

    The optimality claim is conditional on the tangent-space isotropy of
    the vocabulary around e_y; when the defect exceeds 1e-9 the record is
    reported but not asserted.
    """
    E = np.asarray(E, dtype=np.float64)
    col_norms = np.linalg.norm(E, axis=0)
    if not np.allclose(col_norms, 1.0, atol=1e-9):
        raise NotUnitNorm(f"embedding columns must be unit-norm, got norms {col_norms}")
    h = E[:, y]
    logits = E.T @ h
    logits -= logits.max()
    p = np.exp(logits)
    p /= p.sum()
    grad = -(h - E @ p)
    tangential = grad - (h @ grad) * h
    grad_norm = float(np.linalg.norm(tangential))
    tangents = E - (h @ E) * h[:, None]
    defect = float(np.linalg.norm(tangents.sum(axis=1)))
    return VerificationRecord(
        claim="lemma1",
        lhs=grad_norm,
        rhs=0.0,
        residual=grad_norm,
        tolerance=tolerance,
        passed=grad_norm <= tolerance,
        asserted=defect <= 1e-9,
        detail={"isotropy_defect": defect, "target": int(y)},
    )


# ------------------------------------------------- fiber-set decomposition


@dataclass(frozen=True)
class ToyFiberSpec:
    """Finite surrogate for the curve fiber structure.

    ``fiber_map[p]`` gives the sentence index each curve value decodes to;
    the tables are (n_conditions, n_curves) conditional distributions.
    """

    curve_values: tuple
    fiber_map: tuple[int, ...]
    data_table: np.ndarray
    model_table: np.ndarray

    @property
    def n_curves(self) -> int:
        return len(self.fiber_map)

    @property
    def n_sentences(self) -> int:
        return max(self.fiber_map) + 1

    def __post_init__(self):
        for name, table in (("data", self.data_table), ("model", self.model_table)):
            if table.shape[1] != self.n_curves:
                raise ShapeMismatch(f"{name} table has {table.shape[1]} columns, expected {self.n_curves}")
            sums = table.sum(axis=1)
            if not np.allclose(sums, 1.0, atol=1e-12):
                raise DegenerateDistribution(f"{name} table rows must sum to 1, got {sums}")


def random_fiber_spec(n_curves: int = 4, n_sentences: int = 2, n_conditions: int = 3, seed: int = 0) -> ToyFiberSpec:
    """Random strictly positive tables with a many-to-one decoding map."""
    rng = RngStream(seed, "fiber").generator()
    fiber_map = tuple(int(i % n_sentences) for i in range(n_curves))
    data = rng.uniform(0.1, 1.0, (n_conditions, n_curves))
    model = rng.uniform(0.1, 1.0, (n_conditions, n_curves))
    data /= data.sum(axis=1, keepdims=True)
    model /= model.sum(axis=1, keepdims=True)
    return ToyFiberSpec(
        curve_values=tuple(range(n_curves)),
        fiber_map=fiber_map,
        data_table=data,
        model_table=model,
    )


def lemma2_decomposition_check(spec: ToyFiberSpec, tolerance: float = 1e-12) -> VerificationRecord:
    """Brute-force the identity CE_Y = CE_P - E_Y[KL(P|Y,X)] + C.

    All expectations enumerate the finite curve alphabet exactly; the
    constant C collects the two entropy terms from the decomposition
    (conditions X are weighted uniformly).
    """
    g = np.asarray(spec.fiber_map)
    n_x = spec.data_table.shape[0]
    ce_y = ce_p = e_kl = h_y_given_p = h_p_given_yx = 0.0
    for x in range(n_x):
        pd = spec.data_table[x]
        pm = spec.model_table[x]
        for y in range(spec.n_sentences):
            fiber = np.flatnonzero(g == y)
            pd_y = pd[fiber].sum()
            pm_y = pm[fiber].sum()
            if pm_y <= 0.0:
                raise DegenerateDistribution(f"fiber of sentence {y} has zero model mass at condition {x}")
            ce_y += -pd_y * np.log(pm_y) / n_x
            post_d = pd[fiber] / pd_y
            post_m = pm[fiber] / pm_y
            e_kl += pd_y * float(np.sum(post_d * np.log(post_d / post_m))) / n_x
            h_p_given_yx += pd_y * float(-np.sum(post_d * np.log(post_d))) / n_x
        ce_p += float(-np.sum(pd * np.log(pm))) / n_x
        # decoding is deterministic, so H(Y|P) contributes exactly zero
    constant = h_y_given_p - h_p_given_yx
    rhs = ce_p - e_kl + constant
    return _record(
        "lemma2",
        ce_y,
        rhs,
        tolerance,
        detail={"ce_y": ce_y, "ce_p": ce_p, "e_kl": e_kl, "constant": constant},
    )


# ------------------------------------------------------ importance bounds


def lemma3_bound_check(pair: BasisPair, d: int = 8, n_random: int = 20, seed: int = 0) -> list[VerificationRecord]:
    """Check the global/local importance bound and the Rayleigh sandwich.

    Per-position ratios are asserted only when G has full rank (N >= L);
    rank-deficient pairs are reported with both eigenvalue conventions.
    """
    report = importance_ratio(pair.B_pinv, check_bound=False)
    L = pair.L
    full_rank = report.rank == L
    records = []
    for i in range(L):
        ratio_i = report.importance_global / report.importance_local[i]
        records.append(
            VerificationRecord(
                claim=f"lemma3/ratio[{i}]",
                lhs=float(ratio_i),
                rhs=report.ratio_bound,
                residual=float(max(ratio_i - report.ratio_bound, 0.0)),
                tolerance=1e-9,
                passed=ratio_i <= report.ratio_bound + 1e-9,
                asserted=full_rank,
                detail={"lambda_min_full": report.lambda_min, "rank": report.rank},
            )
        )
    G = pair.B_pinv @ pair.B_pinv.T
    eigvals, eigvecs = np.linalg.eigh(G)
    keep = eigvals > 1e-12 * max(eigvals[-1], 0.0)
    basis = eigvecs[:, keep]
    rng = RngStream(seed, "lemma3")
    for j in range(n_random):
        V = rng.child(j).normal((d, L))
        V /= np.linalg.norm(V)
        imp = error_importance(V, pair.B_pinv)
        upper = report.lambda_max * float(np.sum(V**2))
        lower = report.lambda_min_nonzero * float(np.sum((V @ basis) ** 2))
        ok = lower - 1e-9 <= imp <= upper + 1e-9
        records.append(
            VerificationRecord(
                claim=f"lemma3/rayleigh[{j}]",
                lhs=imp,
                rhs=upper,
                residual=float(max(imp - upper, lower - imp, 0.0)),
                tolerance=1e-9,
                passed=ok,
                detail={"lower": lower, "upper": upper},
            )
        )
    return records


# -------------------------------------------------- distance correlation


def _centre_distances_into(X: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
    """Write the double-centred distance matrix of samples X (n, d) into ``out`` (n, n).

    Squared distances are summed one coordinate at a time through the
    (n, n) work buffer ``scratch``, so no (n, n, d) difference tensor is
    built.
    """
    out.fill(0.0)
    for col in np.ascontiguousarray(X.T):
        np.subtract(col[:, None], col[None, :], out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        out += scratch
    np.sqrt(out, out=out)
    row = out.mean(axis=1, keepdims=True)
    col = out.mean(axis=0, keepdims=True)
    grand = out.mean()
    out -= row
    out -= col
    out += grand


def _dcor_matrix(stack: np.ndarray) -> np.ndarray:
    """Biased distance correlation between every pair of rows of ``stack``.

    Each row of the (k, n²) stack is a flattened double-centred distance
    matrix.  One Gram product gives every dcov², its diagonal the
    distance variances; a row whose distance variance is <= 0
    correlates 0 with every row, and a NaN propagates.
    """
    gram = stack @ stack.T / stack.shape[1]
    dvar = gram.diagonal()
    live = np.flatnonzero(~(dvar <= 0.0))
    pairs = np.ix_(live, live)
    matrix = np.zeros_like(gram)
    matrix[pairs] = np.sqrt(np.maximum(gram[pairs], 0.0) / np.sqrt(np.outer(dvar[live], dvar[live])))
    return matrix


def distance_correlation(X: np.ndarray, Y: np.ndarray) -> float:
    """Biased-statistic distance correlation in [0, 1]; 0 if degenerate."""
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    if Y.ndim == 1:
        Y = Y[:, None]
    if X.shape[0] != Y.shape[0]:
        raise ShapeMismatch(f"sample counts differ: {X.shape[0]} vs {Y.shape[0]}")
    n = X.shape[0]
    if n < 2:
        raise TooFewSamples(f"need at least 2 samples, got {n}")
    stack = np.empty((2, n * n))
    scratch = np.empty((n, n))
    for row, samples in zip(stack, (X, Y)):
        _centre_distances_into(samples, row.reshape(n, n), scratch)
    return float(_dcor_matrix(stack)[0, 1])


# ------------------------------------------------------------ logit probe

# Perturbations decoded per call: the perturbed hidden states and their
# decode temporaries are this many rows deep whatever ``n_noise`` is.
_PROBE_CHUNK = 32
# The probe noises its inputs at this fraction of the schedule, T/2.
_PROBE_T_FRAC = 0.5


@dataclass(frozen=True)
class ProbeResult:
    matrix: np.ndarray
    mean_offdiag: float


def check_probe_settings(n_noise: int, dropout_p: float, noise_scale: float) -> None:
    """Raise a typed error for probe settings that cannot give a correlation.

    A distance correlation needs at least two perturbations; dropout
    must keep some units, and the noise scale must be a finite
    non-negative number.
    """
    if n_noise < 2:
        raise TooFewSamples(f"n_noise must be at least 2, got {n_noise}")
    if not 0.0 <= dropout_p < 1.0:
        raise ConfigError(f"dropout_p must lie in [0, 1), got {dropout_p}")
    if not (np.isfinite(noise_scale) and noise_scale >= 0.0):
        raise ConfigError(f"noise_scale must be finite and non-negative, got {noise_scale}")


def probe_logits(
    model,
    eval_batch: list[np.ndarray],
    n_noise: int = 200,
    dropout_p: float = 0.1,
    noise_scale: float = 0.1,
    seed: int = 0,
):
    """Iterate over each evaluation sequence's logits (n_noise, L, |V|) under hidden-state noise.

    Each sequence is noised once at diffusion step T/2 and run
    through the backbone; its final hidden state is perturbed
    ``n_noise`` times (dropout plus Gaussian noise scaled by each token's
    hidden norm), and each perturbation is decoded the way the model
    decodes: output head, curve, word logits.  Bad settings and batches
    raise here, before any sequence is run.
    """
    check_probe_settings(n_noise, dropout_p, noise_scale)
    if not eval_batch:
        raise ShapeMismatch("empty evaluation batch")
    length = len(eval_batch[0])
    if any(len(seq) != length for seq in eval_batch):
        raise ShapeMismatch("probe sequences must share one length")
    return _sequence_logits(model, eval_batch, length, n_noise, dropout_p, noise_scale, seed)


def _sequence_logits(model, eval_batch, length, n_noise, dropout_p, noise_scale, seed):
    t = max(int(round(_PROBE_T_FRAC * model.schedule.T)), 1)
    rng = RngStream(seed, "probe")
    e0 = model.embed(np.stack(eval_batch)).data
    et = np.stack([forward_noise_gaussian(e, t, model.schedule, rng.child("input", s)) for s, e in enumerate(e0)])
    hiddens = model.backbone_hidden(model.to_points(Tensor(et), length), [t] * len(eval_batch)).data
    for s, hidden in enumerate(hiddens):
        yield _perturbed_logits(model, hidden, length, n_noise, dropout_p, noise_scale, rng.child("perturb", s).generator())


def _perturbed_logits(model, hidden, length, n_noise, dropout_p, noise_scale, gen) -> np.ndarray:
    """Logits (n_noise, L, |V|) of ``n_noise`` perturbations of one hidden state (n_tokens, d_model).

    Perturbations are drawn in order and decoded ``_PROBE_CHUNK`` at a
    time.  A row of the decode's matrix products does not depend on how
    many rows share the call, so the logits equal those of one
    whole-stack decode bit for bit.
    """
    sigma = noise_scale * np.linalg.norm(hidden, axis=1, keepdims=True) / np.sqrt(model.backbone.d_model)
    logits = np.empty((n_noise, length, model.embedding.weight.shape[1]))
    chunk = np.empty((min(n_noise, _PROBE_CHUNK),) + hidden.shape)
    for start in range(0, n_noise, _PROBE_CHUNK):
        block = chunk[: min(_PROBE_CHUNK, n_noise - start)]
        for h in block:
            h[...] = hidden
            if dropout_p > 0.0:
                np.multiply(h, gen.random(h.shape) >= dropout_p, out=h)
                np.divide(h, 1.0 - dropout_p, out=h)
            if noise_scale > 0.0:
                np.add(h, gen.standard_normal(h.shape) * sigma, out=h)
        e_hat = model.to_words(model.hidden_to_points(Tensor(block)), length)
        logits[start : start + len(block)] = model.logits_from_clean(e_hat).data
    return logits


def logit_correlation_probe(
    model,
    eval_batch: list[np.ndarray],
    n_noise: int = 200,
    dropout_p: float = 0.1,
    noise_scale: float = 0.1,
    seed: int = 0,
) -> ProbeResult:
    """Dependence between per-position logits under hidden-state noise.

    Logits come from ``probe_logits``.  Each position's centred distance
    matrix goes into one (L, n_noise²) stack, allocated once and reused
    for every sequence; one Gram product of the stack gives the distance
    correlation of every pair of positions, and the matrices are
    averaged over the batch.
    """
    sequences = probe_logits(model, eval_batch, n_noise, dropout_p, noise_scale, seed)
    length = len(eval_batch[0])
    stack = np.empty((length, n_noise * n_noise))
    scratch = np.empty((n_noise, n_noise))
    matrices = []
    for samples in sequences:
        for i, row in enumerate(stack):
            _centre_distances_into(samples[:, i, :], row.reshape(n_noise, n_noise), scratch)
        matrices.append(_dcor_matrix(stack))
    mean_matrix = np.mean(matrices, axis=0)
    off = mean_matrix[~np.eye(length, dtype=bool)]
    return ProbeResult(matrix=mean_matrix, mean_offdiag=float(off.mean()))
