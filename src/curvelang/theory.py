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


def _centered_distances(X: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - X[None, :, :]
    D = np.sqrt(np.sum(diff**2, axis=-1))
    row = D.mean(axis=1, keepdims=True)
    col = D.mean(axis=0, keepdims=True)
    return D - row - col + D.mean()


def _distance_variance(A: np.ndarray) -> float:
    return float((A * A).mean())


def _dcor_centered(A: np.ndarray, B: np.ndarray, dvar_a: float, dvar_b: float) -> float:
    """Biased distance correlation of two double-centred distance matrices.

    ``dvar_a`` and ``dvar_b`` are their distance variances, passed in so a
    caller correlating many pairs computes each one once.
    """
    if dvar_a <= 0.0 or dvar_b <= 0.0:
        return 0.0
    dcov2 = max(float((A * B).mean()), 0.0)
    return float(np.sqrt(dcov2 / np.sqrt(dvar_a * dvar_b)))


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
    if X.shape[0] < 2:
        raise TooFewSamples(f"need at least 2 samples, got {X.shape[0]}")
    A = _centered_distances(X)
    B = _centered_distances(Y)
    return _dcor_centered(A, B, _distance_variance(A), _distance_variance(B))


# ------------------------------------------------------------ logit probe


@dataclass(frozen=True)
class ProbeResult:
    matrix: np.ndarray
    mean_offdiag: float

    def to_dict(self) -> dict:
        return {"matrix": self.matrix.tolist(), "mean_offdiag": self.mean_offdiag}


def probe_logits(
    model,
    eval_batch: list[np.ndarray],
    n_noise: int = 200,
    dropout_p: float = 0.1,
    noise_scale: float = 0.1,
    seed: int = 0,
    t_frac: float = 0.5,
):
    """Yield each evaluation sequence's logits (n_noise, L, |V|) under hidden-state noise.

    Each sequence is noised once at a fixed diffusion step and run
    through the backbone; its final hidden state is perturbed
    ``n_noise`` times (dropout plus Gaussian noise scaled by each token's
    hidden norm), and each perturbation is decoded the way the model
    decodes: output head, curve, word logits.
    """
    if not eval_batch:
        raise ShapeMismatch("empty evaluation batch")
    length = len(eval_batch[0])
    if any(len(seq) != length for seq in eval_batch):
        raise ShapeMismatch("probe sequences must share one length")
    t = max(int(round(t_frac * model.schedule.T)), 1)
    rng = RngStream(seed, "probe")
    e0 = model.embed(np.stack(eval_batch)).data
    et = np.stack([forward_noise_gaussian(e, t, model.schedule, rng.child("input", s)) for s, e in enumerate(e0)])
    hiddens = model.backbone_hidden(model.to_points(Tensor(et), length), [t] * len(eval_batch)).data
    for s, hidden in enumerate(hiddens):
        yield _perturbed_logits(model, hidden, length, n_noise, dropout_p, noise_scale, rng.child("perturb", s).generator())


def _perturbed_logits(model, hidden, length, n_noise, dropout_p, noise_scale, gen) -> np.ndarray:
    """Logits (n_noise, L, |V|) of ``n_noise`` perturbations of one hidden state (n_tokens, d_model).

    The (n_noise, n_tokens, d_model) stack lives only in this call, so it
    is freed before the caller builds its distance matrices.
    """
    sigma = noise_scale * np.linalg.norm(hidden, axis=1, keepdims=True) / np.sqrt(model.backbone.d_model)
    stack = np.empty((n_noise,) + hidden.shape)
    for n in range(n_noise):
        h = hidden
        if dropout_p > 0.0:
            h = h * (gen.random(h.shape) >= dropout_p) / (1.0 - dropout_p)
        if noise_scale > 0.0:
            h = h + gen.standard_normal(h.shape) * sigma
        stack[n] = h
    e_hat = model.to_words(model.hidden_to_points(Tensor(stack)), length)
    return model.logits_from_clean(e_hat).data


def logit_correlation_probe(
    model,
    eval_batch: list[np.ndarray],
    n_noise: int = 200,
    dropout_p: float = 0.1,
    noise_scale: float = 0.1,
    seed: int = 0,
    t_frac: float = 0.5,
) -> ProbeResult:
    """Dependence between per-position logits under hidden-state noise.

    Logits come from ``probe_logits``; the distance correlation is taken
    between every pair of positions, and the matrices are averaged over
    the batch.
    """
    matrices = []
    for samples in probe_logits(model, eval_batch, n_noise, dropout_p, noise_scale, seed, t_frac):
        length = samples.shape[1]
        matrix = np.zeros((length, length))
        centered = [_centered_distances(samples[:, i, :]) for i in range(length)]
        dvars = [_distance_variance(c) for c in centered]
        for i in range(length):
            for j in range(i, length):
                matrix[i, j] = matrix[j, i] = _dcor_centered(centered[i], centered[j], dvars[i], dvars[j])
        matrices.append(matrix)
    mean_matrix = np.mean(matrices, axis=0)
    off = mean_matrix[~np.eye(length, dtype=bool)]
    return ProbeResult(matrix=mean_matrix, mean_offdiag=float(off.mean()))
