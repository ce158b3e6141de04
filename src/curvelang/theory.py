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
from .model import forward_noise_gaussian, masked_forward
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


# ----------------------------------------------------- continuous relaxation


def relaxation_posterior_check(E: np.ndarray, z: np.ndarray, sigma2: float) -> VerificationRecord:
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
        tolerance=1e-12,
        passed=residual <= 1e-12,
        asserted=on_sphere,
        detail={"z_norm": float(np.linalg.norm(z)), "bayes": bayes.tolist(), "softmax": soft.tolist()},
    )


# ----------------------------------------------------------- MLE optimality


def lemma1_stationarity(E: np.ndarray, y: int) -> VerificationRecord:
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
        tolerance=1e-10,
        passed=grad_norm <= 1e-10,
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
        fiber_map=fiber_map,
        data_table=data,
        model_table=model,
    )


def lemma2_decomposition_check(spec: ToyFiberSpec) -> VerificationRecord:
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
    residual = float(abs(ce_y - rhs))
    return VerificationRecord(
        claim="lemma2",
        lhs=float(ce_y),
        rhs=float(rhs),
        residual=residual,
        tolerance=1e-12,
        passed=residual <= 1e-12,
        detail={"ce_y": ce_y, "ce_p": ce_p, "e_kl": e_kl, "constant": constant},
    )


# ------------------------------------------------------ importance bounds


def lemma3_bound_check(pair: BasisPair, n_random: int, seed: int) -> list[VerificationRecord]:
    """Check the global/local importance bound and the Rayleigh sandwich.

    The sandwich is checked on ``n_random`` unit-norm (4, L) error
    matrices.  Per-position ratios are asserted only when G has full rank
    (N >= L); rank-deficient pairs are reported with both eigenvalue
    conventions.
    """
    # each B_pinv read rebuilds the dense array, so it is read once
    B_pinv = pair.B_pinv
    report = importance_ratio(B_pinv)
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
    G = B_pinv @ B_pinv.T
    eigvals, eigvecs = np.linalg.eigh(G)
    keep = eigvals > 1e-12 * max(eigvals[-1], 0.0)
    basis = eigvecs[:, keep]
    rng = RngStream(seed, "lemma3")
    for j in range(n_random):
        V = rng.child(j).normal((4, L))
        V /= np.linalg.norm(V)
        imp = error_importance(V, B_pinv)
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


# Distances per block of the dCov kernel: a (k, rows, n) block of
# pairwise distances holds at most 1 MiB of float64 (one row when k·n
# alone is more), so no (k, n²) array is built.
_DCOV_BLOCK = 1 << 17


def _dcov_gram(samples: np.ndarray) -> np.ndarray:
    """(k, k) Gram of biased dCov² between k sets of n samples, given as (n, k, d).

    dCov² = S1 + S2 - 2·S3 from the pairwise distances a, b of two sets:
    S1 the mean of a·b, S2 the product of their means, S3 the mean product
    of their row means (Székely, Rizzo and Bakirov 2007).  Each block of
    rows adds its row sums and its Gram D Dᵀ to running totals.
    """
    n, k, d = samples.shape
    # one contiguous (k, n) array per coordinate: strided views of the
    # samples made the subtractions slower
    cols = np.ascontiguousarray(samples.transpose(2, 1, 0))
    step = max(1, _DCOV_BLOCK // (k * n))
    dist = np.empty(k * min(step, n) * n)
    scratch = np.empty_like(dist)
    row_sums = np.empty((k, n))
    gram = np.zeros((k, k))
    for lo in range(0, n, step):
        rows = min(step, n - lo)
        block = dist[: k * rows * n].reshape(k, rows, n)
        work = scratch[: k * rows * n].reshape(k, rows, n)
        block.fill(0.0)
        for col in cols:
            np.subtract(col[:, lo : lo + rows, None], col[:, None, :], out=work)
            np.multiply(work, work, out=work)
            block += work
        np.sqrt(block, out=block)
        block.sum(axis=2, out=row_sums[:, lo : lo + rows])
        flat = block.reshape(k, rows * n)
        gram += flat @ flat.T
    totals = row_sums.sum(axis=1)
    return gram / n**2 + np.outer(totals, totals) / n**4 - 2.0 * (row_sums @ row_sums.T) / n**3


def _dcor_matrix(gram: np.ndarray) -> np.ndarray:
    """Biased distance correlations from a (k, k) Gram of dCov².

    The diagonal holds the distance variances; a set whose distance
    variance is <= 0 correlates 0 with every set, and a NaN propagates.
    """
    dvar = gram.diagonal()
    live = np.flatnonzero(~(dvar <= 0.0))
    pairs = np.ix_(live, live)
    matrix = np.zeros_like(gram)
    matrix[pairs] = np.sqrt(np.maximum(gram[pairs], 0.0) / np.sqrt(np.outer(dvar[live], dvar[live])))
    return matrix


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

    Each sequence is corrupted once at diffusion step T/2 by the
    model's own noise process (Gaussian noise on its embeddings, or
    masking of its tokens) and run through the backbone; its final
    hidden state is perturbed ``n_noise`` times (dropout plus Gaussian
    noise scaled by each token's hidden norm), and each perturbation is
    decoded the way the model decodes: output head, curve, word logits.
    A model with a K-curve head never decodes that way (its curves come
    from curve tokens, a scorer and a combination), so it raises
    ``ConfigError``.  Bad settings, models and batches raise here,
    before any sequence is run.
    """
    check_probe_settings(n_noise, dropout_p, noise_scale)
    if model.k_head:
        raise ConfigError("the probe decodes one curve per hidden state, so it cannot probe a model with a K-curve head")
    if not eval_batch:
        raise ShapeMismatch("empty evaluation batch")
    length = len(eval_batch[0])
    if any(len(seq) != length for seq in eval_batch):
        raise ShapeMismatch("probe sequences must share one length")
    return _sequence_logits(model, eval_batch, length, n_noise, dropout_p, noise_scale, seed)


def _sequence_logits(model, eval_batch, length, n_noise, dropout_p, noise_scale, seed):
    t = max(int(round(_PROBE_T_FRAC * model.schedule.T)), 1)
    rng = RngStream(seed, "probe")
    tokens = np.stack(eval_batch)
    if model.noise == "masked":
        yt = np.stack([masked_forward(y, t, model.schedule, rng.child("input", s), model.vocab.mask_id) for s, y in enumerate(tokens)])
        et = model.embed(yt).data
    else:
        e0 = model.embed(tokens).data
        et = np.stack([forward_noise_gaussian(e, t, model.schedule, rng.child("input", s)) for s, e in enumerate(e0)])
    hiddens = model.backbone_hidden(model.to_points(Tensor(et)), [t] * len(eval_batch)).data
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

    Logits come from ``probe_logits``.  One pass of the dCov kernel
    over a sequence's (n_noise, L, |V|) logits gives the distance
    correlation of every pair of positions, and the matrices are
    averaged over the batch.
    """
    sequences = probe_logits(model, eval_batch, n_noise, dropout_p, noise_scale, seed)
    length = len(eval_batch[0])
    matrices = [_dcor_matrix(_dcov_gram(samples)) for samples in sequences]
    mean_matrix = np.mean(matrices, axis=0)
    off = mean_matrix[~np.eye(length, dtype=bool)]
    return ProbeResult(matrix=mean_matrix, mean_offdiag=float(off.mean()))
