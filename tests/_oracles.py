"""Independent oracles used by the test suite.

These deliberately avoid the package's own numerical paths: the
eigensolver is a hand-rolled Jacobi rotation sweep, gradients come from
central finite differences, B-spline bases come from a scalar
one-index-at-a-time Cox-de Boor recursion, and the reference
language-model losses and multi-head attention are recomputed in plain
numpy with no tape or curve machinery, and the reference batcher
rebuilds its length buckets on every call.
"""

import numpy as np

from curvelang.rng import RngStream


def jacobi_eigenvalues(A, tol=1e-12, max_sweeps=100):
    """Cyclic Jacobi rotations on a symmetric matrix; ascending eigenvalues."""
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    assert np.allclose(A, A.T, atol=1e-12)
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(A, -1) ** 2))
        if off < tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta**2 + 1.0)) if theta != 0 else 1.0
                c = 1.0 / np.sqrt(t**2 + 1.0)
                s = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                A = rot.T @ A @ rot
    return np.sort(np.diag(A))


def finite_difference_grad(f, x, h=1e-5):
    """Central-difference gradient of a scalar function of an array."""
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        grad[idx] = (f(xp) - f(xm)) / (2.0 * h)
        it.iternext()
    return grad


def relative_grad_error(numeric, analytic):
    scale = max(np.abs(numeric).max(), np.abs(analytic).max(), 1e-8)
    return float(np.abs(numeric - analytic).max() / scale)


# ---------------------------------------------------------------------------
# Scalar Cox-de Boor reference: one curve index at a time, one term at a time.
# ---------------------------------------------------------------------------


def find_span(knots, eta, n_basis, gamma):
    """Knot span of gamma by bisection; the last span is closed at gamma = 1."""
    if gamma >= knots[n_basis]:
        return n_basis - 1
    lo, hi = eta, n_basis
    while True:
        mid = (lo + hi) // 2
        if gamma < knots[mid]:
            hi = mid
        elif gamma >= knots[mid + 1]:
            lo = mid + 1
        else:
            return mid


def local_basis(knots, eta, span, gamma):
    """The eta+1 basis functions alive on ``span``, evaluated at gamma."""
    vals = np.zeros(eta + 1)
    left = np.zeros(eta + 1)
    right = np.zeros(eta + 1)
    vals[0] = 1.0
    for j in range(1, eta + 1):
        left[j] = gamma - knots[span + 1 - j]
        right[j] = knots[span + j] - gamma
        saved = 0.0
        for r in range(j):
            denom = right[r + 1] + left[j - r]
            term = vals[r] / denom
            vals[r] = saved + right[r + 1] * term
            saved = left[j - r] * term
        vals[j] = saved
    return vals


def reference_basis_matrix(knots, eta, gammas):
    """(N, len(gammas)) basis matrix built column by column from the scalar recursion."""
    n_basis = len(knots) - eta - 1
    out = np.zeros((n_basis, len(gammas)))
    for col, gamma in enumerate(gammas):
        span = find_span(knots, eta, n_basis, float(gamma))
        out[span - eta : span + 1, col] = local_basis(knots, eta, span, float(gamma))
    return out


# ---------------------------------------------------------------------------
# Plain-numpy reference forward pass (no Tensor, no tape, no curve mapping).
# ---------------------------------------------------------------------------

_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def _layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gain + bias


def _softmax_rows(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _time_features(t, dim):
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = t * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])[None, :]


def reference_attention(q, k, v, batch, heads, scale, p=0.0, gens=None):
    """Multi-head attention over (batch * n, d_model) rows, one sequence
    and one head at a time.

    Returns the (batch * n, d_model) output and the (batch, heads, n, n)
    inverted-dropout masks (all ones without dropout); ``gens`` holds one
    generator per (sequence, head), sequence-major.
    """
    n = q.shape[0] // batch
    dh = q.shape[1] // heads
    out = np.zeros_like(q)
    masks = np.ones((batch, heads, n, n))
    for b in range(batch):
        rows = slice(b * n, (b + 1) * n)
        for hd in range(heads):
            cols = slice(hd * dh, (hd + 1) * dh)
            att = _softmax_rows(q[rows, cols] @ k[rows, cols].T * scale)
            if p > 0:
                masks[b, hd] = (gens[b * heads + hd].random((n, n)) >= p) / (1.0 - p)
            out[rows, cols] = (att * masks[b, hd]) @ v[rows, cols]
    return out, masks


def reference_make_batch(corpus, batch_size, seed, step):
    """Length-bucketed batch with the buckets rebuilt from the corpus on every call."""
    buckets = {}
    for seq in corpus.sequences:
        buckets.setdefault(len(seq), []).append(seq)
    lengths = sorted(buckets)
    weights = np.array([len(buckets[l]) for l in lengths], dtype=np.float64)
    weights /= weights.sum()
    rng = RngStream(seed, "batch", step).generator()
    length = lengths[int(rng.choice(len(lengths), p=weights))]
    pool = buckets[length]
    picks = rng.integers(0, len(pool), size=batch_size)
    return [pool[int(i)] for i in picks]


def reference_backbone(model, points, t):
    """Recompute the backbone forward pass from raw parameter arrays.

    ``points`` is (d, n_tokens); returns the (d, n_tokens) output, exactly
    mirroring the packaged architecture but through independent code.
    """
    p = {name: model.store[name].data for name in model.store.names()}
    cfg = model.backbone
    n_tokens = points.shape[1]
    x = points.T @ p["in_w"] + p["in_b"]
    x = x + p["pos"][:n_tokens]
    x = x + (_time_features(t, cfg.time_dim) @ p["time_w"] + p["time_b"])
    dh = cfg.d_model // cfg.heads
    for i in range(cfg.layers):
        hn = _layer_norm(x, p[f"l{i}.ln1_g"], p[f"l{i}.ln1_b"])
        q = hn @ p[f"l{i}.wq"] + p[f"l{i}.bq"]
        k = hn @ p[f"l{i}.wk"] + p[f"l{i}.bk"]
        v = hn @ p[f"l{i}.wv"] + p[f"l{i}.bv"]
        outs = []
        for hd in range(cfg.heads):
            sl = slice(hd * dh, (hd + 1) * dh)
            att = _softmax_rows(q[:, sl] @ k[:, sl].T / np.sqrt(dh))
            outs.append(att @ v[:, sl])
        x = x + (np.concatenate(outs, axis=1) @ p[f"l{i}.wo"] + p[f"l{i}.bo"])
        hn2 = _layer_norm(x, p[f"l{i}.ln2_g"], p[f"l{i}.ln2_b"])
        ff = _gelu(hn2 @ p[f"l{i}.ff_w1"] + p[f"l{i}.ff_b1"]) @ p[f"l{i}.ff_w2"] + p[f"l{i}.ff_b2"]
        x = x + ff
    x = _layer_norm(x, p["lnf_g"], p["lnf_b"])
    return (x @ p["out_w"] + p["out_b"]).T


def reference_gaussian_loss(model, batch, rng):
    """Curve-free Gaussian DLM loss with the same noise draws as the package."""
    emb = model.embedding.weight.data
    diffusion_total = 0.0
    anchor_total = 0.0
    for i, tokens in enumerate(batch):
        t = int(rng.child("t", i).integers(1, model.schedule.T + 1))
        e0 = emb[:, tokens]
        abar = model.schedule.alpha_bars[t]
        eps = rng.child("noise", i).normal(e0.shape)
        et = np.sqrt(abar) * e0 + np.sqrt(1.0 - abar) * eps
        e_hat = reference_backbone(model, et, t)
        diffusion_total += float(np.mean((e_hat - e0) ** 2))
        logits = (emb.T @ e_hat).T
        logp = logits - logits.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        anchor_total += float(-logp[np.arange(len(tokens)), tokens].mean())
    n = len(batch)
    diffusion = diffusion_total / n
    anchor = anchor_total / n
    return {"diffusion": diffusion, "anchor": anchor, "total": diffusion + model.lambda_anchor * anchor}


def reference_masked_loss(model, batch, rng):
    """Curve-free masked-LM loss with the same mask draws as the package."""
    emb = model.embedding.weight.data
    mask_id = model.vocab.mask_id
    total = 0.0
    for i, tokens in enumerate(batch):
        length = len(tokens)
        t = int(rng.child("t", i).integers(1, model.schedule.T + 1))
        p_mask = 1.0 - model.schedule.alpha_bars[t]
        hit = rng.child("mask", i).uniform(tokens.shape) < p_mask
        yt = np.where(hit, mask_id, tokens)
        masked_idx = np.flatnonzero((yt == mask_id) & (tokens != mask_id))
        if masked_idx.size == 0:
            continue
        et = emb[:, yt]
        e_hat = reference_backbone(model, et, t)
        logits = (emb.T @ e_hat).T[masked_idx]
        logp = logits - logits.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        ce = float(-logp[np.arange(masked_idx.size), tokens[masked_idx]].mean())
        total += model.schedule.masked_weight(t) * ce * masked_idx.size / length
    return total / len(batch)


def stress(original, projected):
    """Normalized squared mismatch between pairwise distance matrices."""
    def dists(pts):
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff**2).sum(-1))

    d0 = dists(original)
    d1 = dists(projected)
    return float(((d0 - d1) ** 2).sum() / (d0**2).sum())
