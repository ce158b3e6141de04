"""Independent oracles used by the test suite.

These deliberately avoid the package's own numerical paths: the
eigensolver is a hand-rolled Jacobi rotation sweep, gradients come from
central finite differences, B-spline bases come from a scalar
one-index-at-a-time Cox-de Boor recursion and from an index-major
(L, eta+1) array recursion, the reference pseudo-inverse is one SVD of
the whole matrix with no even/odd split, the reference round-trip error
draws and reduces one trial at a time, the reference
language-model losses and multi-head attention are recomputed in plain
numpy with no tape or curve machinery, the reference batcher
rebuilds its length buckets on every call, the reference sampler
and logit probe write out the boundary map, output head, decoder and
noising formulas inline, one sequence and one perturbation at a time,
the reference probe matrix correlates one pair of positions at a time
from (n, n, d) difference tensors, the closed-form distance
correlation sums raw pairwise distances with no centring at all, and
the reference Adam step updates every element of every parameter that
has a gradient, with out-of-place temporaries, the reference
initialisation draws every parameter from its own stream out of place,
from a name table of its own, the reference ingest counts and
encodes one line at a time, and the reference feed-forward layer runs
its layer norm and GELU chain on all rows at once, as whole-array
expressions.
"""

from collections import Counter

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


def reference_basis_columns(knots, gammas):
    """(N, len) basis matrix from the index-major evaluator: one (len, eta+1)
    array per quantity, level j reading the left distances as a reversed
    strided view."""
    t = knots.knots
    eta = knots.degree
    n_basis = knots.n_basis
    span = np.clip(np.searchsorted(t, gammas, side="right") - 1, eta, n_basis - 1)
    offsets = np.arange(1, eta + 1)
    g = gammas[:, None]
    left = np.zeros((gammas.size, eta + 1))
    right = np.zeros((gammas.size, eta + 1))
    left[:, 1:] = g - t[span[:, None] + 1 - offsets]
    right[:, 1:] = t[span[:, None] + offsets] - g
    vals = np.zeros((gammas.size, eta + 1))
    vals[:, 0] = 1.0
    for j in range(1, eta + 1):
        terms = vals[:, :j] / (right[:, 1 : j + 1] + left[:, j:0:-1])
        vals[:, :j] = right[:, 1 : j + 1] * terms
        vals[:, j] = 0.0
        vals[:, 1 : j + 1] += left[:, j:0:-1] * terms
    out = np.zeros((n_basis, gammas.size))
    rows = span[:, None] - eta + np.arange(eta + 1)
    out[rows, np.arange(gammas.size)[:, None]] = vals
    return out


def reference_pseudo_inverse(B):
    """(B_pinv, rank, cond) from one plain SVD of the whole matrix.

    Singular values at or below 1e-12 * max(B.shape) * sigma_max are
    dropped, the cutoff ``splines.pseudo_inverse`` documents.
    """
    B = np.asarray(B, dtype=np.float64)
    u, s, vt = np.linalg.svd(B, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((B.shape[1], B.shape[0])), 0, np.inf
    keep = s > 1e-12 * max(B.shape) * s[0]
    rank = int(np.count_nonzero(keep))
    inv_s = np.zeros_like(s)
    inv_s[keep] = 1.0 / s[keep]
    return (vt.T * inv_s) @ u.T, rank, float(s[0] / s[keep][-1])


# ---------------------------------------------------------------------------
# Round-trip error one trial at a time.
# ---------------------------------------------------------------------------


def reference_reconstruction_error(pair, trials, seed, dim):
    """Mean over trials of the E -> P -> E MSE, each trial drawn and reduced on its own."""
    length = pair.L
    proj = pair.B_pinv @ pair.B
    total = 0.0
    base = RngStream(seed, "recon", length)
    for trial in range(trials):
        values = base.child(trial).normal((dim, length))
        recon = values @ proj
        total += float(np.mean((values - recon) ** 2))
    return total / trials


# ---------------------------------------------------------------------------
# Plain-numpy reference forward pass (no Tensor, no tape, no curve mapping).
# ---------------------------------------------------------------------------

_GELU_C = float(np.sqrt(2.0 / np.pi))


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(_GELU_C * (x + 0.044715 * x**3)))


def _layer_norm_parts(x, eps=1e-5):
    """(xhat, inv_std) of rows x: np.var's variance, and the package's
    rounding order (times the reciprocal of the standard deviation)."""
    inv_std = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    return (x - x.mean(axis=-1, keepdims=True)) * inv_std, inv_std


def _layer_norm(x, gain, bias):
    return _layer_norm_parts(x)[0] * gain + bias


def _layer_norm_grads(x, gain, g):
    """The adjoints of the rows x (rows, k), the gain and the bias of a
    layer norm for its output's adjoint g, as whole-array expressions."""
    xhat, inv_std = _layer_norm_parts(x)
    dxhat = g * gain
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv_std
    return dx, (g * xhat).sum(axis=0), g.sum(axis=0)


def _softmax_rows(x):
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _time_features(t, dim):
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = t * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)])[None, :]


def reference_feed_forward(h, ln_g, ln_b, w1, b1, w2, b2, g, p=0.0, gens=None):
    """The pre-norm feed-forward layer on (rows, k) inputs, unblocked:
    its output and the gradients of h, ln_g, ln_b, w1, b1, w2 and b2 for
    the output adjoint g.

    The layer norm, the tanh-GELU chain and their adjoints are written
    out with the package's rounding order (so the results can be
    compared bit for bit) but on all rows at once; with ``p > 0`` each of
    ``gens`` draws the keep mask of one equal block of rows, in turn, as
    floats.
    """
    x = _layer_norm(h, ln_g, ln_b)
    u = x @ w1 + b1
    t = np.tanh(_GELU_C * (u * u * u * 0.044715 + u))
    scale = 1.0
    if p > 0:
        draws = np.concatenate([gen.random((len(x) // len(gens), w1.shape[1])) for gen in gens])
        scale = (draws >= p) / (1.0 - p)
    a = (t + 1.0) * u * 0.5 * scale
    out = a @ w2 + b2
    slope = (1.0 - t * t) * (0.5 * u) * (_GELU_C * (u * u * (3 * 0.044715) + 1.0)) + (t + 1.0) * 0.5
    du = slope * ((g @ w2.T) * scale)
    return out, (*_layer_norm_grads(h, ln_g, du @ w1.T), x.T @ du, du.sum(axis=0), a.T @ g, g.sum(axis=0))


def reference_attention(h, ln_g, ln_b, wq, bq, wk, bk, wv, bv, heads, scale, p=0.0, gens=None):
    """Multi-head attention over the q, k and v projections of the
    layer-normed (batch, n, d) sequences h, one sequence and one head at
    a time.

    Returns the (batch, n, m) output and the (batch, heads, n, n)
    inverted-dropout masks (all ones without dropout); ``gens`` holds one
    generator per (sequence, head), sequence-major.
    """
    x = _layer_norm(h, ln_g, ln_b)
    q, k, v = x @ wq + bq, x @ wk + bk, x @ wv + bv
    batch, n, width = q.shape
    dh = width // heads
    out = np.zeros_like(q)
    masks = np.ones((batch, heads, n, n))
    for b in range(batch):
        for hd in range(heads):
            cols = slice(hd * dh, (hd + 1) * dh)
            att = _softmax_rows(q[b, :, cols] @ k[b, :, cols].T * scale)
            if p > 0:
                masks[b, hd] = (gens[b * heads + hd].random((n, n)) >= p) / (1.0 - p)
            out[b, :, cols] = (att * masks[b, hd]) @ v[b, :, cols]
    return out, masks


def reference_init(model):
    """Name -> initial value of every parameter of a fresh ``model``.

    Weights, the position table and the curve tokens are drawn as
    ``RngStream(seed, "init").child(name).generator().standard_normal(shape)``
    times 0.02; the word embeddings with std 1, then each column divided
    by its norm.  A layer norm's gain is exactly 1.0 and every bias
    exactly 0.0.
    """
    layers = model.backbone.layers
    std = {"emb": 1.0, "in_w": 0.02, "pos": 0.02, "time_w": 0.02, "out_w": 0.02}
    std.update({f"l{i}.{w}": 0.02 for i in range(layers) for w in ("wq", "wk", "wv", "wo", "ff_w1", "ff_w2")})
    if model.k_head:
        std.update({"ktok": 0.02, "score_w1": 0.02, "score_w2": 0.02})
    gains = {f"l{i}.ln{j}_g" for i in range(layers) for j in (1, 2)} | {"lnf_g"}
    out = {}
    for name in model.store.names():
        shape = model.store[name].shape
        if name in std:
            out[name] = RngStream(model.seed, "init").child(name).generator().standard_normal(shape) * std[name]
        else:
            out[name] = np.full(shape, 1.0 if name in gains else 0.0)
    out["emb"] = out["emb"] / np.sqrt((out["emb"] ** 2).sum(axis=0))
    return out


def reference_ingest(path, tokenizer, max_len):
    """(vocabulary tokens, int64 sequences) of a UTF-8 corpus file, one line at a time.

    Each kept line (at least 2 tokens once cut to ``max_len``) updates the
    token counts and is later encoded on its own; the vocabulary is pad,
    mask, then tokens by descending count and then lexicographically.
    """
    split = {"char": list, "whitespace": str.split}[tokenizer]
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    counts = Counter()
    kept = []
    for line in lines:
        pieces = split(line)[:max_len]
        if len(pieces) >= 2:
            counts.update(pieces)
            kept.append(pieces)
    tokens = ("<pad>", "<mask>", *sorted(counts, key=lambda tok: (-counts[tok], tok)))
    index = {tok: i for i, tok in enumerate(tokens)}
    return tokens, [np.array([index[tok] for tok in pieces], dtype=np.int64) for pieces in kept]


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
    return (_reference_hidden(model, p, points, t) @ p["out_w"] + p["out_b"]).T


def _reference_hidden(model, p, points, t):
    """Final hidden states (n_tokens, d_model) of curve inputs (d, n_tokens)."""
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
    return _layer_norm(x, p["lnf_g"], p["lnf_b"])


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


def _curve_maps(model, length):
    """(B_pinv, B) of a length; the identity in the identity modes."""
    if model.mode.endswith("identity"):
        return np.eye(length), np.eye(length)
    pair = model.cache.get(length)
    return pair.B_pinv, pair.B


def _reference_denoise(model, e_t, t, length):
    """Denoised embeddings (d, L) of noisy embeddings (d, L) at step t."""
    B_pinv, B = _curve_maps(model, length)
    return reference_backbone(model, e_t @ B_pinv, t) @ B


def reference_reverse_steps(T, n_steps):
    if n_steps == 1:
        return [T]
    return [T - (i * (T - 1)) // (n_steps - 1) for i in range(n_steps)]


def reference_sample(model, length, n_steps, seed):
    """One sample (token ids (L,), trajectory of (d, L) arrays) with the package's draws.

    Gaussian modes start from N(0, I), re-noise each prediction to the
    next step as sqrt(abar) e_hat + sqrt(1 - abar) eps, and decode the
    last prediction; masked modes start all masked and reveal each
    masked position with probability (abar_next - abar_t) / (1 - abar_t).
    """
    emb = model.embedding.weight.data
    abar = model.schedule.alpha_bars
    steps = reference_reverse_steps(model.schedule.T, n_steps)
    rng = RngStream(seed, "sample")
    trajectory = []
    if model.mode.startswith("masked"):
        mask_id = model.vocab.mask_id
        y = np.full(length, mask_id, dtype=np.int64)
        for idx, t in enumerate(steps):
            e_hat = _reference_denoise(model, emb[:, y], t, length)
            trajectory.append(e_hat)
            y_hat = np.argmax(emb.T @ e_hat, axis=0)
            take = y == mask_id
            if idx + 1 < len(steps):
                p_unmask = (abar[steps[idx + 1]] - abar[t]) / max(1.0 - abar[t], 1e-12)
                take &= rng.child("reveal", idx).uniform(y.shape) < p_unmask
            y[take] = y_hat[take]
        return y, trajectory
    e_t = rng.child("start").normal((model.embed_dim, length))
    for idx, t in enumerate(steps):
        e_t = _reference_denoise(model, e_t, t, length)
        trajectory.append(e_t)
        if idx + 1 < len(steps):
            a = abar[steps[idx + 1]]
            e_t = np.sqrt(a) * e_t + np.sqrt(1.0 - a) * rng.child("renoise", idx).normal(e_t.shape)
    return np.argmax(emb.T @ e_t, axis=0), trajectory


def reference_probe_logits(model, eval_batch, n_noise, dropout_p, noise_scale, seed, t_frac=0.5):
    """Per-sequence logits (n_noise, L, |V|) of the logit probe, one perturbation at a time."""
    emb = model.embedding.weight.data
    p = {name: model.store[name].data for name in model.store.names()}
    length = len(eval_batch[0])
    B_pinv, B = _curve_maps(model, length)
    t = max(int(round(t_frac * model.schedule.T)), 1)
    abar = model.schedule.alpha_bars[t]
    rng = RngStream(seed, "probe")
    out = []
    for s, tokens in enumerate(eval_batch):
        e0 = emb[:, tokens]
        e_t = np.sqrt(abar) * e0 + np.sqrt(1.0 - abar) * rng.child("input", s).normal(e0.shape)
        hidden = _reference_hidden(model, p, e_t @ B_pinv, t)
        norms = np.linalg.norm(hidden, axis=1, keepdims=True)
        gen = rng.child("perturb", s).generator()
        logits = np.empty((n_noise, length, emb.shape[1]))
        for n in range(n_noise):
            h = hidden.copy()
            if dropout_p > 0.0:
                h = h * (gen.random(h.shape) >= dropout_p) / (1.0 - dropout_p)
            if noise_scale > 0.0:
                h = h + gen.standard_normal(h.shape) * (noise_scale * norms / np.sqrt(model.backbone.d_model))
            e_hat = (h @ p["out_w"] + p["out_b"]).T @ B
            logits[n] = (emb.T @ e_hat).T
        out.append(logits)
    return out


def _centered_distances(X):
    diff = X[:, None, :] - X[None, :, :]
    D = np.sqrt(np.sum(diff**2, axis=-1))
    row = D.mean(axis=1, keepdims=True)
    col = D.mean(axis=0, keepdims=True)
    return D - row - col + D.mean()


def _distance_variance(A):
    return float((A * A).mean())


def _dcor_centered(A, B, dvar_a, dvar_b):
    if dvar_a <= 0.0 or dvar_b <= 0.0:
        return 0.0
    dcov2 = max(float((A * B).mean()), 0.0)
    return float(np.sqrt(dcov2 / np.sqrt(dvar_a * dvar_b)))


def centred_dcor(X, Y):
    """Biased distance correlation of samples X, Y from their double-centred distance matrices."""
    A = _centered_distances(np.asarray(X, dtype=np.float64).reshape(len(X), -1))
    B = _centered_distances(np.asarray(Y, dtype=np.float64).reshape(len(Y), -1))
    return _dcor_centered(A, B, _distance_variance(A), _distance_variance(B))


def reference_probe_matrix(model, eval_batch, n_noise, dropout_p, noise_scale, seed, t_frac=0.5):
    """Batch-mean probe matrix (L, L), one pair of positions at a time.

    The logits come from ``reference_probe_logits``; each position's
    centred distance matrix is built from an (n, n, |V|) difference
    tensor, and each pair's dcov² is its own elementwise mean.
    """
    matrices = []
    for samples in reference_probe_logits(model, eval_batch, n_noise, dropout_p, noise_scale, seed, t_frac):
        length = samples.shape[1]
        matrix = np.zeros((length, length))
        centered = [_centered_distances(samples[:, i, :]) for i in range(length)]
        dvars = [_distance_variance(c) for c in centered]
        for i in range(length):
            for j in range(i, length):
                matrix[i, j] = matrix[j, i] = _dcor_centered(centered[i], centered[j], dvars[i], dvars[j])
        matrices.append(matrix)
    return np.mean(matrices, axis=0)


def closed_form_dcor(X, Y):
    """Biased distance correlation from raw distances: dCov² = S1 + S2 - 2·S3.

    With a_ij, b_ij the pairwise distances of n samples, S1 is the mean
    of a_ij·b_ij, S2 the product of the means of a and b, and S3 the
    mean over i of the product of row means of a and b (Székely,
    Rizzo and Bakirov 2007).  Distances come from a scalar double loop.
    """
    X = np.asarray(X, dtype=np.float64).reshape(len(X), -1)
    Y = np.asarray(Y, dtype=np.float64).reshape(len(Y), -1)
    n = len(X)

    def dists(Z):
        return np.array([[np.sqrt(sum((Z[i, k] - Z[j, k]) ** 2 for k in range(Z.shape[1]))) for j in range(n)] for i in range(n)])

    def dcov2(a, b):
        s1 = (a * b).sum() / n**2
        s2 = a.sum() / n**2 * b.sum() / n**2
        s3 = (a.sum(axis=1) * b.sum(axis=1)).sum() / n**3
        return s1 + s2 - 2.0 * s3

    a, b = dists(X), dists(Y)
    var_a, var_b = dcov2(a, a), dcov2(b, b)
    if var_a <= 0.0 or var_b <= 0.0:
        return 0.0
    return float(np.sqrt(max(dcov2(a, b), 0.0) / np.sqrt(var_a * var_b)))


def stress(original, projected):
    """Normalized squared mismatch between pairwise distance matrices."""
    def dists(pts):
        diff = pts[:, None, :] - pts[None, :, :]
        return np.sqrt((diff**2).sum(-1))

    d0 = dists(original)
    d1 = dists(projected)
    return float(((d0 - d1) ** 2).sum() / (d0**2).sum())


def reference_adam_step(store, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam over whole parameters; gradients are cleared afterward."""
    store.step_count += 1
    t = store.step_count
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in store.params.items():
        if p.grad is None:
            continue
        m = store.moment1[name]
        v = store.moment2[name]
        m *= beta1
        m += (1.0 - beta1) * p.grad
        v *= beta2
        v += (1.0 - beta2) * p.grad**2
        p.data -= lr * (m / c1) / (np.sqrt(v / c2) + eps)
    store.zero_grad()
