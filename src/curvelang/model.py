"""Toy diffusion language models with sentence-curve prediction.

Two noise processes are supported: Gaussian corruption of word embeddings
and discrete masking of tokens.  Either can run with the B-spline curve
mapping at the backbone boundary or with the identity mapping, which
recovers a conventional embedding-prediction model for controlled
comparisons.  The backbone is a small pre-norm transformer built on the
package's autodiff engine; everything runs on one CPU core.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParamStore, Tape, Tensor, adam_step
from .corpus import Vocab
from .curvemap import BasisCache
from .errors import ConfigError, NonFinite, ShapeMismatch, StepOutOfRange
from .rng import RngStream

# each run mode's noise process, and whether its curve map is the identity (B = I)
MODES = {
    "gaussian": ("gaussian", False),
    "masked": ("masked", False),
    "baseline-identity": ("gaussian", True),
    "masked-identity": ("masked", True),
}


@dataclass(frozen=True)
class NoiseSchedule:
    """Cumulative alpha-bar table, indexed 0..T."""

    T: int
    alpha_bars: np.ndarray
    kind: str

    def masked_weight(self, t: int) -> float:
        """Loss weight for masked training at step t.

        T times the per-step factor (abar[t-1] - abar[t]) / (1 - abar[t]),
        i.e. the uniform-t Monte Carlo estimator of the summed objective;
        T/t for the linear schedule.  Scaled this way, an untrained model
        scores about log|V| per token, independent of T.
        """
        num = self.alpha_bars[t - 1] - self.alpha_bars[t]
        den = 1.0 - self.alpha_bars[t]
        return float(self.T * num / den)


def build_schedule(T: int, kind: str = "sqrt") -> NoiseSchedule:
    """Noise schedule over T steps; abar[0] = 1 (clean data).

    linear: abar[t] = 1 - t/T.  sqrt: abar[t] = 1 - sqrt(t/T + 1e-4),
    clamped to stay positive up to t = T.
    """
    if T < 1:
        raise ConfigError(f"schedule needs T >= 1, got {T}")
    t = np.arange(T + 1, dtype=np.float64)
    if kind == "linear":
        abar = 1.0 - t / T
    elif kind == "sqrt":
        abar = 1.0 - np.sqrt(t / T + 1e-4)
        abar[0] = 1.0
        abar = np.maximum(abar, 1e-12)
    else:
        raise ConfigError(f"unknown schedule kind {kind!r}")
    return NoiseSchedule(T=T, alpha_bars=abar, kind=kind)


def forward_noise_gaussian(E0: np.ndarray, t: int, schedule: NoiseSchedule, rng: RngStream) -> np.ndarray:
    """Sample E_t ~ N(sqrt(abar_t) E0, (1 - abar_t) I)."""
    if not 1 <= t <= schedule.T:
        raise StepOutOfRange(f"step {t} outside 1..{schedule.T}")
    abar = schedule.alpha_bars[t]
    eps = rng.normal(E0.shape)
    return np.sqrt(abar) * E0 + np.sqrt(1.0 - abar) * eps


def masked_forward(y0: np.ndarray, t: int, schedule: NoiseSchedule, rng: RngStream, mask_id: int) -> np.ndarray:
    """Independently replace each token with the mask id, prob 1 - abar_t."""
    if not 0 <= t <= schedule.T:
        raise StepOutOfRange(f"step {t} outside 0..{schedule.T}")
    p_mask = 1.0 - schedule.alpha_bars[t]
    hit = rng.uniform(y0.shape) < p_mask
    yt = np.array(y0, copy=True)
    yt[hit] = mask_id
    return yt


@dataclass(frozen=True)
class BackboneConfig:
    layers: int = 2
    heads: int = 2
    d_model: int = 64
    d_ff: int = 128
    dropout: float = 0.0
    max_positions: int = 1024
    time_dim: int = 16

    def __post_init__(self):
        if self.layers < 0:
            raise ConfigError(f"layers must be >= 0, got {self.layers}")
        if self.d_model < 1 or self.d_ff < 1:
            raise ConfigError(f"d_model and d_ff must be >= 1, got {self.d_model} and {self.d_ff}")
        if self.max_positions < 2:
            raise ConfigError(f"max_positions must be >= 2, got {self.max_positions}")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.d_model % self.heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by heads {self.heads}")
        if self.time_dim < 0 or self.time_dim % 2 != 0:
            raise ConfigError(f"time_dim must be even and >= 0, got {self.time_dim}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")


@dataclass
class EmbeddingTable:
    """Word embeddings on the unit sphere; doubles as the logit matrix (shared parameters)."""

    weight: Tensor

    def project(self) -> None:
        """Renormalize columns to the unit sphere (idempotent)."""
        norms = np.linalg.norm(self.weight.data, axis=0, keepdims=True)
        self.weight.data /= np.maximum(norms, 1e-12)


def _time_features(t, dim: int) -> np.ndarray:
    """Sinusoidal features (len(t), dim) of the diffusion steps ``t``."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half - 1, 1))
    angles = np.asarray(t, dtype=np.float64)[:, None] * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)], axis=1)


def _batch_length(batch: list[np.ndarray]) -> int:
    length = len(batch[0])
    if any(len(tokens) != length for tokens in batch):
        raise ShapeMismatch("batch sequences must share one length")
    return length


class SclmModel:
    """Diffusion LM with curve mappings at the backbone boundary.

    ``noise`` is the noise process, "gaussian" or "masked".  The curve
    map is the cache's: the B-spline pairs, or the identity (B = I) when
    ``cache.config.identity`` is set.  ``MODES`` gives each run mode's
    noise and map.  Word embeddings stay on the unit sphere.

    The model works on batches of sequences of one length: embeddings
    (B, d, L), control points (B, d, N), one diffusion step per
    sequence.  The backbone runs the whole batch as (B, n_tokens,
    d_model) sequences; every weight acts on the last axis.  Each layer's
    attention and feed-forward sublayer is one op that takes the residual
    stream and applies the layer's pre-norm itself; attention projects
    the normed sequences to q, k and v and splits them into heads inside
    that op.

    ``state``, a checkpoint's ``values``/``first``/``second``, is adopted
    by the store as the parameters and Adam moments training left: no
    copy, no draw, no projection.  The store recovers its reached rows
    from the moments; Adam's ``store.step_count`` is not in the buffers,
    so the caller sets it.
    """

    def __init__(
        self,
        noise: str,
        vocab: Vocab,
        cache: BasisCache,
        schedule: NoiseSchedule,
        backbone: BackboneConfig = BackboneConfig(),
        embed_dim: int = 32,
        k_curves: int = 1,
        lambda_anchor: float = 1.0,
        seed: int = 0,
        state: np.ndarray | tuple[np.ndarray, ...] | None = None,
    ):
        if noise not in ("gaussian", "masked"):
            raise ConfigError(f"noise must be 'gaussian' or 'masked', got {noise!r}")
        if embed_dim < 1:
            raise ConfigError(f"embed_dim must be >= 1, got {embed_dim}")
        if k_curves < 1:
            raise ConfigError(f"k_curves must be >= 1, got {k_curves}")
        self.noise = noise
        self.vocab = vocab
        self.cache = cache
        self.schedule = schedule
        self.backbone = backbone
        self.embed_dim = embed_dim
        self.k_curves = k_curves
        self.lambda_anchor = lambda_anchor
        self.seed = seed
        # the K-curve head: learnable curve tokens plus a shallow scorer
        self.k_head = k_curves >= 2
        self._init_params(state)

    def _init_params(self, state: np.ndarray | tuple[np.ndarray, ...] | None) -> None:
        cfg = self.backbone
        d, dm, dff = self.embed_dim, cfg.d_model, cfg.d_ff
        specs = []  # (name, shape, by_rows, std), in checkpoint order

        def make(name, shape, std=0.02, by_rows=False):
            specs.append((name, shape, by_rows, std))

        make("emb", (d, self.vocab.size), std=1.0)
        make("in_w", (d, dm))
        make("in_b", (dm,), std=0.0)
        make("pos", (cfg.max_positions, dm), by_rows=True)
        make("time_w", (cfg.time_dim, dm))
        make("time_b", (dm,), std=0.0)
        for i in range(cfg.layers):
            make(f"l{i}.ln1_g", (dm,), std=0.0)
            make(f"l{i}.ln1_b", (dm,), std=0.0)
            for proj in ("q", "k", "v", "o"):
                make(f"l{i}.w{proj}", (dm, dm))
                make(f"l{i}.b{proj}", (dm,), std=0.0)
            make(f"l{i}.ln2_g", (dm,), std=0.0)
            make(f"l{i}.ln2_b", (dm,), std=0.0)
            make(f"l{i}.ff_w1", (dm, dff))
            make(f"l{i}.ff_b1", (dff,), std=0.0)
            make(f"l{i}.ff_w2", (dff, dm))
            make(f"l{i}.ff_b2", (dm,), std=0.0)
        make("lnf_g", (dm,), std=0.0)
        make("lnf_b", (dm,), std=0.0)
        make("out_w", (dm, d))
        make("out_b", (d,), std=0.0)
        if self.k_head:
            make("ktok", (self.k_curves, dm))
            make("score_w1", (dm, dm))
            make("score_b1", (dm,), std=0.0)
            make("score_w2", (dm, 1))
            make("score_b2", (1,), std=0.0)

        self.store = ParamStore([spec[:3] for spec in specs], state)
        self.embedding = EmbeddingTable(weight=self.store["emb"])
        if state is not None:
            return
        init = RngStream(self.seed, "init")
        # each random parameter is drawn straight into its view of the store
        for name, _, _, std in specs:
            view = self.store[name].data
            if std:
                init.child(name).generator().standard_normal(out=view)
                view *= std
            if name.endswith("_g"):  # a layer norm's gain starts at one
                view += 1.0
        self.embedding.project()

    # ---------------------------------------------------------------- pairs

    def embed(self, tokens: np.ndarray) -> Tensor:
        """Word embeddings (B, d, L) of token ids (B, L)."""
        return ad.embedding_lookup(self.embedding.weight, tokens)

    def to_points(self, e: Tensor) -> Tensor:
        """Control points (B, d, N) of embeddings (B, d, L): e @ B_pinv.

        An identity map passes e through; every map raises
        ``LengthOutOfRange`` for a length outside the cache.
        """
        pair = self.cache.get(e.shape[-1])
        return e if self.cache.config.identity else ad.linear(e, Tensor(pair.B_pinv))

    def to_words(self, points: Tensor, length: int) -> Tensor:
        """Embeddings (B, d, L) along the curves of points (B, d, N): p @ B."""
        pair = self.cache.get(length)
        return points if self.cache.config.identity else ad.linear(points, Tensor(pair.B))

    # ------------------------------------------------------------- backbone

    def _blocks(self, h: Tensor, rngs: list[RngStream] | None) -> Tensor:
        """Transformer layers over (batch, n_tokens, d_model) sequences."""
        cfg = self.backbone
        p = self.store
        heads = cfg.heads
        inv_sqrt = 1.0 / np.sqrt(cfg.d_model // heads)
        p_drop = cfg.dropout if rngs is not None else 0.0

        for i in range(cfg.layers):
            # each sublayer op normalises the residual stream h itself
            gens = [r.child("att", i, hd).generator() for r in rngs for hd in range(heads)] if p_drop else None
            att = [p[f"l{i}.{name}"] for name in ("ln1_g", "ln1_b", "wq", "bq", "wk", "bk", "wv", "bv")]
            h = h + ad.linear(ad.attention(h, *att, heads, inv_sqrt, p_drop, gens), p[f"l{i}.wo"], p[f"l{i}.bo"])
            gens = [r.child("ff", i).generator() for r in rngs] if p_drop else None
            ff = [p[f"l{i}.{name}"] for name in ("ln2_g", "ln2_b", "ff_w1", "ff_b1", "ff_w2", "ff_b2")]
            h = h + ad.feed_forward(h, *ff, p_drop, gens)
        return ad.layer_norm(h, p["lnf_g"], p["lnf_b"])

    def _embed_tokens(self, points: Tensor, t, curve_tokens: bool) -> Tensor:
        """Project (B, d, n) inputs into model space (B, n, d_model), add position/time.

        With ``curve_tokens`` every sequence is repeated once per curve
        token, k-major, and the token is prepended: (K * B, n + 1, d_model).
        """
        p = self.store
        batch, _, n_tokens = points.shape
        dm = self.backbone.d_model
        if n_tokens > self.backbone.max_positions:
            raise ShapeMismatch(f"{n_tokens} tokens exceed max_positions {self.backbone.max_positions}")
        x = ad.linear(ad.swapaxes(points, 1, 2), p["in_w"], p["in_b"])
        p.reach("pos", n_tokens)
        x = x + ad.slice_(p["pos"], (slice(0, n_tokens), slice(None)))
        tvec = ad.linear(Tensor(_time_features(t, self.backbone.time_dim)[:, None]), p["time_w"], p["time_b"])
        x = x + tvec
        if curve_tokens:
            k = self.k_curves
            tvecs = ad.reshape(ad.concat([tvec] * k, axis=0), (k, batch, 1, dm))
            tok = ad.reshape(ad.reshape(p["ktok"], (k, 1, 1, dm)) + tvecs, (k * batch, 1, dm))
            x = ad.concat([tok, ad.concat([x] * k, axis=0)], axis=1)
        return x

    def backbone_hidden(self, points: Tensor, t, rngs: list[RngStream] | None = None) -> Tensor:
        """Final hidden states (B, n_tokens, d_model) for curve inputs (B, d, n_tokens).

        ``t`` holds one diffusion step per sequence, ``rngs`` one dropout
        stream per sequence.
        """
        return self._blocks(self._embed_tokens(points, t, False), rngs)

    def hidden_to_points(self, hidden: Tensor) -> Tensor:
        """Project hidden states (B, n_tokens, d_model) back to (B, d, n_tokens)."""
        return ad.swapaxes(ad.linear(hidden, self.store["out_w"], self.store["out_b"]), 1, 2)

    def logits_from_clean(self, e_hat: Tensor) -> Tensor:
        """Logits (B, L, |V|) from denoised embedding sequences (B, d, L)."""
        return ad.linear(ad.swapaxes(e_hat, 1, 2), self.embedding.weight)

    def decode(self, e_hat: Tensor) -> np.ndarray:
        """Most likely token ids (B, L) of embedding sequences (B, d, L)."""
        return np.argmax(self.logits_from_clean(e_hat).data, axis=-1)

    # ------------------------------------------------------------ prediction

    def _k_curves(self, points: Tensor, t, rngs: list[RngStream] | None) -> tuple[Tensor, Tensor]:
        """K candidate curves (K, B, d, N) and selection probabilities (K, B), in one backbone pass."""
        if not self.k_head:
            raise ConfigError("model has no K-curve head attached")
        k, batch = self.k_curves, points.shape[0]
        hidden = self._blocks(self._embed_tokens(points, t, True), None if rngs is None else list(rngs) * k)
        head_vec = ad.slice_(hidden, (slice(None), 0))
        p = self.store
        scores = ad.linear(ad.gelu(ad.linear(head_vec, p["score_w1"], p["score_b1"])), p["score_w2"], p["score_b2"])
        probs = ad.softmax(ad.reshape(scores, (k, batch)), axis=0)
        body = self.hidden_to_points(ad.slice_(hidden, (slice(None), slice(1, hidden.shape[1]))))
        return ad.reshape(body, (k, batch) + body.shape[1:]), probs

    def predict_clean(self, e_t: Tensor, t, rngs: list[RngStream] | None = None, combine: str = "infer") -> tuple[Tensor, Tensor]:
        """Denoised (E_hat0 (B, d, L), P_hat0 (B, d, N)) of noisy embeddings (B, d, L) in one backbone pass.

        Goes through the K-curve head when one is attached.
        """
        points = self.to_points(e_t)
        if self.k_head:
            p_hat = combine_curves(*self._k_curves(points, t, rngs), combine)
        else:
            p_hat = self.hidden_to_points(self.backbone_hidden(points, t, rngs))
        return self.to_words(p_hat, e_t.shape[2]), p_hat


def combine_curves(curves: Tensor, probs: Tensor, mode: str) -> Tensor:
    """Probability-weighted sum (train) or argmax selection (infer) of curves (K, B, ...) over K.

    ``probs`` is (K, B).  Argmax ties resolve to the lowest index.
    """
    k, batch = curves.shape[:2]
    if probs.shape != (k, batch):
        raise ShapeMismatch(f"probs shape {probs.shape} does not match curves {curves.shape}")
    if mode == "train":
        weights = probs
    elif mode == "infer":
        weights = Tensor(np.arange(k)[:, None] == np.argmax(probs.data, axis=0))
    else:
        raise ConfigError(f"combine mode must be 'train' or 'infer', got {mode!r}")
    weights = ad.reshape(weights, (k, batch) + (1,) * (curves.data.ndim - 2))
    return ad.sum_(ad.mul(curves, weights), axis=0)


# ------------------------------------------------------------------- losses


def gaussian_loss(model: SclmModel, batch: list[np.ndarray], rng: RngStream) -> tuple[Tensor, dict]:
    """Diffusion MSE plus anchor cross-entropy, averaged over the batch.

    Each sequence draws its own step, noise and dropout; the backbone
    runs once over the whole batch.
    """
    if model.noise != "gaussian":
        raise ConfigError("gaussian_loss requires a gaussian-noise model")
    if not batch:
        raise ConfigError("empty batch")
    length = _batch_length(batch)
    n = len(batch)
    ts = np.array([int(rng.child("t", i).integers(1, model.schedule.T + 1)) for i in range(n)])
    abar = model.schedule.alpha_bars[ts][:, None, None]
    eps = np.stack([rng.child("noise", i).normal((model.embed_dim, length)) for i in range(n)])
    tokens = np.stack(batch)
    e0 = model.embed(tokens)
    et = ad.mul(e0, Tensor(np.sqrt(abar))) + Tensor(np.sqrt(1.0 - abar) * eps)
    drops = [rng.child("drop", i) for i in range(n)]
    e_hat, _ = model.predict_clean(et, ts, drops, combine="train")
    diffusion = ad.mse_loss(e_hat, e0)
    logits = model.logits_from_clean(e_hat)
    anchor = ad.cross_entropy_loss(logits, tokens)
    total = diffusion + ad.scale(anchor, model.lambda_anchor)
    record = {
        "diffusion": float(diffusion.data),
        "anchor": float(anchor.data),
        "total": float(total.data),
    }
    return total, record


def masked_loss(model: SclmModel, batch: list[np.ndarray], rng: RngStream) -> tuple[Tensor, dict]:
    """Noise-weighted cross-entropy on masked positions, per-token scale.

    Sequences with no masked position leave the batch before the
    backbone, which runs once over the rest.
    """
    if model.noise != "masked":
        raise ConfigError("masked_loss requires a masked-noise model")
    if not batch:
        raise ConfigError("empty batch")
    length = _batch_length(batch)
    mask_id = model.vocab.mask_id
    kept = []
    for i, tokens in enumerate(batch):
        t = int(rng.child("t", i).integers(1, model.schedule.T + 1))
        yt = masked_forward(tokens, t, model.schedule, rng.child("mask", i), mask_id)
        masked_idx = np.flatnonzero((yt == mask_id) & (tokens != mask_id))
        if masked_idx.size:
            kept.append((i, t, yt, masked_idx))
    if not kept:
        return Tensor(np.zeros(())), {"loss": 0.0}
    ids, ts, yts, masked = (list(col) for col in zip(*kept))
    et = model.embed(np.stack(yts))
    drops = [rng.child("drop", i) for i in ids]
    e_hat, _ = model.predict_clean(et, ts, drops, combine="train")
    logits = model.logits_from_clean(e_hat)
    # each masked position, as a (sequence, position) index into the logits
    at = (np.concatenate([np.full(idx.size, j) for j, idx in enumerate(masked)]), np.concatenate(masked))
    targets = np.concatenate([batch[i][idx] for i, idx in zip(ids, masked)])
    # sequence i contributes weight(t_i) * |masked_i| / L times its mean CE,
    # averaged over the whole batch: weight(t_i) / (L * len(batch)) per row
    weights = np.concatenate(
        [np.full(idx.size, model.schedule.masked_weight(t) / (length * len(batch))) for t, idx in zip(ts, masked)]
    )
    picked = ad.slice_(logits, at)
    total = ad.cross_entropy_loss(picked, targets, weights)
    return total, {"loss": float(total.data)}


@dataclass(frozen=True)
class AdamConfig:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.lr) and self.lr >= 0.0):
            raise ConfigError(f"lr must be finite and >= 0, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError(f"beta1 and beta2 must be in [0, 1), got {self.beta1} and {self.beta2}")
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")


def train_step(model: SclmModel, batch: list[np.ndarray], optimizer: AdamConfig, step: int) -> dict:
    """One forward/backward/Adam update; returns the loss record."""
    rng = RngStream(model.seed, "train", step)
    with Tape() as tape:
        if model.noise == "gaussian":
            loss, record = gaussian_loss(model, batch, rng)
        else:
            loss, record = masked_loss(model, batch, rng)
        if not np.isfinite(loss.data):
            raise NonFinite(f"non-finite loss at step {step}")
        tape.backward(loss)
    adam_step(model.store, optimizer.lr, optimizer.beta1, optimizer.beta2, optimizer.eps)
    model.embedding.project()
    record["step"] = step
    return record


# ------------------------------------------------------------------ sampling


def _reverse_steps(T: int, n_steps: int) -> list[int]:
    if not 1 <= n_steps <= T:
        raise StepOutOfRange(f"need 1 <= n_reverse_steps <= T, got {n_steps} with T={T}")
    if n_steps == 1:
        return [T]
    return [T - (i * (T - 1)) // (n_steps - 1) for i in range(n_steps)]


def sample(model: SclmModel, length: int, n_reverse_steps: int, seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """Generate one sequence from pure noise (or all masks).

    Returns (token ids (L,), trajectory of denoised embeddings, one (d, L)
    array per reverse step).
    """
    if model.noise == "masked":
        return _sample_masked(model, length, n_reverse_steps, seed)
    return _sample_gaussian(model, length, n_reverse_steps, seed)


def _sample_gaussian(model: SclmModel, length: int, n_steps: int, seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    rng = RngStream(seed, "sample")
    steps = _reverse_steps(model.schedule.T, n_steps)
    e_t = rng.child("start").normal((model.embed_dim, length))
    trajectory = []
    for idx, t in enumerate(steps):
        e_hat, _ = model.predict_clean(Tensor(e_t[None]), [t])
        trajectory.append(e_hat.data[0].copy())
        if idx + 1 < len(steps):
            e_t = forward_noise_gaussian(e_hat.data[0], steps[idx + 1], model.schedule, rng.child("renoise", idx))
    return model.decode(e_hat)[0], trajectory


def _sample_masked(model: SclmModel, length: int, n_steps: int, seed: int) -> tuple[np.ndarray, list[np.ndarray]]:
    rng = RngStream(seed, "sample")
    steps = _reverse_steps(model.schedule.T, n_steps)
    mask_id = model.vocab.mask_id
    y = np.full(length, mask_id, dtype=np.int64)
    trajectory = []
    for idx, t in enumerate(steps):
        e_hat, _ = model.predict_clean(model.embed(y[None]), [t])
        trajectory.append(e_hat.data[0].copy())
        y_hat = model.decode(e_hat)[0]
        still_masked = y == mask_id
        if idx + 1 < len(steps):
            t_next = steps[idx + 1]
            abar_t = model.schedule.alpha_bars[t]
            abar_next = model.schedule.alpha_bars[t_next]
            p_unmask = (abar_next - abar_t) / max(1.0 - abar_t, 1e-12)
            reveal = rng.child("reveal", idx).uniform(y.shape) < p_unmask
            take = still_masked & reveal
        else:
            take = still_masked
        y[take] = y_hat[take]
    return y, trajectory
