"""Operational glue: corpus resolution, deterministic batching, the
training loop, sampling with file export, and the model-pair probe.

Everything here is callable in-process; the CLI module only parses flags
and delegates.  All file outputs are byte-reproducible for a fixed
config and seed.
"""

from __future__ import annotations

import json
import os
import reprlib
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import checkpoint, theory
from .autodiff import Tensor
from .config import RunConfig, dump_config
from .corpus import Corpus, ingest, make_dir, read_text, write_file
from .curvemap import build_cache
from .errors import ConfigError, NonFinite
from .model import SclmModel, _reverse_steps, build_schedule, sample, train_step
from .rng import RngStream


def _write_builtin_copy(config: RunConfig, out_dir: str, text: str | None) -> None:
    """Write a builtin corpus's text, as ``read_corpus`` built it, into out_dir, for the record."""
    if text is None:
        return
    # builtins are fixed datasets: their content never depends on the run
    # seed, so seed sweeps train on identical corpora
    name = config.corpus.split(":", 1)[1]
    make_dir(out_dir)
    write_file(os.path.join(out_dir, f"corpus_{name}.txt"), text)


def resolve_corpus(config: RunConfig, out_dir: str) -> Corpus:
    """Ingest the configured corpus, then write a builtin's copy into out_dir; returns the corpus."""
    corpus, text = read_corpus(config)
    _write_builtin_copy(config, out_dir, text)
    return corpus


def read_corpus(config: RunConfig) -> tuple[Corpus, str | None]:
    """Ingest the configured corpus without writing anything.

    A builtin is built in memory once, and its text is returned for
    ``_write_builtin_copy``; for a file the text is None.
    """
    text = read_text(config.corpus) if config.corpus.startswith("builtin:") else None
    return ingest(config.corpus, tokenizer=config.tokenizer, max_len=config.max_len, text=text), text


def model_args(config: RunConfig, corpus: Corpus) -> dict:
    """The ``SclmModel`` arguments of ``config`` on ``corpus``."""
    return dict(
        mode=config.mode,
        vocab=corpus.vocab,
        cache=build_cache(config.curve_config()),
        schedule=build_schedule(config.schedule_steps, config.schedule_kind),
        backbone=config.backbone_config(),
        embed_dim=config.embed_dim,
        k_curves=config.k_curves,
        lambda_anchor=config.lambda_anchor,
        seed=config.seed,
    )


def build_model(config: RunConfig, corpus: Corpus) -> SclmModel:
    return SclmModel(**model_args(config, corpus))


def make_batch(corpus: Corpus, batch_size: int, seed: int, step: int) -> list[np.ndarray]:
    """Deterministic length-bucketed batch for one training step."""
    buckets = corpus.buckets
    lengths = list(buckets)
    weights = np.array([len(buckets[l]) for l in lengths], dtype=np.float64)
    weights /= weights.sum()
    rng = RngStream(seed, "batch", step).generator()
    length = lengths[int(rng.choice(len(lengths), p=weights))]
    pool = buckets[length]
    picks = rng.integers(0, len(pool), size=batch_size)
    return [pool[int(i)] for i in picks]


@dataclass(frozen=True)
class TrainResult:
    losses_path: str
    checkpoint_path: str
    rows: list[dict]
    final: dict


def _vocab_difference(saved, have) -> list[str]:
    """Where two token lists first differ, as "<token> at i of n tokens" for each; a vocabulary may be long."""
    at = next((i for i, (a, b) in enumerate(zip(saved, have)) if a != b), min(len(saved), len(have)))
    return [f"{reprlib.repr(v[at]) if at < len(v) else 'none'} at {at} of {len(v)} tokens" for v in (saved, have)]


def _check_resume(args: dict, header: dict) -> None:
    """ConfigError naming the first setting of the model ``args`` build that differs from the checkpoint ``header``."""
    for key, value in checkpoint.settings(SimpleNamespace(**args)).items():
        if isinstance(value, dict):
            fields = [(f"{key}.{field}", have, header[key][field]) for field, have in value.items()]
        else:
            fields = [(key, value, header[key])]
        for name, have, saved in fields:
            if have != saved:
                said = _vocab_difference(saved, have) if name == "vocab" else [repr(saved), repr(have)]
                raise ConfigError(
                    f"resume checkpoint has {name} {said[0]}, these settings give {said[1]};"
                    " resume with the run's own settings (--config <out>/run.cfg)"
                )


def run_training(config: RunConfig, out_dir: str) -> TrainResult:
    """Train for the configured step budget; write losses.csv, model.ckpt and run.cfg once every check has passed."""
    start_step = 0
    if config.resume:
        loaded, start_step, header = checkpoint.load(config.resume)
        if start_step >= config.steps:
            raise ConfigError(f"checkpoint already at step {start_step}, budget is {config.steps}")
    corpus, text = read_corpus(config)
    if config.resume:
        _check_resume(model_args(config, corpus), header)
        model = loaded
    else:
        model = build_model(config, corpus)
    # a batch of any corpus length may be drawn at any step
    outside = [length for length in corpus.lengths() if length not in model.cache]
    if outside:
        curve = model.cache.config
        raise ConfigError(f"corpus line lengths {outside} outside the curve range [{curve.l_min}, {curve.l_max}]")
    make_dir(out_dir)
    _write_builtin_copy(config, out_dir, text)
    optimizer = config.adam_config()
    rows: list[dict] = []
    for step in range(start_step + 1, config.steps + 1):
        batch = make_batch(corpus, config.batch_size, config.seed, step)
        record = train_step(model, batch, optimizer, step)
        if step % config.log_interval == 0:
            rows.append(record)
    # the columns are the loss record's, in the order its loss function built them
    keys = [key for key in record if key != "step"]
    lines = [",".join(["step", *keys])] + [",".join([str(row["step"]), *(repr(row[key]) for key in keys)]) for row in rows]
    losses_path = os.path.join(out_dir, "losses.csv")
    write_file(losses_path, "\n".join(lines) + "\n")
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    checkpoint.save(model, ckpt_path, step=config.steps)
    write_file(os.path.join(out_dir, "run.cfg"), dump_config(config))
    return TrainResult(losses_path=losses_path, checkpoint_path=ckpt_path, rows=rows, final=record)


# ------------------------------------------------------------- projection


def top2_projection(points: np.ndarray) -> np.ndarray:
    """Project (n, d) points onto their top-2 principal axes.

    The axes are the covariance eigenvectors of the two largest
    eigenvalues, each signed so that its dot product with the ramp
    (1, ..., d) is >= 0; with d = 1 the second coordinate is 0.
    """
    centered = points - points.mean(axis=0, keepdims=True)
    cov = centered.T @ centered / max(len(points), 1)
    top = np.linalg.eigh(cov)[1][:, ::-1][:, :2]
    top *= np.where(np.arange(1.0, len(cov) + 1.0) @ top < 0.0, -1.0, 1.0)
    axes = np.zeros((len(cov), 2))
    axes[:, : top.shape[1]] = top
    return centered @ axes


@dataclass(frozen=True)
class SampleResult:
    samples_path: str
    trajectory_paths: list[str]


def run_sampling(
    ckpt_path: str,
    out_dir: str,
    length: int,
    n_steps: int,
    n_samples: int,
    seed: int,
) -> SampleResult:
    """Draw samples and export text, trajectories, and 2-D projections."""
    if n_samples < 1:
        raise ConfigError(f"need at least one sample, got {n_samples}")
    model, _, _ = checkpoint.load(ckpt_path)
    # a bad step count or a length outside the cache fails before any file is written
    steps_used = _reverse_steps(model.schedule.T, n_steps)
    model.cache.get(length)
    make_dir(out_dir)
    sep = "" if all(len(tok) == 1 for tok in model.vocab.tokens[2:]) else " "
    texts = []
    traj_paths = []
    for i in range(n_samples):
        tokens, trajectory = sample(model, length, n_steps, seed=seed + i)
        texts.append(sep.join(model.vocab.decode(tokens)))
        payload = [
            {"step": int(t), "values": [float(x) for x in e.reshape(-1)]}
            for t, e in zip(steps_used, trajectory)
        ]
        traj_path = os.path.join(out_dir, f"sample_{i}_trajectory.json")
        write_file(traj_path, json.dumps(payload))
        traj_paths.append(traj_path)

        control = model.to_points(Tensor(np.stack(trajectory))).data
        proj = top2_projection(np.concatenate([c.T for c in control], axis=0))
        lines = ["step,point_index,pc1,pc2"]
        n_points = control.shape[2]
        for s_idx, t in enumerate(steps_used):
            for j in range(n_points):
                row = proj[s_idx * n_points + j]
                lines.append(f"{int(t)},{j},{float(row[0])!r},{float(row[1])!r}")
        proj_path = os.path.join(out_dir, f"sample_{i}_projection.csv")
        write_file(proj_path, "\n".join(lines) + "\n")

    samples_path = os.path.join(out_dir, "samples.txt")
    write_file(samples_path, "\n".join(texts) + "\n")
    return SampleResult(samples_path=samples_path, trajectory_paths=traj_paths)


def run_probe(
    ckpt_a: str,
    ckpt_b: str,
    corpus_spec: str,
    out_dir: str,
    n_eval: int = 8,
    n_noise: int = 200,
    dropout_p: float = 0.1,
    noise_scale: float = 0.1,
    seed: int = 0,
    tokenizer: str = "char",
    max_len: int = 64,
) -> dict:
    """Probe two checkpoints on the same evaluation batch and compare.

    Bad settings raise before either checkpoint is loaded.  A checkpoint
    that does not load, a vocabulary mismatch, a model with a K-curve
    head and a non-finite result raise before anything is written: a
    builtin corpus is read from memory and written to ``out_dir`` with
    ``probe.json``.
    """
    if n_eval < 1:
        raise ConfigError(f"n_eval must be at least 1, got {n_eval}")
    theory.check_probe_settings(n_noise, dropout_p, noise_scale)
    corpus_config = RunConfig(corpus=corpus_spec, tokenizer=tokenizer, max_len=max_len)
    ckpts = (ckpt_a, ckpt_b)
    models = [checkpoint.load(ckpt)[0] for ckpt in ckpts]
    corpus, text = read_corpus(corpus_config)
    for ckpt, model in zip(ckpts, models):
        if model.vocab.tokens != corpus.vocab.tokens:
            said = _vocab_difference(model.vocab.tokens, corpus.vocab.tokens)
            raise ConfigError(f"probe checkpoint {ckpt} has vocabulary {said[0]}, the probe corpus gives {said[1]}")
    length = max(corpus.lengths())
    batch = [seq for seq in corpus.sequences if len(seq) == length][:n_eval]
    results = [
        theory.logit_correlation_probe(model, batch, n_noise=n_noise, dropout_p=dropout_p, noise_scale=noise_scale, seed=seed)
        for model in models
    ]
    for ckpt, result in zip(ckpts, results):
        if not np.isfinite(result.mean_offdiag):
            raise NonFinite(f"probe of {ckpt} gave mean off-diagonal correlation {result.mean_offdiag}")
    result_a, result_b = results
    payload = {
        "model_a": {"checkpoint": ckpt_a, "mean_offdiag_dcor": result_a.mean_offdiag},
        "model_b": {"checkpoint": ckpt_b, "mean_offdiag_dcor": result_b.mean_offdiag},
        "difference": result_a.mean_offdiag - result_b.mean_offdiag,
        "length": length,
        "n_eval": len(batch),
        "n_noise": n_noise,
        "dropout_p": dropout_p,
        "noise_scale": noise_scale,
        "seed": seed,
    }
    make_dir(out_dir)
    _write_builtin_copy(corpus_config, out_dir, text)
    write_file(os.path.join(out_dir, "probe.json"), json.dumps(payload, indent=2, sort_keys=True))
    return payload
