"""Operational glue: corpus resolution, deterministic batching, the
training loop, sampling with file export, and the model-pair probe.

Everything here is callable in-process; the CLI module only parses flags
and delegates.  All file outputs are byte-reproducible for a fixed
config and seed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import checkpoint, theory
from .autodiff import Tensor
from .config import RunConfig
from .corpus import Corpus, ingest, write_builtin
from .curvemap import build_cache
from .errors import ConfigError, NonFinite
from .model import SclmModel, _reverse_steps, build_schedule, sample, train_step
from .rng import RngStream


def resolve_corpus(config: RunConfig, out_dir: str) -> Corpus:
    """Ingest the configured corpus, materializing builtins into out_dir."""
    source = config.corpus
    if source.startswith("builtin:"):
        # builtins are fixed datasets: their content never depends on the
        # run seed, so seed sweeps train on identical corpora
        name = source.split(":", 1)[1]
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"corpus_{name}.txt")
        write_builtin(name, path)
    else:
        path = source
    return ingest(path, tokenizer=config.tokenizer, max_len=config.max_len)


def build_model(config: RunConfig, corpus: Corpus) -> SclmModel:
    return SclmModel(
        mode=config.mode,
        vocab=corpus.vocab,
        cache=build_cache(config.curve_config()),
        schedule=build_schedule(config.schedule_steps, config.schedule_kind),
        backbone=config.backbone_config(),
        embed_dim=config.embed_dim,
        k_curves=config.k_curves,
        unit_norm=config.unit_norm,
        lambda_anchor=config.lambda_anchor,
        seed=config.seed,
    )


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


def run_training(config: RunConfig, out_dir: str) -> TrainResult:
    """Train for the configured step budget; write losses.csv + model.ckpt."""
    config.validate()
    os.makedirs(out_dir, exist_ok=True)
    corpus = resolve_corpus(config, out_dir)
    start_step = 0
    if config.resume:
        model, start_step = checkpoint.load(config.resume)[:2]
        if tuple(model.vocab.tokens) != tuple(corpus.vocab.tokens):
            raise ConfigError("resume checkpoint vocabulary does not match the corpus")
        if start_step >= config.steps:
            raise ConfigError(f"checkpoint already at step {start_step}, budget is {config.steps}")
    else:
        model = build_model(config, corpus)
    optimizer = config.adam_config()
    gaussian = model.noise_kind == "gaussian"
    header = "step,diffusion,anchor,total" if gaussian else "step,loss"
    rows: list[dict] = []
    lines = [header]
    record: dict = {}
    for step in range(start_step + 1, config.steps + 1):
        batch = make_batch(corpus, config.batch_size, config.seed, step)
        record = train_step(model, batch, optimizer, step)
        if not all(np.isfinite(v) for k, v in record.items() if k != "step"):
            raise NonFinite(f"non-finite loss record at step {step}")
        if step % config.log_interval == 0:
            rows.append(record)
            if gaussian:
                lines.append(f"{step},{record['diffusion']!r},{record['anchor']!r},{record['total']!r}")
            else:
                lines.append(f"{step},{record['loss']!r}")
    losses_path = os.path.join(out_dir, "losses.csv")
    with open(losses_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    ckpt_path = os.path.join(out_dir, "model.ckpt")
    checkpoint.save(model, ckpt_path, step=config.steps)
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
    projection_paths: list[str]
    texts: list[str]


def run_sampling(
    ckpt_path: str,
    out_dir: str,
    length: int,
    n_steps: int,
    n_samples: int,
    seed: int,
) -> SampleResult:
    """Draw samples and export text, trajectories, and 2-D projections."""
    model, _, _ = checkpoint.load(ckpt_path)
    os.makedirs(out_dir, exist_ok=True)
    sep = "" if all(len(tok) == 1 for tok in model.vocab.tokens[2:]) else " "
    texts = []
    traj_paths = []
    proj_paths = []
    steps_used = _reverse_steps(model.schedule.T, n_steps)
    for i in range(n_samples):
        tokens, trajectory = sample(model, length, n_steps, seed=seed + i)
        texts.append(sep.join(model.vocab.decode(tokens)))
        payload = [
            {"step": int(t), "values": [float(x) for x in e.reshape(-1)]}
            for t, e in zip(steps_used, trajectory)
        ]
        traj_path = os.path.join(out_dir, f"sample_{i}_trajectory.json")
        with open(traj_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        traj_paths.append(traj_path)

        control = model.to_points(Tensor(np.stack(trajectory)), length).data
        proj = top2_projection(np.concatenate([c.T for c in control], axis=0))
        lines = ["step,point_index,pc1,pc2"]
        n_points = control.shape[2]
        for s_idx, t in enumerate(steps_used):
            for j in range(n_points):
                row = proj[s_idx * n_points + j]
                lines.append(f"{int(t)},{j},{float(row[0])!r},{float(row[1])!r}")
        proj_path = os.path.join(out_dir, f"sample_{i}_projection.csv")
        with open(proj_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        proj_paths.append(proj_path)

    samples_path = os.path.join(out_dir, "samples.txt")
    with open(samples_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(texts) + "\n")
    return SampleResult(
        samples_path=samples_path,
        trajectory_paths=traj_paths,
        projection_paths=proj_paths,
        texts=texts,
    )


def probe_eval_batch(corpus: Corpus, length: int, n_eval: int) -> list[np.ndarray]:
    batch = [seq for seq in corpus.sequences if len(seq) == length][:n_eval]
    if not batch:
        raise ConfigError(f"corpus has no sequences of length {length}")
    return batch


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

    Bad settings raise before either checkpoint is loaded, and a
    non-finite result raises ``NonFinite`` instead of being written.
    """
    if n_eval < 1:
        raise ConfigError(f"n_eval must be at least 1, got {n_eval}")
    theory.check_probe_settings(n_noise, dropout_p, noise_scale)
    os.makedirs(out_dir, exist_ok=True)
    corpus = resolve_corpus(RunConfig(corpus=corpus_spec, tokenizer=tokenizer, max_len=max_len), out_dir)
    model_a, _, _ = checkpoint.load(ckpt_a)
    model_b, _, _ = checkpoint.load(ckpt_b)
    for model in (model_a, model_b):
        if tuple(model.vocab.tokens) != tuple(corpus.vocab.tokens):
            raise ConfigError("probe corpus vocabulary does not match a checkpoint")
    length = max(corpus.lengths())
    batch = probe_eval_batch(corpus, length, n_eval)
    result_a = theory.logit_correlation_probe(
        model_a, batch, n_noise=n_noise, dropout_p=dropout_p, noise_scale=noise_scale, seed=seed
    )
    result_b = theory.logit_correlation_probe(
        model_b, batch, n_noise=n_noise, dropout_p=dropout_p, noise_scale=noise_scale, seed=seed
    )
    for ckpt, result in ((ckpt_a, result_a), (ckpt_b, result_b)):
        if not np.isfinite(result.mean_offdiag):
            raise NonFinite(f"probe of {ckpt} gave mean off-diagonal correlation {result.mean_offdiag}")
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
    out_path = os.path.join(out_dir, "probe.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return payload
