"""The three benchmark workloads, their inputs and their correctness checks.

Each workload is a closed loop with one caller: the next operation starts
when the previous one returns.  Only curvelang's public functions are
called, always through their module attribute, so the traced run sees
every call.  Inputs come from the workload seed alone.

* ``gauss-l16`` - Gaussian curve model, default backbone, builtin
  alternating corpus (L = 16): set-up, warm-up, then training
  iterations, 20-step samples, repeated set-ups and checkpoint save and
  load round trips in a seeded interleaved order, then one
  logit-correlation probe.
* ``masked-varlen`` - masked curve model on a seeded corpus with
  log-normal line lengths in [8, 128]: the same pipeline without probe,
  sample lengths drawn from the corpus.
* ``curves`` - materialise the default basis cache for L in [2, 250],
  run the default 150-cell reconstruction sweep one cell per call, then
  materialise the cache again.
"""

from __future__ import annotations

import os
import sys
import time
import traceback
from contextlib import nullcontext

import numpy as np

from curvelang import checkpoint, curvemap, harness, theory
from curvelang import model as M
from curvelang.config import RunConfig
from curvelang.model import AdamConfig

from .spans import SpanRecorder, SpanTable

# A run does a fixed amount of work, so two commits time the same
# operations.  --seconds sets it: training iterations get 55% of it and
# samples 30%, at the time one operation took at the seed commit on a
# 2-core Xeon VM.  Set-up, checkpointing and the probe take a fixed number
# of calls.
TRAIN_SHARE = 0.55
SAMPLE_SHARE = 0.30
NOMINAL_S = {
    "gauss-l16": {"train_iter": 0.055, "sample": 0.055},
    "masked-varlen": {"train_iter": 0.075, "sample": 0.070},
    "curves": {"grid": 20.0},
}
SETUP_REPS = {"gauss-l16": 31, "masked-varlen": 5, "curves": 2}
# reference-kernel timings spread through a model workload's run
REFERENCE_REPS = 150
# the reference kernel's median time on the 2-core Xeon VM of the seed commit
REFERENCE_S = 0.003
WARMUP_STEPS = 5
WARMUP_SAMPLES = 2
# a p90 needs at least ten samples above it
MIN_TIMED = 110
# save-and-load round trips
CKPT_REPS = {"gauss-l16": 9, "masked-varlen": 3}
SAMPLE_STEPS = 20
DETERMINISM_REPEATS = 3
RANK_CHECK_CELLS = 15
# the default basis cache's lengths
CACHE_LENGTHS = range(2, 251)
MC_SIGMAS = 6.0
SWEEP_GRID = [
    (length, n_ratio, eta_ratio)
    for length in curvemap.DEFAULT_SWEEP_LENGTHS
    for n_ratio in curvemap.DEFAULT_SWEEP_N_RATIOS
    for eta_ratio in curvemap.DEFAULT_SWEEP_ETA_RATIOS
]

FAILED = object()


def reference_kernel() -> int:
    """A fixed pure-Python loop, the benchmark's measure of the machine's speed.

    It is timed between the workload's operations.  Its median time over
    a run, against REFERENCE_S, rescales the gated times to a machine of
    fixed speed (see ``end_to_end``).  It calls nothing in curvelang, so
    no change to the program moves it.
    """
    total = 0
    for i in range(40_000):
        total += i * i
    return total


def percentile_with_tail(values, q: float, min_tail: int = 10) -> float | None:
    """The q-th percentile, or None when fewer than ``min_tail`` samples lie above it."""
    if not len(values):
        return None
    p = float(np.percentile(values, q))
    return p if int(np.sum(np.asarray(values) > p)) >= min_tail else None


def masked_corpus_text(seed: int, n_lines: int = 512) -> str:
    """Seeded corpus over 8 letters with log-normal line lengths around 24.

    Lengths are clipped to [8, 128]; one line of each extreme length is
    always present, so the model's basis cache covers exactly [8, 128]
    whatever the seed.
    """
    rng = np.random.default_rng((seed, 0x6D61))
    drawn = np.rint(rng.lognormal(np.log(24.0), 0.55, n_lines - 2))
    lengths = np.concatenate([[8, 128], np.clip(drawn, 8, 128)]).astype(np.int64)
    rng.shuffle(lengths)
    letters = np.array(list("abcdefgh"))
    lines = ["".join(letters[rng.integers(0, len(letters), size=n)]) for n in lengths]
    return "\n".join(lines) + "\n"


class Pass:
    """Timings, failures and checks of one pass through a workload."""

    def __init__(self, rec: SpanRecorder | None = None):
        self.rec = rec
        self.attempted = 0
        self.failed = 0
        self.times: dict[str, list[float]] = {}
        self.extras: dict[str, float] = {}

    def op(self, kind: str, fn, *args, **kwargs):
        """Run one timed operation; a raised error counts as a failure."""
        self.attempted += 1
        idx = self.rec.open(self.rec.intern(f"bench.{kind}")) if self.rec else None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return FAILED
        finally:
            elapsed = time.perf_counter() - start
            if idx is not None:
                self.rec.close(idx)
        self.times.setdefault(kind, []).append(elapsed)
        return result

    def reference(self) -> None:
        """Time the reference kernel once; it cannot fail, so it is not an operation."""
        with self.rec.span("bench.reference") if self.rec else nullcontext():
            start = time.perf_counter()
            reference_kernel()
            self.times.setdefault("reference", []).append(time.perf_counter() - start)

    def check(self, what: str, ok) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return bool(ok)

    def checking(self):
        """Root span for correctness-check work, so it is kept out of the op spans."""
        return self.rec.span("bench.check") if self.rec else nullcontext()


# ------------------------------------------------------------ model workloads


def gauss_config(seed: int) -> RunConfig:
    """The criterion-9 configuration."""
    return RunConfig(
        mode="gaussian", corpus="builtin:alternating", batch_size=8,
        schedule_steps=100, lr=2e-3, embed_dim=32, seed=seed,
    )


def masked_config(seed: int, workdir: str) -> RunConfig:
    path = os.path.join(workdir, "masked_corpus.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(masked_corpus_text(seed))
    # The model seed stays fixed.  It picks the line length of every
    # training batch, and a step's cost follows its length, so a seeded
    # model would make the step times mostly a sample of those draws.
    return RunConfig(
        mode="masked", corpus=path, max_len=128, schedule_kind="linear",
        schedule_steps=100, batch_size=8, lr=2e-3, embed_dim=32, seed=0,
    )


def timed_count(seconds: float, share: float, nominal: float) -> int:
    """Operations that fill ``share`` of ``seconds`` at the nominal op time."""
    return max(MIN_TIMED, round(seconds * share / nominal))


def interleaved(seed: int, counts: dict[str, int]) -> list[str]:
    """Every kind of operation ``counts`` names, that many times, in a seeded order.

    The machine's speed drifts during a run.  Spreading each kind over
    the whole run makes every metric a sample of all of it, instead of
    the stretch in which that kind happened to run.
    """
    schedule = [kind for kind, n in counts.items() for _ in range(n)]
    order = np.random.default_rng((seed, 0x1E)).permutation(len(schedule))
    return [schedule[i] for i in order]


def _setup(config: RunConfig, workdir: str):
    corpus = harness.resolve_corpus(config, workdir)
    return corpus, harness.build_model(config, corpus)


def _finite(record) -> bool:
    return record is not FAILED and all(np.isfinite(v) for k, v in record.items() if k != "step")


def _checkpoint_round_trip(p: Pass, model, step: int, path: str) -> None:
    p.op("ckpt_save", checkpoint.save, model, path, step)
    loaded = p.op("ckpt_load", checkpoint.load, path)
    with p.checking():
        p.extras["checkpoint.bytes"] = float(os.path.getsize(path))
        if not p.check("checkpoint loads", loaded is not FAILED):
            return
        restored, restored_step, _ = loaded
        p.check("checkpoint step", restored_step == step)
        for name in model.store.names():
            saved = model.store[name].data
            got = restored.store[name].data
            # float32 storage rounds each value by at most half an ulp
            p.check(f"parameter {name} round trip",
                    got.shape == saved.shape and np.all(np.abs(got - saved) <= np.abs(saved) * 2.0**-24 + 1e-45))


def _sample(p: Pass, kind: str, model, length: int, seed: int, repeat: bool) -> None:
    """One sample; with ``repeat`` it is drawn again and must come out the same."""
    out = p.op(kind, M.sample, model, length, SAMPLE_STEPS, seed=seed)
    with p.checking():
        if not p.check("sample returns", out is not FAILED):
            return
        tokens, trajectory = out
        p.check("sample tokens inside the vocabulary",
                tokens.shape == (length,) and tokens.min() >= 0 and tokens.max() < model.vocab.size)
        p.check("sample trajectory shape",
                len(trajectory) == SAMPLE_STEPS and all(e.shape == (model.embed_dim, length) for e in trajectory))
        if repeat:
            again = M.sample(model, length, SAMPLE_STEPS, seed=seed)
            p.check("sampling is deterministic per seed",
                    np.array_equal(tokens, again[0]) and all(np.array_equal(a, b) for a, b in zip(trajectory, again[1])))


def run_model_workload(p: Pass, name: str, seed: int, seconds: float, workdir: str):
    config = gauss_config(seed) if name == "gauss-l16" else masked_config(seed, workdir)
    built = p.op("setup", _setup, config, workdir)
    if built is FAILED:
        raise RuntimeError("set-up failed; nothing to measure")
    corpus, model = built
    optimizer = AdamConfig(lr=config.lr, beta1=config.beta1, beta2=config.beta2, eps=config.adam_eps)
    nominal = NOMINAL_S[name]
    n_train = timed_count(seconds, TRAIN_SHARE, nominal["train_iter"])
    n_samples = WARMUP_SAMPLES + timed_count(seconds, SAMPLE_SHARE, nominal["sample"])
    if name == "gauss-l16":
        lengths = np.full(n_samples, 16)
    else:
        lengths = np.random.default_rng((seed, 0x5A)).choice([len(s) for s in corpus.sequences], size=n_samples)
    ckpt_path = os.path.join(workdir, "model.ckpt")
    step = drawn = 0

    def iteration():
        batch = harness.make_batch(corpus, config.batch_size, config.seed, step)
        return M.train_step(model, batch, optimizer, step)

    def train(kind):
        nonlocal step
        step += 1
        p.check(f"finite loss record at step {step}", _finite(p.op(kind, iteration)))

    def sample(kind):
        nonlocal drawn
        drawn += 1
        _sample(p, kind, model, int(lengths[drawn - 1]), seed * 1_000_003 + drawn - 1, drawn <= DETERMINISM_REPEATS)

    # Warm-up.  Its first step trains on the longest line, so the run's
    # peak memory is that of its largest step whatever lengths it draws.
    longest = max(corpus.sequences, key=len)
    record = p.op("warmup", M.train_step, model, [longest] * config.batch_size, optimizer, step)
    p.check("finite loss record on the longest line", _finite(record))
    for _ in range(WARMUP_STEPS):
        train("warmup")
    for _ in range(WARMUP_SAMPLES):
        sample("warmup")
    actions = {
        "train_iter": train,
        "sample": sample,
        # a repeated set-up is timed and its model dropped at once
        "setup": lambda kind: p.op(kind, _setup, config, workdir),
        "ckpt": lambda kind: _checkpoint_round_trip(p, model, step, ckpt_path),
        "reference": lambda kind: p.reference(),
    }
    counts = {"train_iter": n_train, "sample": n_samples - WARMUP_SAMPLES,
              "setup": SETUP_REPS[name] - 1, "ckpt": CKPT_REPS[name], "reference": REFERENCE_REPS}
    for kind in interleaved(seed, counts):
        actions[kind](kind)
    if name == "gauss-l16":
        batch = [s for s in corpus.sequences if len(s) == 16][:8]
        result = p.op("probe", theory.logit_correlation_probe, model, batch, n_noise=300, seed=seed)
        with p.checking():
            p.check("probe result finite and in [0, 1]",
                    result is not FAILED and np.all(np.isfinite(result.matrix))
                    and 0.0 <= result.mean_offdiag <= 1.0)
    return model.cache


# ------------------------------------------------------------ curves


def _materialise(order):
    cache = curvemap.build_cache(curvemap.CurveConfig())
    for length in order:
        pair = cache.get(int(length))
        # reading both matrices forces any lazily built pair
        pair.B.shape, pair.B_pinv.shape
    return cache


def _check_cache(p: Pass, cache) -> None:
    for length in CACHE_LENGTHS:
        pair = cache.get(length)
        B, P = pair.B, pair.B_pinv
        p.check(f"columns of B sum to 1 at L={length}", np.abs(B.sum(axis=0) - 1.0).max() <= 1e-12)
        p.check(f"B B+ B = B at L={length}", np.abs(B @ P @ B - B).max() <= 1e-9)


def _mc_sd(length: int, rank: int, trials: int = 100, dim: int = 16) -> float:
    """Standard deviation of the sweep's Monte Carlo MSE for a rank-r projector.

    Each trial's squared residual over dim rows is chi-square with
    dim * (L - r) degrees of freedom, scaled by 1 / (dim * L).
    """
    return float(np.sqrt(2.0 * dim * (length - rank)) / (dim * length * np.sqrt(trials)))


def _check_sweep(p: Pass, cells: list, seed: int) -> None:
    for (length, n_ratio, eta_ratio), mse in cells:
        n_points = max(int(length * n_ratio), 2)
        rank = int(round(length * (1.0 - mse)))
        p.check(f"cell ({length}, {n_ratio}, {eta_ratio}) MSE {mse} is 1 - rank/L within MC error",
                0 <= rank <= min(n_points, length)
                and abs(mse - (1.0 - rank / length)) <= MC_SIGMAS * _mc_sd(length, rank) + 1e-12)
    # independent rank from the singular values of B, on seeded cells
    rng = np.random.default_rng((seed, 0xCE))
    for i in rng.choice(len(cells), size=min(RANK_CHECK_CELLS, len(cells)), replace=False):
        (length, n_ratio, eta_ratio), mse = cells[int(i)]
        cfg = curvemap.CurveConfig(n_ratio=n_ratio, eta_ratio=eta_ratio, l_min=length, l_max=length)
        B = curvemap.build_cache(cfg).get(length).B
        s = np.linalg.svd(B, compute_uv=False)
        rank = int(np.count_nonzero(s > 1e-12 * max(B.shape) * s[0]))
        p.check(f"cell ({length}, {n_ratio}, {eta_ratio}) MSE {mse} matches 1 - {rank}/{length}",
                abs(mse - (1.0 - rank / length)) <= MC_SIGMAS * _mc_sd(length, rank) + 1e-12)


def run_curves(p: Pass, seed: int, seconds: float):
    order = np.random.default_rng((seed, 0xC0)).permutation(CACHE_LENGTHS)
    p.reference()
    cache = p.op("setup", _materialise, order)
    p.reference()
    if cache is FAILED:
        raise RuntimeError("cache materialisation failed; nothing to measure")
    with p.checking():
        _check_cache(p, cache)
    # cells run in a seeded order, so the cells of each size are timed
    # at different moments of the run rather than one after another
    cells = []
    for _ in range(max(1, round(seconds / NOMINAL_S["curves"]["grid"]))):
        for i in np.random.default_rng((seed, 0x5C)).permutation(len(SWEEP_GRID)):
            length, n_ratio, eta_ratio = SWEEP_GRID[i]
            table = p.op("sweep_cell", curvemap.reconstruction_sweep,
                         lengths=(length,), n_ratios=(n_ratio,), eta_ratios=(eta_ratio,), seed=seed)
            if p.check("sweep cell returns one row", table is not FAILED and len(table.rows) == 1):
                cells.append(((length, n_ratio, eta_ratio), table.rows[0].mse))
            p.reference()
    with p.checking():
        _check_sweep(p, cells, seed)
    # the other set-ups come after the sweep, so set-up is timed at both
    # ends of the run; one cache is held at a time
    for _ in range(SETUP_REPS["curves"] - 1):
        cache = None
        cache = p.op("setup", _materialise, order)
        p.reference()
    if cache is FAILED:
        raise RuntimeError("cache materialisation failed")
    return cache


def run(name: str, p: Pass, seed: int, seconds: float, workdir: str):
    """One pass of a workload; returns the basis cache it used."""
    if name == "curves":
        return run_curves(p, seed, seconds)
    return run_model_workload(p, name, seed, seconds, workdir)


# ------------------------------------------------------------ metrics


def end_to_end(name: str, p: Pass) -> dict[str, tuple[float | None, str, int]]:
    """Every end-to-end metric of a pass: name -> (value, unit, sample count).

    ``setup_s``, ``op_ms_mean`` and ``peak_rss_mb`` exist on every
    workload.  The op is a training iteration on the model workloads and
    one sweep cell on ``curves``; its mean counts every op, so a change
    confined to the larger ones shows.

    The machine this was built on changes speed by tens of percent for
    minutes at a time, which would decide most of a comparison between
    two sets of runs.  So the two timed gated metrics are scaled to a
    machine of fixed speed: multiplied by REFERENCE_S over the median time
    of the reference kernel in the same run.  Their wall-clock values are
    ``setup_wall_s`` and ``op_wall_ms_mean``.  The rest are the
    workload's own operations, in wall-clock time.
    """
    import resource

    t = p.times
    speed = REFERENCE_S / float(np.median(t["reference"]))

    def metric(kind, fn, unit, scale=1.0):
        vals = [x * (1.0 if unit == "s" else 1e3) for x in t.get(kind, [])]
        return (fn(vals) * scale if vals else None), unit, len(vals)

    def median(v):
        return float(np.median(v))

    def mean(v):
        return float(np.mean(v))

    def p90(v):
        return percentile_with_tail(v, 90)

    op = "sweep_cell" if name == "curves" else "train_iter"
    out = {
        "setup_s": metric("setup", median, "s", speed),
        "op_ms_mean": metric(op, mean, "ms", speed),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        "setup_wall_s": metric("setup", median, "s"),
        "op_wall_ms_mean": metric(op, mean, "ms"),
        "reference_ms": metric("reference", median, "ms"),
    }
    if name == "curves":
        out["sweep_s"] = metric("sweep_cell", lambda v: sum(v) / len(v) * len(SWEEP_GRID), "s")
        out["sweep_cell_ms_p50"] = metric("sweep_cell", median, "ms")
        out["sweep_cell_ms_p90"] = metric("sweep_cell", p90, "ms")
        return out
    out["train_step_ms_p50"] = metric("train_iter", median, "ms")
    out["train_step_ms_p90"] = metric("train_iter", p90, "ms")
    out["sample_ms_p50"] = metric("sample", median, "ms")
    out["sample_ms_p90"] = metric("sample", p90, "ms")
    out["ckpt_save_ms"] = metric("ckpt_save", median, "ms")
    out["ckpt_load_ms"] = metric("ckpt_load", median, "ms")
    if name == "gauss-l16":
        out["probe_s"] = metric("probe", median, "s")
    return out


def per_layer(table: SpanTable, rec: SpanRecorder, p: Pass, cache) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass: name -> (value, unit).

    Per step means per timed training iteration, per sample per timed
    sample call, per set-up per set-up call; a layer a workload does not
    reach reads 0.
    """
    steps = table.roots("bench.train_iter")
    samples = table.roots("bench.sample")
    setups = table.roots("bench.setup")
    cells = table.roots("bench.sweep_cell")
    probes = table.roots("bench.probe")

    def per(x, n):
        return x / n if n else 0.0

    def ms(names, root, n):
        return per(table.total(names, root) * 1e3, n)

    def self_ms(names, root, n):
        return per(table.self_total(names, root) * 1e3, n)

    def counter(root, key):
        return rec.counters.get((root, key), 0.0)

    tape_ops = counter("bench.train_iter", "tape_ops")
    flops = counter("bench.train_iter", "matmul_flops")
    used = {length for cid, length in rec.cache_gets if cid == id(cache)}
    n_save = table.count(["checkpoint.save"])
    n_load = table.count(["checkpoint.load"])
    pairs = ["splines.build_pair", "splines.identity_pair"]
    m = {
        "autodiff.tape_ops_per_step": (per(tape_ops, steps), "count"),
        "autodiff.op_self_ms_per_step": (self_ms(["autodiff.op.*"], "bench.train_iter", steps), "ms"),
        "autodiff.backward_ms_per_step": (ms(["autodiff.backward"], "bench.train_iter", steps), "ms"),
        "autodiff.adam_ms_per_step": (ms(["autodiff.adam_step"], "bench.train_iter", steps), "ms"),
        "autodiff.matmul_flops_per_step": (per(flops, steps), "flop"),
        "autodiff.flops_per_op": (per(flops, tape_ops), "flop"),
        "autodiff.op_calls_per_sample": (per(table.count(["autodiff.op.*"], "bench.sample"), samples), "count"),
        "model.loss_fwd_ms_per_step": (ms(["model.gaussian_loss", "model.masked_loss"], "bench.train_iter", steps), "ms"),
        "model.predict_calls_per_step": (per(table.count(["model.predict_clean"], "bench.train_iter"), steps), "count"),
        "model.predict_calls_per_sample": (per(table.count(["model.predict_clean"], "bench.sample"), samples), "count"),
        "model.sample_self_ms": (self_ms(["model.sample"], "bench.sample", samples), "ms"),
        "model.project_ms_per_step": (ms(["model.project"], "bench.train_iter", steps), "ms"),
        "harness.make_batch_ms_per_step": (ms(["harness.make_batch"], "bench.train_iter", steps), "ms"),
        "harness.resolve_corpus_ms": (ms(["harness.resolve_corpus"], "bench.setup", setups), "ms"),
        "harness.build_model_ms": (ms(["harness.build_model"], "bench.setup", setups), "ms"),
        "corpus.ingest_ms": (ms(["corpus.ingest"], "bench.setup", setups), "ms"),
        "rng.generator_calls_per_step": (per(table.count(["rng.generator"], "bench.train_iter"), steps), "count"),
        "rng.generator_ms_per_step": (ms(["rng.generator"], "bench.train_iter", steps), "ms"),
        "curvemap.build_cache_ms": (ms(["curvemap.build_cache"], "bench.setup", setups), "ms"),
        "curvemap.pairs_built": (per(table.count(pairs, "bench.setup"), setups), "count"),
        "curvemap.pairs_used_ratio": (per(len(used), len(cache)), "ratio"),
        "curvemap.recon_cell_ms": (ms(["curvemap.reconstruction_sweep"], "bench.sweep_cell", cells), "ms"),
        "splines.basis_matrix_ms": (ms(["splines.basis_matrix"], "bench.setup", setups), "ms"),
        "splines.basis_matrix_calls": (per(table.count(["splines.basis_matrix"], "bench.setup"), setups), "count"),
        "splines.basis_vector_calls": (per(table.count(["splines.basis_vector"], "bench.setup"), setups), "count"),
        "splines.pseudo_inverse_ms": (ms(["splines.pseudo_inverse"], "bench.setup", setups), "ms"),
        "splines.pseudo_inverse_calls": (per(table.count(["splines.pseudo_inverse"], "bench.setup"), setups), "count"),
        "checkpoint.save_self_ms": (per(table.self_total(["checkpoint.save"]) * 1e3, n_save), "ms"),
        "checkpoint.load_self_ms": (per(table.self_total(["checkpoint.load"]) * 1e3, n_load), "ms"),
        "checkpoint.bytes": (p.extras.get("checkpoint.bytes", 0.0), "bytes"),
        "theory.probe_backbone_ms": (ms(["model.backbone_hidden"], "bench.probe", probes), "ms"),
        "theory.probe_self_ms": (self_ms(["theory.logit_correlation_probe"], "bench.probe", probes), "ms"),
    }
    return m
