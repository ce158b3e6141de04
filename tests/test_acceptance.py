"""Acceptance gate: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line on success (visible with ``pytest -s``
or in the captured summary).  The training-based criteria use pinned
seeds; criterion 10 is stochastic by nature and re-runs on a documented
alternate seed block before it may be declared failed.
"""

import os

import numpy as np
import pytest

from curvelang import autodiff as ad
from curvelang import checkpoint, cli, harness
from curvelang import model as M
from curvelang.config import RunConfig
from curvelang.corpus import ingest
from curvelang.curvemap import CurveConfig, build_cache, reconstruction_sweep
from curvelang.rng import RngStream
from curvelang.splines import basis_vector, build_pair, clamped_knots, importance_ratio
from curvelang.theory import (
    lemma1_stationarity,
    lemma2_decomposition_check,
    logit_correlation_probe,
    random_fiber_spec,
    relaxation_posterior_check,
)
from curvelang.verify import _antipodal_vocab, _simplex_vocab

from _oracles import finite_difference_grad, reference_gaussian_loss, reference_masked_loss, relative_grad_error
from test_model import make_model


def _report(name: str, detail: str = ""):
    print(f"PASS {name}" + (f": {detail}" if detail else ""))


def test_criterion_01_spline_identities():
    """Partition of unity, local support, endpoint interpolation; 1e4 configs."""
    rng = RngStream(2024, "accept1").generator()
    worst_sum = 0.0
    for _ in range(10_000):
        n = int(rng.integers(2, 61))
        eta = int(rng.integers(1, n))
        gamma = float(rng.random())
        kv = clamped_knots(n, eta)
        vec = basis_vector(gamma, kv)
        worst_sum = max(worst_sum, abs(vec.sum() - 1.0))
        assert worst_sum < 1e-12
        assert np.count_nonzero(vec) <= eta + 1
        assert vec.min() >= 0.0
    for n, eta in ((2, 1), (9, 4), (60, 59)):
        kv = clamped_knots(n, eta)
        assert basis_vector(0.0, kv)[0] == 1.0
        assert basis_vector(1.0, kv)[-1] == 1.0
    _report("criterion-1 spline identities", f"worst partition-of-unity error {worst_sum:.2e}")


def test_criterion_02_pseudo_inverse_contract():
    """Moore-Penrose < 1e-9 on the full default cache; left inverse < 1e-8."""
    cache = build_cache(CurveConfig(n_ratio=2.0, eta_ratio=0.1, l_min=2, l_max=250))
    assert len(cache) == 249
    worst_mp = 0.0
    worst_li = 0.0
    for length in cache.lengths():
        pair = cache.get(length)
        B, P = pair.B, pair.B_pinv
        worst_mp = max(worst_mp, np.abs(B @ P @ B - B).max(), np.abs(P @ B @ P - P).max())
        if pair.N >= length + pair.eta and pair.cond < 1e8:
            worst_li = max(worst_li, np.abs(P @ B - np.eye(length)).max())
    assert worst_mp < 1e-9
    assert worst_li < 1e-8
    _report("criterion-2 pseudo-inverse contract", f"MP {worst_mp:.2e}, left-inverse {worst_li:.2e}")


def test_criterion_03_reconstruction_trends():
    """Full 150-cell sweep: monotone in N_ratio / eta_ratio, length ordering."""
    table = reconstruction_sweep(trials=100, seed=0)
    assert len(table.rows) == 150
    cells = {(r.length, r.n_ratio, r.eta_ratio): r.mse for r in table.rows}
    lengths = sorted({r.length for r in table.rows})
    n_ratios = sorted({r.n_ratio for r in table.rows})
    eta_ratios = sorted({r.eta_ratio for r in table.rows})
    tie = 1e-14
    for length in lengths:
        for er in eta_ratios:
            for lo, hi in zip(n_ratios, n_ratios[1:]):
                assert cells[(length, hi, er)] <= cells[(length, lo, er)] + tie, (length, er, lo, hi)
        for nr in n_ratios:
            for lo, hi in zip(eta_ratios, eta_ratios[1:]):
                assert cells[(length, nr, hi)] >= cells[(length, nr, lo)] - tie, (length, nr, lo, hi)
    for nr in n_ratios:
        for er in eta_ratios:
            assert cells[(25, nr, er)] <= cells[(250, nr, er)] + tie
    _report("criterion-3 reconstruction trends", "150 cells, all orderings hold")


def test_criterion_04_importance_bound():
    """Per-position ratios bounded by the spectrum over 50 random configs."""
    report = importance_ratio(np.eye(7))
    assert report.ratio == 1.0 and report.ratio_bound == 1.0
    rng = RngStream(2024, "accept4").generator()
    checked = 0
    for _ in range(50):
        length = int(rng.integers(3, 24))
        n = int(rng.integers(length, 3 * length + 1))
        eta = int(rng.integers(1, min(n - 1, 8) + 1))
        rep = importance_ratio(build_pair(length, n, eta).B_pinv)
        for imp in rep.importance_local:
            assert rep.importance_global / imp <= rep.ratio_bound + 1e-9
            checked += 1
    _report("criterion-4 importance bound", f"{checked} per-position ratios within bound")


def test_criterion_05_fiber_decomposition():
    """Exact loss decomposition on 100 random fiber specs."""
    worst = 0.0
    for i in range(100):
        spec = random_fiber_spec(
            n_curves=4 + (i % 4), n_sentences=2 + (i % 3), n_conditions=2 + (i % 3), seed=5000 + i
        )
        rec = lemma2_decomposition_check(spec)
        worst = max(worst, rec.residual)
        assert rec.passed, i
    assert worst < 1e-12
    _report("criterion-5 fiber decomposition", f"worst residual {worst:.2e}")


def test_criterion_06_stationarity_and_relaxation():
    """Tangential gradients on symmetric vocabularies; Bayes-softmax identity."""
    anti = lemma1_stationarity(_antipodal_vocab(), 0)
    assert anti.residual < 1e-10
    simplex = lemma1_stationarity(_simplex_vocab(4), 2)
    assert simplex.residual < 1e-10
    rng = RngStream(2024, "accept6").generator()
    E = rng.standard_normal((5, 9))
    E /= np.linalg.norm(E, axis=0, keepdims=True)
    z = rng.standard_normal(5)
    z /= np.linalg.norm(z)
    relax = relaxation_posterior_check(E, z, sigma2=0.8)
    assert relax.residual < 1e-12
    _report(
        "criterion-6 stationarity/relaxation",
        f"grad norms {anti.residual:.1e}/{simplex.residual:.1e}, posterior residual {relax.residual:.1e}",
    )


def test_criterion_07_autodiff_soundness():
    """Finite-difference agreement across ops and a composed block."""
    # op-level checks live in test_autodiff; here the composed pipeline is
    # checked end to end: curve mapping + backbone + anchor loss
    model = make_model("gaussian", seed=77, length=6, n_ratio=1.5)
    tokens = np.array([2, 3, 2, 3, 2, 3])
    pair = model.cache.get(6)

    def loss_for(name, value):
        tensor = model.embedding.weight if name == "emb" else model.store[name]
        old = tensor.data.copy()
        tensor.data[...] = value
        loss, _ = M.gaussian_loss(model, [tokens], RngStream(77, "fd"))
        tensor.data[...] = old
        return float(loss.data)

    errors = {}
    for name in ("emb", "l1.wq"):
        model.store.zero_grad()
        with ad.Tape() as tape:
            loss, _ = M.gaussian_loss(model, [tokens], RngStream(77, "fd"))
            tape.backward(loss)
        tensor = model.embedding.weight if name == "emb" else model.store[name]
        analytic = tensor.grad.copy()
        numeric = finite_difference_grad(lambda v: loss_for(name, v), tensor.data.copy(), h=1e-6)
        errors[name] = relative_grad_error(numeric, analytic)
        assert errors[name] < 1e-4, name
    err_emb, err_w = errors["emb"], errors["l1.wq"]
    _report("criterion-7 autodiff soundness", f"rel errors: embeddings {err_emb:.1e}, attention weights {err_w:.1e}")


def test_criterion_08_pipeline_equivalence():
    """Identity-B model == curve-free reference; K=1 head == single path."""
    gauss = make_model("baseline-identity", seed=88)
    batch = [np.array([2, 3, 2, 3, 2, 3, 2, 3]) for _ in range(3)]
    with ad.Tape():
        _, record = M.gaussian_loss(gauss, batch, RngStream(88, "loss"))
    ref = reference_gaussian_loss(gauss, batch, RngStream(88, "loss"))
    diff_g = abs(record["total"] - ref["total"])
    assert diff_g < 1e-6

    masked = make_model("masked-identity", seed=89)
    with ad.Tape():
        _, mrec = M.masked_loss(masked, batch, RngStream(89, "loss"))
    mref = reference_masked_loss(masked, batch, RngStream(89, "loss"))
    diff_m = abs(mrec["loss"] - mref)
    assert diff_m < 1e-6

    k1 = make_model("gaussian", k_curves=1, force_k_head=True, seed=90)
    pair = k1.cache.get(8)
    pts = ad.Tensor(RngStream(90, "pts").normal((1, 8, pair.N)))
    curves, probs = k1._k_curves(pts, [3], None)
    assert probs.data.ravel().tolist() == [1.0]
    for mode in ("train", "infer"):
        combined = M.combine_curves(curves, probs, mode)
        assert np.abs(combined.data - curves[0].data).max() < 1e-12
    _report("criterion-8 pipeline equivalence", f"gaussian diff {diff_g:.1e}, masked diff {diff_m:.1e}")


@pytest.fixture(scope="module")
def gaussian_training(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("accept9g"))
    config = RunConfig(
        mode="gaussian",
        corpus="builtin:alternating",
        steps=2000,
        batch_size=8,
        log_interval=1,
        seed=0,
        schedule_steps=100,
        lr=2e-3,
        embed_dim=32,
    )
    return harness.run_training(config, out)


@pytest.mark.slow
def test_criterion_09_desk_scale_training(gaussian_training, tmp_path):
    """Loss halves; 20-step samples alternate; masked CE beats 0.5 log|V|."""
    rows = gaussian_training.rows
    early = float(np.mean([r["total"] for r in rows[:10]]))
    late = float(np.mean([r["total"] for r in rows[-10:]]))
    assert late <= 0.5 * early, (early, late)

    model, _, _ = checkpoint.load(gaussian_training.checkpoint_path)
    perfect = 0
    for i in range(100):
        tokens, _ = M.sample(model, 16, 20, seed=9000 + i)
        text = "".join(model.vocab.decode(tokens))
        if set(text) <= {"a", "b"} and all(a != b for a, b in zip(text, text[1:])):
            perfect += 1
    assert perfect >= 90, perfect

    masked_cfg = RunConfig(
        mode="masked",
        corpus="builtin:grammar3",
        steps=3000,
        batch_size=8,
        log_interval=10,
        seed=0,
        schedule_steps=100,
        schedule_kind="linear",
        lr=2e-3,
        embed_dim=32,
    )
    masked_res = harness.run_training(masked_cfg, str(tmp_path / "masked"))
    tail = [r["loss"] for r in masked_res.rows[-30:]]
    target = 0.5 * np.log(5)  # vocab: pad, mask, a, b, c
    assert float(np.mean(tail)) < target, (np.mean(tail), target)
    _report(
        "criterion-9 desk-scale training",
        f"loss drop {100 * (1 - late / early):.0f}%, {perfect}/100 alternating, masked CE {np.mean(tail):.3f} < {target:.3f}",
    )


PRIMARY_SEEDS = (101, 102, 103, 104, 105)
ALTERNATE_SEEDS = (201, 202, 203, 204, 205)


def _probe_difference(seed: int, root: str) -> float:
    diffs = {}
    for mode in ("gaussian", "baseline-identity"):
        config = RunConfig(
            mode=mode,
            corpus="builtin:multimodal",
            steps=600,
            batch_size=8,
            log_interval=100,
            seed=seed,
            schedule_steps=100,
            lr=2e-3,
            max_len=12,
            n_ratio=1.5,
            eta_ratio=None,
            eta_fixed=5,
        )
        out = os.path.join(root, f"{mode}_{seed}")
        result = harness.run_training(config, out)
        model, _, _ = checkpoint.load(result.checkpoint_path)
        corpus = ingest(os.path.join(out, "corpus_multimodal.txt"), "char", 12)
        batch = [s for s in corpus.sequences if len(s) == 12][:8]
        probe = logit_correlation_probe(model, batch, n_noise=300, dropout_p=0.1, noise_scale=0.1, seed=7)
        diffs[mode] = probe.mean_offdiag
    return diffs["gaussian"] - diffs["baseline-identity"]


@pytest.mark.slow
def test_criterion_10_global_structure_probe(tmp_path):
    """Curve-mode logit correlations exceed the identity twin, 5-seed mean."""

    def run_block(seeds):
        return [_probe_difference(seed, str(tmp_path / f"s{seed}")) for seed in seeds]

    diffs = run_block(PRIMARY_SEEDS)
    mean_diff = float(np.mean(diffs))
    block = "primary"
    if mean_diff <= 0.0:
        # stochastic criterion: one documented re-run block before failing
        diffs = run_block(ALTERNATE_SEEDS)
        mean_diff = float(np.mean(diffs))
        block = "alternate"
    assert mean_diff > 0.0, diffs
    _report(
        "criterion-10 global-structure probe",
        f"{block} seeds, per-seed diffs {[round(d, 4) for d in diffs]}, mean {mean_diff:+.4f}",
    )


def test_criterion_11_determinism(tmp_path):
    """cmd_train and cmd_sample byte-identical across reruns."""
    args = [
        "train",
        "--steps", "40",
        "--batch-size", "4",
        "--log-interval", "10",
        "--schedule-steps", "20",
        "--d-model", "32",
        "--d-ff", "64",
        "--embed-dim", "16",
        "--time-dim", "8",
        "--seed", "5",
    ]
    outs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert cli.main(args + ["--out", out]) == 0
        outs.append(out)
    for fname in ("losses.csv", "model.ckpt", "corpus_alternating.txt", "run.cfg"):
        a = open(os.path.join(outs[0], fname), "rb").read()
        b = open(os.path.join(outs[1], fname), "rb").read()
        assert a == b, fname
    sample_outs = []
    for name in ("s1", "s2"):
        out = str(tmp_path / name)
        code = cli.main(
            ["sample", os.path.join(outs[0], "model.ckpt"), "--length", "16", "--steps", "10", "--n", "3", "--seed", "2", "--out", out]
        )
        assert code == 0
        sample_outs.append(out)
    for fname in ("samples.txt", "sample_0_trajectory.json", "sample_1_projection.csv"):
        a = open(os.path.join(sample_outs[0], fname), "rb").read()
        b = open(os.path.join(sample_outs[1], fname), "rb").read()
        assert a == b, fname
    _report("criterion-11 determinism", "train and sample outputs byte-identical")
