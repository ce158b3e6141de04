"""Schedules, noise processes, curve-wired losses, K-curve head, sampling."""

import collections
import dataclasses
import json
import os
import resource
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from curvelang import autodiff as ad
from curvelang import checkpoint, cli, harness, splines
from curvelang import corpus as corpus_module
from curvelang import model as M
from curvelang.autodiff import Tensor
from curvelang.config import RunConfig
from curvelang.corpus import build_vocab, write_file
from curvelang.curvemap import CurveConfig, build_cache
from curvelang.errors import CheckpointVersionMismatch, ConfigError, CurvelangError, IoError, ShapeMismatch, StepOutOfRange
from curvelang.rng import RngStream

from _oracles import (
    _reference_denoise,
    reference_adam_step,
    reference_backbone,
    reference_gaussian_loss,
    reference_init,
    reference_masked_loss,
    reference_sample,
)


def tiny_vocab():
    return build_vocab([list("abab"), list("baba")])


def make_model(mode="gaussian", k_curves=1, seed=0, length=8, n_ratio=1.5, dropout=0.0, T=8, heads=2):
    identity = mode in ("baseline-identity", "masked-identity")
    cache = build_cache(CurveConfig(n_ratio=n_ratio, eta_ratio=0.2, l_min=2, l_max=length, identity=identity))
    return M.SclmModel(
        mode=mode,
        vocab=tiny_vocab(),
        cache=cache,
        schedule=M.build_schedule(T, "linear"),
        backbone=M.BackboneConfig(layers=2, heads=heads, d_model=16, d_ff=32, dropout=dropout, max_positions=64, time_dim=8),
        embed_dim=8,
        k_curves=k_curves,
        seed=seed,
    )


def jolt(model, seed, scale=0.5):
    """Add seeded noise to every backbone parameter, so outputs are far from
    the near-zero init; the word embeddings keep their unit norm."""
    for name in model.store.names():
        if name != "emb":
            param = model.store[name].data
            param += scale * RngStream(seed, "jolt", name).normal(param.shape)
    return model


def make_batch(model, n=3, length=8, seed=0):
    rng = RngStream(seed, "batch").generator()
    ids = np.array([model.vocab.index[c] for c in "ab"])
    return [ids[rng.integers(0, 2, size=length)] for _ in range(n)]


def assert_logits_factor_through_curves(model, e_t, ts):
    """The logits of predict_clean's output equal emb.T @ (P_hat0 @ B), sequence by sequence."""
    e_hat, p_hat = model.predict_clean(e_t, ts, combine="train")
    logits = model.logits_from_clean(e_hat).data
    B = model.cache.get(8).B
    emb = model.embedding.weight.data
    for seq_logits, seq_points in zip(logits, p_hat.data):
        npt.assert_allclose(seq_logits.T, emb.T @ (seq_points @ B), atol=1e-10)


class TestSchedule:
    def test_linear_endpoints(self):
        s = M.build_schedule(100, "linear")
        assert s.alpha_bars[0] == 1.0
        assert s.alpha_bars[100] == 0.0

    def test_linear_alpha_arithmetic(self):
        s = M.build_schedule(4, "linear")
        npt.assert_allclose(s.alpha_bars[2] / s.alpha_bars[1], (0.5 / 0.75))

    def test_sqrt_shape(self):
        s = M.build_schedule(100, "sqrt")
        assert s.alpha_bars[0] == 1.0
        assert s.alpha_bars[100] < 1e-3
        assert (np.diff(s.alpha_bars) <= 1e-15).all()

    def test_masked_weight_linear_is_T_over_t(self):
        s = M.build_schedule(10, "linear")
        for t in range(1, 11):
            npt.assert_allclose(s.masked_weight(t), 10.0 / t, rtol=1e-12)

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            M.build_schedule(10, "cosine")


class TestForwardNoise:
    def test_alpha_bar_one_returns_input(self):
        sched = M.NoiseSchedule(T=2, alpha_bars=np.array([1.0, 1.0, 0.5]), kind="linear")
        E0 = RngStream(0, "e0").normal((4, 6))
        out = M.forward_noise_gaussian(E0, 1, sched, RngStream(1, "n"))
        npt.assert_array_equal(out, E0)

    def test_terminal_step_is_pure_noise(self):
        sched = M.build_schedule(5, "linear")
        E0 = RngStream(2, "e0").normal((4, 6))
        rng = RngStream(3, "n")
        out = M.forward_noise_gaussian(E0, 5, sched, rng)
        npt.assert_array_equal(out, RngStream(3, "n").normal((4, 6)))

    def test_step_out_of_range(self):
        sched = M.build_schedule(5, "linear")
        with pytest.raises(StepOutOfRange):
            M.forward_noise_gaussian(np.zeros((2, 2)), 6, sched, RngStream(0))

    def test_monte_carlo_moments(self):
        sched = M.build_schedule(10, "linear")
        t = 4
        abar = sched.alpha_bars[t]
        e0 = 0.8
        n = 100_000
        draws = np.array(
            [M.forward_noise_gaussian(np.array([[e0]]), t, sched, RngStream(7, "mc", i))[0, 0] for i in range(200)]
        )
        big = np.sqrt(abar) * e0 + np.sqrt(1 - abar) * RngStream(8, "big").normal(n)
        se_mean = np.sqrt((1 - abar) / n)
        assert abs(big.mean() - np.sqrt(abar) * e0) < 3 * se_mean
        se_var = (1 - abar) * np.sqrt(2.0 / (n - 1))
        assert abs(big.var() - (1 - abar)) < 3 * se_var
        assert abs(draws.mean() - np.sqrt(abar) * e0) < 3 * np.sqrt((1 - abar) / len(draws))


class TestMaskedForward:
    def test_t_zero_unchanged(self):
        sched = M.build_schedule(6, "linear")
        y = np.array([2, 3, 2, 3])
        npt.assert_array_equal(M.masked_forward(y, 0, sched, RngStream(0, "m"), mask_id=1), y)

    def test_t_terminal_all_masked(self):
        sched = M.build_schedule(6, "linear")
        y = np.array([2, 3, 2, 3, 2])
        out = M.masked_forward(y, 6, sched, RngStream(1, "m"), mask_id=1)
        npt.assert_array_equal(out, np.ones(5))

    def test_midpoint_rate(self):
        sched = M.build_schedule(10, "linear")
        y = np.full(100_000, 2)
        out = M.masked_forward(y, 5, sched, RngStream(2, "m"), mask_id=1)
        rate = (out == 1).mean()
        assert abs(rate - 0.5) < 3 * np.sqrt(0.25 / y.size)


def denoise_one(model, e, t):
    """``predict_clean`` on one (d, L) sequence of noisy words, as a batch of one; plain arrays out."""
    e_hat, p_hat = model.predict_clean(Tensor(e[None]), [t])
    return e_hat.data[0], p_hat.data[0]


class TestConstruction:
    @pytest.mark.parametrize("size", [0, -8])
    def test_nonpositive_sizes_rejected(self, size):
        for field in ("d_model", "d_ff"):
            with pytest.raises(ConfigError):
                M.BackboneConfig(**{field: size})
        cache = build_cache(CurveConfig(l_min=2, l_max=8))
        with pytest.raises(ConfigError):
            M.SclmModel("gaussian", tiny_vocab(), cache, M.build_schedule(8, "linear"), embed_dim=size)
        with pytest.raises(ConfigError, match=f"k_curves must be >= 1, got {size}"):
            M.SclmModel("gaussian", tiny_vocab(), cache, M.build_schedule(8, "linear"), k_curves=size)

    @pytest.mark.parametrize(
        "mode, k_curves, k_head, seed",
        [("gaussian", 1, False, 0), ("masked", 1, False, 5), ("gaussian", 3, True, 7), ("masked-identity", 1, False, 11)],
    )
    def test_fresh_parameters_match_their_drawn_streams(self, mode, k_curves, k_head, seed):
        model = make_model(mode, k_curves=k_curves, seed=seed)
        expected = reference_init(model)
        assert model.k_head == k_head and ("ktok" in expected) == k_head
        assert list(expected) == model.store.names()
        for name, want in expected.items():
            got = model.store[name].data
            if name == "emb":
                npt.assert_allclose(got, want, rtol=1e-15, atol=0, err_msg=name)
            else:
                # bitwise: a bias is +0.0, never a -0.0 left by a draw times 0
                assert got.tobytes() == want.tobytes(), name
        assert not model.store.first.any() and not model.store.second.any()

    def test_state_fills_the_store_without_a_draw(self, monkeypatch):
        source = jolt(make_model("gaussian", k_curves=2, seed=3), seed=4)
        state = np.stack([source.store.values, source.store.values + 1.0, source.store.values + 2.0])

        def no_draw(self):
            raise AssertionError(f"drew the stream {self.labels}")

        monkeypatch.setattr(RngStream, "generator", no_draw)
        cache = build_cache(CurveConfig(n_ratio=1.5, eta_ratio=0.2, l_min=2, l_max=8))
        args = dict(vocab=tiny_vocab(), cache=cache, schedule=M.build_schedule(8, "linear"), backbone=source.backbone,
                    embed_dim=8, k_curves=2, seed=3)
        model = M.SclmModel("gaussian", state=state, **args)
        for got, want in zip((model.store.values, model.store.first, model.store.second), state):
            assert got.tobytes() == want.tobytes()
            # adopted, not copied
            assert np.shares_memory(got, want)
        # the jolted embeddings are off the unit sphere, and stay so: no projection
        assert model.store["emb"].data.tobytes() == source.store["emb"].data.tobytes()
        with pytest.raises(ShapeMismatch, match="state of shape"):
            M.SclmModel("gaussian", state=state[:, 1:], **args)


class TestDenoisePredict:
    def test_identity_mode_passthrough(self):
        model = make_model("baseline-identity")
        e = RngStream(4, "p").normal((8, 8))
        e_hat, p_hat = denoise_one(model, e, 3)
        npt.assert_array_equal(e_hat, p_hat)
        npt.assert_allclose(e_hat, _reference_denoise(model, e, 3, 8), atol=1e-12)

    def test_curve_mode_matches_reference_backbone(self):
        model = make_model("gaussian")
        pair = model.cache.get(8)
        e = RngStream(44, "p").normal((8, 8))
        e_hat, p_hat = denoise_one(model, e, 3)
        npt.assert_allclose(p_hat, reference_backbone(model, e @ pair.B_pinv, 3), atol=1e-12)
        npt.assert_allclose(e_hat, _reference_denoise(model, e, 3, 8), atol=1e-12)

    def test_output_shapes(self):
        model = make_model("gaussian")
        pair = model.cache.get(8)
        e = RngStream(5, "p").normal((8, 8))
        e_hat, p_hat = denoise_one(model, e, 2)
        assert e_hat.shape == (8, 8)
        assert p_hat.shape == (8, pair.N)

    def test_deterministic(self):
        model = make_model("gaussian")
        e = RngStream(6, "p").normal((8, 8))
        a = denoise_one(model, e, 4)
        b = denoise_one(model, e, 4)
        npt.assert_array_equal(a[0], b[0])
        npt.assert_array_equal(a[1], b[1])


class TestBatchedBackbone:
    def test_each_sequence_matches_reference_backbone(self):
        for heads in (1, 2, 4):
            model = make_model("gaussian", seed=40 + heads, heads=heads)
            pair = model.cache.get(8)
            pts = RngStream(45, "p", heads).normal((3, 8, pair.N))
            ts = [1, 4, 7]
            hidden = model.backbone_hidden(Tensor(pts), ts)
            assert hidden.shape == (3, pair.N, 16)
            out = model.hidden_to_points(hidden).data
            for b, t in enumerate(ts):
                npt.assert_allclose(out[b], reference_backbone(model, pts[b], t), atol=1e-12, err_msg=f"heads {heads}")

    def test_k_head_batch_matches_one_sequence_at_a_time(self):
        model = make_model("gaussian", k_curves=3, seed=46)
        pair = model.cache.get(8)
        et = RngStream(47, "p").normal((3, 8, 8))
        ts = [2, 5, 8]
        for combine in ("train", "infer"):
            e_hat, p_hat = model.predict_clean(Tensor(et), ts, combine=combine)
            for b, t in enumerate(ts):
                curves, probs = model._k_curves(model.to_points(Tensor(et[b : b + 1])), [t], None)
                single = M.combine_curves(curves, probs, combine).data[0]
                npt.assert_allclose(p_hat.data[b], single, atol=1e-12)
                npt.assert_allclose(e_hat.data[b], single @ pair.B, atol=1e-12)

    def test_mixed_lengths_rejected(self):
        model = make_model("gaussian")
        batch = make_batch(model, n=2, length=8) + make_batch(model, n=1, length=6)
        with ad.Tape(), pytest.raises(ShapeMismatch):
            M.gaussian_loss(model, batch, RngStream(48, "loss"))


class TestGaussianLoss:
    def test_untrained_anchor_near_uniform(self):
        model = make_model("gaussian", seed=11)
        batch = make_batch(model, n=4)
        with ad.Tape():
            _, record = M.gaussian_loss(model, batch, RngStream(11, "loss"))
        log_v = np.log(model.vocab.size)
        assert abs(record["anchor"] - log_v) / log_v < 0.10

    def test_perfect_prediction_zero_diffusion_and_good_anchor(self):
        model = make_model("gaussian", seed=12)
        tokens = make_batch(model, n=1)[0]
        e0 = model.embedding.weight.data[:, tokens]
        diffusion = float(np.mean((e0 - e0) ** 2))
        assert diffusion == 0.0
        logits = model.embedding.weight.data.T @ e0
        logp = logits - logits.max(axis=0, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=0, keepdims=True))
        anchor = float(-logp[tokens, np.arange(len(tokens))].mean())
        assert anchor < np.log(model.vocab.size)

    def test_total_combines_terms(self):
        model = make_model("gaussian", seed=13)
        model.lambda_anchor = 0.5
        batch = make_batch(model, n=2)
        with ad.Tape():
            total, record = M.gaussian_loss(model, batch, RngStream(13, "loss"))
        npt.assert_allclose(record["total"], record["diffusion"] + 0.5 * record["anchor"], rtol=1e-12)
        npt.assert_allclose(float(total.data), record["total"], rtol=1e-12)

    def test_identity_matches_curve_free_reference(self):
        model = make_model("baseline-identity", seed=14)
        batch = make_batch(model, n=3)
        with ad.Tape():
            _, record = M.gaussian_loss(model, batch, RngStream(14, "loss"))
        ref = reference_gaussian_loss(model, batch, RngStream(14, "loss"))
        assert abs(record["total"] - ref["total"]) < 1e-6
        assert abs(record["diffusion"] - ref["diffusion"]) < 1e-6
        assert abs(record["anchor"] - ref["anchor"]) < 1e-6

    def test_logits_factor_through_curve_mapping(self):
        model = jolt(make_model("gaussian", seed=15), 15)
        et = RngStream(15, "et").normal((2, model.embed_dim, 8))
        assert_logits_factor_through_curves(model, Tensor(et), [3, 7])


class TestMaskedLoss:
    def test_no_masks_zero_loss(self):
        model = make_model("masked")
        never = M.NoiseSchedule(T=4, alpha_bars=np.ones(5), kind="linear")
        model.schedule = never
        batch = make_batch(model, n=2)
        with ad.Tape():
            total, record = M.masked_loss(model, batch, RngStream(16, "loss"))
        assert record["loss"] == 0.0
        assert float(total.data) == 0.0

    def test_all_masked_untrained_weighted_ce(self):
        model = make_model("masked", T=1, seed=17)
        batch = make_batch(model, n=4)
        with ad.Tape():
            _, record = M.masked_loss(model, batch, RngStream(17, "loss"))
        weight = model.schedule.masked_weight(1)
        expected = weight * np.log(model.vocab.size)
        assert abs(record["loss"] - expected) / expected < 0.10

    def test_identity_matches_plain_masked_lm(self):
        model = make_model("masked-identity", seed=18)
        batch = make_batch(model, n=3)
        with ad.Tape():
            _, record = M.masked_loss(model, batch, RngStream(18, "loss"))
        ref = reference_masked_loss(model, batch, RngStream(18, "loss"))
        assert abs(record["loss"] - ref) < 1e-6

    def test_sequence_without_masks_leaves_the_batch(self):
        model = make_model("masked-identity", seed=49)
        mask_id = model.vocab.mask_id
        # an all-mask line has no position to predict
        batch = make_batch(model, n=3) + [np.full(8, mask_id)]
        batch = [batch[0], batch[3], batch[1], batch[2]]
        with ad.Tape():
            _, record = M.masked_loss(model, batch, RngStream(50, "loss"))
        ref = reference_masked_loss(model, batch, RngStream(50, "loss"))
        assert abs(record["loss"] - ref) < 1e-12
        # a positive loss means at least one of the three other lines stayed
        assert ref > 0.0

    def test_logits_factor_through_curve_mapping(self):
        model = jolt(make_model("masked", seed=19), 19)
        yt = np.stack(make_batch(model, n=2))
        yt[:, ::3] = model.vocab.mask_id
        assert_logits_factor_through_curves(model, model.embed(yt), [2, 5])


class TestKCurve:
    def test_probs_sum_to_one(self):
        for k in (2, 3, 5):
            model = make_model("gaussian", k_curves=k)
            pair = model.cache.get(8)
            pts = Tensor(RngStream(21, "p", k).normal((1, 8, pair.N)))
            _, probs = model._k_curves(pts, [1], None)
            assert abs(float(probs.data.sum()) - 1.0) < 1e-12

    def test_identical_tokens_give_identical_curves(self):
        model = make_model("gaussian", k_curves=3)
        model.store["ktok"].data[:] = model.store["ktok"].data[0]
        pair = model.cache.get(8)
        pts = Tensor(RngStream(22, "p").normal((1, 8, pair.N)))
        curves, probs = model._k_curves(pts, [3], None)
        npt.assert_allclose(probs.data.ravel(), [1 / 3] * 3, atol=1e-12)
        npt.assert_array_equal(curves.data[0], curves.data[1])
        npt.assert_array_equal(curves.data[1], curves.data[2])

    def test_combine_one_hot(self):
        curves = Tensor(np.stack([np.full((1, 2, 3), float(i)) for i in range(3)]))
        probs = Tensor(np.array([[0.0], [1.0], [0.0]]))
        npt.assert_array_equal(M.combine_curves(curves, probs, "train").data, curves.data[1])
        npt.assert_array_equal(M.combine_curves(curves, probs, "infer").data, curves.data[1])

    def test_combine_symmetric_cancellation(self):
        base = RngStream(23, "c").normal((1, 3, 4))
        curves = Tensor(np.stack([base, -base]))
        probs = Tensor(np.array([[0.5], [0.5]]))
        npt.assert_allclose(M.combine_curves(curves, probs, "train").data, 0.0, atol=1e-15)

    def test_combine_infer_argmax(self):
        curves = Tensor(np.stack([np.full((1, 1, 1), float(i)) for i in range(3)]))
        probs = Tensor(np.array([[0.2], [0.5], [0.3]]))
        assert float(M.combine_curves(curves, probs, "infer").data[0, 0, 0]) == 1.0

    def test_k1_machinery_matches_single_curve(self):
        # one curve is no head: K = 1 predicts through the output head alone
        model = jolt(make_model("gaussian", k_curves=1, seed=24), 24)
        assert not model.k_head
        with pytest.raises(ConfigError, match="no K-curve head"):
            model._k_curves(Tensor(np.zeros((1, 8, model.cache.get(8).N))), [2], None)
        et = Tensor(RngStream(24, "p").normal((2, 8, 8)))
        for mode in ("train", "infer"):
            _, p_hat = model.predict_clean(et, [2, 5], combine=mode)
            single = model.hidden_to_points(model.backbone_hidden(model.to_points(et), [2, 5]))
            npt.assert_array_equal(p_hat.data, single.data)

    def test_loss_tape_does_not_grow_with_k(self):
        # the K curves are one tensor and combine in one weighted sum
        for mode, loss in (("gaussian", M.gaussian_loss), ("masked", M.masked_loss)):
            entries = []
            for k in (2, 4):
                model = make_model(mode, k_curves=k, T=1, seed=27)
                with ad.Tape() as tape:
                    loss(model, make_batch(model, n=4), RngStream(27, "loss"))
                entries.append(len(tape.entries))
            assert entries[0] == entries[1], mode


class TestTrainStep:
    def test_finite_after_first_step(self):
        model = make_model("gaussian", seed=25)
        record = M.train_step(model, make_batch(model), M.AdamConfig(lr=1e-3), step=1)
        assert np.isfinite(record["total"])

    def test_zero_lr_keeps_params(self):
        model = make_model("gaussian", seed=26)
        before = {n: model.store[n].data.copy() for n in model.store.names()}
        M.train_step(model, make_batch(model), M.AdamConfig(lr=0.0), step=1)
        for name, data in before.items():
            if name == "emb":
                continue  # unit-norm projection still runs, but is idempotent on unit columns
            npt.assert_array_equal(model.store[name].data, data)
        npt.assert_allclose(model.store["emb"].data, before["emb"], atol=1e-15)

    def test_gradient_reaches_every_parameter(self):
        model = make_model("gaussian", k_curves=3, seed=27)
        batch = make_batch(model, n=2)
        with ad.Tape() as tape:
            loss, _ = M.gaussian_loss(model, batch, RngStream(27, "loss"))
            tape.backward(loss)
        for name in model.store.names():
            grad = model.store[name].grad
            assert grad is not None, name
            assert np.abs(grad).max() > 0.0, name

    def test_unit_norm_projection_idempotent(self):
        model = make_model("gaussian", seed=28)
        model.embedding.weight.data *= 3.7
        model.embedding.project()
        once = model.embedding.weight.data.copy()
        model.embedding.project()
        assert np.abs(model.embedding.weight.data - once).max() < 1e-12
        npt.assert_allclose(np.linalg.norm(once, axis=0), 1.0, atol=1e-12)


def assert_same_state(a, b, label):
    for name in a.store.names():
        for got, want in (
            (a.store[name].data, b.store[name].data),
            (a.store.moment1[name], b.store.moment1[name]),
            (a.store.moment2[name], b.store.moment2[name]),
        ):
            assert np.array_equal(got, want), f"{label}: {name}"


def train_both_ways(monkeypatch, make, batches, label):
    """Train two fresh models on the same batches, one with each Adam step; return the first."""
    models = []
    for step_fn in (ad.adam_step, reference_adam_step):
        monkeypatch.setattr(M, "adam_step", step_fn)
        model = make()
        losses = [M.train_step(model, batch, M.AdamConfig(lr=3e-3), step=i) for i, batch in enumerate(batches)]
        models.append((model, losses))
    (new, new_losses), (ref, ref_losses) = models
    assert new_losses == ref_losses, label
    assert_same_state(new, ref, label)
    return new


class TestAdamRows:
    """Adam on the reached rows of ``pos`` only, against whole-parameter Adam."""

    def test_gaussian_training_matches_reference(self, monkeypatch):
        def make():
            return make_model("gaussian", k_curves=2, seed=40, dropout=0.1)

        model = make()
        new = train_both_ways(monkeypatch, make, [make_batch(model, seed=i) for i in range(30)], "gaussian")
        # N = trunc(1.5 * 8) control points, out of 64 positions
        assert new.store.rows_reached == {"pos": 12}

    def test_masked_varying_lengths_matches_reference(self, monkeypatch):
        lengths = [3 + (7 * i) % 8 for i in range(30)]

        def make():
            return make_model("masked", seed=41, length=10, heads=4)

        model = make()
        batches = [make_batch(model, n=3, length=n, seed=i) for i, n in enumerate(lengths)]
        new = train_both_ways(monkeypatch, make, batches, "masked")
        assert new.store.rows_reached == {"pos": int(10 * 1.5)}

    def test_loaded_moments_past_the_trained_rows(self, monkeypatch, tmp_path):
        # trained at L = 8 (12 rows), then at L = 4 (6 rows): rows 6 to 11
        # carry loaded moments that a shorter step's gradient never touches
        monkeypatch.setattr(M, "adam_step", reference_adam_step)
        model = make_model("gaussian", seed=42)
        for i in range(5):
            M.train_step(model, make_batch(model, seed=i), M.AdamConfig(lr=3e-3), step=i)
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(model, path, step=5)
        first, _, _ = checkpoint.load(path)
        assert first.store.rows_reached == {"pos": 12}
        assert first.store.moment1["pos"][6:12].any() and not first.store.moment1["pos"][12:].any()
        batches = [make_batch(model, length=4, seed=100 + i) for i in range(30)]
        new = train_both_ways(monkeypatch, lambda: checkpoint.load(path)[0], batches, "loaded")
        assert new.store.rows_reached == {"pos": 12}

    def test_untrained_checkpoint_reaches_no_row(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(make_model("gaussian", seed=43), path, step=0)
        assert checkpoint.load(path)[0].store.rows_reached == {"pos": 0}

    def test_a_model_built_from_copies_of_its_state_trains_on_as_its_source(self):
        # the longest line reaches 24 rows of pos, the short ones 8: rows 8
        # to 23 carry moments that the model built from the state must keep
        # updating, with no checkpoint file in between
        config = RunConfig(mode="masked", seed=44, layers=1, d_model=16, d_ff=32, embed_dim=4, time_dim=4,
                           max_positions=32, schedule_steps=10, schedule_kind="linear")
        corpus = corpus_module.ingest("mixed", text="abcdabcdabca\nabca\nbcab\ncabc\n")
        longest, *short = corpus.sequences
        optimizer = M.AdamConfig(lr=1e-2)
        model = M.SclmModel(**harness.model_args(config, corpus))
        M.train_step(model, [longest], optimizer, 0)
        for step in range(1, 3):
            M.train_step(model, short, optimizer, step)
        store = model.store
        state = [buf.copy() for buf in (store.values, store.first, store.second)]
        built = M.SclmModel(state=state, **harness.model_args(config, corpus))
        built.store.step_count = store.step_count
        assert built.store.rows_reached == store.rows_reached == {"pos": 24}
        for step in range(3, 7):
            records = [M.train_step(m, short, optimizer, step) for m in (model, built)]
            assert records[0] == records[1]
        for got, want in zip((built.store.values, built.store.first, built.store.second), (store.values, store.first, store.second)):
            assert np.array_equal(got, want)


@pytest.mark.skipif(not ad.HEAP_RETAINED, reason="needs glibc's mallopt")
def test_training_step_takes_no_page_faults(tmp_path):
    """A step of the criterion-9 model reuses the heap pages the previous step freed."""
    config = RunConfig(
        mode="gaussian", corpus="builtin:alternating", batch_size=8,
        schedule_steps=100, lr=2e-3, embed_dim=32, seed=0,
    )
    corpus = harness.resolve_corpus(config, str(tmp_path))
    model = harness.build_model(config, corpus)
    optimizer = M.AdamConfig(lr=config.lr)
    faults = []
    for step in range(15):
        batch = harness.make_batch(corpus, config.batch_size, config.seed, step)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        M.train_step(model, batch, optimizer, step)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    assert np.median(faults[5:]) <= 8, faults


def test_gaussian_step_records_no_layout_plumbing(tmp_path, monkeypatch):
    """A step of the criterion-9 model runs in one layout: its tape holds no
    reshape, and a swapaxes only where the (B, d, L) curve layout meets the
    (B, n_tokens, d_model) backbone and the logits."""
    config = RunConfig(
        mode="gaussian", corpus="builtin:alternating", batch_size=8,
        schedule_steps=100, lr=2e-3, embed_dim=32, seed=0,
    )
    corpus = harness.resolve_corpus(config, str(tmp_path))
    model = harness.build_model(config, corpus)
    # each entry counted by the op its adjoint belongs to, before the
    # backward pass consumes the tape
    ops = collections.Counter()
    backward = ad.Tape.backward

    def counting_backward(tape, loss):
        ops.update(fn.__qualname__.split(".")[0] for _, _, fn in tape.entries)
        backward(tape, loss)

    monkeypatch.setattr(ad.Tape, "backward", counting_backward)
    batch = harness.make_batch(corpus, config.batch_size, config.seed, 0)
    M.train_step(model, batch, M.AdamConfig(lr=config.lr), 0)
    assert ops["reshape"] == 0 and ops["swapaxes"] == 3, ops
    # each sublayer op runs its own pre-norm: the final norm is the one layer_norm entry
    assert ops["layer_norm"] == 1 and ops["attention"] == ops["feed_forward"] == 2, ops


def test_backward_holds_no_more_than_the_forward_pass_left():
    """The backward pass frees each op's saved arrays once it has used
    them, so its peak is the forward pass's live memory plus the
    parameter gradients and a few activation-sized adjoints."""
    length = 64
    vocab = build_vocab([list("abcdefgh")])
    model = M.SclmModel(
        mode="masked", vocab=vocab, cache=build_cache(CurveConfig(l_min=2, l_max=length)),
        schedule=M.build_schedule(100, "linear"), backbone=M.BackboneConfig(), embed_dim=32, seed=0,
    )
    model.cache.get(length)
    rng = RngStream(3, "batch").generator()
    batch = [rng.integers(2, vocab.size, size=length) for _ in range(8)]
    grad_bytes = sum(model.store[name].data.nbytes for name in model.store.names())
    tracemalloc.start()
    try:
        with ad.Tape() as tape:
            loss, _ = M.masked_loss(model, batch, RngStream(0, "train", 0))
            forward_end = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # with every tape entry kept until the tape is dropped, this backward
    # pass peaked 9.4 MB above the forward pass's end; consuming it, 1.8 MB
    assert peak <= forward_end + grad_bytes + (2 << 20), (forward_end, peak)
    assert tape.entries == []


def _long_line_step_peak(tmp_path, dropout):
    """The tracemalloc peak of a masked step on 8 lines of 128 tokens (N = 256)."""
    path = tmp_path / "corpus.txt"
    path.write_text("abcdefgh" * 16 + "\n", encoding="utf-8")
    config = RunConfig(
        mode="masked", corpus=str(path), max_len=128, schedule_kind="linear",
        schedule_steps=100, batch_size=8, lr=2e-3, embed_dim=32, seed=0, dropout=dropout,
    )
    corpus = harness.resolve_corpus(config, str(tmp_path))
    model = harness.build_model(config, corpus)
    model.cache.get(128)
    tracemalloc.start()
    try:
        M.train_step(model, [corpus.sequences[0]] * 8, M.AdamConfig(lr=config.lr), 0)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dropout, limit_mib", [(0.0, 52), (0.1, 56)])
def test_long_line_step_keeps_no_attention_stack(tmp_path, dropout, limit_mib):
    """A masked step on 8 lines of 128 tokens (N = 256) keeps only row
    statistics and boolean masks for the attention adjoint; keeping each
    layer's softmax, and float dropout masks, this step peaked at 64.1 MiB
    (86.1 MiB with dropout)."""
    peak = _long_line_step_peak(tmp_path, dropout)
    assert peak < limit_mib << 20, peak / (1 << 20)


@pytest.mark.parametrize("dropout, limit_mib", [(0.0, 40), (0.1, 44)])
def test_long_line_step_keeps_only_the_feed_forward_pre_activation(tmp_path, dropout, limit_mib):
    """The feed-forward adjoint keeps its pre-activation (and a boolean
    mask) and rebuilds GELU's tanh and output; keeping them as well, this
    step peaked at 44.3 MiB (48.8 MiB with dropout)."""
    peak = _long_line_step_peak(tmp_path, dropout)
    assert peak < limit_mib << 20, peak / (1 << 20)


@pytest.mark.parametrize("dropout, limit_mib", [(0.0, 31), (0.1, 34)])
def test_long_line_step_keeps_no_residual_branch(tmp_path, dropout, limit_mib):
    """A tape entry keeps gradient slots, not tensors, so each residual
    branch's output, and the embedding's sums, are freed in the forward
    pass; keeping them for the ``add`` entries, this step peaked at
    35.3 MiB (37.8 MiB with dropout)."""
    peak = _long_line_step_peak(tmp_path, dropout)
    assert peak < limit_mib << 20, peak / (1 << 20)


@pytest.mark.parametrize("dropout, limit_mib", [(0.0, 27.0), (0.1, 31.3)])
def test_long_line_step_runs_the_gelu_chain_in_row_blocks(tmp_path, dropout, limit_mib):
    """The feed-forward op runs its GELU chain and dropout scaling over
    blocks of rows, and each dropout mask is compared as it is drawn, so
    no float temporary spans the batch but ``da`` and GELU's output;
    working on all rows at once, this step peaked at 28.4 MiB in the last
    layer's feed-forward adjoint (31.3 MiB with dropout, in the forward
    pass's float mask).  In row blocks it peaked at 26.4 MiB there (29.4
    MiB with dropout, in an attention adjoint's merge of the heads of q's,
    k's and v's adjoints)."""
    peak = _long_line_step_peak(tmp_path, dropout)
    assert peak < limit_mib * (1 << 20), peak / (1 << 20)


@pytest.mark.parametrize("dropout, limit_mib", [(0.0, 22.5), (0.1, 26.5)])
def test_long_line_step_rebuilds_q_k_v(tmp_path, dropout, limit_mib):
    """The attention op projects its layer-normed input to q, k and v
    itself, keeps only that input and rebuilds them in its adjoint, and
    writes the heads of its products through views, with no merge copy;
    keeping q, k and v and merging copies, this step peaked at 26.4 MiB
    (29.4 MiB with dropout)."""
    peak = _long_line_step_peak(tmp_path, dropout)
    assert peak < limit_mib * (1 << 20), peak / (1 << 20)


@pytest.mark.parametrize("dropout, limit_mib", [(0.0, 17.5), (0.1, 20.0)])
def test_long_line_step_rebuilds_the_normed_input(tmp_path, dropout, limit_mib):
    """Attention and the feed-forward take the residual stream and keep it,
    not a normed copy: each adjoint rebuilds the normed rows, and the
    feed-forward's adjoint drops its pre-activation once its GELU work is
    done; a 128-token line's attention runs one head per block.  With a
    ``layer_norm`` entry before each sublayer and a line's heads in one
    block, this step peaked at 21.2 MiB (23.4 MiB with dropout)."""
    peak = _long_line_step_peak(tmp_path, dropout)
    assert peak < limit_mib * (1 << 20), peak / (1 << 20)


class TestSampling:
    def test_reverse_steps_full_stride(self):
        assert M._reverse_steps(10, 10) == list(range(10, 0, -1))

    def test_reverse_steps_endpoints_and_monotonic(self):
        for T, n in [(100, 20), (8, 3), (50, 7), (9, 1)]:
            steps = M._reverse_steps(T, n)
            assert len(steps) == n
            assert steps[0] == T
            if n > 1:
                assert steps[-1] == 1
                assert all(a > b for a, b in zip(steps, steps[1:]))

    def test_trajectory_shape(self):
        model = make_model("gaussian", seed=29)
        tokens, traj = M.sample(model, 8, 5, seed=0)
        assert tokens.shape == (8,)
        assert len(traj) == 5
        assert all(e.shape == (8, 8) for e in traj)

    def test_masked_sampler_fills_everything(self):
        model = make_model("masked", seed=30)
        tokens, traj = M.sample(model, 8, 4, seed=1)
        assert (tokens != model.vocab.mask_id).all()
        assert len(traj) == 4

    def test_sample_deterministic_per_seed(self):
        model = make_model("gaussian", seed=31)
        a = M.sample(model, 8, 4, seed=5)
        b = M.sample(model, 8, 4, seed=5)
        npt.assert_array_equal(a[0], b[0])
        for x, y in zip(a[1], b[1]):
            npt.assert_array_equal(x, y)

    def test_step_count_out_of_range(self):
        model = make_model("gaussian")
        with pytest.raises(StepOutOfRange):
            M.sample(model, 8, 99, seed=0)

    def test_matches_reference_sampler(self):
        for i, mode in enumerate(M.MODES):
            model = jolt(make_model(mode, seed=60 + i), seed=60 + i)
            for length, n_steps, seed in ((8, 4, 0), (5, 8, 1), (6, 1, 2)):
                tokens, traj = M.sample(model, length, n_steps, seed=seed)
                ref_tokens, ref_traj = reference_sample(model, length, n_steps, seed)
                label = f"{mode} L={length} steps={n_steps}"
                npt.assert_array_equal(tokens, ref_tokens, err_msg=label)
                assert len(traj) == len(ref_traj) == n_steps
                for e, ref in zip(traj, ref_traj):
                    npt.assert_allclose(e, ref, rtol=0, atol=1e-12, err_msg=label)


def fail_writes_after(monkeypatch, n, error) -> list:
    """Make the writer's files raise ``error`` after ``n`` writes; returns the sizes of those written."""
    written = []

    class FailsAfter:
        def __init__(self, name, mode):
            self.fh = open(name, mode)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if len(written) == n:
                raise error
            written.append(self.fh.write(data))

    monkeypatch.setattr(corpus_module, "open", FailsAfter, raising=False)
    return written


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = make_model("gaussian", k_curves=2, seed=32)
        M.train_step(model, make_batch(model), M.AdamConfig(lr=1e-3), step=1)
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(model, path, step=1)
        loaded, step, header = checkpoint.load(path)
        assert step == 1
        assert header["mode"] == "gaussian"
        assert loaded.store.step_count == model.store.step_count == 1
        for name in ("values", "first", "second"):
            assert np.array_equal(getattr(loaded.store, name), getattr(model.store, name)), name
        for name in model.store.names():
            assert np.array_equal(loaded.store[name].data, model.store[name].data), name

    @pytest.mark.parametrize(
        "mode, k_curves, k_head",
        [
            ("gaussian", 1, False),
            ("masked", 1, False),
            ("baseline-identity", 1, False),
            ("masked-identity", 1, False),
            ("gaussian", 2, True),
        ],
    )
    def test_load_builds_the_model_its_settings_describe(self, tmp_path, mode, k_curves, k_head):
        model = make_model(mode, k_curves=k_curves, seed=39)
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(model, path, step=0)
        loaded, _, header = checkpoint.load(path)
        assert loaded.k_head == k_head
        assert checkpoint.settings(loaded) == checkpoint.settings(model)
        assert set(header) == set(checkpoint.settings(model)) | {"step", "opt_step_count", "params", "state_crc32"}

    def test_load_draws_nothing(self, tmp_path, monkeypatch):
        model = make_model("masked", k_curves=2, seed=40)
        M.train_step(model, make_batch(model), M.AdamConfig(lr=1e-3), step=1)
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(model, path, step=1)

        def no_draw(self):
            raise AssertionError(f"drew the stream {self.labels}")

        monkeypatch.setattr(RngStream, "generator", no_draw)
        loaded, step, _ = checkpoint.load(path)
        assert step == 1
        for name in ("values", "first", "second"):
            assert getattr(loaded.store, name).tobytes() == getattr(model.store, name).tobytes(), name

    def test_reloaded_model_samples_identically(self, tmp_path):
        model = make_model("gaussian", seed=33)
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(model, path, step=0)
        a, _, _ = checkpoint.load(path)
        b, _, _ = checkpoint.load(path)
        sa = M.sample(a, 8, 4, seed=9)
        sb = M.sample(b, 8, 4, seed=9)
        npt.assert_array_equal(sa[0], sb[0])

    @pytest.mark.parametrize("error, raised", [(OSError(28, "No space left on device"), IoError), (ValueError("x"), ValueError)])
    def test_failed_save_leaves_the_old_checkpoint_whole(self, tmp_path, monkeypatch, error, raised):
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(make_model("gaussian", seed=37), path, step=0)
        old = open(path, "rb").read()
        # the file takes the prefix, the header and the first state buffer, then fails
        written = fail_writes_after(monkeypatch, 3, error)
        model = make_model("gaussian", seed=38)
        with pytest.raises(raised):
            checkpoint.save(model, path, step=3)
        assert written[2] == 8 * model.store.values.size
        assert open(path, "rb").read() == old
        assert os.listdir(tmp_path) == ["m.ckpt"]

    def test_failed_text_write_leaves_the_old_file_whole(self, tmp_path, monkeypatch):
        path = str(tmp_path / "losses.csv")
        write_file(path, "step,loss\n5,0.25\n")
        fail_writes_after(monkeypatch, 0, OSError(28, "No space left on device"))
        with pytest.raises(IoError, match=f"cannot write {path}: .*No space left on device"):
            write_file(path, "step,loss\n5,0.5\n")
        assert open(path, encoding="utf-8").read() == "step,loss\n5,0.25\n"
        assert os.listdir(tmp_path) == ["losses.csv"]

    def test_save_over_a_checkpoint_replaces_it_and_leaves_no_temporary(self, tmp_path):
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(make_model("gaussian", seed=37), path, step=0)
        checkpoint.save(make_model("gaussian", seed=38), path, step=3)
        assert os.listdir(tmp_path) == ["m.ckpt"]
        assert checkpoint.load(path)[1] == 3

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"SCLM" + (99).to_bytes(4, "little") + b"\x00" * 16)
        with pytest.raises(CheckpointVersionMismatch):
            checkpoint.load(str(path))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(CheckpointVersionMismatch):
            checkpoint.load(str(path))

    def test_load_holds_the_state_once(self, tmp_path):
        # the state is read into the buffers the store adopts: a copy of it
        # on top would put the peak at twice the state's bytes.  The default
        # backbone's state is 2.5 MB, against which what load holds besides
        # it (the header, the model's views) is small
        model = M.SclmModel(mode="masked", vocab=tiny_vocab(), cache=build_cache(CurveConfig(l_min=2, l_max=8)),
                            schedule=M.build_schedule(8, "linear"), seed=37)
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(model, path, step=0)
        checkpoint.load(path)  # imports and caches warmed
        tracemalloc.start()
        try:
            checkpoint.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        state_bytes = 24 * model.store.values.size
        assert peak <= 1.25 * state_bytes, (peak, state_bytes)

    def test_corrupt_length_fields_are_typed(self, tmp_path):
        model = make_model("gaussian", seed=35)
        path = tmp_path / "m.ckpt"
        checkpoint.save(model, str(path), step=0)
        data = path.read_bytes()
        header_len = int.from_bytes(data[8:16], "little")
        # the header length claims far more bytes than the file holds; the
        # state's first four bytes read as a count would claim 4 GiB, and
        # the state checksum catches them
        huge_header = data[:8] + (1 << 62).to_bytes(8, "little") + data[16:]
        huge_count = data[: 16 + header_len] + b"\xff" * 4 + data[20 + header_len :]
        for corrupt in (huge_header, huge_count):
            path.write_bytes(corrupt)
            with pytest.raises(IoError):
                checkpoint.load(str(path))

    def test_config_sections_must_name_every_field(self, tmp_path):
        model = make_model("gaussian", seed=36)
        path = tmp_path / "m.ckpt"
        checkpoint.save(model, str(path), step=0)
        data = path.read_bytes()
        header_len = int.from_bytes(data[8:16], "little")
        header = json.loads(data[16 : 16 + header_len])
        assert header["curve"] == dataclasses.asdict(model.cache.config)
        assert header["backbone"] == dataclasses.asdict(model.backbone)
        # drop a field, or add one the dataclass does not have
        for section, key in (("curve", "margin"), ("backbone", "heads"), ("curve", "extra")):
            bad = json.loads(json.dumps(header))
            if key in bad[section]:
                del bad[section][key]
            else:
                bad[section][key] = 1
            payload = json.dumps(bad, sort_keys=True).encode()
            path.write_bytes(data[:8] + len(payload).to_bytes(8, "little") + payload + data[16 + header_len :])
            with pytest.raises(IoError):
                checkpoint.load(str(path))

    def test_load_builds_no_pair(self, tmp_path, monkeypatch):
        model = make_model("gaussian", seed=34)
        path = str(tmp_path / "m.ckpt")
        checkpoint.save(model, path, step=0)
        calls = []
        for name in ("build_pair", "identity_pair"):
            monkeypatch.setattr(splines, name, lambda *a, _name=name, **k: calls.append(_name))
        loaded, _, _ = checkpoint.load(path)
        assert calls == []
        assert loaded.cache.lengths() == model.cache.lengths()

    def test_truncation_at_every_offset_is_typed(self, tmp_path):
        model = M.SclmModel(
            mode="gaussian",
            vocab=tiny_vocab(),
            cache=build_cache(CurveConfig(l_min=2, l_max=4)),
            schedule=M.build_schedule(4, "linear"),
            backbone=M.BackboneConfig(layers=1, heads=1, d_model=2, d_ff=2, max_positions=4, time_dim=2),
            embed_dim=2,
        )
        path = str(tmp_path / "cut.ckpt")
        checkpoint.save(model, path, step=0)
        size = os.path.getsize(path)
        out = str(tmp_path / "samples")
        # cut the file shorter one byte at a time, from its last byte down to empty
        for cut in range(size - 1, -1, -1):
            os.truncate(path, cut)
            with pytest.raises(CurvelangError):
                checkpoint.load(path)
            if cut % 8 == 0:
                assert cli.main(["sample", path, "--length", "4", "--n", "1", "--out", out]) == 2, cut
