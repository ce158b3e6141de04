"""Verification oracles: relaxation, stationarity, fiber decomposition,
importance bounds, distance correlation, and the logit probe."""

import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from curvelang import theory
from curvelang import verify
from curvelang.errors import ConfigError, DegenerateDistribution, NotUnitNorm, ShapeMismatch, TooFewSamples
from curvelang.rng import RngStream
from curvelang.splines import build_pair, identity_pair

from _oracles import centred_dcor, closed_form_dcor, reference_probe_logits, reference_probe_matrix
from test_model import jolt, make_batch, make_model


class TestRelaxation:
    def test_two_axis_hand_value(self):
        E = np.eye(2)
        rec = theory.relaxation_posterior_check(E, np.array([1.0, 0.0]), sigma2=1.0)
        assert rec.passed and rec.asserted
        npt.assert_allclose(rec.detail["bayes"][0], 1.0 / (1.0 + np.exp(-1.0)), atol=1e-12)
        npt.assert_allclose(rec.detail["softmax"][0], 1.0 / (1.0 + np.exp(-1.0)), atol=1e-12)

    def test_identical_embeddings_uniform(self):
        E = np.tile(np.array([[0.6], [0.8]]), (1, 4))
        rec = theory.relaxation_posterior_check(E, np.array([0.6, 0.8]), sigma2=2.0)
        assert rec.passed
        npt.assert_allclose(rec.detail["bayes"], 0.25, atol=1e-12)

    def test_off_sphere_reported_not_asserted(self):
        E = np.eye(3)
        rec = theory.relaxation_posterior_check(E, np.array([1.1, 0.0, 0.0]), sigma2=1.0)
        assert not rec.asserted
        assert rec.residual > 0.0

    def test_non_unit_embeddings_rejected(self):
        with pytest.raises(NotUnitNorm):
            theory.relaxation_posterior_check(2.0 * np.eye(2), np.array([1.0, 0.0]), sigma2=1.0)


class TestLemma1:
    def test_antipodal_vocabulary(self):
        E = np.stack([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], axis=1)
        rec = theory.lemma1_stationarity(E, 0)
        assert rec.asserted and rec.passed
        assert rec.residual < 1e-12

    def test_simplex_vocabulary(self):
        pts = verify._simplex_vocab()
        for y in range(pts.shape[1]):
            rec = theory.lemma1_stationarity(pts, y)
            assert rec.asserted, f"defect unexpectedly large at {y}"
            assert rec.residual < 1e-10

    def test_orthonormal_reported_only(self):
        rec = theory.lemma1_stationarity(np.eye(3), 0)
        assert not rec.asserted
        assert rec.detail["isotropy_defect"] > 0.5
        assert rec.residual > 1e-3


class TestLemma2:
    def test_matched_distributions(self):
        spec = theory.random_fiber_spec(seed=1)
        matched = dataclasses.replace(spec, model_table=spec.data_table.copy())
        rec = theory.lemma2_decomposition_check(matched)
        assert rec.passed
        assert abs(rec.detail["e_kl"]) < 1e-12

    def test_random_tables(self):
        for i in range(25):
            rec = theory.lemma2_decomposition_check(theory.random_fiber_spec(seed=100 + i))
            assert rec.residual < 1e-12, i

    def test_injective_fiber(self):
        spec = theory.random_fiber_spec(n_curves=3, n_sentences=3, seed=7)
        rec = theory.lemma2_decomposition_check(spec)
        assert rec.passed
        assert abs(rec.detail["e_kl"]) < 1e-12  # singleton fibers have deterministic posteriors
        npt.assert_allclose(rec.detail["ce_y"], rec.detail["ce_p"] + rec.detail["constant"], atol=1e-12)

    def test_zero_mass_fiber_rejected(self):
        data = np.array([[0.5, 0.5, 0.0, 0.0]])
        model = np.array([[0.5, 0.5, 0.0, 0.0]])
        spec = theory.ToyFiberSpec(fiber_map=(0, 0, 1, 1), data_table=data, model_table=model)
        with pytest.raises(DegenerateDistribution):
            theory.lemma2_decomposition_check(spec)


class TestLemma3:
    def test_identity_all_ratios_one(self):
        records = theory.lemma3_bound_check(identity_pair(6), n_random=3, seed=0)
        ratio_recs = [r for r in records if r.claim.startswith("lemma3/ratio")]
        assert all(r.passed for r in ratio_recs)
        assert all(abs(r.lhs - 1.0) < 1e-12 for r in ratio_recs)
        assert all(abs(r.rhs - 1.0) < 1e-12 for r in ratio_recs)

    def test_tall_pair_bound_holds(self):
        records = theory.lemma3_bound_check(build_pair(10, 30, 8), n_random=6, seed=1)
        assert all(r.passed for r in records if r.asserted)

    def test_rank_deficient_reported(self):
        records = theory.lemma3_bound_check(build_pair(10, 4, 2), n_random=2, seed=2)
        ratio_recs = [r for r in records if r.claim.startswith("lemma3/ratio")]
        assert all(not r.asserted for r in ratio_recs)
        assert all(r.detail["rank"] == 4 for r in ratio_recs)

    @staticmethod
    def _smooth_and_alternating(length):
        pos = np.arange(length)
        smooth = np.cos(np.pi * pos / (length - 1))[None, :].repeat(3, axis=0)
        alt = np.where(pos % 2 == 0, 1.0, -1.0)[None, :].repeat(3, axis=0)
        alt *= np.linalg.norm(smooth) / np.linalg.norm(alt)
        return smooth, alt

    def test_frequency_ordering_overcomplete(self):
        # with more control points than positions the inverse mapping
        # amplifies oscillation: pinned one-time computation at (16, 32, 4)
        from curvelang.splines import error_importance

        pair = build_pair(16, 32, 4)
        smooth, alt = self._smooth_and_alternating(16)
        assert error_importance(alt, pair.B_pinv) >= error_importance(smooth, pair.B_pinv)

    def test_frequency_ordering_compressive(self):
        # with fewer control points than positions, oscillatory error falls
        # mostly outside the row space and loses importance: the smooth,
        # sentence-level pattern dominates (pinned at (16, 8, 2))
        from curvelang.splines import error_importance

        pair = build_pair(16, 8, 2)
        smooth, alt = self._smooth_and_alternating(16)
        i_smooth = error_importance(smooth, pair.B_pinv)
        i_alt = error_importance(alt, pair.B_pinv)
        assert i_smooth >= 4.0 * i_alt


class TestDistanceCorrelation:
    """The probe's dCov kernel on k = 2 sets of n samples, stacked as (n, 2, d)."""

    def test_self_correlation(self):
        X = RngStream(1, "dc").normal((40, 3))
        matrix = theory._dcor_matrix(theory._dcov_gram(np.stack([X, X], axis=1)))
        assert abs(matrix[0, 1] - 1.0) < 1e-9

    def test_affine_invariance(self):
        X = RngStream(2, "dc").normal((50, 4))
        matrix = theory._dcor_matrix(theory._dcov_gram(np.stack([X, 3.0 * X + 7.5], axis=1)))
        assert abs(matrix[0, 1] - 1.0) < 1e-9

    def test_independent_floor(self):
        # biased-statistic floor for independent 4-D Gaussians at n=500:
        # 100-rep calibration gives mean 0.169, max 0.189; threshold 0.20
        rng = RngStream(3, "dc").generator()
        X = rng.standard_normal((500, 4))
        Y = rng.standard_normal((500, 4))
        assert theory._dcor_matrix(theory._dcov_gram(np.stack([X, Y], axis=1)))[0, 1] < 0.20

    def test_symmetry_and_shift(self):
        rng = RngStream(4, "dc").generator()
        # X is padded to Y's 5 coordinates with zeros, which add no distance
        X = np.pad(rng.standard_normal((30, 2)), ((0, 0), (0, 3)))
        Y = rng.standard_normal((30, 5))
        a = theory._dcor_matrix(theory._dcov_gram(np.stack([X, Y], axis=1)))[0, 1]
        b = theory._dcor_matrix(theory._dcov_gram(np.stack([Y, X], axis=1)))[0, 1]
        assert abs(a - b) < 1e-12
        c = theory._dcor_matrix(theory._dcov_gram(np.stack([X + 11.0, Y], axis=1)))[0, 1]
        assert abs(a - c) < 1e-9

    def test_degenerate_returns_zero(self):
        X = np.ones((10, 2))
        Y = RngStream(5, "dc").normal((10, 2))
        assert theory._dcor_matrix(theory._dcov_gram(np.stack([X, Y], axis=1)))[0, 1] == 0.0

    def test_matches_closed_form(self):
        self._matches(closed_form_dcor)

    def test_matches_double_centred_oracle(self):
        # the kernel shares closed_form_dcor's S1 + S2 - 2·S3 algebra, so it
        # is also checked against the double-centred definition
        self._matches(centred_dcor)

    @staticmethod
    def _matches(oracle):
        rng = RngStream(6, "dc").generator()
        for n, dx, dy in ((2, 1, 1), (7, 1, 3), (25, 3, 2), (40, 5, 5)):
            X = rng.standard_normal((n, dx))
            Y = np.tanh(X.sum(axis=1, keepdims=True)) + 0.5 * rng.standard_normal((n, dy))
            # the narrower set is padded with zero coordinates
            width = max(dx, dy)
            samples = np.stack([np.pad(X, ((0, 0), (0, width - dx))), np.pad(Y, ((0, 0), (0, width - dy)))], axis=1)
            got = theory._dcor_matrix(theory._dcov_gram(samples))[0, 1]
            assert abs(got - oracle(X, Y)) < 1e-12, (n, dx, dy)
        X = rng.standard_normal(30)
        got = theory._dcor_matrix(theory._dcov_gram(np.stack([X, X**2], axis=1)[:, :, None]))[0, 1]
        assert abs(got - oracle(X, X**2)) < 1e-12


class TestLogitProbe:
    def test_zero_noise_gives_zero(self):
        # n_noise below the decode chunk and across two chunks
        for model in (make_model("gaussian", seed=40), jolt(make_model("gaussian", seed=47), seed=47)):
            batch = make_batch(model, n=2)
            for n_noise in (10, 45):
                result = theory.logit_correlation_probe(model, batch, n_noise=n_noise, dropout_p=0.0, noise_scale=0.0, seed=0)
                npt.assert_array_equal(result.matrix, 0.0)
                assert result.mean_offdiag == 0.0

    def test_diagonal_is_one_under_noise(self):
        model = make_model("gaussian", seed=41)
        batch = make_batch(model, n=1)
        result = theory.logit_correlation_probe(model, batch, n_noise=24, dropout_p=0.1, noise_scale=0.1, seed=1)
        npt.assert_allclose(np.diag(result.matrix), 1.0, atol=1e-9)

    def test_matrix_symmetric_in_unit_interval(self):
        model = make_model("gaussian", seed=42)
        batch = make_batch(model, n=2)
        result = theory.logit_correlation_probe(model, batch, n_noise=24, dropout_p=0.1, noise_scale=0.1, seed=2)
        npt.assert_allclose(result.matrix, result.matrix.T, atol=1e-12)
        assert (result.matrix >= 0.0).all() and (result.matrix <= 1.0 + 1e-12).all()

    def test_logits_match_reference_per_perturbation(self):
        # a masked model's sequences are masked, not Gaussian-noised
        for mode in ("gaussian", "baseline-identity", "masked", "masked-identity"):
            model = jolt(make_model(mode, seed=44), seed=44)
            batch = make_batch(model, n=3, seed=44)
            got = list(theory.probe_logits(model, batch, n_noise=12, dropout_p=0.2, noise_scale=0.3, seed=5))
            ref = reference_probe_logits(model, batch, 12, 0.2, 0.3, 5)
            assert len(got) == len(ref) == 3
            for g, r in zip(got, ref):
                npt.assert_allclose(g, r, rtol=0, atol=1e-12, err_msg=mode)

    def test_matrix_matches_per_pair_reference(self):
        # n_noise below the decode chunk, equal to it, and off its multiples
        for mode in ("gaussian", "baseline-identity"):
            model = jolt(make_model(mode, seed=46), seed=46)
            batch = make_batch(model, n=2, seed=46)
            for n_noise in (2, 9, 32, 45, 70):
                got = theory.logit_correlation_probe(model, batch, n_noise=n_noise, dropout_p=0.2, noise_scale=0.3, seed=6)
                ref = reference_probe_matrix(model, batch, n_noise, 0.2, 0.3, 6)
                npt.assert_allclose(got.matrix, ref, rtol=0, atol=1e-12, err_msg=f"{mode} n_noise={n_noise}")

    def test_chunked_logits_equal_one_stack(self, monkeypatch):
        model = jolt(make_model("gaussian", seed=48), seed=48)
        batch = make_batch(model, n=2, seed=48)

        def logits(chunk):
            monkeypatch.setattr(theory, "_PROBE_CHUNK", chunk)
            return list(theory.probe_logits(model, batch, n_noise=70, dropout_p=0.2, noise_scale=0.3, seed=8))

        one_stack = logits(70)
        for chunk in (theory._PROBE_CHUNK, 7, 1):
            for got, want in zip(logits(chunk), one_stack):
                assert np.array_equal(got, want), chunk

    def test_peak_memory_is_one_stack_plus_buffers(self):
        # the probe holds the (L, n²) centred stack, a few (n, n) buffers,
        # one decode chunk and a sequence's logits; an (n, n, |V|)
        # difference tensor or the whole perturbation stack would exceed it
        model = jolt(make_model("gaussian", seed=45), seed=45)
        batch = make_batch(model, n=2, seed=45)
        n_noise, length = 200, 8
        vocab = model.embedding.weight.shape[1]
        chunk_rows = theory._PROBE_CHUNK * model.cache.get(length).N
        widest = max(model.backbone.d_model, model.embed_dim, length)
        bound = 8 * ((length + 3) * n_noise**2 + 4 * chunk_rows * widest + 2 * n_noise * length * vocab)
        tracemalloc.start()
        try:
            theory.logit_correlation_probe(model, batch, n_noise=n_noise, dropout_p=0.1, noise_scale=0.1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, (peak, bound)

    def test_peak_memory_has_no_length_by_n_noise_squared_term(self):
        # an (L, n²) stack of centred distance matrices alone would take
        # 22 MiB at L = 32, n_noise = 300; the blocked kernel holds two
        # 1 MiB distance blocks, a sequence's logits and their transpose
        length, n_noise = 32, 300
        model = jolt(make_model("gaussian", seed=45, length=length), seed=45)
        batch = make_batch(model, n=2, length=length, seed=45)
        tracemalloc.start()
        try:
            theory.logit_correlation_probe(model, batch, n_noise=n_noise, dropout_p=0.1, noise_scale=0.1, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, peak

    def test_blocks_of_one_row_and_a_short_last_block(self, monkeypatch):
        model = jolt(make_model("gaussian", seed=46), seed=46)
        batch = make_batch(model, n=2, seed=46)
        n_noise, length = 45, len(batch[0])
        ref = reference_probe_matrix(model, batch, n_noise, 0.2, 0.3, 6)
        rng = RngStream(7, "blocks").generator()
        samples = rng.standard_normal((n_noise, 5, 3))
        samples[:, 2] = samples[0, 2]
        # rows per block: 1, 4 (a last block of 1 row), 7 (of 3 rows), all
        for rows in (1, 4, 7, n_noise):
            monkeypatch.setattr(theory, "_DCOV_BLOCK", rows * length * n_noise)
            got = theory.logit_correlation_probe(model, batch, n_noise=n_noise, dropout_p=0.2, noise_scale=0.3, seed=6)
            npt.assert_allclose(got.matrix, ref, rtol=0, atol=1e-12, err_msg=f"{rows} rows")
            monkeypatch.setattr(theory, "_DCOV_BLOCK", rows * 5 * n_noise)
            matrix = theory._dcor_matrix(theory._dcov_gram(samples))
            assert not matrix[2].any() and not matrix[:, 2].any(), rows
            for i in (0, 1, 3, 4):
                for j in (0, 1, 3, 4):
                    assert abs(matrix[i, j] - centred_dcor(samples[:, i], samples[:, j])) < 1e-12, (rows, i, j)

    @pytest.mark.parametrize(
        "settings, error",
        [
            ({"n_noise": 1}, TooFewSamples),
            ({"n_noise": 0}, TooFewSamples),
            ({"n_noise": -3}, TooFewSamples),
            ({"dropout_p": 1.0}, ConfigError),
            ({"dropout_p": 1.5}, ConfigError),
            ({"dropout_p": -0.1}, ConfigError),
            ({"dropout_p": float("nan")}, ConfigError),
            ({"noise_scale": -1.0}, ConfigError),
            ({"noise_scale": float("inf")}, ConfigError),
            ({"noise_scale": float("nan")}, ConfigError),
        ],
    )
    def test_bad_settings_typed(self, settings, error):
        model = make_model("gaussian", seed=49)
        batch = make_batch(model, n=1)
        kwargs = {"n_noise": 4, "dropout_p": 0.1, "noise_scale": 0.1, **settings}
        with pytest.raises(error):
            theory.probe_logits(model, batch, **kwargs)
        with pytest.raises(error):
            theory.logit_correlation_probe(model, batch, **kwargs)

    def test_mixed_lengths_rejected(self):
        model = make_model("gaussian", seed=43)
        with pytest.raises(ShapeMismatch):
            theory.logit_correlation_probe(model, [np.zeros(4, dtype=int), np.zeros(5, dtype=int)], n_noise=4)


class TestSuites:
    def test_all_suites_pass(self):
        for name in ("lemma1", "lemma2", "lemma3", "relaxation"):
            records = verify.run_suite(name, seed=0)
            assert verify.all_asserted_pass(records), name
            assert any(not r.asserted for r in records) or name in ("lemma2",)

    def test_all_is_union(self):
        all_records = verify.run_suite("all", seed=0)
        names = {r.claim.split("/")[0] for r in all_records}
        assert {"lemma1", "lemma2", "lemma3", "relaxation"} <= names

    def test_unknown_suite(self):
        from curvelang.errors import ConfigError

        with pytest.raises(ConfigError):
            verify.run_suite("lemma9")

    def test_table_render(self):
        records = verify.run_suite("relaxation", seed=0)
        table = verify.render_table(records)
        assert "relaxation" in table
        assert "asserted checks passed" in table
