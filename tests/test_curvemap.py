"""Hyperparameter resolution, the basis cache, and round-trip mappings."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from curvelang import curvemap as cm
from curvelang import splines
from curvelang.errors import ConfigError, LengthOutOfRange, ShapeMismatch
from curvelang.rng import RngStream


class TestResolveDims:
    def test_ratio_degree(self):
        cfg = cm.CurveConfig(n_ratio=2.5, eta_ratio=0.1, l_min=2, l_max=250)
        assert cm.resolve_dims(20, cfg) == (50, 5)

    def test_fixed_degree(self):
        cfg = cm.CurveConfig(n_ratio=3.0, eta_ratio=None, eta_fixed=5)
        assert cm.resolve_dims(10, cfg) == (30, 5)

    def test_compressive_ratio_clamps_degree(self):
        cfg = cm.CurveConfig(n_ratio=0.2, eta_ratio=0.1)
        assert cm.resolve_dims(10, cfg) == (2, 1)

    def test_out_of_range(self):
        cfg = cm.CurveConfig(l_min=4, l_max=8)
        with pytest.raises(LengthOutOfRange):
            cm.resolve_dims(3, cfg)
        with pytest.raises(LengthOutOfRange):
            cm.resolve_dims(9, cfg)

    def test_exactly_one_eta_spec(self):
        with pytest.raises(ConfigError):
            cm.CurveConfig(eta_ratio=0.1, eta_fixed=5)
        with pytest.raises(ConfigError):
            cm.CurveConfig(eta_ratio=None, eta_fixed=None)


class TestBasisCache:
    def test_default_range_count(self):
        cache = cm.build_cache(cm.CurveConfig(n_ratio=2.0, eta_ratio=0.1, l_min=2, l_max=250))
        assert len(cache) == 249
        assert cache.lengths() == list(range(2, 251))
        assert 2 in cache and 250 in cache
        assert 1 not in cache and 251 not in cache

    def test_lookup_matches_length(self):
        cache = cm.build_cache(cm.CurveConfig(l_min=2, l_max=12))
        assert cache.get(2).L == 2
        assert cache.get(12).L == 12

    def test_deterministic_rebuild(self):
        cfg = cm.CurveConfig(l_min=2, l_max=20)
        a = cm.build_cache(cfg)
        b = cm.build_cache(cfg)
        for length in a.lengths():
            assert np.array_equal(a.get(length).B, b.get(length).B)
            assert np.array_equal(a.get(length).B_pinv, b.get(length).B_pinv)

    def test_missing_length_raises(self):
        for identity in (False, True):
            cache = cm.build_cache(cm.CurveConfig(l_min=4, l_max=8, identity=identity))
            for length in (3, 9):
                with pytest.raises(LengthOutOfRange):
                    cache.get(length)

    def test_build_cache_builds_no_pair(self, monkeypatch):
        calls = []
        for name in ("build_pair", "identity_pair", "basis_matrix", "basis_vector", "pseudo_inverse"):
            monkeypatch.setattr(splines, name, lambda *a, _name=name, **k: calls.append(_name))
        cm.build_cache(cm.CurveConfig(l_min=2, l_max=250))
        cm.build_cache(cm.CurveConfig(l_min=2, l_max=250, identity=True))
        assert calls == []

    def test_get_builds_each_pair_once(self, monkeypatch):
        built = []
        original = splines.build_pair

        def counting(length, *args, **kwargs):
            built.append(length)
            return original(length, *args, **kwargs)

        monkeypatch.setattr(splines, "build_pair", counting)
        cache = cm.build_cache(cm.CurveConfig(l_min=2, l_max=40))
        first = cache.get(17)
        assert cache.get(17) is first
        assert cache.get(5) is cache.get(5)
        assert built == [17, 5]

    def test_identity_cache(self):
        cache = cm.build_cache(cm.CurveConfig(l_min=2, l_max=6, identity=True))
        npt.assert_array_equal(cache.get(4).B, np.eye(4))
        npt.assert_array_equal(cache.get(4).B_pinv, np.eye(4))


class TestMappings:
    @pytest.fixture()
    def cache(self):
        return cm.build_cache(cm.CurveConfig(n_ratio=2.0, eta_ratio=0.1, l_min=2, l_max=16))

    def test_zero_maps_to_zero(self, cache):
        curve = cm.embed_to_curve(cm.EmbeddingSequence(np.zeros((5, 8))), cache)
        npt.assert_array_equal(curve.points, 0.0)
        back = cm.curve_to_embed(curve, cache)
        npt.assert_array_equal(back.values, 0.0)

    def test_round_trip_in_left_inverse_regime(self, cache):
        rng = RngStream(3, "round").generator()
        E = rng.standard_normal((1, 3))
        cfg = cm.CurveConfig(n_ratio=2.0, eta_ratio=0.1, l_min=2, l_max=16)
        cache6 = cm.build_cache(cfg)
        curve = cm.embed_to_curve(cm.EmbeddingSequence(E), cache6)
        back = cm.curve_to_embed(curve, cache6)
        npt.assert_allclose(back.values, E, atol=1e-10)

    def test_linearity(self, cache):
        rng = RngStream(4, "lin").generator()
        E1 = rng.standard_normal((4, 10))
        E2 = rng.standard_normal((4, 10))
        a, b = 1.7, -0.45
        lhs = cm.embed_to_curve(cm.EmbeddingSequence(a * E1 + b * E2), cache).points
        rhs = a * cm.embed_to_curve(cm.EmbeddingSequence(E1), cache).points + b * cm.embed_to_curve(
            cm.EmbeddingSequence(E2), cache
        ).points
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() / scale < 1e-12

    def test_scaling(self, cache):
        rng = RngStream(5, "scale").generator()
        E = rng.standard_normal((3, 7))
        doubled = cm.embed_to_curve(cm.EmbeddingSequence(2.0 * E), cache).points
        npt.assert_allclose(doubled, 2.0 * cm.embed_to_curve(cm.EmbeddingSequence(E), cache).points, atol=1e-12)

    def test_replicated_control_point(self, cache):
        pair = cache.get(9)
        point = np.array([[2.0], [-1.0], [0.5]])
        P = np.tile(point, (1, pair.N))
        E = cm.curve_to_embed(cm.SentenceCurve(points=P, length_l=9), cache)
        npt.assert_allclose(E.values, np.tile(point, (1, 9)), atol=1e-12)

    def test_convex_hull_membership(self, cache):
        # every embedded value lies between the min and max of its
        # contributing control points, coordinatewise
        rng = RngStream(6, "hull").generator()
        pair = cache.get(11)
        P = rng.standard_normal((2, pair.N))
        E = cm.curve_to_embed(cm.SentenceCurve(points=P, length_l=11), cache).values
        for j in range(11):
            support = np.flatnonzero(pair.B[:, j] > 0)
            assert len(support) <= pair.eta + 1
            low = P[:, support].min(axis=1) - 1e-12
            high = P[:, support].max(axis=1) + 1e-12
            assert (E[:, j] >= low).all() and (E[:, j] <= high).all()

    def test_shape_mismatch(self, cache):
        with pytest.raises(ShapeMismatch):
            cm.curve_to_embed(cm.SentenceCurve(points=np.zeros((2, 3)), length_l=9), cache)

    def test_round_trip_contraction(self, cache):
        rng = RngStream(8, "contract").generator()
        eps = np.finfo(np.float64).eps
        for length in cache.lengths():
            pair = cache.get(length)
            E = rng.standard_normal((3, length))
            recon = (E @ pair.B_pinv) @ pair.B
            assert np.linalg.norm(E - recon) <= np.linalg.norm(E) * (1.0 + pair.cond * eps)
            if pair.rank == length:
                rel = np.linalg.norm(E - recon) / np.linalg.norm(E)
                assert rel < 1e-8


class TestReconstruction:
    def test_left_inverse_regime_is_exact(self):
        cfg = cm.CurveConfig(n_ratio=2.0, eta_ratio=None, eta_fixed=2, l_min=2, l_max=250)
        mse = cm.reconstruction_error(25, cfg, trials=100, seed=0)
        assert mse < 1e-10

    def test_degree_hurts_and_points_help(self):
        lossy = cm.CurveConfig(n_ratio=1.0, eta_ratio=0.66, l_min=2, l_max=250)
        clean = cm.CurveConfig(n_ratio=3.0, eta_ratio=0.0, l_min=2, l_max=250)
        assert cm.reconstruction_error(25, lossy, trials=50, seed=1) > cm.reconstruction_error(
            25, clean, trials=50, seed=1
        )

    def test_longer_sentences_not_easier(self):
        cfg = cm.CurveConfig(n_ratio=1.0, eta_ratio=0.33, l_min=2, l_max=250)
        assert cm.reconstruction_error(250, cfg, trials=30, seed=2) >= cm.reconstruction_error(
            25, cfg, trials=30, seed=2
        )

    def test_deterministic(self):
        cfg = cm.CurveConfig(n_ratio=1.5, eta_ratio=0.33, l_min=2, l_max=250)
        assert cm.reconstruction_error(50, cfg, trials=10, seed=9) == cm.reconstruction_error(
            50, cfg, trials=10, seed=9
        )


@pytest.fixture(scope="module")
def small_table():
    return cm.reconstruction_sweep(lengths=(25, 50), n_ratios=(1.0, 2.0), eta_ratios=(0.0, 0.33), trials=20, seed=0)


class TestSweep:

    def test_row_count_and_order(self, small_table):
        assert len(small_table.rows) == 2 * 2 * 2
        keys = [(r.length, r.n_ratio, r.eta_ratio) for r in small_table.rows]
        assert keys == sorted(keys)

    def test_nonnegative(self, small_table):
        assert all(r.mse >= 0.0 for r in small_table.rows)

    def test_csv_shape(self, small_table):
        lines = small_table.to_csv().strip().split("\n")
        assert lines[0] == "L,n_ratio,eta_ratio,mse"
        assert len(lines) == 1 + len(small_table.rows)

    def test_json_round_trip(self, small_table):
        payload = json.loads(small_table.to_json())
        assert payload[0]["L"] == 25
        assert set(payload[0]) == {"L", "n_ratio", "eta_ratio", "mse"}

    def test_best_cell_in_l25_slice(self):
        table = cm.reconstruction_sweep(lengths=(25,), n_ratios=(1.0, 2.0, 3.0), eta_ratios=(0.0, 0.33, 0.66), trials=30, seed=0)
        by_key = {(r.n_ratio, r.eta_ratio): r.mse for r in table.rows}
        assert min(by_key, key=by_key.get) == (3.0, 0.0)

    def test_empty_sets_rejected(self):
        with pytest.raises(ConfigError):
            cm.reconstruction_sweep(lengths=(), trials=1)
