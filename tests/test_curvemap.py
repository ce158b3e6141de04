"""Hyperparameter resolution, the basis cache, and the model's round-trip mappings."""

import json

import numpy as np
import numpy.testing as npt
import pytest

from curvelang import curvemap as cm
from curvelang import model as M
from curvelang import splines
from curvelang.autodiff import Tensor
from curvelang.corpus import build_vocab
from curvelang.errors import ConfigError, LengthOutOfRange, LengthTooShort, ShapeMismatch
from curvelang.rng import RngStream

from _oracles import reference_reconstruction_error


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
        cache = cm.BasisCache(cm.CurveConfig(l_min=4, l_max=8))
        with pytest.raises(LengthOutOfRange):
            cache.get(3)
        with pytest.raises(LengthOutOfRange):
            cache.get(9)

    def test_any_length_maps_whatever_the_range(self):
        # the default range is [2, 250]; only BasisCache.get checks it
        assert cm.resolve_dims(300, cm.CurveConfig()) == (600, 60)

    def test_degree_below_1_rejected(self):
        for eta_ratio, eta_fixed, message in ((None, 0, "eta_fixed"), (None, -3, "eta_fixed"), (-0.5, None, "eta_ratio"), (-1e-9, None, "eta_ratio")):
            with pytest.raises(ConfigError, match=message):
                cm.CurveConfig(eta_ratio=eta_ratio, eta_fixed=eta_fixed)
        # the default sweep grid's eta_ratio 0.0 stays valid: the floor of 2 applies
        assert cm.resolve_dims(25, cm.CurveConfig(eta_ratio=0.0)) == (50, 2)
        assert cm.resolve_dims(25, cm.CurveConfig(eta_ratio=None, eta_fixed=1)) == (50, 1)

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


def mapping_model(identity=False, l_max=16):
    cache = cm.build_cache(cm.CurveConfig(n_ratio=2.0, eta_ratio=0.1, l_min=2, l_max=l_max, identity=identity))
    return M.SclmModel(
        mode="baseline-identity" if identity else "gaussian",
        vocab=build_vocab([list("ab")]),
        cache=cache,
        schedule=M.build_schedule(4, "linear"),
        backbone=M.BackboneConfig(layers=1, heads=1, d_model=4, d_ff=4, max_positions=64, time_dim=2),
        embed_dim=4,
    )


def to_points(model, E):
    """P = E @ B_pinv through ``SclmModel.to_points``, on a batch of one."""
    return model.to_points(Tensor(E[None])).data[0]


def to_words(model, P, length):
    """E = P @ B through ``SclmModel.to_words``, on a batch of one."""
    return model.to_words(Tensor(P[None]), length).data[0]


class TestMappings:
    @pytest.fixture()
    def model(self):
        return mapping_model()

    def test_zero_maps_to_zero(self, model):
        points = to_points(model, np.zeros((5, 8)))
        npt.assert_array_equal(points, 0.0)
        npt.assert_array_equal(to_words(model, points, 8), 0.0)

    def test_round_trip_in_left_inverse_regime(self, model):
        rng = RngStream(3, "round").generator()
        E = rng.standard_normal((1, 3))
        back = to_words(model, to_points(model, E), 3)
        npt.assert_allclose(back, E, atol=1e-10)

    def test_linearity(self, model):
        rng = RngStream(4, "lin").generator()
        E1 = rng.standard_normal((4, 10))
        E2 = rng.standard_normal((4, 10))
        a, b = 1.7, -0.45
        lhs = to_points(model, a * E1 + b * E2)
        rhs = a * to_points(model, E1) + b * to_points(model, E2)
        scale = max(np.abs(rhs).max(), 1.0)
        assert np.abs(lhs - rhs).max() / scale < 1e-12

    def test_scaling(self, model):
        rng = RngStream(5, "scale").generator()
        E = rng.standard_normal((3, 7))
        npt.assert_allclose(to_points(model, 2.0 * E), 2.0 * to_points(model, E), atol=1e-12)

    def test_replicated_control_point(self, model):
        pair = model.cache.get(9)
        point = np.array([[2.0], [-1.0], [0.5]])
        P = np.tile(point, (1, pair.N))
        npt.assert_allclose(to_words(model, P, 9), np.tile(point, (1, 9)), atol=1e-12)

    def test_convex_hull_membership(self, model):
        # every embedded value lies between the min and max of its
        # contributing control points, coordinatewise
        rng = RngStream(6, "hull").generator()
        pair = model.cache.get(11)
        P = rng.standard_normal((2, pair.N))
        E = to_words(model, P, 11)
        B = pair.B
        for j in range(11):
            support = np.flatnonzero(B[:, j] > 0)
            assert len(support) <= pair.eta + 1
            low = P[:, support].min(axis=1) - 1e-12
            high = P[:, support].max(axis=1) + 1e-12
            assert (E[:, j] >= low).all() and (E[:, j] <= high).all()

    def test_shape_mismatch(self, model):
        with pytest.raises(ShapeMismatch):
            to_words(model, np.zeros((2, 3)), 9)

    def test_round_trip_contraction(self, model):
        rng = RngStream(8, "contract").generator()
        eps = np.finfo(np.float64).eps
        for length in model.cache.lengths():
            pair = model.cache.get(length)
            E = rng.standard_normal((3, length))
            recon = to_words(model, to_points(model, E), length)
            assert np.linalg.norm(E - recon) <= np.linalg.norm(E) * (1.0 + pair.cond * eps)
            if pair.rank == length:
                rel = np.linalg.norm(E - recon) / np.linalg.norm(E)
                assert rel < 1e-8

    def test_identity_mode_passes_through_inside_the_cache_range(self):
        model = mapping_model(identity=True, l_max=6)
        E = RngStream(9, "ident").generator().standard_normal((3, 6))
        npt.assert_array_equal(to_points(model, E), E)
        npt.assert_array_equal(to_words(model, E, 6), E)
        for length in (1, 7):
            with pytest.raises(LengthOutOfRange):
                to_points(model, np.zeros((3, length)))
            with pytest.raises(LengthOutOfRange):
                to_words(model, np.zeros((3, length)), length)


def recon_cell(length, n_ratio, eta_ratio, trials, seed, dim=16):
    """The one row of a one-cell sweep."""
    (row,) = cm.reconstruction_sweep((length,), (n_ratio,), (eta_ratio,), trials=trials, seed=seed, dim=dim).rows
    return row


class TestReconstruction:
    def test_left_inverse_regime_is_exact(self):
        # eta = max(int(50 * 0.0), 2) = 2 at N = 50: full column rank 25
        row = recon_cell(25, 2.0, 0.0, trials=100, seed=0)
        assert row.rank == 25
        assert row.mse < 1e-10

    def test_degree_hurts_and_points_help(self):
        assert recon_cell(25, 1.0, 0.66, trials=50, seed=1).mse > recon_cell(25, 3.0, 0.0, trials=50, seed=1).mse

    def test_longer_sentences_not_easier(self):
        assert recon_cell(250, 1.0, 0.33, trials=30, seed=2).mse >= recon_cell(25, 1.0, 0.33, trials=30, seed=2).mse

    @pytest.mark.parametrize("n_ratio, eta_ratio, rank", [(1.0, 0.33, 155), (3.0, 0.0, 250)])
    def test_matches_one_trial_at_a_time(self, n_ratio, eta_ratio, rank):
        pair = cm.BasisCache(cm.CurveConfig(n_ratio=n_ratio, eta_ratio=eta_ratio)).get(250)
        assert pair.rank == rank
        expected = reference_reconstruction_error(pair, trials=40, seed=4, dim=16)
        assert recon_cell(250, n_ratio, eta_ratio, trials=40, seed=4, dim=16).mse == expected

    def test_deterministic(self):
        assert recon_cell(50, 1.5, 0.33, trials=10, seed=9) == recon_cell(50, 1.5, 0.33, trials=10, seed=9)


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
        assert lines[0] == "L,n_ratio,eta_ratio,mse,rank,cond"
        assert len(lines) == 1 + len(small_table.rows)
        for line, row in zip(lines[1:], small_table.rows):
            assert line.split(",") == [str(row.length), repr(row.n_ratio), repr(row.eta_ratio), repr(row.mse),
                                       str(row.rank), repr(row.cond)]

    def test_json_round_trip(self, small_table):
        payload = json.loads(small_table.to_json())
        assert payload[0]["L"] == 25
        assert set(payload[0]) == {"L", "n_ratio", "eta_ratio", "mse", "rank", "cond"}
        for item, row in zip(payload, small_table.rows):
            assert (item["mse"], item["rank"], item["cond"]) == (row.mse, row.rank, row.cond)

    def test_rows_report_the_rank_and_cond_of_their_basis(self, small_table):
        # rank and cond from one plain SVD under the same relative cutoff;
        # cond reaches 5e9 here, where two SVDs agree on it only to about
        # eps * cond, so it is compared as sigma_min / sigma_max
        for row in small_table.rows:
            cfg = cm.CurveConfig(n_ratio=row.n_ratio, eta_ratio=row.eta_ratio, l_min=2, l_max=250)
            n_points, eta = cm.resolve_dims(row.length, cfg)
            s = np.linalg.svd(splines.basis_matrix(row.length, n_points, eta), compute_uv=False)
            kept = s[s > 1e-12 * max(n_points, row.length) * s[0]]
            assert row.rank == kept.size, row
            assert abs(1.0 / row.cond - kept[-1] / kept[0]) <= 1e-13, row
        assert {row.rank < row.length for row in small_table.rows} == {False, True}

    def test_best_cell_in_l25_slice(self):
        table = cm.reconstruction_sweep(lengths=(25,), n_ratios=(1.0, 2.0, 3.0), eta_ratios=(0.0, 0.33, 0.66), trials=30, seed=0)
        by_key = {(r.n_ratio, r.eta_ratio): r.mse for r in table.rows}
        assert min(by_key, key=by_key.get) == (3.0, 0.0)

    def test_rows_equal_reconstruction_error_of_their_cell(self):
        # the sweep draws each length's noise once and shares it across cells
        table = cm.reconstruction_sweep(lengths=(30, 75), n_ratios=(0.5, 1.0, 2.5), eta_ratios=(0.0, 0.66), trials=12, seed=5, dim=6)
        assert len(table.rows) == 12
        for row in table.rows:
            pair = cm.BasisCache(cm.CurveConfig(n_ratio=row.n_ratio, eta_ratio=row.eta_ratio)).get(row.length)
            assert row.mse == reference_reconstruction_error(pair, 12, 5, 6)

    def test_bad_trials_and_lengths_are_typed(self):
        with pytest.raises(ConfigError):
            cm.reconstruction_sweep(lengths=(25,), trials=0)
        for length in (1, -3):
            with pytest.raises(LengthTooShort):
                cm.reconstruction_sweep(lengths=(length,), trials=2)
        for dim in (0, -1):
            with pytest.raises(ConfigError, match="dim"):
                cm.reconstruction_sweep(lengths=(25,), trials=2, dim=dim)

    def test_empty_sets_rejected(self):
        with pytest.raises(ConfigError):
            cm.reconstruction_sweep(lengths=(), trials=1)
