"""Basis construction, pseudo-inverse contracts, and spectral analysis."""

import os
import subprocess
import sys

import numpy as np
import numpy.testing as npt
import pytest

from curvelang import curvemap as cm
from curvelang import splines as sp
from curvelang.errors import DegreeTooHigh, LengthTooShort, NumericalFailure, OutOfRange, ShapeMismatch
from curvelang.rng import RngStream

from _oracles import jacobi_eigenvalues, reference_basis_columns, reference_basis_matrix, reference_pseudo_inverse


class TestClampedKnots:
    def test_single_interior_knot(self):
        kv = sp.clamped_knots(4, 2)
        npt.assert_allclose(kv.knots, [0, 0, 0, 0.5, 1, 1, 1])

    def test_bezier_case_has_no_interior(self):
        kv = sp.clamped_knots(3, 2)
        npt.assert_allclose(kv.knots, [0, 0, 0, 1, 1, 1])

    def test_degree_too_high(self):
        with pytest.raises(DegreeTooHigh):
            sp.clamped_knots(2, 2)

    def test_length_invariant(self):
        for n, eta in [(5, 1), (8, 3), (12, 5), (3, 2)]:
            kv = sp.clamped_knots(n, eta)
            assert len(kv.knots) == n + eta + 1
            assert kv.n_basis == n
            npt.assert_allclose(kv.knots[: eta + 1], 0.0)
            npt.assert_allclose(kv.knots[-(eta + 1) :], 1.0)
            interior = kv.knots[eta + 1 : -(eta + 1)]
            if interior.size > 1:
                npt.assert_allclose(np.diff(interior), np.diff(interior)[0])


class TestBasisVector:
    def test_endpoint_interpolation(self):
        kv = sp.clamped_knots(6, 3)
        npt.assert_allclose(sp.basis_vector(0.0, kv), np.eye(6)[0])
        npt.assert_allclose(sp.basis_vector(1.0, kv), np.eye(6)[5])

    def test_quadratic_bezier_weights(self):
        # (1-g)^2, 2g(1-g), g^2 at g = 0.5
        kv = sp.clamped_knots(3, 2)
        npt.assert_allclose(sp.basis_vector(0.5, kv), [0.25, 0.5, 0.25], atol=1e-15)

    def test_out_of_range(self):
        kv = sp.clamped_knots(4, 2)
        with pytest.raises(OutOfRange):
            sp.basis_vector(-0.001, kv)
        with pytest.raises(OutOfRange):
            sp.basis_vector(1.001, kv)

    def test_partition_of_unity_randomized(self):
        rng = RngStream(11, "pou").generator()
        for _ in range(10_000):
            n = int(rng.integers(2, 61))
            eta = int(rng.integers(1, n))
            kv = sp.clamped_knots(n, eta)
            gamma = float(rng.random())
            vec = sp.basis_vector(gamma, kv)
            assert abs(vec.sum() - 1.0) < 1e-12
            assert vec.min() >= 0.0 and vec.max() <= 1.0
            assert np.count_nonzero(vec) <= eta + 1

    def test_local_support_at_endpoints(self):
        kv = sp.clamped_knots(9, 4)
        for gamma in (0.0, 1.0, 0.25, 0.75):
            assert np.count_nonzero(sp.basis_vector(gamma, kv)) <= 5


class TestSampleIndices:
    def test_two_points_with_margin(self):
        npt.assert_allclose(sp.sample_indices(2, 0.01), [0.01, 0.99])

    def test_no_margin(self):
        npt.assert_allclose(sp.sample_indices(3, 0.0), [0.0, 0.5, 1.0])

    def test_five_points(self):
        npt.assert_allclose(sp.sample_indices(5, 0.01), [0.01, 0.255, 0.5, 0.745, 0.99])

    def test_too_short(self):
        with pytest.raises(LengthTooShort):
            sp.sample_indices(1, 0.01)

    def test_strictly_increasing_uniform(self):
        g = sp.sample_indices(17, 0.03)
        diffs = np.diff(g)
        assert (diffs > 0).all()
        npt.assert_allclose(diffs, diffs[0])


class TestBasisMatrix:
    def test_endpoint_columns(self):
        B = sp.basis_matrix(2, 3, 2, 0.0)
        npt.assert_allclose(B[:, 0], [1, 0, 0])
        npt.assert_allclose(B[:, 1], [0, 0, 1])

    def test_column_sums(self):
        for length, n, eta in [(7, 12, 3), (4, 4, 2), (9, 5, 2)]:
            B = sp.basis_matrix(length, n, eta)
            npt.assert_allclose(B.sum(axis=0), 1.0, atol=1e-12)

    def test_middle_column_bezier(self):
        B = sp.basis_matrix(3, 3, 2, 0.0)
        npt.assert_allclose(B[:, 1], [0.25, 0.5, 0.25], atol=1e-15)


def sweep_cells():
    """The (L, N, eta) of each of the 150 default sweep cells, in sweep order."""
    cells = []
    for length in cm.DEFAULT_SWEEP_LENGTHS:
        for n_ratio in cm.DEFAULT_SWEEP_N_RATIOS:
            for eta_ratio in cm.DEFAULT_SWEEP_ETA_RATIOS:
                config = cm.CurveConfig(n_ratio=n_ratio, eta_ratio=eta_ratio, l_max=max(length, 250))
                cells.append((length,) + cm.resolve_dims(length, config))
    return cells


def highest_degree_sweep_cells(count=5):
    """The (L, N, eta) of the default sweep's ``count`` highest-degree cells."""
    return sorted(set(sweep_cells()), key=lambda cell: (cell[2], cell))[-count:]


class TestBasisOracle:
    """The array evaluator against the scalar Cox-de Boor recursion, bit for bit."""

    def test_default_cache_lengths(self):
        config = cm.CurveConfig()
        for length in range(2, 65):
            n_points, eta = cm.resolve_dims(length, config)
            kv = sp.clamped_knots(n_points, eta)
            gammas = sp.sample_indices(length, config.margin)
            expected = reference_basis_matrix(kv.knots, eta, gammas)
            assert np.array_equal(sp.basis_matrix(length, n_points, eta, config.margin), expected), length

    def test_high_degree_sweep_cells(self):
        # cells whose degree exceeds 24, with and without the margin, so
        # the columns at gamma = 0 and gamma = 1 are covered too
        cells = []
        for length in cm.DEFAULT_SWEEP_LENGTHS:
            for n_ratio in cm.DEFAULT_SWEEP_N_RATIOS:
                for eta_ratio in cm.DEFAULT_SWEEP_ETA_RATIOS:
                    config = cm.CurveConfig(n_ratio=n_ratio, eta_ratio=eta_ratio, l_max=max(length, 250))
                    n_points, eta = cm.resolve_dims(length, config)
                    if 24 < eta <= 49:
                        cells.append((length, n_points, eta))
        rng = RngStream(12, "oracle-cells").generator()
        for i in rng.choice(len(cells), size=min(3, len(cells)), replace=False):
            length, n_points, eta = cells[int(i)]
            kv = sp.clamped_knots(n_points, eta)
            for margin in (0.01, 0.0):
                gammas = sp.sample_indices(length, margin)
                expected = reference_basis_matrix(kv.knots, eta, gammas)
                assert np.array_equal(sp.basis_matrix(length, n_points, eta, margin), expected)
            for gamma in (0.0, 1.0):
                assert np.array_equal(sp.basis_vector(gamma, kv), reference_basis_matrix(kv.knots, eta, [gamma])[:, 0])

    def test_highest_degree_sweep_cells_match_index_major_layout(self):
        # the scalar recursion is too slow past eta 49; the sweep reaches 495
        top = highest_degree_sweep_cells()
        assert top[0][2] > 300
        for length, n_points, eta in top:
            kv = sp.clamped_knots(n_points, eta)
            for margin in (0.01, 0.0):
                gammas = sp.sample_indices(length, margin)
                B = sp.basis_matrix(length, n_points, eta, margin)
                assert B.tobytes() == reference_basis_columns(kv, gammas).tobytes(), (length, n_points, eta, margin)

    def test_random_basis_vectors(self):
        rng = RngStream(13, "oracle-vec").generator()
        for _ in range(500):
            n = int(rng.integers(2, 40))
            eta = int(rng.integers(1, n))
            kv = sp.clamped_knots(n, eta)
            # a random index, or one that sits exactly on a knot
            gamma = float(rng.random()) if rng.random() < 0.5 else float(kv.knots[int(rng.integers(0, len(kv.knots)))])
            assert np.array_equal(sp.basis_vector(gamma, kv), reference_basis_matrix(kv.knots, eta, [gamma])[:, 0])


class TestBandStorage:
    """A pair keeps B as its (eta+1, L) band and rebuilds the dense matrix on access."""

    @staticmethod
    def default_cells():
        config = cm.CurveConfig()
        return [(length,) + cm.resolve_dims(length, config) for length in (2, 3, 16, 17, 64, 128, 199, 250)]

    def test_B_is_the_basis_matrix_bit_for_bit(self):
        # margin 0 puts the first and last columns at gamma = 0 and 1
        default = self.default_cells()
        for margin, cells in ((0.01, default), (0.0, default), (0.01, highest_degree_sweep_cells())):
            for length, n_points, eta in cells:
                pair = sp.build_pair(length, n_points, eta, margin)
                B = sp.basis_matrix(length, n_points, eta, margin)
                assert pair.band.shape == (eta + 1, length) and pair.first.shape == (length,)
                assert pair.B.shape == B.shape and pair.B.tobytes() == B.tobytes(), (length, n_points, eta, margin)
        # the SVD ran on that same matrix
        for length, n_points, eta in self.default_cells():
            B = sp.basis_matrix(length, n_points, eta)
            assert sp.build_pair(length, n_points, eta).B_pinv.tobytes() == sp.pseudo_inverse(B)[0].tobytes()

    def test_writing_into_B_leaves_the_next_one_alone(self):
        pair = sp.build_pair(17, 34, 3)
        first = pair.B
        first[...] = 7.0
        assert np.array_equal(pair.B, sp.basis_matrix(17, 34, 3))

    def test_pair_holds_under_a_third_of_the_dense_bytes(self):
        # per pair (eta + 2) / 2N + ceil(L/2) / 2L of dense B plus B_pinv:
        # 30.2% at L = 250, and 30.3% over these lengths
        held = dense = 0
        for length, n_points, eta in self.default_cells():
            pair = sp.build_pair(length, n_points, eta)
            held += pair.band.nbytes + pair.first.nbytes + pair.pinv_top.nbytes
            dense += 2 * n_points * length * 8
        assert held <= 0.31 * dense

    def test_identity_pair_holds_no_square_array(self):
        length = 6
        pair = sp.identity_pair(length)
        assert not [v for v in vars(pair).values() if isinstance(v, np.ndarray) and v.shape == (length, length)]
        assert pair.B.tobytes() == np.eye(length).tobytes()
        assert pair.B_pinv.tobytes() == np.eye(length).tobytes()


class TestHalfPseudoInverseStorage:
    """A pair keeps the top ceil(L/2) rows of B_pinv and rebuilds the rest on access."""

    def test_B_pinv_is_the_pseudo_inverse_bit_for_bit(self):
        shapes = [(4, 2, 1), (8, 3, 2), (10, 4, 2), (5, 9, 2), (17, 34, 3)]
        assert {(length % 2, n % 2) for length, n, _ in shapes} == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for margin in (0.01, 0.0):
            config = cm.CurveConfig(margin=margin)
            cells = [(length,) + cm.resolve_dims(length, config) for length in range(2, 251)] + shapes
            for length, n_points, eta in cells:
                B = sp.basis_matrix(length, n_points, eta, margin)
                B_pinv, rank, cond = sp.pseudo_inverse(B)
                pair = sp.build_pair(length, n_points, eta, margin)
                assert pair.B_pinv.shape == (length, n_points)
                assert pair.B_pinv.tobytes() == B_pinv.tobytes(), (length, n_points, eta, margin)
                assert (pair.rank, pair.cond) == (rank, cond)

    def test_B_pinv_matches_one_plain_svd(self):
        # an oracle that shares no code with the even/odd split or the mirror
        for length, n_points, eta in [(4, 2, 1), (8, 3, 2), (10, 4, 2), (5, 9, 2), (17, 34, 3), (250, 500, 50)]:
            ref = reference_pseudo_inverse(sp.basis_matrix(length, n_points, eta))[0]
            got = sp.build_pair(length, n_points, eta).B_pinv
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max(), (length, n_points, eta)

    def test_identity_B_pinv_is_eye(self):
        for length in range(1, 8):
            pair = sp.identity_pair(length)
            assert pair.B_pinv.shape == (length, length)
            assert pair.B_pinv.tobytes() == np.eye(length).tobytes(), length

    def test_top_owns_its_memory(self):
        pairs = [sp.build_pair(length, n, eta) for length, n, eta in TEST_SHAPES]
        pairs += [sp.identity_pair(length) for length in range(1, 8)]
        for pair in pairs:
            assert pair.pinv_top.base is None, (pair.L, pair.N)
            assert pair.pinv_top.shape == ((pair.L + 1) // 2, pair.N), (pair.L, pair.N)
            assert pair.pinv_top.flags.c_contiguous

    def test_writing_into_B_pinv_leaves_the_next_one_alone(self):
        pair = sp.build_pair(17, 34, 3)
        first = pair.B_pinv
        expected = first.tobytes()
        first[...] = 7.0
        assert pair.B_pinv.tobytes() == expected

    def test_a_basis_that_is_not_centrosymmetric_raises(self, monkeypatch):
        monkeypatch.setattr(sp, "_is_centrosymmetric", lambda B: False)
        with pytest.raises(NumericalFailure):
            sp.build_pair(16, 32, 4)


class TestPseudoInverse:
    def test_identity(self):
        B_pinv, rank, cond = sp.pseudo_inverse(np.eye(5))
        npt.assert_allclose(B_pinv, np.eye(5), atol=1e-14)
        assert rank == 5 and abs(cond - 1.0) < 1e-12

    def test_left_inverse_when_overdetermined(self):
        pair = sp.build_pair(3, 6, 2, 0.01)
        npt.assert_allclose(pair.B_pinv @ pair.B, np.eye(3), atol=1e-10)

    def test_rank_deficient_moore_penrose(self):
        pair = sp.build_pair(4, 2, 1, 0.01)
        assert pair.rank == 2
        assert np.abs(pair.B_pinv @ pair.B - np.eye(4)).max() > 0.1
        npt.assert_allclose(pair.B @ pair.B_pinv @ pair.B, pair.B, atol=1e-10)

    def test_four_moore_penrose_identities(self):
        for length, n, eta in [(5, 9, 2), (8, 3, 2), (6, 6, 3), (10, 25, 5)]:
            pair = sp.build_pair(length, n, eta)
            B, P = pair.B, pair.B_pinv
            assert np.abs(B @ P @ B - B).max() < 1e-9
            assert np.abs(P @ B @ P - P).max() < 1e-9
            npt.assert_allclose(B @ P, (B @ P).T, atol=1e-9)
            npt.assert_allclose(P @ B, (P @ B).T, atol=1e-9)

    def test_matches_normal_equation_form(self):
        B = sp.basis_matrix(4, 9, 2)
        B_pinv, rank, _ = sp.pseudo_inverse(B)
        assert rank == 4
        closed = np.linalg.solve(B.T @ B, B.T)  # (B^T B)^{-1} B^T
        npt.assert_allclose(B_pinv, closed, atol=1e-10)

    def test_relative_cutoff(self):
        # singular values 1 and 4e-12 in the even block, 2e-12 in the odd
        # one: the cutoff 1e-12 * max(B.shape) * sigma_max = 3e-12 drops
        # only the last
        h = np.sqrt(0.5)
        even_rows = np.array([[0, 1, 0], [h, 0, h]])
        odd_rows = np.array([[h, 0, -h]])
        B = even_rows.T @ np.diag([1.0, 4e-12]) @ even_rows + odd_rows.T @ np.diag([2e-12]) @ odd_rows
        B_pinv, rank, cond = sp.pseudo_inverse(B)
        assert rank == 2
        npt.assert_allclose(cond, 2.5e11, rtol=1e-12)
        expected = even_rows.T @ np.diag([1.0, 2.5e11]) @ even_rows
        npt.assert_allclose(B_pinv, expected, rtol=1e-12, atol=0)
        # the dropped third direction, e_0 - e_2, is zeroed exactly
        assert B_pinv[:, 0].tobytes() == B_pinv[:, 2].tobytes()

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NumericalFailure):
            sp.pseudo_inverse(bad)


# (L, N, eta) of every pair the tests build: odd and even N and L, N < L
TEST_SHAPES = [
    (3, 6, 2), (4, 2, 1), (4, 8, 2), (5, 9, 2), (6, 6, 3), (6, 12, 3), (8, 3, 2), (10, 4, 2),
    (10, 20, 2), (10, 20, 5), (10, 25, 5), (10, 30, 8), (16, 8, 2), (16, 32, 4), (17, 34, 3),
]


def assert_matches_oracle(B, where):
    B_pinv, rank, cond = sp.pseudo_inverse(B)
    ref_pinv, ref_rank, ref_cond = reference_pseudo_inverse(B)
    assert rank == ref_rank, where
    assert abs(cond - ref_cond) <= 1e-12 * ref_cond, where
    assert np.abs(B_pinv - ref_pinv).max() <= 1e-12 * np.abs(ref_pinv).max(), where


class TestCentrosymmetricSplit:
    """Every B is inverted as two half-size blocks, or raises; the plain SVD is the oracle."""

    def test_default_cache_lengths_match_one_plain_svd(self):
        for margin in (0.01, 0.0):
            config = cm.CurveConfig(margin=margin)
            for length in range(2, 251):
                n_points, eta = cm.resolve_dims(length, config)
                assert_matches_oracle(sp.basis_matrix(length, n_points, eta, margin), (length, margin))

    def test_odd_even_and_wide_shapes_match_one_plain_svd(self):
        assert {(length % 2, n % 2) for length, n, _ in TEST_SHAPES} == {(0, 0), (0, 1), (1, 0), (1, 1)}
        for length, n_points, eta in TEST_SHAPES:
            for margin in (0.01, 0.0):
                assert_matches_oracle(sp.basis_matrix(length, n_points, eta, margin), (length, n_points, eta, margin))

    def test_sweep_cells_keep_their_rank(self):
        # cond reaches 1e10 here, and two SVDs agree on it only to about
        # eps * cond, so it is compared as sigma_min / sigma_max, which
        # they agree on to 1e-13
        deficient = 0
        for length, n_points, eta in sweep_cells():
            B = sp.basis_matrix(length, n_points, eta)
            _, rank, cond = sp.pseudo_inverse(B)
            s = np.linalg.svd(B, compute_uv=False)
            ref_rank = int(np.count_nonzero(s > 1e-12 * max(B.shape) * s[0]))
            assert rank == ref_rank, (length, n_points, eta)
            assert abs(1.0 / cond - s[ref_rank - 1] / s[0]) <= 1e-13, (length, n_points, eta)
            deficient += rank < length
        assert deficient == 76

    @staticmethod
    def skewed(times_cutoff):
        """The L=16 default basis plus a part that is not centrosymmetric.

        That part, (B - B[::-1, ::-1]) / 2, has Frobenius norm
        ``times_cutoff`` times the cutoff at max|B|.
        """
        B = sp.basis_matrix(16, 32, 4)
        eps = times_cutoff * 1e-12 * 32 * np.abs(B).max() / np.sqrt(2.0)
        B[0, 0] += eps
        B[-1, -1] -= eps
        return B

    def test_other_inputs_raise(self):
        for bad in (
            np.diag([1.0, 4e-12, 2e-12]),
            RngStream(7, "plain-svd").generator().standard_normal((7, 4)),
            self.skewed(1.5),
            np.ones((1, 4)),
            np.ones((4, 1)),
        ):
            assert not sp._is_centrosymmetric(bad)
            with pytest.raises(NumericalFailure, match="not centrosymmetric"):
                sp.pseudo_inverse(bad)

    def test_a_skew_part_within_the_cutoff_still_splits(self):
        near = self.skewed(0.5)
        assert sp._is_centrosymmetric(near)
        # what comes back is the pseudo-inverse of the centrosymmetric part
        B_pinv, rank, cond = sp.pseudo_inverse(near)
        ref_pinv, ref_rank, ref_cond = reference_pseudo_inverse((near + near[::-1, ::-1]) / 2.0)
        assert rank == ref_rank == reference_pseudo_inverse(near)[1]
        assert abs(cond - ref_cond) <= 1e-12 * ref_cond
        assert np.abs(B_pinv - ref_pinv).max() <= 1e-12 * np.abs(ref_pinv).max()

    def test_one_cutoff_truncates_both_blocks(self):
        # even block diag(1, 0.5), odd block diag(0.1, 2e-12): the shared
        # cutoff 4e-12 drops 2e-12, which the odd block's own (4e-13) would keep
        h = np.sqrt(0.5)
        even_rows = np.array([[h, 0, 0, h], [0, h, h, 0]])
        odd_rows = np.array([[h, 0, 0, -h], [0, h, -h, 0]])
        M = even_rows.T @ np.diag([1.0, 0.5]) @ even_rows + odd_rows.T @ np.diag([0.1, 2e-12]) @ odd_rows
        assert sp._is_centrosymmetric(M)
        B_pinv, rank, cond = sp.pseudo_inverse(M)
        ref_pinv, ref_rank, ref_cond = reference_pseudo_inverse(M)
        assert rank == ref_rank == 3
        npt.assert_allclose(cond, ref_cond, rtol=1e-12)
        assert np.abs(B_pinv - ref_pinv).max() <= 1e-12 * np.abs(ref_pinv).max()

    def test_pseudo_inverse_of_a_curve_basis_is_centrosymmetric(self):
        for length, n_points, eta in TEST_SHAPES:
            B_pinv = sp.pseudo_inverse(sp.basis_matrix(length, n_points, eta))[0]
            assert B_pinv.tobytes() == np.ascontiguousarray(B_pinv[::-1, ::-1]).tobytes(), (length, n_points, eta)


class TestErrorImportance:
    def test_zero(self):
        pair = sp.build_pair(4, 8, 2)
        assert sp.error_importance(np.zeros((3, 4)), pair.B_pinv) == 0.0

    def test_identity_gives_frobenius(self):
        rng = RngStream(5, "imp").generator()
        V = rng.standard_normal((3, 6))
        assert abs(sp.error_importance(V, np.eye(6)) - np.sum(V**2)) < 1e-12

    def test_matches_explicit_multiply(self):
        pair = sp.build_pair(4, 8, 2, 0.01)
        V = np.zeros((3, 4))
        V[1] = 1.0
        expected = float(np.sum((V @ pair.B_pinv) ** 2))
        assert abs(sp.error_importance(V, pair.B_pinv) - expected) < 1e-14

    def test_shape_mismatch(self):
        pair = sp.build_pair(4, 8, 2)
        with pytest.raises(ShapeMismatch):
            sp.error_importance(np.zeros((3, 5)), pair.B_pinv)

    def test_gaussian_nll_proportionality(self):
        # NLL differences under an isotropic Gaussian curve likelihood equal
        # importance differences over 2 sigma^2, for any sigma^2 > 0.
        pair = sp.build_pair(6, 12, 3)
        rng = RngStream(7, "nll").generator()
        d = 4
        for sigma2 in (0.3, 1.0, 4.7):
            v1 = rng.standard_normal((d, 6))
            v2 = rng.standard_normal((d, 6))
            const = 0.5 * d * pair.N * np.log(2 * np.pi * sigma2)

            def nll(v):
                resid = v @ pair.B_pinv
                return 0.5 * np.sum(resid**2) / sigma2 + const

            lhs = nll(v1) - nll(v2)
            rhs = (sp.error_importance(v1, pair.B_pinv) - sp.error_importance(v2, pair.B_pinv)) / (2 * sigma2)
            assert abs(lhs - rhs) < 1e-9 * max(abs(lhs), 1.0)


class TestImportanceRatio:
    def test_identity_ratio_exactly_one(self):
        report = sp.importance_ratio(np.eye(8))
        assert report.ratio == 1.0
        assert report.ratio_bound == 1.0

    def test_per_position_bound(self):
        pair = sp.build_pair(10, 20, 2)
        report = sp.importance_ratio(pair.B_pinv)
        for imp in report.importance_local:
            assert report.importance_global / imp <= report.ratio_bound + 1e-9

    def test_eigenvalues_match_jacobi_oracle(self):
        pair = sp.build_pair(10, 20, 5)
        report = sp.importance_ratio(pair.B_pinv)
        G = pair.B_pinv @ pair.B_pinv.T
        oracle = jacobi_eigenvalues(G)
        npt.assert_allclose(report.eigenvalues, oracle, atol=1e-9)

    def test_eigenvalue_cutoff(self):
        # G = diag(1, 4e-12, 2.5e-13): only eigenvalues above 1e-12 * lambda_max count
        report = sp.importance_ratio(np.diag([1.0, 2e-6, 5e-7]))
        assert report.rank == 2
        npt.assert_allclose(report.lambda_min_nonzero, 4e-12, rtol=1e-9)

    def test_psd_spectrum(self):
        for length, n, eta in [(6, 14, 3), (9, 9, 4), (12, 5, 2)]:
            report = sp.importance_ratio(sp.build_pair(length, n, eta).B_pinv)
            assert report.eigenvalues.min() > -1e-10

    def test_bound_sweep_full_rank(self):
        rng = RngStream(13, "sweep").generator()
        for _ in range(50):
            length = int(rng.integers(3, 20))
            n = int(rng.integers(length, 3 * length))
            eta = int(rng.integers(1, min(n - 1, 7) + 1))
            report = sp.importance_ratio(sp.build_pair(length, n, eta).B_pinv)
            for imp in report.importance_local:
                assert report.importance_global / imp <= report.ratio_bound + 1e-9


# pinv_top bytes at the lengths where 2 threads and 1 differed unpinned,
# and the README's L=75 sweep cell
_THREAD_PROBE = """
import hashlib
from curvelang import curvemap
from curvelang.curvemap import CurveConfig
cache = curvemap.build_cache(CurveConfig())
for length in (159, 200, 250):
    print(length, hashlib.sha256(cache.get(length).pinv_top.tobytes()).hexdigest())
print(repr(curvemap.reconstruction_error(75, CurveConfig(n_ratio=2.5, eta_ratio=0.33))))
"""


@pytest.mark.skipif(not sp.BLAS_PINNED, reason="numpy's OpenBLAS thread setter not found: nothing is pinned")
def test_pseudo_inverse_is_the_same_at_any_blas_thread_count():
    src = os.path.dirname(os.path.dirname(sp.__file__))
    outputs = []
    for threads in ("2", "1"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        run = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env, capture_output=True, text=True, check=True)
        outputs.append(run.stdout)
    assert len(outputs[0].splitlines()) == 4
    assert outputs[0] == outputs[1]
