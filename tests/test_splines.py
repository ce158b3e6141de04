"""Basis construction, pseudo-inverse contracts, and spectral analysis."""

import numpy as np
import numpy.testing as npt
import pytest

from curvelang import curvemap as cm
from curvelang import splines as sp
from curvelang.errors import DegreeTooHigh, LengthTooShort, NumericalFailure, OutOfRange, ShapeMismatch
from curvelang.rng import RngStream

from _oracles import jacobi_eigenvalues, reference_basis_columns, reference_basis_matrix


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
        npt.assert_allclose(sp.sample_indices(2, 0.01).gammas, [0.01, 0.99])

    def test_no_margin(self):
        npt.assert_allclose(sp.sample_indices(3, 0.0).gammas, [0.0, 0.5, 1.0])

    def test_five_points(self):
        npt.assert_allclose(sp.sample_indices(5, 0.01).gammas, [0.01, 0.255, 0.5, 0.745, 0.99])

    def test_too_short(self):
        with pytest.raises(LengthTooShort):
            sp.sample_indices(1, 0.01)

    def test_strictly_increasing_uniform(self):
        g = sp.sample_indices(17, 0.03).gammas
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


class TestBasisOracle:
    """The array evaluator against the scalar Cox-de Boor recursion, bit for bit."""

    def test_default_cache_lengths(self):
        config = cm.CurveConfig()
        for length in range(2, 65):
            n_points, eta = cm.resolve_dims(length, config)
            kv = sp.clamped_knots(n_points, eta)
            gammas = sp.sample_indices(length, config.margin).gammas
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
                gammas = sp.sample_indices(length, margin).gammas
                expected = reference_basis_matrix(kv.knots, eta, gammas)
                assert np.array_equal(sp.basis_matrix(length, n_points, eta, margin), expected)
            for gamma in (0.0, 1.0):
                assert np.array_equal(sp.basis_vector(gamma, kv), reference_basis_matrix(kv.knots, eta, [gamma])[:, 0])

    def test_highest_degree_sweep_cells_match_index_major_layout(self):
        # the scalar recursion is too slow past eta 49; the sweep reaches 495
        cells = set()
        for length in cm.DEFAULT_SWEEP_LENGTHS:
            for n_ratio in cm.DEFAULT_SWEEP_N_RATIOS:
                for eta_ratio in cm.DEFAULT_SWEEP_ETA_RATIOS:
                    config = cm.CurveConfig(n_ratio=n_ratio, eta_ratio=eta_ratio, l_max=max(length, 250))
                    cells.add((length,) + cm.resolve_dims(length, config))
        top = sorted(cells, key=lambda cell: (cell[2], cell))[-5:]
        assert top[0][2] > 300
        for length, n_points, eta in top:
            kv = sp.clamped_knots(n_points, eta)
            for margin in (0.01, 0.0):
                gammas = sp.sample_indices(length, margin).gammas
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
        # the cutoff is 1e-12 * max(B.shape) * sigma_max = 3e-12
        B_pinv, rank, cond = sp.pseudo_inverse(np.diag([1.0, 4e-12, 2e-12]))
        assert rank == 2
        npt.assert_allclose(cond, 2.5e11, rtol=1e-12)
        npt.assert_allclose(B_pinv, np.diag([1.0, 2.5e11, 0.0]), rtol=1e-12, atol=0)

    def test_nonfinite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NumericalFailure):
            sp.pseudo_inverse(bad)


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
            report = sp.importance_ratio(sp.build_pair(length, n, eta).B_pinv, check_bound=False)
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
