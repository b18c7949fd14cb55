import warnings

import numpy as np
import pytest
import scipy.linalg

from precis_lab.errors import NonPositiveDiagonal, NotPositiveDefinite
from precis_lab.matops import (
    PD_EPSILON,
    SupportSet,
    SymMatrix,
    cholesky,
    invert,
    kron_subblock,
    log_det,
    norm_l1_all,
    norm_l1_offdiag,
    _to_floats,
    read_matrix,
    read_sym_matrix,
    to_correlation,
    write_matrix,
)
from precis_lab.models import LatentModelSpec, latent_precision, random_a, rng_for

# exact rational inverse of the 4x4 Hilbert matrix
HILBERT4_INV = np.array(
    [
        [16.0, -120.0, 240.0, -140.0],
        [-120.0, 1200.0, -2700.0, 1680.0],
        [240.0, -2700.0, 6480.0, -4200.0],
        [-140.0, 1680.0, -4200.0, 2800.0],
    ]
)


def hilbert(n):
    return SymMatrix(np.array([[1.0 / (i + j + 1) for j in range(n)] for i in range(n)]))


def random_spd(p, seed, jitter=1.0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((p, p))
    return SymMatrix(g.T @ g + jitter * np.eye(p))


# cholesky's two paths: a SymMatrix (numpy's LAPACK, into a new array) and
# an owned array (scipy's, in place), here given a fresh copy
FACTOR_PATHS = (
    lambda a: cholesky(SymMatrix(a)),
    lambda a: cholesky(np.array(a, dtype=float)),
)


def assert_rejected_on_both_paths(a, match=None):
    for factor in FACTOR_PATHS:
        with pytest.raises(NotPositiveDefinite, match=match):
            factor(a)


class TestSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SymMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMatrix(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_immutable(self):
        m = SymMatrix(np.eye(2))
        with pytest.raises(ValueError):
            m.values[0, 0] = 7.0


class TestSupportSet:
    def test_normalizes_order(self):
        s = SupportSet(4, frozenset({(2, 1), (0, 3)}))
        assert s.pairs == frozenset({(1, 2), (0, 3)})
        assert (3, 0) in s and (1, 2) in s

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError):
            SupportSet(3, frozenset({(1, 1)}))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            SupportSet(2, frozenset({(0, 2)}))

    def test_from_matrix_threshold(self):
        m = np.array([[1.0, 0.5, 1e-10], [0.5, 1.0, 0.0], [1e-10, 0.0, 1.0]])
        s = SupportSet.from_matrix(m, eps=1e-8)
        assert s.pairs == frozenset({(0, 1)})
        assert len(SupportSet.from_matrix(m, eps=0.0)) == 2

    @pytest.mark.parametrize("eps", [-1.0, np.nan, np.inf])
    def test_from_matrix_rejects_bad_eps(self, eps):
        # -1 would make every pair, zeros too, support; nan would make none
        with pytest.raises(ValueError, match="eps"):
            SupportSet.from_matrix(np.eye(3), eps=eps)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(cholesky(SymMatrix(np.eye(3))), np.eye(3))

    def test_hand_worked_2x2(self):
        lower = cholesky(SymMatrix(np.array([[4.0, 2.0], [2.0, 5.0]])))
        np.testing.assert_allclose(lower, [[2.0, 0.0], [1.0, 2.0]], rtol=1e-14)

    def test_indefinite_rejected(self):
        assert_rejected_on_both_paths(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_reconstruction(self):
        m = random_spd(20, seed=0)
        lower = cholesky(m)
        scale = np.abs(m.values).max()
        assert np.abs(lower @ lower.T - m.values).max() < 1e-10 * scale

    def test_zero_matrix_rejected(self):
        assert_rejected_on_both_paths(np.zeros((2, 2)))

    def test_pivot_floor_rejects_what_lapack_accepts(self):
        # the second pivot is about 2e-14, positive but under the floor;
        # both LAPACKs accept it
        a = np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]])
        np.linalg.cholesky(a)
        scipy.linalg.cholesky(a, lower=True)
        assert_rejected_on_both_paths(a, match="at column 1 ")

    @pytest.mark.parametrize("jitter,rejected", [
        (1e-6, False), (1e-15, True), (0.0, True), (-1e-3, True),
    ], ids=["above-floor", "under-floor", "singular", "indefinite"])
    @pytest.mark.parametrize("p", [5, 24])
    def test_paths_reject_the_same_matrices(self, p, jitter, rejected):
        # rank p - 1 plus jitter * I: the last pivot is about jitter, far
        # from the floor either way, so rounding cannot split the paths
        g = np.random.default_rng(p).standard_normal((p, p - 1))
        a = g @ g.T / p + jitter * np.eye(p)
        if rejected:
            assert_rejected_on_both_paths(a)
        else:
            for factor in FACTOR_PATHS:
                factor(a)

    def test_paths_agree_to_rounding(self):
        for p in range(1, 65):
            m = random_spd(p, seed=p)
            lower = cholesky(m)
            owned = cholesky(m.values.copy())
            assert np.abs(lower - owned).max() <= 1e-12 * np.abs(lower).max(), p

    def test_array_is_factored_in_place(self):
        m = random_spd(20, seed=1)
        buf = m.values.copy()
        lower = cholesky(buf)
        assert np.shares_memory(lower, buf)
        # the same LAPACK (scipy's) on a copy; numpy's, which factors a
        # SymMatrix, agrees only to rounding
        np.testing.assert_array_equal(lower, scipy.linalg.cholesky(m.values, lower=True))

    def test_array_pivot_floor_reads_the_input_diagonal(self):
        # the second pivot, about 2e-10, is under the floor 1e-8 set by the
        # input's diagonal but over the 1e-10 that the factor's would set
        a = 1e4 * np.array([[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]])
        pivot = scipy.linalg.cholesky(a, lower=True)[1, 1] ** 2
        assert PD_EPSILON * 100.0 < pivot <= PD_EPSILON * 1e4
        with pytest.raises(NotPositiveDefinite, match="at column 1 "):
            cholesky(a)

    @pytest.mark.parametrize("a,match", [
        (np.array([[1.0, 2.0], [3.0, 4.0]]), "symmetric"),
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "finite"),
        (np.ones((2, 3)), "square"),
        (np.eye(2, dtype=np.float32), "float64"),
        (np.asfortranarray([[2.0, 1.0], [1.0, 2.0]])[:, ::-1], "C-ordered"),
    ], ids=["asymmetric", "non-finite", "non-square", "float32", "not-contiguous"])
    def test_array_rejected_as_symmatrix_rejects_it(self, a, match):
        with pytest.raises(ValueError, match=match):
            cholesky(a)

    def test_read_only_array_rejected(self):
        a = np.eye(2)
        a.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            cholesky(a)

    @pytest.mark.parametrize("d2", [10, 30])
    def test_low_noise_latent_covariance_factors(self, d2):
        # the floor must let noise variances down to 1e-4 through
        for seed in range(5):
            a = random_a(2, d2, 1.0, 0.0, rng_for(seed))
            cov = latent_precision(LatentModelSpec(2, d2, 1.0, 1e-4, a)).covariance
            lower = cholesky(cov)
            pivots = lower.diagonal() ** 2
            assert pivots.min() > PD_EPSILON * cov.values.diagonal().max()
            np.testing.assert_allclose(lower @ lower.T, cov.values, rtol=0, atol=1e-12 * cov.values.diagonal().max())


class TestInvert:
    def test_identity(self):
        np.testing.assert_array_equal(invert(SymMatrix(np.eye(4))).values, np.eye(4))

    def test_adjugate_2x2(self):
        inv = invert(SymMatrix(np.array([[1.0, 2.0], [2.0, 5.0]])))
        np.testing.assert_allclose(inv.values, [[5.0, -2.0], [-2.0, 1.0]], atol=1e-12)

    def test_hilbert4_against_exact_inverse(self):
        h = hilbert(4)
        inv = invert(h)
        np.testing.assert_allclose(inv.values, HILBERT4_INV, rtol=1e-8)
        assert np.abs(h.values @ inv.values - np.eye(4)).max() < 1e-6

    @pytest.mark.parametrize("p", [12, 40])
    def test_exactly_symmetric_and_equal_to_the_general_inverse(self, p):
        m = random_spd(p, seed=p)
        inv = invert(m).values
        np.testing.assert_array_equal(inv, inv.T)
        expected = np.linalg.inv(m.values)
        assert np.abs(inv - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_double_inversion_round_trip(self):
        for p, seed in ((5, 1), (20, 2), (50, 3)):
            m = random_spd(p, seed)
            back = invert(invert(m))
            assert np.abs(back.values - m.values).max() < 1e-6


class TestLogDet:
    def test_identity_zero(self):
        assert log_det(SymMatrix(np.eye(7))) == 0.0

    def test_diagonal_product(self):
        assert log_det(SymMatrix(np.diag([2.0, 3.0]))) == pytest.approx(np.log(6.0))

    def test_latent_block_formula_unit_x_variance(self):
        # for unit x variance, log det of the latent inverse equals
        # -d2 * log(noise variance) regardless of the coupling matrix
        from precis_lab.models import LatentModelSpec, latent_covariance

        rng = np.random.default_rng(9)
        a = rng.standard_normal((3, 2))
        cov = latent_covariance(LatentModelSpec(2, 3, 1.0, 0.25, a))
        assert log_det(cov) == pytest.approx(3 * np.log(0.25), abs=1e-10)

    def test_inverse_pair_cancels(self):
        m = random_spd(12, seed=4)
        assert log_det(m) + log_det(invert(m)) == pytest.approx(0.0, abs=1e-8)


class TestNorms:
    def test_l1_all_identity(self):
        assert norm_l1_all(SymMatrix(np.eye(2))) == 2.0

    def test_l1_offdiag(self):
        m = SymMatrix(np.array([[1.0, -3.0], [-3.0, 2.0]]))
        assert norm_l1_offdiag(m) == 6.0
        assert norm_l1_all(m) == 9.0


class TestToCorrelation:
    def test_diagonal_to_identity(self):
        np.testing.assert_array_equal(
            to_correlation(SymMatrix(np.diag([4.0, 9.0]))).values, np.eye(2)
        )

    def test_hand_worked(self):
        r = to_correlation(SymMatrix(np.array([[4.0, 2.0], [2.0, 1.0]])))
        np.testing.assert_allclose(r.values, np.ones((2, 2)), rtol=1e-15)

    def test_idempotent_on_correlation(self):
        c = SymMatrix(np.array([[1.0, 0.3], [0.3, 1.0]]))
        np.testing.assert_array_equal(to_correlation(c).values, c.values)

    def test_rejects_nonpositive_diagonal(self):
        with pytest.raises(NonPositiveDiagonal):
            to_correlation(SymMatrix(np.array([[0.0, 0.0], [0.0, 1.0]])))


class TestKronSubblock:
    def test_identity_pattern(self):
        sigma = SymMatrix(np.eye(3))
        pairs = [(0, 1), (1, 2), (2, 0)]
        block = kron_subblock(sigma, pairs, pairs)
        np.testing.assert_array_equal(block, np.eye(3))

    def test_single_pair(self):
        sigma = SymMatrix(np.array([[2.0, 0.5], [0.5, 1.0]]))
        block = kron_subblock(sigma, [(0, 1)], [(1, 0)])
        assert block.shape == (1, 1)
        assert block[0, 0] == sigma.values[0, 1] * sigma.values[1, 0]

    @pytest.mark.parametrize("p,seed", [(2, 0), (3, 1), (4, 2), (6, 3)])
    def test_matches_materialized_kronecker(self, p, seed):
        sigma = random_spd(p, seed)
        big = np.kron(sigma.values, sigma.values)
        rng = np.random.default_rng(seed + 100)
        all_pairs = [(i, j) for i in range(p) for j in range(p)]
        rows = [all_pairs[k] for k in rng.choice(len(all_pairs), size=5)]
        cols = [all_pairs[k] for k in rng.choice(len(all_pairs), size=4)]
        block = kron_subblock(sigma, rows, cols)
        expect = big[np.ix_([i * p + j for i, j in rows], [k * p + l for k, l in cols])]
        np.testing.assert_allclose(block, expect, rtol=0, atol=0)

    def test_array_pairs_match_sequence_pairs(self):
        sigma = random_spd(5, seed=7)
        rows = [(i, j) for i in range(5) for j in range(5) if (i + j) % 3]
        cols = [(4, 0), (1, 1), (2, 3)]
        block = kron_subblock(sigma, np.array(rows), np.array(cols)[:, ::-1])
        np.testing.assert_array_equal(block, kron_subblock(sigma, rows, [(0, 4), (1, 1), (3, 2)]))

    def test_empty_pairs(self):
        assert kron_subblock(SymMatrix(np.eye(2)), [], np.empty((0, 2), dtype=int)).shape == (0, 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(IndexError):
            kron_subblock(SymMatrix(np.eye(2)), [(0, 2)], [(0, 0)])
        with pytest.raises(IndexError):
            kron_subblock(SymMatrix(np.eye(2)), [(0, 0)], np.array([[-1, 0]]))

    def test_rejects_what_is_not_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            kron_subblock(SymMatrix(np.eye(2)), [(0, 1, 1)], [(0, 0)])


class TestTextIO:
    def test_round_trip_exact(self, tmp_path):
        m = random_spd(7, seed=11)
        path = tmp_path / "m.txt"
        write_matrix(path, m)
        back = read_sym_matrix(path)
        np.testing.assert_array_equal(back.values, m.values)

    def test_read_plain_matrix(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("1 2 3\n4 5 6\n")
        np.testing.assert_array_equal(read_matrix(path), [[1, 2, 3], [4, 5, 6]])

    def test_read_comma_separated(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.5,2\n2,4.5\n")
        np.testing.assert_array_equal(read_matrix(path), [[1.5, 2], [2, 4.5]])

    def test_read_sym_rejects_asymmetric(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3 4\n")
        with pytest.raises(ValueError, match="not symmetric"):
            read_sym_matrix(path)

    def test_read_sym_averages_print_precision_asymmetry(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 0.3000000000001\n0.3 1\n")
        back = read_sym_matrix(path).values
        assert back[0, 1] == back[1, 0] == 0.5 * (0.3000000000001 + 0.3)

    @pytest.mark.parametrize("text", ["1,,2\n3,4,5\n", "1,2,\n3,4,\n"])
    def test_read_rejects_an_empty_field_naming_the_line(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=r"d\.csv:1: empty field"):
            read_matrix(path)

    @pytest.mark.parametrize("token", [
        "1e-320", "4.9e-324", "1_000", "NaN", "-Infinity", ".5", "5.", "1E5",
        "0.1234567890123456789012345678901234", "1d5",
    ])
    def test_text_converts_as_float_does(self, tmp_path, token):
        # both readers convert a block with one numpy cast; it must read
        # each token as float() does: subnormals, underscores, nan and
        # infinity spellings, bare points, 34 digits, and no Fortran "d"
        try:
            want = np.float64(float(token)).tobytes()
        except ValueError:
            want = None
        try:
            got = _to_floats(tmp_path / "t.txt", [[token]])[0, 0].tobytes()
        except ValueError:
            got = None
        assert got == want

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_read_rejects_non_finite_naming_the_file(self, tmp_path, cell):
        path = tmp_path / "m.txt"
        path.write_text(f"1 {cell}\n{cell} 1\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"m\.txt: .*finite"):
                read_matrix(path)
            with pytest.raises(ValueError, match=r"m\.txt: .*finite"):
                read_sym_matrix(path)
