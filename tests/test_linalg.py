"""Dense-kernel tests: thin SVD, top-pair sign, reachability checks.

The SVD tests lean on reconstruction oracles (rebuild M from the
factors); only the singular values are also compared against
``np.linalg.svd`` of the whole matrix.  The primitivity and
irreducibility tests compare against definition-based oracles written
with exact big-integer arithmetic.
"""

import numpy as np
import pytest

from convlin.errors import (
    ConvergenceError,
    MultiplicityError,
    ShapeError,
    ZeroMatrixError,
)
from convlin.linalg import (
    REL_TOL,
    SpectralDecomposition,
    fix_top_pair_sign,
    is_irreducible,
    is_primitive_bruteforce,
    thin_svd,
)
from convlin.shift import training_average
from convlin.tasks import sample_training_set, whole_dataset


def primitive_by_definition(A):
    """Oracle: some exact integer power of the zero pattern is positive.

    Uses Python big ints (object dtype), so no booleanization and no
    overflow; checks powers up to the classical (k-1)^2 + 1 bound past
    which no new positivity can appear.
    """
    B = np.array([[1 if v > 0 else 0 for v in row] for row in A], dtype=object)
    k = B.shape[0]
    P = B.copy()
    for _ in range((k - 1) ** 2 + 1):
        if all(int(v) > 0 for v in P.flat):
            return True
        P = P @ B
    return False


def irreducible_by_definition(A):
    """Oracle: every (i, j) is reachable in at most k steps."""
    B = (np.asarray(A) > 0).astype(np.int64)
    k = B.shape[0]
    P = B.copy()
    acc = B > 0
    for _ in range(k - 1):
        P = ((P @ B) > 0).astype(np.int64)
        acc |= P > 0
    return bool(acc.all())


class TestThinSVD:
    def test_diagonal(self):
        dec = thin_svd(np.array([[3.0, 0.0], [0.0, 2.0], [0.0, 0.0]]))
        np.testing.assert_allclose(dec.sigma, [3.0, 2.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.V), np.eye(2), atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.U),
                                   np.eye(3)[:, :2], atol=1e-12)
        assert dec.m == 1

    def test_rank_one_symmetric(self):
        dec = thin_svd(np.ones((2, 2)))
        np.testing.assert_allclose(dec.sigma, [2.0, 0.0], atol=1e-12)
        u, v = dec.top_pair
        s = 1.0 / np.sqrt(2.0)
        sign = np.sign(v[0])
        np.testing.assert_allclose(sign * v, [s, s], atol=1e-12)
        np.testing.assert_allclose(sign * u, [s, s], atol=1e-12)
        # The zero-sigma column of U is completed, so U stays orthonormal.
        np.testing.assert_allclose(dec.U.T @ dec.U, np.eye(2), atol=1e-10)

    def test_training_average_example(self):
        M = np.array([[0.0, 0.5], [0.5, 0.5], [0.5, 0.0], [0.0, 0.0]])
        dec = thin_svd(M)
        recon = dec.U @ np.diag(dec.sigma) @ dec.V.T
        assert np.linalg.norm(M - recon) <= 1e-10

    def test_random_invariants(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d = int(rng.integers(1, 201))
            k = int(rng.integers(1, min(d, 10) + 1))
            M = rng.random((d, k))
            dec = thin_svd(M)
            fro = np.linalg.norm(M)
            assert np.abs(dec.U.T @ dec.U - np.eye(k)).max() <= 1e-10
            assert np.abs(dec.V.T @ dec.V - np.eye(k)).max() <= 1e-10
            recon = dec.U @ np.diag(dec.sigma) @ dec.V.T
            assert np.linalg.norm(M - recon) <= 1e-10 * max(1.0, fro)
            assert np.all(dec.sigma >= 0.0)
            assert np.all(np.diff(dec.sigma) <= 1e-12)
            gaps = dec.sigma[0] - dec.sigma
            assert dec.m == int(np.sum(gaps <= REL_TOL * dec.sigma[0]))

    def test_rank_deficient_completion(self):
        # The Gram route squares the matrix, so trailing singular values
        # of a rank-1 input bottom out near sqrt(machine eps) * sigma_1,
        # not at machine eps; the completion must still leave U clean.
        rng = np.random.default_rng(2)
        M = np.outer(rng.random(8), rng.random(4))
        dec = thin_svd(M)
        assert np.all(dec.sigma[1:] <= 1e-7 * dec.sigma[0])
        np.testing.assert_allclose(dec.U.T @ dec.U, np.eye(4), atol=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroMatrixError):
            thin_svd(np.zeros((3, 2)))

    def test_wide_matrix_rejected(self):
        with pytest.raises(ShapeError):
            thin_svd(np.ones((2, 3)))

    def test_zero_rows_of_m_give_exact_zero_rows_of_u(self):
        rng = np.random.default_rng(5)
        whole = whole_dataset("cls", 100)
        cases = [training_average(sample_training_set(whole, 10, rng), 5)
                 for _ in range(50)]
        cases += [rng.random((30, 4)) * (rng.random((30, 1)) < 0.3)
                  for _ in range(50)]
        checked = 0
        for M in cases:
            if not np.any(M):
                continue
            dec = thin_svd(M)
            zero_rows = ~M.any(axis=1)
            live = dec.sigma != 0.0
            assert np.all(dec.U[np.ix_(zero_rows, live)] == 0.0)
            checked += int(zero_rows.any())
        assert checked > 50

    def test_fewer_nonzero_rows_than_columns(self):
        one = np.zeros((6, 3))
        one[2] = [1.0, -2.0, 0.5]
        two = np.zeros((6, 4))
        two[[1, 4]] = [[1.0, 0.0, 2.0, 3.0], [0.5, 1.0, 0.0, -1.0]]
        for M, rank in ((one, 1), (two, 2)):
            k = M.shape[1]
            dec = thin_svd(M)
            np.testing.assert_allclose(dec.U.T @ dec.U, np.eye(k), atol=1e-12)
            np.testing.assert_allclose(dec.V.T @ dec.V, np.eye(k), atol=1e-12)
            recon = dec.U @ np.diag(dec.sigma) @ dec.V.T
            np.testing.assert_allclose(recon, M, atol=1e-12)
            np.testing.assert_array_equal(dec.sigma[rank:], 0.0)
            assert np.all(dec.sigma[:rank] > 0.0)
            assert dec.m == 1

    def test_more_than_64_columns(self):
        M = np.random.default_rng(6).random((100, 70))
        dec = thin_svd(M)
        assert dec.U.shape == (100, 70) and dec.V.shape == (70, 70)
        assert np.abs(dec.U.T @ dec.U - np.eye(70)).max() <= 1e-10
        assert np.abs(dec.V.T @ dec.V - np.eye(70)).max() <= 1e-10
        recon = dec.U @ np.diag(dec.sigma) @ dec.V.T
        assert np.linalg.norm(M - recon) <= 1e-10 * np.linalg.norm(M)

    def test_sigma_matches_lapack_on_training_averages(self):
        rng = np.random.default_rng(7)
        whole = whole_dataset("cls", 100)
        for k in (5, 20):
            for n in (10, 100):
                for _ in range(75):
                    M = training_average(sample_training_set(whole, n, rng), k)
                    dec = thin_svd(M)
                    ref = np.linalg.svd(M, compute_uv=False)
                    assert np.abs(dec.sigma - ref).max() <= 1e-12 * ref[0]
                    gaps = ref[0] - ref
                    assert dec.m == int(np.sum(gaps <= REL_TOL * ref[0]))

    def test_non_finite_entry_rejected(self):
        for bad in (np.nan, np.inf):
            M = np.ones((4, 2))
            M[0, 0] = bad
            with pytest.raises(ConvergenceError):
                thin_svd(M)


def _manual_decomposition(v, m=1):
    """Tiny 2x2 decomposition with a chosen top right vector."""
    v = np.asarray(v, dtype=float)
    v = v / np.linalg.norm(v)
    V = np.column_stack([v, [-v[1], v[0]]])
    U = np.eye(2)
    return SpectralDecomposition(U=U, sigma=np.array([2.0, 1.0]), V=V, m=m)


class TestFixTopPairSign:
    def test_negative_sum_flips(self):
        dec = _manual_decomposition([-0.6, -0.8])
        fixed = fix_top_pair_sign(dec)
        np.testing.assert_allclose(fixed.V[:, 0], [0.6, 0.8])
        np.testing.assert_allclose(fixed.U[:, 0], -dec.U[:, 0])

    def test_positive_sum_unchanged(self):
        dec = _manual_decomposition([0.6, 0.8])
        fixed = fix_top_pair_sign(dec)
        np.testing.assert_allclose(fixed.V[:, 0], dec.V[:, 0])
        np.testing.assert_allclose(fixed.U[:, 0], dec.U[:, 0])

    def test_zero_sum_tie_rule(self):
        s = 1.0 / np.sqrt(2.0)
        dec = _manual_decomposition([-s, s])
        fixed = fix_top_pair_sign(dec)
        assert fixed.V[0, 0] > 0

    def test_joint_flip_preserves_product(self):
        dec = _manual_decomposition([-0.6, -0.8])
        fixed = fix_top_pair_sign(dec)
        before = dec.U @ np.diag(dec.sigma) @ dec.V.T
        after = fixed.U @ np.diag(fixed.sigma) @ fixed.V.T
        np.testing.assert_allclose(before, after, atol=1e-14)

    def test_input_untouched(self):
        dec = _manual_decomposition([-0.6, -0.8])
        v_before = dec.V.copy()
        fix_top_pair_sign(dec)
        np.testing.assert_array_equal(dec.V, v_before)

    def test_degenerate_top_rejected(self):
        dec = _manual_decomposition([0.6, 0.8], m=2)
        with pytest.raises(MultiplicityError):
            fix_top_pair_sign(dec)


class TestPrimitivity:
    def test_identity_not_primitive(self):
        assert not is_primitive_bruteforce(np.eye(2))

    def test_permutation_not_primitive(self):
        assert not is_primitive_bruteforce(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_fibonacci_matrix_primitive(self):
        assert is_primitive_bruteforce(np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_one_by_one(self):
        assert not is_primitive_bruteforce(np.array([[0.0]]))
        assert is_primitive_bruteforce(np.array([[2.0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            is_primitive_bruteforce(np.array([[1.0, -1.0], [0.0, 1.0]]))


class TestIrreducibility:
    def test_two_cycle(self):
        assert is_irreducible(np.array([[0.0, 1.0], [1.0, 0.0]]))

    def test_triangular(self):
        assert not is_irreducible(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_one_by_one(self):
        assert not is_irreducible(np.array([[0.0]]))
        assert is_irreducible(np.array([[1.0]]))

    def test_negative_entry_rejected(self):
        with pytest.raises(ValueError):
            is_irreducible(np.array([[-1.0]]))


class TestReachabilitySuite:
    """1000 random 0/1 matrices against the definition-based oracles."""

    def _random_cases(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            k = int(rng.integers(1, 7))
            density = rng.uniform(0.1, 0.9)
            yield (rng.random((k, k)) < density).astype(float)

    def test_primitivity_matches_oracle(self):
        for A in self._random_cases():
            assert is_primitive_bruteforce(A) == primitive_by_definition(A)

    def test_irreducibility_matches_oracle(self):
        for A in self._random_cases():
            assert is_irreducible(A) == irreducible_by_definition(A)

    def test_irreducible_positive_diagonal_implies_primitive(self):
        checked = 0
        for A in self._random_cases():
            if is_irreducible(A) and np.any(np.diag(A) > 0):
                assert is_primitive_bruteforce(A)
                checked += 1
        assert checked > 100

    def test_primitive_implies_irreducible(self):
        checked = 0
        for A in self._random_cases():
            if is_primitive_bruteforce(A):
                assert is_irreducible(A)
                checked += 1
        assert checked > 100


class TestPrimitiveGramTopPair:
    def test_unique_positive_top_vector(self):
        """A primitive Gram matrix forces a simple top singular value
        whose sign-fixed right vector is entrywise positive."""
        rng = np.random.default_rng(4)
        primitive_seen = 0
        for _ in range(1000):
            d = int(rng.integers(2, 21))
            k = int(rng.integers(1, min(d, 6) + 1))
            M = np.where(rng.random((d, k)) < 0.5, rng.random((d, k)), 0.0)
            if not np.any(M):
                continue
            G = M.T @ M
            if not is_primitive_bruteforce(G):
                continue
            primitive_seen += 1
            dec = thin_svd(M)
            assert dec.m == 1
            fixed = fix_top_pair_sign(dec)
            assert np.all(fixed.V[:, 0] > 0)
        assert primitive_seen > 100
