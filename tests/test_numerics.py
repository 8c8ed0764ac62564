import numpy as np
import pytest

from rosdos.numerics import (
    entrywise_median,
    knn,
    pairwise_sq_dist,
    random_orthogonal,
    round_half_up,
    svd,
)


class TestSvd:
    def test_identity(self):
        f = svd(np.eye(2))
        assert np.allclose(f.singular, [1.0, 1.0])

    def test_diagonal(self):
        f = svd(np.diag([3.0, 0.0]))
        assert np.allclose(f.singular, [3.0, 0.0])

    def test_random_reconstruction(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((5, 8))
        f = svd(M)
        assert np.allclose(f.left.T @ f.left, np.eye(5), atol=1e-10)
        assert np.allclose(f.right.T @ f.right, np.eye(5), atol=1e-10)
        recon = (f.left * f.singular) @ f.right.T
        assert np.linalg.norm(recon - M) < 1e-10 * np.linalg.norm(M)

    def test_sorted_nonincreasing(self):
        rng = np.random.default_rng(1)
        f = svd(rng.standard_normal((20, 12)))
        assert np.all(np.diff(f.singular) <= 0)

    def test_sign_convention(self):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((7, 7))
        f = svd(M)
        for j in range(7):
            col = f.left[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            svd(np.array([[np.nan, 1.0], [0.0, 1.0]]))


class TestPairwiseSqDist:
    def test_self_is_zero(self):
        a = np.array([[1.0], [2.0]])
        assert pairwise_sq_dist(a, a)[0, 0] == 0.0

    def test_pythagoras(self):
        a = np.array([[0.0], [0.0]])
        b = np.array([[3.0], [4.0]])
        assert pairwise_sq_dist(a, b)[0, 0] == pytest.approx(25.0)

    def test_matches_double_loop(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((4, 10))
        D = pairwise_sq_dist(A, A)
        for i in range(10):
            for j in range(10):
                ref = np.sum((A[:, i] - A[:, j]) ** 2)
                assert abs(D[i, j] - ref) < 1e-10

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 15))
        D = pairwise_sq_dist(A, A)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairwise_sq_dist(np.ones((3, 2)), np.ones((4, 2)))


class TestKnn:
    def test_basic(self):
        assert list(knn([5.0, 1.0, 3.0], 2)) == [1, 2]

    def test_tie_break_lowest_index(self):
        assert list(knn([0.0, 0.0, 7.0], 2)) == [0, 1]

    def test_matches_full_sort(self):
        rng = np.random.default_rng(5)
        d = rng.standard_normal(1000)
        assert list(knn(d, 50)) == list(np.argsort(d, kind="stable")[:50])

    def test_invariant_to_appending_larger(self):
        d = [2.0, 0.5, 1.5, 3.0]
        base = list(knn(d, 3))
        assert list(knn(d + [10.0, 99.0], 3)) == base

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            knn([1.0, 2.0], 3)


class TestEntrywiseMedian:
    def test_odd_count(self):
        cols = np.array([[1.0, 2.0, 100.0]])
        assert entrywise_median(cols)[0] == 2.0

    def test_even_count_averages(self):
        cols = np.array([[1.0, 3.0]])
        assert entrywise_median(cols)[0] == 2.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(6)
        cols = rng.standard_normal((3, 7))
        med = entrywise_median(cols)
        for i in range(3):
            assert med[i] == np.sort(cols[i])[3]

    def test_permutation_invariant(self):
        rng = np.random.default_rng(7)
        cols = rng.standard_normal((4, 9))
        perm = rng.permutation(9)
        assert np.array_equal(entrywise_median(cols), entrywise_median(cols[:, perm]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            entrywise_median(np.empty((3, 0)))

    @pytest.mark.parametrize("width", range(1, 22))
    def test_equals_numpy_median_with_ties(self, width):
        rng = np.random.default_rng(width)
        for scale in (1.0, 0.1, 1e300, -1e-300):
            cols = rng.integers(0, 3, size=(40, width)) * scale
            assert np.array_equal(entrywise_median(cols), np.median(cols, axis=1))
        cols = rng.standard_normal((40, width))
        assert np.array_equal(entrywise_median(cols), np.median(cols, axis=1))


class TestRandomOrthogonal:
    def test_dim_one_sign_fix(self):
        for seed in range(5):
            assert random_orthogonal(1, seed)[0, 0] == pytest.approx(1.0)

    def test_orthogonality(self):
        Q = random_orthogonal(12, 42)
        assert np.linalg.norm(Q.T @ Q - np.eye(12)) < 1e-10

    def test_determinant_magnitude(self):
        Q = random_orthogonal(9, 3)
        assert abs(abs(np.linalg.det(Q)) - 1.0) < 1e-10

    def test_seed_reproducible(self):
        assert np.array_equal(random_orthogonal(8, 11), random_orthogonal(8, 11))

    def test_invalid_dim(self):
        with pytest.raises(ValueError):
            random_orthogonal(0, 1)


def test_round_half_up():
    assert round_half_up(2.5) == 3
    assert round_half_up(2.49) == 2
    assert round_half_up(3.0) == 3
