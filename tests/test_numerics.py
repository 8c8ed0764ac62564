import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from rosdos import numerics
from rosdos.numerics import (
    entrywise_median,
    kept_eigenvectors,
    pairwise_sq_dist,
    random_orthogonal,
    round_half_up,
    short_side_spectrum,
    svd,
)

EPS = np.finfo(float).eps


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
    def test_dim_one_is_plus_or_minus_one(self):
        values = {float(random_orthogonal(1, seed)[0, 0]) for seed in range(8)}
        assert values == {-1.0, 1.0}

    def test_diagonal_signs_not_fixed(self):
        # each diagonal entry of a Haar matrix is as likely negative as positive
        signs = np.array([np.sign(np.diag(random_orthogonal(8, s))) for s in range(20)])
        assert np.all(np.abs(signs) == 1.0)
        assert (signs < 0).any(axis=0).all() and (signs > 0).any(axis=0).all()

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


def planted(n, spikes, seed):
    """n x 3n: the given singular values planted over N(0, 1/(3n)) noise."""
    rng = np.random.default_rng(seed)
    m = 3 * n
    U = np.linalg.qr(rng.standard_normal((n, len(spikes))))[0]
    V = np.linalg.qr(rng.standard_normal((m, len(spikes))))[0]
    return (U * spikes) @ V.T + rng.standard_normal((n, m)) / np.sqrt(m)


class TestKeptEigenvectors:
    def assert_checked(self, gram, spectrum, U, index):
        """U passes the helper's checks and equals eigh's vectors up to sign."""
        n = gram.shape[0]
        residual = gram @ U - U * spectrum[index]
        assert np.all(np.linalg.norm(residual, axis=0)
                      <= 8 * np.sqrt(n) * EPS * spectrum[0])
        assert np.max(np.abs(U.T @ U - np.eye(len(index))), initial=0.0) <= (
            64 * n * EPS)
        ref = np.linalg.eigh(gram)[1][:, ::-1][:, index]
        signs = np.where(np.sum(U * ref, axis=0) < 0, -1.0, 1.0)
        assert np.max(np.abs(U - ref * signs), initial=0.0) <= 1e-10

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        n=st.integers(25, 200),
        spikes=st.lists(st.floats(3.0, 20.0), min_size=1, max_size=4),
        seed=st.integers(0, 2 ** 32 - 1),
        data=st.data(),
    )
    def test_checked_or_none(self, n, spikes, seed, data):
        spikes = sorted(spikes, reverse=True)
        _, _, gram, spectrum = short_side_spectrum(planted(n, spikes, seed))
        index = np.array(sorted(data.draw(st.sets(
            st.integers(0, len(spikes) - 1)), label="index")), dtype=int)
        # eigh resolves a vector to 1e-10 when its eigenvalue stands 1e-3
        # lambda_0 apart from the others
        gaps = np.abs(spectrum[:, None] - spectrum[None, :]) + np.eye(n) * spectrum[0]
        assume(np.all(gaps[index].min(axis=1) >= 1e-3 * spectrum[0]))
        U = kept_eigenvectors(gram, spectrum, index)
        if U is not None:
            assert U.shape == (n, index.size)
            self.assert_checked(gram, spectrum, U, index)

    @pytest.mark.parametrize("n, index", [(101, [0]), (101, [0, 1, 2]), (200, [0, 2])])
    def test_separated_spikes_returned(self, n, index):
        _, _, gram, spectrum = short_side_spectrum(planted(n, [8.0, 6.0, 4.0], n))
        index = np.array(index)
        U = kept_eigenvectors(gram, spectrum, index)
        assert U is not None
        self.assert_checked(gram, spectrum, U, index)

    def test_none_kept(self):
        _, _, gram, spectrum = short_side_spectrum(planted(30, [5.0], 1))
        U = kept_eigenvectors(gram, spectrum, np.array([], dtype=int))
        assert U.shape == (30, 0)

    def test_repeated_eigenvalue_fails_orthogonality(self):
        # block-diagonal Gram matrix: every eigenvalue appears twice
        A = planted(30, [8.0, 6.0], 2)
        _, _, gram, spectrum = short_side_spectrum(np.kron(np.eye(2), A))
        assert kept_eigenvectors(gram, spectrum, np.array([0, 1])) is None
        # one vector of the pair passes: any unit vector of the plane will do
        U = kept_eigenvectors(gram, spectrum, np.array([0]))
        assert np.linalg.norm(gram @ U - spectrum[0] * U) <= (
            8 * np.sqrt(60) * EPS * spectrum[0])

    @staticmethod
    def count_solves(monkeypatch):
        solves = []
        solve = np.linalg.solve

        def counted(a, b):
            solves.append(1)
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", counted)
        return solves

    @pytest.mark.parametrize("n", [25, 101, 200])
    def test_separated_top_vector_takes_no_solve(self, n, monkeypatch):
        _, _, gram, spectrum = short_side_spectrum(planted(n, [8.0, 3.0], n))
        assert spectrum[1] < numerics._POWER_RATIO_MAX * spectrum[0]

        def no_solve(a, b):
            raise np.linalg.LinAlgError("power steps should need no solve")

        monkeypatch.setattr(np.linalg, "solve", no_solve)
        index = np.array([0])
        U = kept_eigenvectors(gram, spectrum, index)
        assert U is not None
        self.assert_checked(gram, spectrum, U, index)

    @pytest.mark.parametrize("index", [[0], [0, 1]])
    def test_close_top_pair_takes_inverse_iteration(self, index, monkeypatch):
        _, _, gram, spectrum = short_side_spectrum(planted(101, [8.0, 7.6], 3))
        assert spectrum[1] > 0.9 * spectrum[0]
        solves = self.count_solves(monkeypatch)
        index = np.array(index)
        U = kept_eigenvectors(gram, spectrum, index)
        assert U is not None and len(solves) >= index.size
        self.assert_checked(gram, spectrum, U, index)

    def test_power_steps_that_miss_fall_back(self, monkeypatch):
        # the top vector is nearly orthogonal to the power steps' start
        # 1/sqrt(n), so the step count from the spectrum leaves a residual
        # far above the bound, and inverse iteration takes over
        n = 60
        top = np.where(np.arange(n) % 2, -1.0, 1.0) + 1e-9
        rng = np.random.default_rng(4)
        Q = np.linalg.qr(np.column_stack([top, rng.standard_normal((n, n - 1))]))[0]
        spectrum = np.concatenate([[10.0], np.linspace(1.0, 0.01, n - 1)])
        gram = (Q * spectrum) @ Q.T
        solves = self.count_solves(monkeypatch)
        index = np.array([0])
        U = kept_eigenvectors(gram, spectrum, index)
        assert U is not None and len(solves) >= 1
        self.assert_checked(gram, spectrum, U, index)

    def test_singular_shift_returns_none(self):
        gram = np.zeros((30, 30))
        assert kept_eigenvectors(gram, np.zeros(30), np.array([0])) is None


class TestShortSideSpectrum:
    @pytest.mark.parametrize("transpose", [False, True])
    def test_eigenvalues_of_short_side_gram(self, transpose):
        X = planted(40, [6.0, 3.0], 5)
        X = X.T if transpose else X
        Xw, transposed, gram, spectrum = short_side_spectrum(X)
        assert transposed == transpose and Xw.shape == (40, 120)
        assert np.array_equal(gram, Xw @ Xw.T)
        sv = np.linalg.svd(X, compute_uv=False)
        assert np.all(np.diff(spectrum) <= 0) and np.all(spectrum >= 0)
        assert np.max(np.abs(spectrum - sv ** 2)) <= 1e-12 * spectrum[0]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_non_finite_gram_gives_nan_spectrum(self):
        X = 1e200 * planted(30, [5.0], 3)
        _, _, gram, spectrum = short_side_spectrum(X)
        assert not np.all(np.isfinite(gram))
        assert spectrum.shape == (30,) and np.all(np.isnan(spectrum))
