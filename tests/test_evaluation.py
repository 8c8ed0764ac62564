import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reference import tsvd_reference
from rosdos import evaluation, numerics
from rosdos.evaluation import baseline_tsvd, nrmse, summarize


class TestNrmse:
    def test_identity_is_zero(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((4, 20))
        assert np.all(nrmse(S, S) == 0.0)

    def test_unit_perturbation(self):
        S = np.zeros((3, 2))
        S[0] = 1.0
        St = S.copy()
        St[1, :] += 1.0
        assert np.allclose(nrmse(S, St), 1.0)

    def test_matches_column_loop(self):
        rng = np.random.default_rng(1)
        S = rng.standard_normal((5, 30))
        St = rng.standard_normal((5, 30))
        out = nrmse(S, St)
        for i in range(30):
            ref = np.linalg.norm(St[:, i] - S[:, i]) / np.linalg.norm(S[:, i])
            assert abs(out[i] - ref) < 1e-12

    def test_zero_column_named(self):
        S = np.ones((3, 4))
        S[:, 2] = 0.0
        with pytest.raises(ValueError, match="2"):
            nrmse(S, S)

    @pytest.mark.parametrize("j", [300, 540, 600, 900, -300, -540, -600, -900])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_exact_at_any_power_of_two(self, j, order):
        # the plain column norms overflow from about 2^510 and underflow
        # from about 2^-510; warnings are errors here
        rng = np.random.default_rng(8)
        S = np.asarray(rng.standard_normal((20, 50)), order=order)
        St = S + 0.1 * rng.standard_normal((20, 50))
        assert np.array_equal(nrmse(2.0 ** j * S, 2.0 ** j * St), nrmse(S, St))

    def test_overflowing_difference(self):
        # S~ - S overflows in column 0 only; warnings are errors here
        assert np.array_equal(nrmse([[1e308], [0]], [[-1e308], [0]]), [2.0])
        rng = np.random.default_rng(9)
        S = rng.standard_normal((4, 6))
        St = S + 0.1 * rng.standard_normal((4, 6))
        big = 2.0 ** 1020 * S
        big[:, 2] = [1e308, -1e308, 0.0, 5e307]
        big_t = 2.0 ** 1020 * St
        big_t[:, 2] = [-1e308, 1e308, 0.0, 5e307]
        out = nrmse(big, big_t)
        keep = np.arange(6) != 2
        assert np.array_equal(out[keep], nrmse(S, St)[keep])
        # ||(-2, 2, 0, 0)|| / ||(1, -1, 0, 0.5)|| in units of 1e308
        assert out[2] == pytest.approx(np.sqrt(32 / 9), rel=1e-15)


    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"shape mismatch: \(3, 4\) vs \(3, 5\)"):
            nrmse(np.ones((3, 4)), np.ones((3, 5)))


class TestBaselineTsvd:
    def test_full_rank_identity(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((6, 10))
        assert np.linalg.norm(baseline_tsvd(X, 6) - X) < 1e-10

    def test_rank_zero(self):
        assert np.all(baseline_tsvd(np.ones((3, 5)), 0) == 0.0)

    def test_exact_rank_two_recovery(self):
        rng = np.random.default_rng(3)
        X = np.outer(rng.standard_normal(8), rng.standard_normal(12))
        X += np.outer(rng.standard_normal(8), rng.standard_normal(12))
        assert np.linalg.norm(baseline_tsvd(X, 2) - X) < 1e-10

    def test_error_monotone_in_rank(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((10, 40))
        errs = [np.linalg.norm(baseline_tsvd(X, r) - X) for r in range(11)]
        assert np.all(np.diff(errs) <= 1e-10)

    def test_invalid_rank(self):
        with pytest.raises(ValueError):
            baseline_tsvd(np.ones((3, 5)), 4)

    @pytest.mark.parametrize("r", [1.5, True, "1", None])
    def test_rejects_non_integer_rank(self, r):
        X = np.random.default_rng(5).standard_normal((3, 30))
        with pytest.raises(ValueError, match="rank must be an integer in"):
            baseline_tsvd(X, r)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        short=st.integers(1, 8),
        extra=st.integers(0, 12),
        transposed=st.booleans(),
        scale=st.one_of(
            st.integers(-60, 60).map(lambda j: 2.0 ** j),
            st.sampled_from([1e-155, 1e-150, 1e150, 1e155]),
        ),
        seed=st.integers(0, 2 ** 32 - 1),
        data=st.data(),
    )
    def test_matches_svd_reference(self, short, extra, transposed, scale, seed, data):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((short, short + extra))
        X = scale * (X.T if transposed else X)
        r = data.draw(st.integers(0, short), label="r")
        lam = np.append(np.linalg.svd(X / scale, compute_uv=False) ** 2, 0.0)
        # the r-th component is resolved: lambda_(r-1) - lambda_r >= 1e-3 lambda_0
        assume(r == 0 or lam[r - 1] - lam[r] >= 1e-3 * lam[0])
        out = baseline_tsvd(X, r)
        ref = tsvd_reference(X, r)
        assert out.shape == X.shape
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out - ref)) <= 1e-10 * np.max(np.abs(ref))
        assert np.any(out != 0) == np.any(ref != 0)

    def test_svd_only_below_the_gram_resolution(self, monkeypatch):
        calls = []

        def counting(M):
            calls.append(M.shape)
            return numerics.svd(M)

        monkeypatch.setattr(evaluation, "svd", counting)
        rng = np.random.default_rng(7)
        U = np.linalg.qr(rng.standard_normal((40, 3)))[0]
        V = np.linalg.qr(rng.standard_normal((300, 3)))[0]
        X = (U * [8.0, 6.0, 4.0]) @ V.T + 0.01 * rng.standard_normal((40, 300))
        for M in (X, X.T):
            np.testing.assert_allclose(
                baseline_tsvd(M, 3), tsvd_reference(M, 3), rtol=0, atol=1e-12)
        assert calls == []

        # rank one: lambda_1 is rounding noise, under sqrt(eps) * lambda_0
        X = np.outer(rng.standard_normal(40), rng.standard_normal(300))
        np.testing.assert_allclose(
            baseline_tsvd(X, 2), tsvd_reference(X, 2), rtol=0, atol=1e-12)
        assert calls == [(40, 300)]

        # lambda_0 = 0
        assert np.all(baseline_tsvd(np.zeros((5, 3)), 2) == 0.0)
        assert calls == [(40, 300), (5, 3)]

    @pytest.mark.parametrize("r", [2, 4])
    def test_svd_when_eigenvector_check_fails(self, r, monkeypatch):
        calls = []

        def counting(M):
            calls.append(M.shape)
            return numerics.svd(M)

        monkeypatch.setattr(evaluation, "svd", counting)
        # block-diagonal Gram matrix: the top r/2 eigenvalues each appear
        # twice, and the two vectors inverse iteration finds are not
        # orthogonal
        rng = np.random.default_rng(8)
        U = np.linalg.qr(rng.standard_normal((20, 2)))[0]
        V = np.linalg.qr(rng.standard_normal((150, 2)))[0]
        A = (U * [8.0, 5.0]) @ V.T + 0.01 * rng.standard_normal((20, 150))
        X = np.kron(np.eye(2), A)
        np.testing.assert_allclose(
            baseline_tsvd(X, r), tsvd_reference(X, r), rtol=0, atol=1e-12)
        assert calls == [(40, 300)]


class TestSummarize:
    def data(self):
        rng = np.random.default_rng(5)
        S = rng.standard_normal((6, 25)) + 3.0
        Xi = 0.1 * rng.standard_normal((6, 25))
        return S, Xi

    def test_identity_denoiser(self):
        S, Xi = self.data()
        rep = summarize(S, S, noise=Xi)
        assert rep["nrmse_median"] == 0.0

    @pytest.mark.parametrize("j", [600, -600])
    def test_statistics_exact_at_any_power_of_two(self, j):
        S, Xi = self.data()
        St = S + Xi
        rep = summarize(S, St, noise=Xi)
        scaled = summarize(2.0 ** j * S, 2.0 ** j * St, noise=2.0 ** j * Xi)
        assert scaled["nrmse"] == rep["nrmse"]
        assert scaled["noise_ratio_median"] == rep["noise_ratio_median"]
        assert scaled["msnr_db"] == rep["msnr_db"]

    def test_noise_shape_mismatch(self):
        S, Xi = self.data()
        with pytest.raises(ValueError, match="noise shape must match clean shape"):
            summarize(S, S, noise=Xi[:, 1:])

    def test_do_nothing_equals_noise_ratio(self):
        S, Xi = self.data()
        rep = summarize(S, S + Xi, noise=Xi)
        ratio = np.linalg.norm(Xi, axis=0) / np.linalg.norm(S, axis=0)
        assert np.allclose(rep["nrmse"], ratio, atol=1e-12)
        assert rep["noise_ratio_median"] == pytest.approx(
            float(np.median(ratio)), abs=1e-12
        )

    def test_aggregates_match_sort_oracle(self):
        S, Xi = self.data()
        rng = np.random.default_rng(6)
        rep = summarize(S, S + 0.3 * rng.standard_normal(S.shape), noise=Xi)
        v = np.sort(np.asarray(rep["nrmse"]))
        n = v.size
        med = 0.5 * (v[(n - 1) // 2] + v[n // 2])
        assert abs(rep["nrmse_median"] - med) < 1e-12
        assert abs(rep["nrmse_mean"] - np.mean(v)) < 1e-12
