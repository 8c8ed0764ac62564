import math

import numpy as np
import pytest

from rosdos import synth
from rosdos.synth import (
    ManifoldSpec,
    NoiseSpec,
    gaussian_noise,
    make_dataset,
    msnr,
    sample_klein,
    sample_m1,
    separable_noise,
)


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between the
    two empirical distribution functions."""
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    Fa = np.searchsorted(a, grid, side="right") / a.size
    Fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(Fa - Fb)))


def dense_haar_reference(left, d, rng, draws):
    """The n x n construction, batched over draws: left @ O diag(d) O^T with
    O the QR factor of an n x n Gaussian under two sign fixes (R's diagonal,
    then O's diagonal, made positive); column signs cancel in O diag(d) O^T,
    so the second fix does not change the distribution."""
    n = left.shape[1]
    O, R = np.linalg.qr(rng.standard_normal((draws, n, n)))
    O = O * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    O = O * np.sign(np.diagonal(O, axis1=1, axis2=2))[:, None, :]
    return ((left @ O) * d) @ np.swapaxes(O, 1, 2)


def times_b_half_with_q(left, d, rng_h, rng_f):
    """synth._times_b_half as first written: E's coordinates in the basis F
    come from E^T F with F the thin QR's Q factor, not from the R factor."""
    p, n = left.shape
    V, C = np.linalg.qr(left.T)
    r = V.shape[1]
    H = synth.haar_frame(rng_h.standard_normal((n, r)))
    Y = d[:, None] * (H @ C)
    Yh = H.T @ Y
    out = Yh.T @ V.T
    s = min(p, n - r)
    if s > 0:
        E = Y - H @ Yh
        F = np.linalg.qr(E)[0][:, :s]
        G = rng_f.standard_normal((n, s))
        Fp = synth.haar_frame(G - V @ (V.T @ G))
        out += (E.T @ F) @ Fp.T
    return out


def noise_statistics(Xi):
    """Xi[0,0], Xi[1,2], rows 0 and 1's inner product, column 0's squared
    norm and the squared Frobenius norm, for one matrix or a stack."""
    return np.stack([
        Xi[..., 0, 0],
        Xi[..., 1, 2],
        np.sum(Xi[..., 0, :] * Xi[..., 1, :], axis=-1),
        np.sum(Xi[..., :, 0] ** 2, axis=-1),
        np.sum(Xi ** 2, axis=(-2, -1)),
    ], axis=-1)


class TestSampleM1:
    def m1_column(self, p, theta):
        J = -(-2 * p // 5)
        col = np.zeros(p)
        for k in range(1, J + 1):
            col[2 * k - 2] = np.sin(k * theta) / (2 * k - 1)
            col[2 * k - 1] = np.cos(k * theta) / (2 * k)
        return col

    def test_theta_zero_column(self):
        # theta = 0: sines vanish, cosines give 1/2, 1/4, 1/6, 1/8 (J=4 at p=10)
        col = self.m1_column(10, 0.0)
        expect = np.zeros(10)
        expect[[1, 3, 5, 7]] = [1 / 2, 1 / 4, 1 / 6, 1 / 8]
        assert np.allclose(col, expect)

    def test_matches_latent_parameters(self):
        S, theta = sample_m1(10, 50, 0)
        for i in range(50):
            assert np.allclose(S[:, i], self.m1_column(10, theta[i]))

    def test_zero_padding(self):
        S, _ = sample_m1(200, 20, 1)
        assert np.all(S[160:] == 0.0)
        assert np.any(S[159] != 0.0)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            sample_m1(4, 10, 0)


class TestSampleKlein:
    def klein_column(self, t, s):
        return np.array(
            [
                (2 * np.cos(t) + 1) * np.cos(s),
                (2 * np.cos(t) + 1) * np.sin(s),
                2 * np.sin(t) * np.cos(s / 2),
                2 * np.sin(t) * np.sin(s / 2),
            ]
        )

    def test_substitution_examples(self):
        assert np.allclose(self.klein_column(0.0, 0.0), [3, 0, 0, 0])
        assert np.allclose(self.klein_column(np.pi / 2, 0.0), [1, 0, 2, 0])

    def test_matches_latent_parameters(self):
        S, latent = sample_klein(9, 40, 2)
        for i in range(40):
            assert np.allclose(S[:4, i], self.klein_column(*latent[i]))
        assert np.all(S[4:] == 0.0)

    def test_planar_norm_bound(self):
        S, latent = sample_klein(6, 200, 3)
        norms = np.linalg.norm(S[:2], axis=0)
        assert np.allclose(norms, np.abs(2 * np.cos(latent[:, 0]) + 1), atol=1e-12)
        assert np.all(norms <= 3.0 + 1e-12)

    def test_rejects_small_p(self):
        with pytest.raises(ValueError):
            sample_klein(3, 10, 0)


class TestGaussianNoise:
    def test_moments(self):
        Xi = gaussian_noise(200, 5000, 0)
        assert abs(Xi.mean()) < 4.0 / np.sqrt(200 * 5000)
        assert abs(Xi.var() - 1.0) < 0.05

    def test_deterministic(self):
        assert np.array_equal(gaussian_noise(20, 30, 5), gaussian_noise(20, 30, 5))

    def test_seeds_decorrelated(self):
        a = gaussian_noise(50, 200, 1).ravel()
        b = gaussian_noise(50, 200, 2).ravel()
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.05


class TestSeparableNoise:
    def test_eigenvalues_positive(self):
        _, a_eigs, b_eigs = separable_noise(60, 100, 0)
        assert np.all(a_eigs > 0.05)
        assert np.all(b_eigs > 0.05)

    def test_a_eigenvalue_bands(self):
        # base levels {1, 1/4, 1/2} plus a semicircle perturbation of scale 1/16
        _, a_eigs, _ = separable_noise(300, 10, 1)
        assert a_eigs.min() > 3.0 / 16.0 - 0.1
        assert a_eigs.max() < 1.0 + 0.1

    def test_deterministic(self):
        x1, a1, b1 = separable_noise(30, 50, 7)
        x2, a2, b2 = separable_noise(30, 50, 7)
        assert np.array_equal(x1, x2)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)

    def test_esd_self_consistency(self):
        # the ESD of Xi Xi^T / n is stable across independent seeds
        def esd(seed):
            Xi, _, _ = separable_noise(300, 2500, seed)
            return np.sort(np.linalg.eigvalsh(Xi @ Xi.T / 2500))

        e1, e2 = esd(10), esd(20)
        grid = np.linspace(
            min(e1[0], e2[0]), max(e1[-1], e2[-1]), 2000
        )
        F1 = np.searchsorted(e1, grid, side="right") / 300
        F2 = np.searchsorted(e2, grid, side="right") / 300
        ks = np.max(np.abs(F1 - F2))
        assert ks < 0.05
        # supported away from zero, unlike a degenerate spectrum
        assert e1[0] > 0.01

    def test_row_covariance_identity(self):
        # E[Xi Xi^T] = A * tr(B) / n for separable noise with E Z Z^T = I * n...
        # empirical column covariance approaches A * mean(b_eigs)
        p, n = 30, 6000
        Xi, a_eigs, b_eigs, A = separable_noise(p, n, 0, with_row_cov=True)
        C = (Xi @ Xi.T) / n
        target = A * b_eigs.mean()
        rel = np.linalg.norm(C - target) / np.linalg.norm(target)
        assert rel < 0.10

    def test_rejects_tiny_input(self):
        with pytest.raises(ValueError):
            separable_noise(2, 10, 0)

    # p < n with n >= 2p, p < n < 2p, p = n and p > n
    @pytest.mark.parametrize("p,n", [(3, 8), (3, 5), (4, 4), (5, 3)])
    def test_matches_dense_haar_construction(self, p, n):
        # conditional on a fixed left factor and B spectrum, the frame-based
        # sampler and the n x n construction give the same distribution
        draws = 20000
        rng = np.random.default_rng(100 * p + n)
        left = rng.standard_normal((p, n))
        d = rng.uniform(0.5, 2.0, size=n)
        rng_h, rng_f = np.random.default_rng(1), np.random.default_rng(2)
        sampled = np.array([
            noise_statistics(synth._times_b_half(left, d, rng_h, rng_f))
            for _ in range(draws)
        ])
        reference = noise_statistics(
            dense_haar_reference(left, d, np.random.default_rng(3), draws))
        critical = 1.95 * math.sqrt(2.0 / draws)  # alpha = 0.001
        gaps = [ks_statistic(sampled[:, j], reference[:, j]) for j in range(5)]
        assert max(gaps) <= critical, gaps

    def test_draws_rotation_only_of_size_p(self, monkeypatch):
        dims = []
        real = synth.random_orthogonal

        def recording(dim, seed):
            dims.append(dim)
            return real(dim, seed)

        monkeypatch.setattr(synth, "random_orthogonal", recording)
        separable_noise(200, 2000, 0)
        assert dims == [200]

    # s = min(p, n - r) > 0 on all but (60, 40)
    @pytest.mark.parametrize("p,n", [(200, 2000), (60, 100), (40, 300), (60, 40)])
    def test_r_factor_matches_q_factor_construction(self, monkeypatch, p, n):
        Xi, a_eigs, b_eigs, A = separable_noise(p, n, 5, with_row_cov=True)
        monkeypatch.setattr(synth, "_times_b_half", times_b_half_with_q)
        ref, ref_a, ref_b, ref_A = separable_noise(p, n, 5, with_row_cov=True)
        assert np.max(np.abs(Xi - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(a_eigs, ref_a)
        assert np.array_equal(b_eigs, ref_b)
        assert np.array_equal(A, ref_A)

    def test_row_side_draws_unchanged(self):
        # A's spectrum and rotation and B's spectrum come from the same random
        # streams as the n x n construction's; only B's rotation is new
        _, a_eigs, b_eigs, A = separable_noise(4, 6, 3, with_row_cov=True)
        np.testing.assert_allclose(a_eigs, [
            1.038726124900512, 0.26601191656268997,
            0.4977744699406418, 0.46602058685602554,
        ], rtol=1e-12, atol=0)
        np.testing.assert_allclose(b_eigs, [
            0.1917506738320666, 0.32479513831353735, 0.29888753669928825,
            1.0513923871703437, 1.306663991609196, 0.9453996902102805,
        ], rtol=1e-12, atol=0)
        np.testing.assert_allclose(A, [
            [0.7626487693698901, 0.16322845502197683,
             -0.11842976176631514, 0.18778173140701948],
            [0.1632284550219768, 0.5888834935088195,
             -0.10164427846702571, 0.10477473575454763],
            [-0.11842976176631512, -0.10164427846702571,
             0.42676786314287934, -0.18616119584326185],
            [0.1877817314070195, 0.10477473575454764,
             -0.18616119584326185, 0.49023297223828055],
        ], rtol=1e-12, atol=1e-15)


class TestMsnr:
    def test_equal_energy_zero_db(self):
        rng = np.random.default_rng(0)
        S = rng.standard_normal((5, 400))
        assert msnr(S, S[:, ::-1].copy()) == pytest.approx(0.0, abs=1e-9)

    def test_scaling_law(self):
        rng = np.random.default_rng(1)
        S = rng.standard_normal((5, 300))
        Xi = rng.standard_normal((5, 300))
        assert msnr(10.0 * S, Xi) == pytest.approx(msnr(S, Xi) + 20.0, abs=1e-9)

    def test_mean_shift_invariant(self):
        rng = np.random.default_rng(2)
        S = rng.standard_normal((4, 200))
        Xi = rng.standard_normal((4, 200))
        assert msnr(S + 5.0, Xi) == pytest.approx(msnr(S, Xi), abs=1e-9)

    def test_rejects_zero_noise(self):
        with pytest.raises(ValueError):
            msnr(np.random.default_rng(3).standard_normal((3, 10)), np.zeros((3, 10)))


class TestMakeDataset:
    def test_large_alpha_limit(self):
        ds = make_dataset(
            ManifoldSpec("m1", 20, 50, 0), NoiseSpec("gaussian", 50.0, 1)
        )
        assert np.allclose(ds.noisy, ds.clean, atol=1e-40)

    def test_noise_second_moment(self):
        ds = make_dataset(
            ManifoldSpec("m1", 100, 2000, 0), NoiseSpec("gaussian", 0.5, 1)
        )
        assert ds.noise.var() == pytest.approx(1.0 / 100.0, rel=0.05)

    def test_m1_gaussian_alpha_one_msnr(self, m1_gaussian_msnr):
        ds = make_dataset(
            ManifoldSpec("m1", 200, 5000, 0), NoiseSpec("gaussian", 1.0, 1)
        )
        assert abs(ds.msnr_db - m1_gaussian_msnr(200, 1.0)) <= 2.0

    def test_m1_gaussian_alpha_half_msnr(self, m1_gaussian_msnr):
        ds = make_dataset(
            ManifoldSpec("m1", 200, 5000, 0), NoiseSpec("gaussian", 0.5, 1)
        )
        assert abs(ds.msnr_db - m1_gaussian_msnr(200, 0.5)) <= 2.0

    def test_m1_separable_alpha_third_msnr(self):
        ds = make_dataset(
            ManifoldSpec("m1", 200, 5000, 0), NoiseSpec("separable", 1.0 / 3.0, 1)
        )
        assert abs(ds.msnr_db - (-4.2)) <= 2.0

    @pytest.fixture
    def no_sampling(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a sampler ran before the specs were checked")

        for name in ("sample_m1", "sample_klein", "gaussian_noise", "separable_noise"):
            monkeypatch.setattr(synth, name, fail)

    def test_unknown_kinds_rejected(self, no_sampling):
        with pytest.raises(ValueError, match="manifold"):
            make_dataset(ManifoldSpec("m9", 20, 30, 0), NoiseSpec("gaussian", 1.0, 0))
        with pytest.raises(ValueError, match="noise"):
            make_dataset(ManifoldSpec("m1", 20, 30, 0), NoiseSpec("pink", 1.0, 0))

    @pytest.mark.parametrize("p,n", [(20.0, 30), (True, 30), (20, "30"), (20, None)])
    def test_non_integer_sizes_rejected_before_sampling(self, no_sampling, p, n):
        with pytest.raises(ValueError, match="must be an integer"):
            make_dataset(ManifoldSpec("m1", p, n, 0), NoiseSpec("gaussian", 1.0, 0))

    @pytest.mark.parametrize(
        "alpha", [-1.0, math.nan, math.inf, -math.inf, True, "0.5", None])
    @pytest.mark.parametrize("noise", ["gaussian", "separable"])
    def test_bad_alpha_rejected_before_sampling(self, no_sampling, alpha, noise):
        with pytest.raises(ValueError, match="alpha"):
            make_dataset(ManifoldSpec("m1", 200, 3000, 0), NoiseSpec(noise, alpha, 1))
