import numpy as np
import pytest

from reference import (
    affinity_complete,
    dm_embed,
    full_graph_bandwidth,
    full_graph_sq_dist,
)
from rosdos.diffusion import auto_bandwidth, roseland_embed, select_landmarks
from rosdos.numerics import pairwise_sq_dist
from rosdos.synth import ManifoldSpec, NoiseSpec, make_dataset, sample_m1


def spearman(a, b):
    ra = np.argsort(np.argsort(a)).astype(float)
    rb = np.argsort(np.argsort(b)).astype(float)
    return float(np.corrcoef(ra, rb)[0, 1])


class TestFullGraphSqDist:
    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 15))
        D = full_graph_sq_dist(A)
        assert np.array_equal(D, D.T)
        assert np.all(np.diag(D) == 0.0)


class TestAffinityComplete:
    def test_identical_points(self):
        X = np.ones((3, 2))
        assert np.array_equal(affinity_complete(X, 1.0), [[0.0, 1.0], [1.0, 0.0]])

    def test_unit_exponent(self):
        X = np.array([[0.0, 2.0]])
        W = affinity_complete(X, 4.0)
        assert W[0, 1] == pytest.approx(np.exp(-1.0), abs=1e-12)

    def test_zero_diagonal_symmetric(self):
        rng = np.random.default_rng(0)
        W = affinity_complete(rng.standard_normal((4, 30)), 2.0)
        assert np.all(np.diag(W) == 0.0)
        assert np.array_equal(W, W.T)


class TestDmEmbed:
    def test_two_point_hand_computation(self):
        X = np.array([[0.0, 1.0]])
        for t in (1, 2, 3):
            coords, spectrum = dm_embed(X, 1.0, 1, t)
            assert spectrum[0] == pytest.approx(-1.0)
            v = 1.0 / np.sqrt(2.0)
            expect = (-1.0) ** t * np.array([v, -v])
            # sign convention may flip the whole coordinate
            assert np.allclose(coords[:, 0], expect) or np.allclose(
                coords[:, 0], -expect
            )

    def test_transition_rows_stochastic(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((3, 40))
        W0 = affinity_complete(X, full_graph_bandwidth(X))
        d0 = W0.sum(axis=1)
        W = W0 / np.outer(d0, d0)
        A = W / W.sum(axis=1, keepdims=True)
        assert np.allclose(A.sum(axis=1), 1.0, atol=1e-10)

    def test_clean_circle_angular_order(self):
        rng = np.random.default_rng(2)
        theta = rng.uniform(0.0, 2.0 * np.pi, 500)
        X = np.zeros((3, 500))
        X[0] = np.cos(theta)
        X[1] = np.sin(theta)
        coords, _ = dm_embed(X, full_graph_bandwidth(X), 2, 1)
        phi = np.arctan2(coords[:, 1], coords[:, 0])
        ra = 2.0 * np.pi * np.argsort(np.argsort(theta)) / 500
        rb = 2.0 * np.pi * np.argsort(np.argsort(phi)) / 500
        # circular rank correlation, invariant to rotation and reflection
        corr = max(
            abs(np.mean(np.exp(1j * (ra - rb)))), abs(np.mean(np.exp(1j * (ra + rb))))
        )
        assert corr >= 0.99

    def test_time_doubling_squares_spectrum(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((4, 60))
        h = full_graph_bandwidth(X)
        c1, spectrum1 = dm_embed(X, h, 5, 1)
        c2, _ = dm_embed(X, h, 5, 2)
        assert np.allclose(
            c2, c1 * spectrum1[None, :], atol=1e-10
        )

    def test_permutation_relabels_rows(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((3, 50))
        perm = rng.permutation(50)
        c1, _ = dm_embed(X, 2.0, 4, 1)
        c2, _ = dm_embed(X[:, perm], 2.0, 4, 1)
        assert np.allclose(np.abs(c2), np.abs(c1[perm]), atol=1e-8)


class TestAutoBandwidth:
    def test_median_when_the_correction_is_zero(self):
        # squared distances to the landmarks: two 0s and 198 2s, so the
        # median and the 5th percentile are both 2
        X = np.eye(100)
        assert auto_bandwidth(pairwise_sq_dist(X, X[:, [0, 1]])) == 2.0

    def test_degenerate_cloud_rejected(self):
        X = np.zeros((3, 20))
        with pytest.raises(ValueError, match="degenerate point cloud"):
            auto_bandwidth(pairwise_sq_dist(X, X[:, [0, 1]]))

    def test_non_finite_distances_rejected(self):
        with pytest.raises(ValueError, match="sq_dists contains non-finite"):
            auto_bandwidth(np.array([[1.0, np.nan]]))


class TestSelectLandmarks:
    def test_count(self):
        X = np.zeros((2, 100))
        assert select_landmarks(X, 0.5, 0).size == 10

    def test_unique_sorted_in_range(self):
        X = np.zeros((2, 300))
        idx = select_landmarks(X, 0.6, 7)
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 300

    def test_seed_reproducible(self):
        X = np.zeros((2, 500))
        assert np.array_equal(select_landmarks(X, 0.5, 3), select_landmarks(X, 0.5, 3))

    def test_too_few_landmarks(self):
        with pytest.raises(ValueError):
            select_landmarks(np.zeros((2, 2)), 0.1, 0)

    @pytest.mark.parametrize("gamma", ["0.5", True, None, np.nan, 1.0])
    def test_rejects_gamma_not_real_in_unit_interval(self, gamma):
        with pytest.raises(ValueError, match="gamma must be a real number in"):
            select_landmarks(np.zeros((3, 30)), gamma, 0)


class TestRoselandEmbed:
    def test_degenerate_identical_cloud(self):
        X = np.ones((3, 8))
        coords, _ = roseland_embed(pairwise_sq_dist(X, X[:, :3]), 1.0, 1, 1.0)
        assert np.allclose(coords, 0.0, atol=1e-8)

    def test_zero_kernel_row_rejected(self):
        # the last point's affinity to every landmark underflows to 0
        X = np.array([[0.0, 1.0, 2.0, 1000.0]])
        with pytest.raises(ValueError, match="zero row in the landmark kernel"):
            roseland_embed(pairwise_sq_dist(X, X[:, :3]), 1.0, 1, 1.0)

    def test_negative_squared_distance_rejected(self):
        # exp(-D/h) would overflow to inf at D = -1000
        D = np.ones((5, 3))
        D[2, 1] = -1000.0
        with pytest.raises(ValueError, match="squared distances must be >= 0"):
            roseland_embed(D, 1.0, 1, 1.0)

    def test_top_singular_value_one(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((4, 80))
        lm = select_landmarks(X, 0.5, 0)
        Wb = np.exp(
            -((X[:, :, None] - X[:, None, lm]) ** 2).sum(axis=0) / 2.0
        )
        deg = Wb @ (Wb.T @ np.ones(80))
        Ab = Wb / np.sqrt(deg)[:, None]
        assert np.linalg.svd(Ab, compute_uv=False)[0] == pytest.approx(1.0, abs=1e-8)

    def test_all_landmarks_matches_direct_eig(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((3, 40))
        h = full_graph_bandwidth(X)
        coords, _ = roseland_embed(pairwise_sq_dist(X, X), h, 5, 1.0)

        Wb = np.exp(-((X[:, :, None] - X[:, None, :]) ** 2).sum(axis=0) / h)
        K = Wb @ Wb.T
        deg = K.sum(axis=1)
        sym = K / np.sqrt(np.outer(deg, deg))
        evals, evecs = np.linalg.eigh(sym)
        order = np.argsort(evals)[::-1]
        evals, evecs = evals[order], evecs[:, order]
        ref = evecs[:, 1:6] / np.sqrt(deg)[:, None] * evals[1:6][None, :]
        assert np.allclose(np.abs(coords), np.abs(ref), atol=1e-8)

    @pytest.mark.parametrize("h, t, message", [
        (np.nan, 1.0, "bandwidth h must be positive and finite, got nan"),
        (np.inf, 1.0, "bandwidth h must be positive and finite, got inf"),
        (1.0, np.nan, "diffusion time must be positive and finite, got nan"),
    ])
    def test_rejects_non_finite_bandwidth_and_time(self, h, t, message):
        X = np.random.default_rng(8).standard_normal((3, 30))
        with pytest.raises(ValueError, match=message):
            roseland_embed(pairwise_sq_dist(X, X[:, ::3]), h, 3, t)

    @pytest.mark.parametrize("q_prime", [2.5, True, "2", 0])
    def test_rejects_q_prime_not_a_valid_integer(self, q_prime):
        X = np.random.default_rng(8).standard_normal((3, 30))
        with pytest.raises(ValueError, match="q_prime must be an integer in"):
            roseland_embed(pairwise_sq_dist(X, X[:, ::3]), 2.0, q_prime, 1.0)

    def test_fractional_time_allowed(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((3, 30))
        coords, spectrum = roseland_embed(pairwise_sq_dist(X, X[:, ::3]), 2.0, 3, 0.5)
        assert np.all(spectrum >= 0)
        assert coords.shape == (30, 3)

    def test_underflowing_diffusion_time_rejected(self):
        ds = make_dataset(ManifoldSpec("m1", 60, 400, 0), NoiseSpec("gaussian", 0.5, 1))
        lm = select_landmarks(ds.noisy, 0.5, 0)
        D = pairwise_sq_dist(ds.noisy, ds.noisy[:, lm])
        h = auto_bandwidth(D)
        for t in (1e3, 1e6):
            with pytest.raises(ValueError, match="underflows"):
                roseland_embed(D, h, 10, t)
        # still tiny, but the distances differ
        coords, _ = roseland_embed(D, h, 10, 50)
        assert 0 < np.abs(coords).max() < 1e-20
        assert len({tuple(row) for row in coords}) == 400

    def test_spectrum_in_unit_interval(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((5, 60))
        D = pairwise_sq_dist(X, X[:, select_landmarks(X, 0.5, 1)])
        _, spectrum = roseland_embed(D, auto_bandwidth(D), 4, 1.0)
        assert np.all(spectrum >= -1e-8)
        assert np.all(spectrum <= 1.0 + 1e-8)


class TestDiffusionDistance:
    # the diffusion distance is the Euclidean distance between embedded points
    def distances(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((4, 50))
        c, _ = dm_embed(X, full_graph_bandwidth(X), 5, 1)
        return np.linalg.norm(c[:, None] - c[None], axis=2)

    def test_identity_and_symmetry(self):
        D = self.distances()
        assert D[3, 3] == 0.0
        assert D[2, 7] == D[7, 2]

    def test_triangle_inequality(self):
        D = self.distances()
        rng = np.random.default_rng(11)
        for _ in range(50):
            i, j, k = rng.integers(0, 50, 3)
            assert D[i, j] <= D[i, k] + D[k, j] + 1e-12

    def test_local_spearman_against_geodesic_on_m1(self):
        X, theta = sample_m1(60, 2000, 3)
        D = pairwise_sq_dist(X, X[:, select_landmarks(X, 0.5, 0)])
        coords, _ = roseland_embed(D, auto_bandwidth(D), 10, 0.25)
        rng = np.random.default_rng(12)
        dd, geo = [], []
        while len(dd) < 4000:
            i, j = rng.integers(0, 2000, 2)
            ang = abs(theta[i] - theta[j])
            ang = min(ang, 2.0 * np.pi - ang)
            if i != j and ang < np.pi / 4:
                dd.append(np.linalg.norm(coords[i] - coords[j]))
                geo.append(ang)
        assert spearman(dd, geo) >= 0.95

    @pytest.mark.parametrize("seed", [0, 3])
    def test_roseland_ranks_distances_like_the_full_graph_map_on_m1(self, seed):
        # ROSELAND approximates the diffusion map (Shen & Wu, arXiv
        # 2001.00801): on clean M1 its diffusion distances should order
        # point pairs as the full-graph map's do, at the same bandwidth
        X, _ = sample_m1(60, 1000, seed)
        D = pairwise_sq_dist(X, X[:, select_landmarks(X, 0.5, seed)])
        h = auto_bandwidth(D)
        ros, _ = roseland_embed(D, h, 10, 1.0)
        dm, _ = dm_embed(X, h, 10, 1)
        rng = np.random.default_rng(seed)
        i, j = rng.integers(0, 1000, (2, 4000))
        i, j = i[i != j], j[i != j]
        assert spearman(np.linalg.norm(ros[i] - ros[j], axis=1),
                        np.linalg.norm(dm[i] - dm[j], axis=1)) >= 0.95
