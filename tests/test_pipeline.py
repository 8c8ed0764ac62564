import dataclasses
import sys

import numpy as np
import pytest

from rosdos import pipeline, shrinkage
from rosdos.evaluation import nrmse
from rosdos.numerics import pairwise_sq_dist
from rosdos.pipeline import (
    MODE_GLOBAL_SHRINK,
    MODE_ROSELAND,
    MODE_SHRINK_ONLY,
    GlobalMetric,
    PipelineConfig,
    _local_distances,
    global_metric,
    recover_point,
    rosdos,
)
from rosdos.synth import gaussian_noise, sample_m1, separable_noise


def angdist(a, b):
    d = np.abs(a - b) % (2.0 * np.pi)
    return np.minimum(d, 2.0 * np.pi - d)


class TestPipelineConfig:
    def test_defaults_valid(self):
        PipelineConfig().validate(5000)

    def test_neighbor_ordering_enforced(self):
        with pytest.raises(ValueError):
            PipelineConfig(K=10, k_local=10).validate(100)
        with pytest.raises(ValueError):
            PipelineConfig(K=100, k_local=5).validate(100)

    @pytest.mark.parametrize(
        "field, value",
        [("K", 50.5), ("k_local", 2.5), ("q_prime", 2.5), ("k_imp", 3.5),
         ("K", True), ("seed", 1.5), ("seed", -1), ("q_prime", 0), ("k_imp", 0)],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value}).validate(1000)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            PipelineConfig(global_mode="magic").validate(1000)

    def test_bad_bandwidth(self):
        for h in (-1.0, 0.0, np.inf, np.nan, True, "1.0"):
            with pytest.raises(ValueError, match="h must be"):
                PipelineConfig(h=h).validate(1000)

    @pytest.mark.parametrize("gamma", ["0.5", None, True, 0.0, 1.0, np.nan])
    def test_bad_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma must be a real number"):
            PipelineConfig(gamma=gamma).validate(1000)

    @pytest.mark.parametrize("t", [-1, 0, 0.0, np.inf, np.nan, "1", True])
    def test_bad_diffusion_time(self, t):
        with pytest.raises(ValueError, match="t must be positive and finite"):
            PipelineConfig(t=t).validate(1000)

    def test_too_few_landmarks_rejected_in_roseland_mode(self):
        with pytest.raises(ValueError, match=r"landmark count round\(300\^0.05\) = 1 < 2"):
            PipelineConfig(gamma=0.05, K=30, k_local=5).validate(300)
        # the other modes draw no landmarks
        for mode in (MODE_GLOBAL_SHRINK, MODE_SHRINK_ONLY):
            PipelineConfig(global_mode=mode, gamma=0.05, K=30, k_local=5).validate(300)

    def test_real_gamma_and_t_accepted(self):
        PipelineConfig(gamma=np.float64(0.25), t=0.5).validate(1000)
        PipelineConfig(t=np.int64(3)).validate(1000)


def metric_distance(m, i, j):
    return np.linalg.norm(m.coords[i] - m.coords[j])


def reference_neighborhoods(coords, K, block):
    """K nearest neighbors per point from per-block pairwise_sq_dist and a
    stable argsort of each row, self excluded."""
    P = coords.T
    ref = np.empty((P.shape[1], K), dtype=int)
    for start in range(0, P.shape[1], block):
        stop = min(start + block, P.shape[1])
        D = pairwise_sq_dist(P[:, start:stop], P)
        order = np.argsort(D, axis=1, kind="stable")
        for r, i in enumerate(range(start, stop)):
            ref[i] = order[r][order[r] != i][:K]
    return ref


def blocked_neighborhoods(monkeypatch, metric, K, block):
    """metric.neighborhoods(K) taking block rows at a time: _BLOCK_BYTES set
    to hold exactly block rows of squared distances."""
    n = metric.coords.shape[0]
    monkeypatch.setattr(pipeline, "_BLOCK_BYTES", 8 * n * block)
    return metric.neighborhoods(K)


class TestGlobalMetric:
    def test_identical_points_roseland(self):
        X = np.ones((4, 10))
        cfg = PipelineConfig(h=1.0, K=5, k_local=2)
        m = global_metric(X, cfg)
        assert m.shrink is None
        assert metric_distance(m, 0, 9) == pytest.approx(0.0, abs=1e-8)

    def test_symmetry_nonnegativity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 120))
        m = global_metric(X, PipelineConfig(K=20, k_local=5))
        for i, j in [(0, 5), (3, 100), (7, 7)]:
            assert metric_distance(m, i, j) == metric_distance(m, j, i) >= 0.0

    def test_roseland_forms_the_landmark_distances_once(self, monkeypatch):
        shapes = []

        def counted(A, B):
            shapes.append((np.shape(A)[1], np.shape(B)[1]))
            return pairwise_sq_dist(A, B)

        # every module of the package that binds the name
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "rosdos"
                    and vars(module).get("pairwise_sq_dist") is pairwise_sq_dist):
                monkeypatch.setattr(module, "pairwise_sq_dist", counted)
        X = np.random.default_rng(3).standard_normal((10, 400))
        global_metric(X, PipelineConfig())
        assert shapes == [(400, 20)]

    def test_global_shrink_noiseless_rank2(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((60, 2)) @ rng.standard_normal((2, 300))
        m = global_metric(X, PipelineConfig(global_mode=MODE_GLOBAL_SHRINK, K=20, k_local=5))
        assert m.shrink is not None
        for i, j in [(0, 1), (5, 200), (17, 99)]:
            raw = np.linalg.norm(X[:, i] - X[:, j])
            assert metric_distance(m, i, j) == pytest.approx(raw, rel=0.02)

    def test_neighborhoods_match_bruteforce(self, monkeypatch):
        rng = np.random.default_rng(2)
        m = GlobalMetric(coords=rng.standard_normal((50, 3)))
        hoods = blocked_neighborhoods(monkeypatch, m, 7, 16)
        for i in range(50):
            d = np.linalg.norm(m.coords - m.coords[i], axis=1)
            order = np.argsort(d, kind="stable")
            ref = order[order != i][:7]
            assert np.array_equal(hoods[i], ref)

    def test_neighborhoods_tie_break_matches_stable_argsort(self, monkeypatch):
        # integer points repeated: exact distance ties straddle the K-th place
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 3, size=(60, 2)).astype(float)
        m = GlobalMetric(coords=np.concatenate([pts, pts[:25]]))
        for K, block in [(7, 16), (30, 32), (84, 512), (np.int64(84), 1)]:
            ref = reference_neighborhoods(m.coords, K, block)
            assert np.array_equal(
                blocked_neighborhoods(monkeypatch, m, K, block), ref)

    @pytest.mark.parametrize("n", [100, 600, 1100])
    def test_neighborhoods_default_block_matches_reference(self, monkeypatch, n):
        # the default block holds _BLOCK_BYTES of distances: one block at
        # n=100; 436 rows at n=600 and 238 at n=1100, neither dividing n
        block = pipeline._BLOCK_BYTES // (8 * n)
        assert (n < block) == (n == 100)
        assert n == 100 or n % block
        rng = np.random.default_rng(n)
        coords = rng.integers(0, 4, size=(n, 3)).astype(float)  # many ties
        m = GlobalMetric(coords=coords)
        refs = {K: reference_neighborhoods(coords, K, block) for K in (5, 40)}
        for K, ref in refs.items():
            assert np.array_equal(m.neighborhoods(K), ref)
        # then 97 rows at a time
        for K, ref in refs.items():
            assert np.array_equal(blocked_neighborhoods(monkeypatch, m, K, 97), ref)

    @pytest.mark.parametrize("block", [1, 37, 512])
    def test_neighborhoods_match_reference_on_real_coords(self, monkeypatch, block):
        # 340 points: one block at 512 rows, several at 37 and 1; the last
        # 40 repeat the first 40, an exact tie for each of them
        rng = np.random.default_rng(35)
        coords = 5.0 + 1e3 * rng.standard_normal((300, 4))
        m = GlobalMetric(coords=np.concatenate([coords, coords[:40]]))
        for K in (1, 20, 100):
            ref = reference_neighborhoods(m.coords, K, block)
            assert np.array_equal(blocked_neighborhoods(monkeypatch, m, K, block), ref)

    @pytest.mark.parametrize("K", [0, -1, 10, 11, 2.0, True, None])
    def test_neighborhoods_bad_K_rejected(self, K):
        m = GlobalMetric(coords=np.zeros((10, 2)))
        with pytest.raises(ValueError, match=r"K must be an integer in \[1, 9\]"):
            m.neighborhoods(K)

    def test_noisy_m1_recall_beats_raw(self):
        p, n, K = 200, 2000, 100
        from rosdos.synth import sample_m1

        S, theta = sample_m1(p, n, 0)
        X = S + gaussian_noise(p, n, 1) / np.sqrt(p)
        A = angdist(theta[:, None], theta[None, :])
        np.fill_diagonal(A, np.inf)
        true20 = np.argsort(A, axis=1)[:, :20]
        hood = global_metric(X, PipelineConfig(K=K, k_local=20, seed=0)).neighborhoods(K)
        raw = GlobalMetric(coords=X.T).neighborhoods(K)

        def recall(h):
            return np.mean(
                [np.isin(true20[i], h[i]).mean() for i in range(n)]
            )

        assert recall(hood) > recall(raw)


class TestLocalDenoise:
    def test_identical_columns_zero_dists(self):
        X = np.tile(np.arange(30.0)[:, None], (1, 80))
        cfg = PipelineConfig(global_mode=MODE_GLOBAL_SHRINK, K=40, k_local=5)
        patch = np.concatenate([[3], np.arange(41)[np.arange(41) != 3][:40]])
        dists, _, _ = _local_distances(X[:, patch], cfg)
        assert dists.shape == (41,)
        assert np.allclose(dists, 0.0, atol=1e-8)

    def test_noiseless_planar_patch(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(60)
        u, v = rng.standard_normal(60), rng.standard_normal(60)
        a, b = rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40)
        X = c[:, None] + np.outer(u, a) + np.outer(v, b)
        cfg = PipelineConfig(global_mode=MODE_GLOBAL_SHRINK, K=39, k_local=5)
        dists, rank, fell_back = _local_distances(X, cfg)
        assert not fell_back
        assert rank <= 3
        raw = np.linalg.norm(X - X[:, :1], axis=0)
        assert np.allclose(dists[1:], raw[1:], rtol=0.02)
        assert dists[0] == 0.0

    def test_noisy_m1_angles_beat_raw(self):
        p, n = 150, 1200
        S, theta = sample_m1(p, n, 3)
        Xi, _, _ = separable_noise(p, n, 7)
        X = S + Xi / p ** (1.0 / 3.0)
        cfg = PipelineConfig(K=100, k_local=20, seed=0)
        hoods = global_metric(X, cfg).neighborhoods(cfg.K)
        from rosdos.pipeline import _local_distances

        rng = np.random.default_rng(0)
        sh_ang, raw_ang = [], []
        for i in rng.choice(n, 40, replace=False):
            patch = np.concatenate([[i], hoods[i]])
            Xp = X[:, patch]
            d_sh, _, _ = _local_distances(Xp, cfg)
            d_raw = np.linalg.norm(Xp - Xp[:, :1], axis=0)
            sel_sh = patch[np.argsort(d_sh, kind="stable")[: cfg.k_local]]
            sel_raw = patch[np.argsort(d_raw, kind="stable")[: cfg.k_local]]
            sh_ang.append(angdist(theta[sel_sh], theta[i]).mean())
            raw_ang.append(angdist(theta[sel_raw], theta[i]).mean())
        assert np.mean(sh_ang) < np.mean(raw_ang)


class TestRecoverPoint:
    def test_k_one_returns_self(self):
        rng = np.random.default_rng(4)
        Xi = rng.standard_normal((6, 10))
        d = np.concatenate([[0.0], rng.uniform(0.1, 1.0, 9)])
        assert np.array_equal(recover_point(Xi, np.arange(Xi.shape[1]), d, 1), Xi[:, 0])

    def test_median_example(self):
        Xi = np.array([[1.0, 2.0, 100.0]])
        for k in (3, np.int64(3)):
            assert recover_point(Xi, np.arange(Xi.shape[1]), [0.0, 0.1, 0.2], k)[0] == 2.0

    def test_tie_break_lowest_index(self):
        Xi = np.array([[5.0, 1.0, 2.0, 3.0]])
        out = recover_point(Xi, np.arange(Xi.shape[1]), [0.0, 0.5, 0.5, 0.5], 2)
        assert out[0] == 3.0  # columns 0 and 1 selected, median of (5, 1)

    def test_coordinate_bounds(self):
        rng = np.random.default_rng(5)
        Xi = rng.standard_normal((8, 20))
        d = np.concatenate([[0.0], rng.uniform(0.1, 2.0, 19)])
        out = recover_point(Xi, np.arange(Xi.shape[1]), d, 7)
        sel = np.argsort(d, kind="stable")[:7]
        assert np.all(out >= Xi[:, sel].min(axis=1) - 1e-15)
        assert np.all(out <= Xi[:, sel].max(axis=1) + 1e-15)

    def test_clean_circle_chord_bound(self):
        theta = np.linspace(0.0, 0.4, 15)
        Xi = np.vstack([np.cos(theta), np.sin(theta)])
        d = np.linalg.norm(Xi - Xi[:, :1], axis=0)
        out = recover_point(Xi, np.arange(Xi.shape[1]), d, 5)
        sel = np.argsort(d, kind="stable")[:5]
        diam = max(
            np.linalg.norm(Xi[:, a] - Xi[:, b]) for a in sel for b in sel
        )
        assert np.linalg.norm(out - Xi[:, 0]) <= diam

    def test_invalid_k(self):
        for k in [4, 0, -1, True, 2.5, 2.0, "2", None]:
            with pytest.raises(ValueError,
                               match=r"k_local must be an integer in \[1, 3\]"):
                recover_point(np.ones((2, 3)), np.arange(3), [0.0, 1.0, 2.0], k)

    @pytest.mark.parametrize("patch", [
        [-1, 0, 1],             # would wrap to column 9
        [0, 1, 20],             # past the end, though never selected
        [0.0, 1.0, 2.0],
        [True, False, True],
    ])
    def test_patch_must_name_columns(self, patch):
        X = np.arange(50.0).reshape(5, 10)
        with pytest.raises(ValueError, match=r"integer column indices in \[0, 10\)"):
            recover_point(X, np.array(patch), np.zeros(3), 2)

    def test_X_must_be_2d(self):
        with pytest.raises(ValueError, match=r"X must be 2-D, got shape \(5,\)"):
            recover_point(np.ones(5), np.arange(3), np.zeros(3), 2)

    def test_reads_only_selected_columns(self):
        X = np.arange(12.0).reshape(2, 6)
        X[0, 5] = np.nan
        patch = np.array([2, 0, 5, 3])
        d = [0.0, 0.2, 0.9, 0.1]
        assert np.array_equal(recover_point(X, patch, d, 3), [2.0, 8.0])
        with pytest.raises(ValueError, match="non-finite"):
            recover_point(X, patch, d, 4)

    @pytest.mark.parametrize("k", [1, 4, 5, 8])
    def test_block_matches_single_points(self, k):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((5, 30))
        X[2, 29] = np.nan
        # column 29 ends every patch, farthest, so it is never selected
        patches = np.stack([np.append(rng.permutation(29)[:8], 29) for _ in range(6)])
        d = rng.integers(0, 3, size=patches.shape).astype(float)  # many ties
        d[:, -1] = 3.0
        block = recover_point(X, patches, d, k)
        assert block.shape == (5, 6)
        for row in range(6):
            assert np.array_equal(block[:, row], recover_point(X, patches[row], d[row], k))
        with pytest.raises(ValueError, match="must match"):
            recover_point(X, patches, d[:, :-1], k)


def reference_recovery(X, cfg):
    """Reference recovery loop: gathers the whole patch X[:, patch], takes
    np.median, and reads the global coordinates in the layout global_metric
    returned."""
    X = np.asarray(X, dtype=float)
    metric = global_metric(X, cfg)
    hoods = metric.neighborhoods(cfg.K)
    out = np.empty_like(X)
    for i in range(X.shape[1]):
        patch = np.concatenate([[i], hoods[i]])
        Xi = X[:, patch]
        if cfg.global_mode == MODE_SHRINK_ONLY:
            dists = np.linalg.norm(metric.coords[patch] - metric.coords[i], axis=1)
        else:
            dists, _, _ = _local_distances(Xi, cfg)
        sel = np.argsort(dists, kind="stable")[: cfg.k_local]
        out[:, i] = np.median(Xi[:, sel], axis=1)
    return out


class TestShrinkOnly:
    """Shrink-only recovery takes each point and its k_local - 1 nearest
    neighbors in neighborhoods' order; the reference is the K-neighborhood
    re-ranked by direct norm in the same coordinates (reference_recovery)."""

    @staticmethod
    def check(X, k_local):
        for K in (k_local + 1, 100):
            cfg = PipelineConfig(global_mode=MODE_SHRINK_ONLY, K=K, k_local=k_local)
            assert np.array_equal(rosdos(X, cfg)[0], reference_recovery(X, cfg))

    @pytest.mark.parametrize("k_local", [1, 5, 20])
    @pytest.mark.parametrize("p, n, seed", [(60, 300, 31), (200, 400, 32), (25, 250, 33)])
    def test_matches_direct_norm_rerank(self, p, n, seed, k_local):
        S, _ = sample_m1(p, n, seed)
        X = S + 0.5 * gaussian_noise(p, n, seed + 1) / np.sqrt(p)
        self.check(X, k_local)

    @pytest.mark.parametrize("k_local", [1, 5, 20])
    def test_duplicate_columns_match_direct_norm_rerank(self, k_local):
        # every column about 6 times: exact ties in both metrics
        rng = np.random.default_rng(34)
        base = 3.0 + rng.standard_normal((30, 40))
        self.check(base[:, rng.integers(0, 40, size=240)], k_local)

    def test_K_is_validated_but_unused(self, monkeypatch):
        S, _ = sample_m1(40, 200, 36)
        X = S + 0.5 * gaussian_noise(40, 200, 37) / np.sqrt(40)
        asked = []
        real = GlobalMetric.neighborhoods

        def spy(self, K):
            asked.append(K)
            return real(self, K)

        monkeypatch.setattr(GlobalMetric, "neighborhoods", spy)
        outs = {
            rosdos(X, PipelineConfig(global_mode=MODE_SHRINK_ONLY, K=K, k_local=5))[0].tobytes()
            for K in (6, 40, 199)
        }
        assert len(outs) == 1
        assert asked == [5, 5, 5]
        with pytest.raises(ValueError, match=r"K \(200\) < n \(200\)"):
            rosdos(X, PipelineConfig(global_mode=MODE_SHRINK_ONLY, K=200, k_local=5))


class TestRosdos:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "mode", [MODE_ROSELAND, MODE_GLOBAL_SHRINK, MODE_SHRINK_ONLY]
    )
    def test_matches_reference_recovery(self, mode, order):
        S, _ = sample_m1(60, 300, 11)
        X = S + 0.5 * gaussian_noise(60, 300, 12) / np.sqrt(60)
        X = np.asarray(X, order=order)
        for k_local in (10, 7):
            cfg = PipelineConfig(global_mode=mode, K=40, k_local=k_local, seed=0)
            St, _ = rosdos(X, cfg)
            assert np.array_equal(St, reference_recovery(X, cfg))

    @pytest.mark.parametrize("mode", [MODE_ROSELAND, MODE_SHRINK_ONLY])
    def test_same_output_for_every_layout(self, mode):
        # a C-ordered X, its Fortran-ordered copy (as load_matrix returns)
        # and a column slice of a wider array give bit-identical results
        S, _ = sample_m1(40, 240, 21)
        X = S + 0.5 * gaussian_noise(40, 240, 22) / np.sqrt(40)
        wide = np.zeros((40, 250))
        wide[:, 7:247] = X
        cfg = PipelineConfig(global_mode=mode, K=30, k_local=6, seed=0)
        ref, ref_diag = rosdos(X, cfg)
        assert ref.flags.c_contiguous
        for Y in (np.asfortranarray(X), wide[:, 7:247]):
            St, diag = rosdos(Y, cfg)
            assert St.tobytes() == ref.tobytes()
            assert diag.local_ranks == ref_diag.local_ranks
            assert diag.fallback_reasons == ref_diag.fallback_reasons
        assert rosdos(np.asfortranarray(X), cfg)[0].flags.f_contiguous

    @pytest.mark.parametrize("mode", [MODE_ROSELAND, MODE_SHRINK_ONLY])
    def test_shrinkages_form_no_denoised_matrix(self, mode, monkeypatch):
        outputs = []
        real = shrinkage.eoptshrink

        def keep(X, **kwargs):
            outputs.append(real(X, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(shrinkage, "eoptshrink", keep)
        X = np.random.default_rng(23).standard_normal((30, 120))
        _, diag = rosdos(X, PipelineConfig(global_mode=mode, K=40, k_local=5, seed=0))
        assert diag.fallbacks == 0
        assert len(outputs) == (1 if mode == MODE_SHRINK_ONLY else 120)
        assert all("denoised" not in vars(out) for out in outputs)

    def test_rank_zero_shrink_only_matches_zero_metric(self):
        X = 1e-3 * np.random.default_rng(17).standard_normal((30, 120))
        cfg = PipelineConfig(global_mode=MODE_SHRINK_ONLY, K=20, k_local=5)
        metric = global_metric(X, cfg)
        assert metric.coords.shape == (120, 0)
        # every distance is 0, so neighbors and selections go by lowest index
        zero = GlobalMetric(coords=np.zeros((120, 30)))
        hoods = zero.neighborhoods(cfg.K)
        assert np.array_equal(metric.neighborhoods(cfg.K), hoods)
        St, _ = rosdos(X, cfg)
        for i in range(120):
            sel = np.concatenate([[i], hoods[i]])[: cfg.k_local]
            assert np.array_equal(St[:, i], np.median(X[:, sel], axis=1))

    def test_overflowing_patches_fall_back(self):
        # a common offset of squared norm 1e307 leaves the global distances
        # finite, but each patch Gram matrix has an eigenvalue near 31 * 1e307
        rng = np.random.default_rng(15)
        X = np.sqrt(1e307 / 40) + 1e150 * rng.standard_normal((40, 200))
        St, diag = rosdos(X, PipelineConfig(K=30, k_local=5, seed=0))
        assert diag.fallbacks == 200
        [(reason, count)] = diag.fallback_reasons.items()
        assert reason.startswith("non-finite spectrum") and count == 200
        assert np.all(np.isfinite(St))

    def test_fallback_reasons_recorded(self):
        X = np.random.default_rng(13).standard_normal((3, 200))
        _, diag = rosdos(X, PipelineConfig(K=30, k_local=5, seed=0))
        assert diag.fallbacks == 200
        assert diag.local_ranks == [-1] * 200
        [(reason, count)] = diag.fallback_reasons.items()
        assert reason.startswith("matrix too small") and count == 200
        assert diag.to_dict()["fallback_reasons"] == {reason: 200}
        assert diag.to_dict() == dataclasses.asdict(diag)

    def test_embedding_dim_reported(self):
        X = np.random.default_rng(14).standard_normal((30, 64))
        _, diag = rosdos(X, PipelineConfig(q_prime=50, K=30, k_local=5, seed=0))
        assert diag.embedding_dim == 7
        assert any("q_prime=50 to 7" in w for w in diag.warnings)
        _, diag = rosdos(X, PipelineConfig(q_prime=5, K=30, k_local=5, seed=0))
        assert diag.embedding_dim == 5
        assert diag.warnings == []
        cfg = PipelineConfig(global_mode=MODE_SHRINK_ONLY, K=30, k_local=5)
        assert rosdos(X, cfg)[1].embedding_dim is None

    def test_duplicate_dataset_exact(self):
        rng = np.random.default_rng(6)
        base = 5.0 * rng.standard_normal((40, 3))
        X = np.repeat(base, 14, axis=1)  # n = 42, every point 14 times
        cfg = PipelineConfig(global_mode=MODE_SHRINK_ONLY, K=11, k_local=5)
        St, diag = rosdos(X, cfg)
        assert np.array_equal(St, X)

    def test_k_local_one_identity_all_modes(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 100))
        for mode in (MODE_ROSELAND, MODE_GLOBAL_SHRINK, MODE_SHRINK_ONLY):
            cfg = PipelineConfig(global_mode=mode, K=10, k_local=1, seed=0)
            St, _ = rosdos(X, cfg)
            assert np.array_equal(St, X)

    def test_permutation_equivariance_shrink_mode(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((30, 200))
        cfg = PipelineConfig(global_mode=MODE_GLOBAL_SHRINK, K=30, k_local=5)
        St, _ = rosdos(X, cfg)
        perm = rng.permutation(200)
        St_p, _ = rosdos(X[:, perm], cfg)
        assert np.allclose(St_p, St[:, perm], atol=1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((25, 150))
        cfg = PipelineConfig(K=30, k_local=5, seed=4)
        a, _ = rosdos(X, cfg)
        b, _ = rosdos(X, cfg)
        assert np.array_equal(a, b)

    def test_clean_m1_error_bounded_by_patch_radius(self):
        S, _ = sample_m1(60, 800, 1)
        cfg = PipelineConfig(global_mode=MODE_SHRINK_ONLY, K=40, k_local=10, seed=0)
        St, _ = rosdos(S, cfg)
        med_err = np.median(nrmse(S, St))
        hood = global_metric(S, cfg).neighborhoods(cfg.K)
        radii = []
        for i in range(800):
            patch = np.concatenate([[i], hood[i]])
            d = np.linalg.norm(S[:, patch] - S[:, i : i + 1], axis=0)
            radii.append(np.sort(d)[cfg.k_local - 1])
        bound = np.median(radii) / np.median(np.linalg.norm(S, axis=0))
        assert med_err <= bound

    def test_noisy_m1_beats_noise_floor(self):
        p, n = 100, 1500
        S, _ = sample_m1(p, n, 0)
        Xi, _, _ = separable_noise(p, n, 1)
        X = S + Xi / p ** (1.0 / 3.0)
        St, diag = rosdos(X, PipelineConfig(seed=0))
        med = np.median(nrmse(S, St))
        floor = np.median(
            np.linalg.norm(X - S, axis=0) / np.linalg.norm(S, axis=0)
        )
        assert med < 0.8 * floor
        assert len(diag.local_ranks) == n
        assert diag.fallbacks < n

    @pytest.mark.parametrize("mode", [MODE_GLOBAL_SHRINK, MODE_SHRINK_ONLY])
    def test_global_svd_note_recorded(self, mode):
        # rank 12 in 40 dimensions: the Gram matrix leaves the 21st
        # eigenvalue the estimators read without correct digits
        rng = np.random.default_rng(16)
        X = rng.standard_normal((40, 12)) @ rng.standard_normal((12, 300))
        _, diag = rosdos(X, PipelineConfig(global_mode=mode, K=30, k_local=5))
        assert "SVD taken: ill-conditioned Gram" in diag.warnings
        assert "SVD taken: ill-conditioned Gram" in diag.to_dict()["warnings"]

    @pytest.mark.parametrize("t", [1e3, 1e6])
    def test_underflowing_diffusion_time_rejected(self, t):
        S, _ = sample_m1(60, 400, 0)
        X = S + gaussian_noise(60, 400, 1) / np.sqrt(60)
        with pytest.raises(ValueError, match="underflows"):
            rosdos(X, PipelineConfig(K=30, k_local=10, t=t))
        St, _ = rosdos(X, PipelineConfig(K=30, k_local=10, t=50))
        assert np.all(np.isfinite(St))

    def test_diagnostics_shape(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((15, 80))
        St, diag = rosdos(X, PipelineConfig(K=10, k_local=3, seed=1))
        assert St.shape == X.shape
        assert set(diag.timings) >= {"global_metric", "neighborhoods", "recovery"}
