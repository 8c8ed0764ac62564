import dataclasses
import sys
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from reference import reference_neighborhoods, reference_rosdos, svd_reference
from rosdos import pipeline, shrinkage
from rosdos.evaluation import nrmse
from rosdos.numerics import pairwise_sq_dist
from rosdos.pipeline import (
    MODE_GLOBAL_SHRINK,
    MODE_ROSELAND,
    MODE_SHRINK_ONLY,
    GlobalMetric,
    PipelineConfig,
    global_metric,
    local_step,
    recover_point,
    rosdos,
)
from rosdos.synth import (
    ManifoldSpec, NoiseSpec, gaussian_noise, make_dataset, sample_m1,
    separable_noise)


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
        assert m.rank is None
        # n = 10 draws 3 landmarks, so q_prime = 10 is cut to 2
        assert m.notes == ["embedding dimension cut from q_prime=10 to 2, "
                           "one less than the landmark count"]
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
        cfg = PipelineConfig(global_mode=MODE_GLOBAL_SHRINK, K=20, k_local=5)
        m = global_metric(X, cfg)
        assert m.rank == 2
        assert m.notes == shrinkage.eoptshrink(X, k=cfg.k_imp).warnings
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


def patch_distances(Xi, cfg):
    """Distances from column 0 of a patch in its eoptshrink coordinates."""
    coords = shrinkage.eoptshrink(Xi, k=cfg.k_imp).coords
    return np.linalg.norm(coords - coords[0], axis=1)


class TestLocalDenoise:
    def test_identical_columns_zero_dists(self):
        X = np.tile(np.arange(30.0)[:, None], (1, 80))
        cfg = PipelineConfig(global_mode=MODE_GLOBAL_SHRINK, K=40, k_local=5)
        patch = np.concatenate([[3], np.arange(41)[np.arange(41) != 3][:40]])
        dists = patch_distances(X[:, patch], cfg)
        assert dists.shape == (41,)
        assert np.allclose(dists, 0.0, atol=1e-8)
        patches = patch[None].copy()
        ranks, reasons = local_step(X, patches, cfg)
        assert ranks == [1] and not reasons
        assert np.array_equal(patches[0], patch)  # all ties: patch order

    def test_noiseless_planar_patch(self):
        rng = np.random.default_rng(3)
        c = rng.standard_normal(60)
        u, v = rng.standard_normal(60), rng.standard_normal(60)
        a, b = rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 40)
        X = c[:, None] + np.outer(u, a) + np.outer(v, b)
        cfg = PipelineConfig(global_mode=MODE_GLOBAL_SHRINK, K=39, k_local=5)
        dists = patch_distances(X, cfg)
        patches = np.arange(40)[None]
        (rank,), fell_back = local_step(X, patches, cfg)
        assert not fell_back
        assert rank <= 3
        assert np.array_equal(patches[0], np.argsort(dists, kind="stable"))
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

        rng = np.random.default_rng(0)
        points = rng.choice(n, 40, replace=False)
        patches = np.column_stack((points, hoods[points]))
        d_raw = np.linalg.norm(X[:, patches] - X[:, points, None], axis=0)
        sel_raw = np.take_along_axis(
            patches, np.argsort(d_raw, axis=1, kind="stable"), axis=1)[:, : cfg.k_local]
        _, fell_back = local_step(X, patches, cfg)
        assert not fell_back
        sel_sh = patches[:, : cfg.k_local]
        sh_ang = angdist(theta[sel_sh], theta[points, None]).mean(axis=1)
        raw_ang = angdist(theta[sel_raw], theta[points, None]).mean(axis=1)
        assert np.mean(sh_ang) < np.mean(raw_ang)

    def test_mixed_fallbacks(self, monkeypatch):
        # every third patch raises, with one of two reasons; the rest shrink
        real = shrinkage.eoptshrink
        X = np.asfortranarray(np.random.default_rng(19).standard_normal((30, 120)))
        cfg = PipelineConfig(K=40, k_local=5, seed=0)
        given = np.column_stack((np.arange(120), global_metric(X, cfg).neighborhoods(cfg.K)))
        failing = set(range(0, 120, 3))

        def flaky(Xi, k):
            i = int(np.flatnonzero(np.all(X == Xi[:, :1], axis=0))[0])
            if i in failing:
                raise shrinkage.ShrinkageError(f"stub reason {i % 2}")
            return real(Xi, k=k)

        monkeypatch.setattr(shrinkage, "eoptshrink", flaky)
        patches = given.copy()
        ranks, reasons = local_step(X, patches, cfg)
        assert reasons == Counter(f"stub reason {i % 2}" for i in failing)
        assert set(reasons.values()) == {20}
        assert np.array_equal(patches[:, 0], np.arange(120))
        assert np.array_equal(np.sort(patches, axis=1), np.sort(given, axis=1))
        for i, patch in enumerate(given):
            Xi = X[:, patch]
            if i in failing:
                assert ranks[i] == -1
                d = np.linalg.norm(Xi - Xi[:, :1], axis=0)
            else:
                assert ranks[i] == real(Xi, k=cfg.k_imp).effective_rank >= 0
                d = patch_distances(Xi, cfg)
            assert np.array_equal(patches[i], patch[np.argsort(d, kind="stable")])


class TestRecoverPoint:
    def test_k_one_returns_self(self):
        X = np.random.default_rng(4).standard_normal((6, 10))
        assert np.array_equal(recover_point(X, np.arange(10)[:, None]), X)
        assert np.array_equal(recover_point(X, [[3], [0], [3]]), X[:, [3, 0, 3]])

    def test_median_example(self):
        X = np.array([[1.0, 2.0, 100.0]])
        for rows in ([[0, 1, 2], [2, 0, 2]], np.array([[2, 1, 0], [0, 2, 2]], np.int32)):
            assert np.array_equal(recover_point(X, rows), [[2.0, 100.0]])

    def test_coordinate_bounds(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 20))
        rows = np.stack([rng.permutation(20)[:7] for _ in range(5)])
        out = recover_point(X, rows)
        for b, row in enumerate(rows):
            assert np.all(out[:, b] >= X[:, row].min(axis=1))
            assert np.all(out[:, b] <= X[:, row].max(axis=1))

    def test_clean_circle_chord_bound(self):
        theta = np.linspace(0.0, 0.4, 15)
        X = np.vstack([np.cos(theta), np.sin(theta)])
        row = np.arange(5)
        out = recover_point(X, [row])[:, 0]
        diam = max(np.linalg.norm(X[:, a] - X[:, b]) for a in row for b in row)
        assert np.linalg.norm(out - X[:, 0]) <= diam

    def test_invalid_k(self):
        # k = 0 columns, or not a b x k array
        for neighbors in (np.zeros((2, 0), dtype=int), [0, 1, 2], [[[0, 1]]], 3):
            with pytest.raises(ValueError, match=r"b x k \(k >= 1\) integer column"):
                recover_point(np.ones((2, 3)), neighbors)

    def test_empty_batch(self):
        out = recover_point(np.ones((2, 3), dtype=int), np.zeros((0, 2), dtype=int))
        assert out.shape == (2, 0) and out.dtype == float

    @pytest.mark.parametrize("patch", [
        [[-1, 0, 1]],           # would wrap to column 9
        [[0, 1, 20]],           # past the end
        [[0.0, 1.0, 2.0]],
        [[True, False, True]],
    ])
    def test_patch_must_name_columns(self, patch):
        X = np.arange(50.0).reshape(5, 10)
        with pytest.raises(ValueError, match=r"integer column indices in \[0, 10\)"):
            recover_point(X, patch)

    def test_X_must_be_2d(self):
        with pytest.raises(ValueError, match=r"X must be 2-D, got shape \(5,\)"):
            recover_point(np.ones(5), [[0, 1, 2]])

    def test_reads_only_selected_columns(self):
        X = np.arange(12.0).reshape(2, 6)
        X[0, 5] = np.nan
        assert np.array_equal(recover_point(X, [[2, 3, 0], [1, 1, 4]]),
                              [[2.0, 1.0], [8.0, 7.0]])
        with pytest.raises(ValueError, match="non-finite"):
            recover_point(X, [[2, 3, 0], [1, 5, 4]])

    @pytest.mark.parametrize("k", [1, 4, 5, 8])
    def test_block_matches_single_points(self, k):
        # each row's median is np.median over the columns it lists
        rng = np.random.default_rng(16)
        X = rng.standard_normal((5, 30))
        rows = rng.integers(0, 30, size=(40, k))  # repeats included
        out = recover_point(X, rows)
        assert out.shape == (5, 40)
        for b, row in enumerate(rows):
            assert np.array_equal(out[:, b], np.median(X[:, row], axis=1))


class TestShrinkOnly:
    """Shrink-only recovery takes each point and its k_local - 1 nearest
    neighbors in neighborhoods' order; the reference is the K-neighborhood
    re-ranked by direct norm in the same coordinates (reference_rosdos)."""

    @staticmethod
    def check(X, k_local):
        for K in (k_local + 1, 100):
            cfg = PipelineConfig(global_mode=MODE_SHRINK_ONLY, K=K, k_local=k_local)
            assert np.array_equal(rosdos(X, cfg)[0],
                                  reference_rosdos(X, cfg, shrinkage.eoptshrink).denoised)

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
            assert np.array_equal(St, reference_rosdos(X, cfg, shrinkage.eoptshrink).denoised)

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

    def test_local_ties_keep_patch_order(self, monkeypatch):
        # equal local distances: each point takes itself and its first
        # k_local - 1 neighbors, in neighborhoods' order
        def equal(Xi, k):
            return SimpleNamespace(coords=np.zeros((Xi.shape[1], 1)), effective_rank=1)

        monkeypatch.setattr(shrinkage, "eoptshrink", equal)
        X = np.random.default_rng(18).standard_normal((20, 90))
        cfg = PipelineConfig(K=30, k_local=6, seed=0)
        hoods = global_metric(X, cfg).neighborhoods(cfg.K)
        St, _ = rosdos(X, cfg)
        for i in range(90):
            sel = np.concatenate([[i], hoods[i][: cfg.k_local - 1]])
            assert np.array_equal(St[:, i], np.median(X[:, sel], axis=1))

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
        assert dataclasses.asdict(diag)["fallback_reasons"] == {reason: 200}

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

    def test_global_effective_rank_reported(self):
        rng = np.random.default_rng(17)
        X = (rng.standard_normal((40, 3)) @ rng.standard_normal((3, 200))
             + 0.3 * rng.standard_normal((40, 200)))
        cfg = PipelineConfig(K=30, k_local=5, k_imp=4, seed=0)
        assert rosdos(X, cfg)[1].global_effective_rank is None
        rank = shrinkage.eoptshrink(X, k=cfg.k_imp).effective_rank
        assert rank == 3
        for mode in (MODE_GLOBAL_SHRINK, MODE_SHRINK_ONLY):
            cfg.global_mode = mode
            assert rosdos(X, cfg)[1].global_effective_rank == rank

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
        note = "SVD taken: ill-conditioned Gram"
        assert note in diag.warnings
        assert note in dataclasses.asdict(diag)["warnings"]

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
        assert set(diag.timings) >= {"global_metric", "neighborhoods", "local", "recovery"}
        assert diag.timings["local"] > 0
        cfg = PipelineConfig(global_mode=MODE_SHRINK_ONLY, K=10, k_local=3)
        assert rosdos(rng.standard_normal((30, 80)), cfg)[1].timings["local"] == 0


class TestIndependentGate:
    """rosdos against reference_rosdos with svd_reference as the shrinker:
    eOptShrink from a dense SVD, with distances between the columns of the
    whole denoised matrix (global-shrink step 1) or p x (K + 1) patch, not in
    the r kept coordinates. The gate pins the share of points whose k_local
    selection differs from the package's: it is printed (run with -s) and may
    not grow. Bit equality with rosdos rests on reference_rosdos with the
    package's eoptshrink reproducing it."""

    CHANGED = 0.0  # the largest share measured when the test was written

    @pytest.mark.parametrize("n", [400, 800])
    @pytest.mark.parametrize("noise, alpha", [("separable", 1 / 2), ("gaussian", 1 / 3)],
                             ids=["separable", "gaussian"])
    @pytest.mark.parametrize("mode", [MODE_ROSELAND, MODE_GLOBAL_SHRINK])
    def test_equal_wherever_the_selection_agrees(self, mode, noise, alpha, n):
        X = make_dataset(ManifoldSpec("m1", 60, n, 3), NoiseSpec(noise, alpha, 4)).noisy
        cfg = PipelineConfig(global_mode=mode, K=40, k_local=10)
        St, _ = rosdos(X, cfg)
        # with the package's shrinker the reference is rosdos, selections too
        package = reference_rosdos(X, cfg, shrinkage.eoptshrink)
        assert np.array_equal(St, package.denoised)
        ref = reference_rosdos(X, cfg, svd_reference)
        same = np.all(np.sort(ref.selected, axis=1)
                      == np.sort(package.selected, axis=1), axis=1)
        changed = 1.0 - same.mean()
        print(f"{mode}, {noise} noise, n = {n}: selection changed at "
              f"{changed:.2%} of points")
        assert changed <= self.CHANGED
