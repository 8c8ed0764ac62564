"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 1 checks the published Gaussian mSNR ladder on the Klein bottle (M3)
and the separable ladder on the circle (M1): the Gaussian targets fit M3's
signal energy (5.0) and not M1's (0.82), and the separable ones fit M1.
"""

import sys

import numpy as np
import pytest

from rosdos.evaluation import baseline_tsvd, nrmse
from rosdos.numerics import random_orthogonal
from rosdos.pipeline import (
    MODE_SHRINK_ONLY,
    GlobalMetric,
    PipelineConfig,
    global_metric,
    rosdos,
)
from rosdos.shrinkage import (
    eoptshrink,
    estimate_bulk_edge,
    estimate_effective_rank,
)
from rosdos.synth import (
    ManifoldSpec,
    NoiseSpec,
    make_dataset,
    sample_m1,
    separable_noise,
)


def report(criterion, ok, detail):
    line = f"CRITERION {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line, file=sys.__stdout__, flush=True)


def spiked_noise(p, n, seed, sv_factors, separable=False):
    """Noise of entry variance 1/n plus spikes at sv_factors x bulk edge."""
    if separable:
        Xi, _, _ = separable_noise(p, n, seed)
        Z = Xi / np.sqrt(n)
    else:
        Z = np.random.default_rng(seed).standard_normal((p, n)) / np.sqrt(n)
    lam = np.sort(np.linalg.eigvalsh(Z @ Z.T))[::-1]
    edge = np.sqrt(estimate_bulk_edge(lam, n))
    r = len(sv_factors)
    rng = np.random.default_rng(seed + 10_000)
    U = np.linalg.qr(rng.standard_normal((p, r)))[0]
    V = np.linalg.qr(rng.standard_normal((n, r)))[0]
    S = U @ np.diag(edge * np.asarray(sv_factors)) @ V.T
    return S, Z


def test_criterion_1_msnr_reproduction():
    targets = {
        ("m3", "gaussian", 1.0): 30.25,
        ("m3", "gaussian", 0.5): 7.2,
        ("m3", "gaussian", 1.0 / 3.0): -0.4,
        ("m1", "separable", 1.0): 26.48,
        ("m1", "separable", 0.5): 3.5,
        ("m1", "separable", 1.0 / 3.0): -4.2,
    }
    results = {}
    for (manifold, kind, alpha), target in targets.items():
        ds = make_dataset(
            ManifoldSpec(manifold, 200, 5000, 0), NoiseSpec(kind, alpha, 1)
        )
        results[(manifold, kind, alpha)] = (ds.msnr_db, target)
    ok = all(abs(got - want) <= 2.0 for got, want in results.values())
    detail = "; ".join(
        f"{manifold} {kind} a={alpha:.3g}: {got:.2f} dB (target {want})"
        for (manifold, kind, alpha), (got, want) in results.items()
    )
    report(1, ok, detail)
    for (manifold, kind, alpha), (got, want) in results.items():
        assert abs(got - want) <= 2.0, (
            f"mSNR for {manifold} {kind} alpha={alpha:.3g} is {got:.2f} dB, "
            f"target {want} +/- 2"
        )


def test_criterion_2_beats_noise_floor():
    ds = make_dataset(
        ManifoldSpec("m1", 200, 5000, 0), NoiseSpec("separable", 1.0 / 3.0, 1)
    )
    St, _ = rosdos(ds.noisy, PipelineConfig(seed=0))
    med = float(np.median(nrmse(ds.clean, St)))
    floor = float(
        np.median(np.linalg.norm(ds.noise, axis=0) / np.linalg.norm(ds.clean, axis=0))
    )
    ok = med < 0.8 * floor
    report(2, ok, f"median NRMSE {med:.3f} vs 0.8 x noise ratio {0.8 * floor:.3f}")
    assert ok


def test_criterion_3_rank_detection():
    p, n = 200, 1000
    zero_hits = 0
    three_hits = 0
    for seed in range(100):
        Z = np.random.default_rng(seed).standard_normal((p, n)) / np.sqrt(n)
        lam = np.sort(np.linalg.eigvalsh(Z @ Z.T))[::-1]
        edge = estimate_bulk_edge(lam, n)
        zero_hits += estimate_effective_rank(lam, edge, n) == 0

        S, Z = spiked_noise(p, n, seed, [3.0, 3.0, 3.0])
        X = S + Z
        lam = np.sort(np.linalg.eigvalsh(X @ X.T))[::-1]
        edge = estimate_bulk_edge(lam, n)
        three_hits += estimate_effective_rank(lam, edge, n) == 3
    ok = zero_hits >= 95 and three_hits >= 95
    report(3, ok, f"r=0 in {zero_hits}/100, r=3 in {three_hits}/100 (need >= 95)")
    assert ok


def test_criterion_4_white_noise_oracle():
    beta = 0.2
    p, n = 200, 1000
    worst = 0.0
    for y_factor in (1.5, 2.5, 3.5, 5.0):
        errs = []
        for seed in range(20):
            Z = np.random.default_rng(seed).standard_normal((p, n)) / np.sqrt(n)
            y = y_factor * (1.0 + np.sqrt(beta))
            d2 = ((y**2 - 1 - beta) + np.sqrt((y**2 - 1 - beta) ** 2 - 4 * beta)) / 2
            rng = np.random.default_rng(seed + 10_000)
            u = rng.standard_normal(p)
            u /= np.linalg.norm(u)
            v = rng.standard_normal(n)
            v /= np.linalg.norm(v)
            out = eoptshrink(np.sqrt(d2) * np.outer(u, v) + Z)
            y_obs = np.sqrt(out.spectrum[0])
            closed = np.sqrt((y_obs**2 - beta - 1) ** 2 - 4 * beta) / y_obs
            errs.append(abs(out.shrunk[0] - closed) / closed)
        worst = max(worst, float(np.median(errs)))
    ok = worst < 0.05
    report(4, ok, f"worst median relative error {worst:.4f} (need < 0.05)")
    assert ok


def test_criterion_5_dominates_oracle_tsvd():
    p, n = 200, 1000
    err_shrink, err_tsvd = [], []
    for trial in range(20):
        S, Z = spiked_noise(p, n, trial, [4.5, 3.6, 3.0], separable=True)
        X = S + Z
        err_shrink.append(np.linalg.norm(eoptshrink(X).denoised - S))
        err_tsvd.append(np.linalg.norm(baseline_tsvd(X, 3) - S))
    ok = np.mean(err_shrink) <= np.mean(err_tsvd)
    report(
        5, ok,
        f"mean Frobenius error shrinkage {np.mean(err_shrink):.3f} "
        f"vs oracle TSVD {np.mean(err_tsvd):.3f}",
    )
    assert ok


def test_criterion_6_spectral_invariants():
    from reference import affinity_complete, full_graph_bandwidth
    from rosdos.diffusion import select_landmarks
    from rosdos.numerics import pairwise_sq_dist

    worst_row = 0.0
    worst_sv = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 10))
        n = int(rng.integers(30, 80))
        X = rng.standard_normal((p, n))
        h = full_graph_bandwidth(X)

        W0 = affinity_complete(X, h)
        d0 = W0.sum(axis=1)
        W = W0 / np.outer(d0, d0)
        A = W / W.sum(axis=1, keepdims=True)
        worst_row = max(worst_row, float(np.max(np.abs(A.sum(axis=1) - 1.0))))

        lm = select_landmarks(X, 0.5, seed)
        Wb = np.exp(-pairwise_sq_dist(X, X[:, lm]) / h)
        deg = Wb @ (Wb.T @ np.ones(n))
        Ab = Wb / np.sqrt(deg)[:, None]
        top = np.linalg.svd(Ab, compute_uv=False)[0]
        worst_sv = max(worst_sv, abs(top - 1.0))
    ok = worst_row < 1e-10 and worst_sv < 1e-8
    report(
        6, ok,
        f"worst row-sum deviation {worst_row:.2e}, worst top-sv deviation {worst_sv:.2e}",
    )
    assert ok


def test_criterion_7_metric_recall():
    p, n, K = 200, 2000, 100
    ros_recalls, raw_recalls = [], []
    for seed in range(5):
        S, theta = sample_m1(p, n, seed)
        rng = np.random.default_rng(seed + 100)
        X = S + rng.standard_normal((p, n)) / np.sqrt(p)
        d = np.abs(theta[:, None] - theta[None, :]) % (2 * np.pi)
        A = np.minimum(d, 2 * np.pi - d)
        np.fill_diagonal(A, np.inf)
        true20 = np.argsort(A, axis=1)[:, :20]
        hood = global_metric(X, PipelineConfig(K=K, k_local=20, seed=0)).neighborhoods(K)
        raw = GlobalMetric(coords=X.T).neighborhoods(K)
        ros_recalls.append(np.mean([np.isin(true20[i], hood[i]).mean() for i in range(n)]))
        raw_recalls.append(np.mean([np.isin(true20[i], raw[i]).mean() for i in range(n)]))
    ros, rawr = float(np.mean(ros_recalls)), float(np.mean(raw_recalls))
    ok = ros > rawr
    report(7, ok, f"mean recall diffusion {ros:.3f} vs raw Euclidean {rawr:.3f}")
    assert ok


def test_criterion_8_equivariance_suite():
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((60, 300)) / np.sqrt(300)
    U = random_orthogonal(60, 1)[:, :3]
    V = random_orthogonal(300, 2)[:, :3]
    X = U @ np.diag([8.0, 6.0, 4.0]) @ V.T + Z
    base = eoptshrink(X).denoised
    scale_err = np.linalg.norm(
        eoptshrink(3.7 * X).denoised - 3.7 * base
    ) / np.linalg.norm(3.7 * base)
    Q = random_orthogonal(60, 99)
    rot_err = np.linalg.norm(
        eoptshrink(Q @ X).denoised - Q @ base
    ) / np.linalg.norm(base)

    Uy = random_orthogonal(30, 3)[:, :3]
    Vy = random_orthogonal(200, 4)[:, :3]
    Y = Uy @ np.diag([8.0, 6.0, 4.0]) @ Vy.T + rng.standard_normal((30, 200)) / np.sqrt(200)
    cfg = PipelineConfig(global_mode=MODE_SHRINK_ONLY, K=30, k_local=5, seed=0)
    St, _ = rosdos(Y, cfg)
    perm = rng.permutation(200)
    St_p, _ = rosdos(Y[:, perm], cfg)
    perm_err = float(np.max(np.abs(St_p - St[:, perm])))

    cfg1 = PipelineConfig(K=20, k_local=1, seed=0)
    ident = np.array_equal(rosdos(Y, cfg1)[0], Y)
    deterministic = np.array_equal(rosdos(Y, cfg)[0], St)

    ok = (
        scale_err < 1e-6
        and rot_err < 1e-6
        and perm_err < 1e-8
        and ident
        and deterministic
    )
    report(
        8, ok,
        f"scale {scale_err:.1e}, rotation {rot_err:.1e}, permutation {perm_err:.1e}, "
        f"k=1 identity {ident}, deterministic {deterministic}",
    )
    assert ok
