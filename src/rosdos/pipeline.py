"""The three-step manifold denoiser: global metric, local shrinkage metric,
and k-NN entrywise-median recovery."""

import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import diffusion, shrinkage
from .numerics import (
    as_matrix, binary_exponent, entrywise_median, is_integer,
    is_positive_finite, is_real, pairwise_sq_dist)

MODE_ROSELAND = "roseland"
MODE_GLOBAL_SHRINK = "global-shrink"
MODE_SHRINK_ONLY = "shrink-only"
MODES = (MODE_ROSELAND, MODE_GLOBAL_SHRINK, MODE_SHRINK_ONLY)

# temporary memory one block of neighbor distances may use; sets its rows
_BLOCK_BYTES = 2 ** 21


@dataclass
class PipelineConfig:
    global_mode: str = MODE_ROSELAND
    h: object = "auto"          # bandwidth, positive float or "auto"
    gamma: float = 0.5          # landmark count exponent, m = round(n^gamma)
    q_prime: int = 10           # embedding dimension (clipped to valid range)
    t: float = 1                # diffusion time
    K: int = 100                # global neighborhood size
    k_local: int = 20           # recovery neighbor count (self included)
    k_imp: int = 10             # shrinkage imputation count
    seed: int = 0

    def validate(self, n):
        if not is_integer(n):
            raise ValueError(f"n must be an integer, got {n!r}")
        if self.global_mode not in MODES:
            raise ValueError(
                f"global_mode must be one of {MODES}, got {self.global_mode!r}"
            )
        for name in ("K", "k_local", "q_prime", "k_imp"):
            value = getattr(self, name)
            if not is_integer(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (is_integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not 1 <= self.k_local < self.K < n:
            raise ValueError(
                f"need 1 <= k ({self.k_local}) < K ({self.K}) < n ({n})"
            )
        if self.q_prime < 1:
            raise ValueError(f"q_prime must be >= 1, got {self.q_prime}")
        if self.k_imp < 1:
            raise ValueError(f"k_imp must be >= 1, got {self.k_imp}")
        if not (is_real(self.gamma) and 0 < self.gamma < 1):
            raise ValueError(
                f"gamma must be a real number in (0, 1), got {self.gamma!r}"
            )
        if self.global_mode == MODE_ROSELAND:  # only roseland draws landmarks
            diffusion.landmark_count(n, self.gamma)
        if not is_positive_finite(self.t):
            raise ValueError(f"t must be positive and finite, got {self.t!r}")
        h = self.h
        if h != "auto" and not is_positive_finite(h):
            raise ValueError(f"h must be positive and finite or 'auto', got {h!r}")


@dataclass
class GlobalMetric:
    coords: np.ndarray          # n x q points whose Euclidean metric is d_global
    report: dict = field(default_factory=dict)  # Diagnostics.global_report

    def neighborhoods(self, K):
        """K nearest neighbor indices (excluding self) for every point,
        nearest first, ties by lowest index.

        K is an integer in [1, n - 1]. Takes as many rows at a time as keep
        one block of squared distances within _BLOCK_BYTES.
        """
        n = self.coords.shape[0]
        if not (is_integer(K) and 1 <= K < n):
            raise ValueError(f"K must be an integer in [1, {n - 1}], got {K!r}")
        block = max(1, _BLOCK_BYTES // (8 * n))
        P = self.coords.T
        if P.shape[0] == 0:  # rank 0: every distance is 0
            P = np.zeros((1, n))
        # in power-of-two units, exact: no squared distance under- or overflows
        P = np.ldexp(P, -binary_exponent(P))
        out = np.empty((n, K), dtype=int)
        for start in range(0, n, block):
            stop = min(start + block, n)
            D = pairwise_sq_dist(P[:, start:stop], P)
            D[np.arange(stop - start), np.arange(start, stop)] = np.inf
            idx = np.argpartition(D, K - 1, axis=1)[:, :K]
            kth = np.take_along_axis(D, idx, axis=1).max(axis=1)
            # argpartition breaks ties at the K-th value arbitrarily; where
            # more values tie there than fit, keep the lowest-index ones
            surplus = np.count_nonzero(D <= kth[:, None], axis=1) > K
            for r in np.flatnonzero(surplus):
                below = np.flatnonzero(D[r] < kth[r])
                ties = np.flatnonzero(D[r] == kth[r])[:K - below.size]
                idx[r] = np.concatenate([below, ties])
            d = np.take_along_axis(D, idx, axis=1)
            out[start:stop] = np.take_along_axis(idx, np.lexsort((idx, d)), axis=1)
        return out


@dataclass
class Diagnostics:
    global_report: dict         # GlobalMetric.report
    local_ranks: list
    fallbacks: int
    local_report: dict          # local_step's record; {} in shrink-only mode
    timings: dict


def global_metric(X, cfg):
    """Step 1: a noise-robust global similarity metric over the samples."""
    X = as_matrix(X, "X")
    n = X.shape[1]
    cfg.validate(n)
    if cfg.global_mode == MODE_ROSELAND:
        landmarks = diffusion.select_landmarks(X, cfg.gamma, cfg.seed)
        D = pairwise_sq_dist(X, X[:, landmarks])
        h = cfg.h if cfg.h != "auto" else diffusion.auto_bandwidth(D)
        q = min(cfg.q_prime, min(n, landmarks.size) - 1)
        coords, spectrum = diffusion.roseland_embed(D, h, q, cfg.t)
        return GlobalMetric(coords, {"h": h, "landmarks": landmarks.size,
                                     "embedding_spectrum": spectrum.tolist()})
    out = shrinkage.eoptshrink(X, k=cfg.k_imp)
    return GlobalMetric(out.coords, {"effective_rank": out.effective_rank,
                                     "bulk_edge": out.bulk_edge,
                                     "warnings": out.warnings})


def local_step(X, patches, cfg):
    """Step 2: stably sort each row of the n x (K+1) patches in place by its
    eoptshrink distances from column 0, or raw ones (rank -1) if it raises
    ShrinkageError; return (ranks, {"fallback_reasons": .., "notes": ..})."""
    Xf = np.asfortranarray(X)  # sample-major: each column one read
    local_ranks, reasons, notes = [], Counter(), Counter()
    for patch in patches:
        Xi = Xf[:, patch]
        try:
            out = shrinkage.eoptshrink(Xi, k=cfg.k_imp)
            d = np.linalg.norm(out.coords - out.coords[0], axis=1)
            local_ranks.append(out.effective_rank)
            notes.update(out.warnings)
        except shrinkage.ShrinkageError as exc:
            d = np.linalg.norm(Xi - Xi[:, :1], axis=0)
            local_ranks.append(-1)
            reasons[str(exc)] += 1
        patch[:] = patch[np.argsort(d, kind="stable")]
    return local_ranks, {"fallback_reasons": dict(reasons), "notes": dict(notes)}


def recover_point(X, neighbors):
    """Step 3: for each row of a b x k integer array (b >= 0), the entrywise
    median of the k columns of X it lists; p x b, in X's layout.

    The entries are integers (not bools) in [0, X.shape[1]). Only the listed
    columns are read, so X is not checked as a whole.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    cols = np.ascontiguousarray(neighbors)  # every row of X gathers through it
    n = X.shape[1]
    # numpy wraps a negative index and never reads an unlisted one
    if (cols.ndim != 2 or cols.shape[1] == 0 or cols.dtype.kind not in "iu"
            or cols.size and (cols.min() < 0 or cols.max() >= n)):
        raise ValueError(
            f"neighbors must be b x k (k >= 1) integer column indices in [0, {n})")
    out = np.empty_like(X, dtype=float, shape=(X.shape[0], cols.shape[0]))
    if cols.size:  # b = 0 leaves nothing to take a median of
        for j, row in enumerate(X):  # one row at a time: a b x k gather each
            out[j] = entrywise_median(row[cols])
    return out


def rosdos(X, cfg):
    """Run the full denoiser and return (denoised matrix, diagnostics)."""
    X = as_matrix(X, "X")
    n = X.shape[1]
    timings = {}

    t0 = time.perf_counter()
    metric = global_metric(X, cfg)
    timings["global_metric"] = time.perf_counter() - t0

    # each patch is its point, then its neighbors in the global metric,
    # nearest first; shrink-only takes the first k_local entries as they are
    skip_local = cfg.global_mode == MODE_SHRINK_ONLY
    t0 = time.perf_counter()
    hoods = metric.neighborhoods(cfg.k_local if skip_local else cfg.K)
    timings["neighborhoods"] = time.perf_counter() - t0

    patches = np.column_stack((np.arange(n), hoods))
    t0 = time.perf_counter()
    local_ranks, local_report = (
        ([], {}) if skip_local else local_step(X, patches, cfg))
    timings["local"] = 0.0 if skip_local else time.perf_counter() - t0
    t0 = time.perf_counter()
    recovered = recover_point(X, patches[:, :cfg.k_local])
    timings["recovery"] = time.perf_counter() - t0

    diag = Diagnostics(
        global_report=metric.report,
        local_ranks=local_ranks,
        fallbacks=local_ranks.count(-1),
        local_report=local_report,
        timings=timings,
    )
    return recovered, diag
