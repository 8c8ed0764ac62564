"""The three-step manifold denoiser: global metric, local shrinkage metric,
and k-NN entrywise-median recovery."""

import copy
import time
from collections import Counter
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import diffusion, shrinkage
from .numerics import (
    as_matrix, entrywise_median, is_integer, is_positive_finite, is_real,
    pairwise_sq_dist)

MODE_ROSELAND = "roseland"
MODE_GLOBAL_SHRINK = "global-shrink"
MODE_SHRINK_ONLY = "shrink-only"
MODES = (MODE_ROSELAND, MODE_GLOBAL_SHRINK, MODE_SHRINK_ONLY)

# temporary memory one block of neighbor distances, or of recovered points,
# may use; it sets the points per block
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

    def to_dict(self):
        return asdict(self)


@dataclass
class GlobalMetric:
    coords: np.ndarray          # n x q points whose Euclidean metric is d_global
    shrink: object = None       # ShrinkageOutput from eoptshrink; None: diffusion

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
    global_effective_rank: int | None
    local_ranks: list
    fallbacks: int
    fallback_reasons: dict = field(default_factory=dict)  # message -> count
    embedding_dim: int | None = None    # diffusion coordinates used (roseland)
    timings: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)

    def to_dict(self):
        # one level of copy; asdict would deep-copy every local rank
        return {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}


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
        emb = diffusion.roseland_embed(D, h, q, cfg.t)
        return GlobalMetric(coords=emb.coords)
    out = shrinkage.eoptshrink(X, k=cfg.k_imp)
    return GlobalMetric(coords=out.coords, shrink=out)


def _local_distances(Xi, cfg):
    """Denoised distances from column 0 of a local patch, its effective rank
    and None; when the local shrinkage degenerates, raw Euclidean distances,
    rank -1 and the reason."""
    try:
        out = shrinkage.eoptshrink(Xi, k=cfg.k_imp)
        d = np.linalg.norm(out.coords - out.coords[0], axis=1)
        return d, out.effective_rank, None
    except shrinkage.ShrinkageError as exc:
        d = np.linalg.norm(Xi - Xi[:, :1], axis=0)
        return d, -1, str(exc)


def recover_point(X, patch, local_dists, k_local):
    """Step 3: entrywise median of the k_local columns of X, among the
    patch's, that are nearest in the local metric (ties by patch order).

    A 1-D patch gives one point (a p-vector); a b x m block of patches, with
    local_dists of the same shape, gives b points (p x b), one per row.
    patch holds integers (not bools) in [0, X.shape[1]). Only the selected
    columns are read, so X is not checked as a whole.
    """
    X = np.asarray(X)
    if X.ndim != 2:
        raise ValueError(f"X must be 2-D, got shape {X.shape}")
    patch = np.asarray(patch)
    d = np.asarray(local_dists, dtype=float)
    if d.shape != patch.shape or patch.ndim not in (1, 2):
        raise ValueError("local_dists must match the patch, one or two axes")
    width = patch.shape[-1]
    if not (is_integer(k_local) and 1 <= k_local <= width):
        raise ValueError(
            f"k_local must be an integer in [1, {width}], got {k_local!r}")
    n = X.shape[1]
    # numpy wraps a negative index and never reads an unselected one
    if patch.dtype.kind not in "iu" or patch.min() < 0 or patch.max() >= n:
        raise ValueError(f"patch must hold integer column indices in [0, {n})")
    order = np.argsort(d, axis=-1, kind="stable")[..., :k_local]
    sel = np.take_along_axis(patch, order, axis=-1)
    return entrywise_median(X[:, sel])


def rosdos(X, cfg):
    """Run the full denoiser and return (denoised matrix, diagnostics)."""
    X = as_matrix(X, "X")
    p, n = X.shape
    timings = {}

    t0 = time.perf_counter()
    metric = global_metric(X, cfg)
    timings["global_metric"] = time.perf_counter() - t0

    # shrink-only recovers each point from itself and its k_local - 1
    # nearest neighbors in the global metric, which come first in the patch
    skip_local = cfg.global_mode == MODE_SHRINK_ONLY
    t0 = time.perf_counter()
    hoods = metric.neighborhoods(cfg.k_local if skip_local else cfg.K)
    timings["neighborhoods"] = time.perf_counter() - t0

    # sample-major copy: each gathered column is one contiguous read
    Xf = np.asfortranarray(X)
    width = hoods.shape[1] + 1
    # per point: the gathered and the sorted k_local columns, and the patch
    # row, its distances and their argsort
    per_point = 8 * (2 * p * cfg.k_local + 3 * width)
    block = max(1, _BLOCK_BYTES // per_point)
    local_ranks = []
    fallback_reasons = Counter()
    recovered = np.empty_like(X)
    t0 = time.perf_counter()
    for start in range(0, n, block):
        stop = min(start + block, n)
        patches = np.empty((stop - start, width), dtype=int)
        patches[:, 0] = np.arange(start, stop)
        patches[:, 1:] = hoods[start:stop]
        dists = np.zeros(patches.shape)  # shrink-only: patch order
        if not skip_local:
            for row, patch in enumerate(patches):
                dists[row], rank, reason = _local_distances(Xf[:, patch], cfg)
                local_ranks.append(rank)
                if reason is not None:
                    fallback_reasons[reason] += 1
        recovered[:, start:stop] = recover_point(Xf, patches, dists, cfg.k_local)
    timings["recovery"] = time.perf_counter() - t0

    if metric.shrink is None:  # roseland: the coordinates are the embedding
        notes, global_rank, embedding_dim = [], None, metric.coords.shape[1]
        if embedding_dim < cfg.q_prime:
            notes.append(
                f"embedding dimension cut from q_prime={cfg.q_prime} to "
                f"{embedding_dim}, one less than the landmark count"
            )
    else:
        notes = list(metric.shrink.warnings)
        global_rank, embedding_dim = metric.shrink.effective_rank, None
    diag = Diagnostics(
        global_effective_rank=global_rank,
        local_ranks=local_ranks,
        fallbacks=sum(fallback_reasons.values()),
        fallback_reasons=dict(fallback_reasons),
        embedding_dim=embedding_dim,
        timings=timings,
        warnings=notes,
    )
    return recovered, diag
