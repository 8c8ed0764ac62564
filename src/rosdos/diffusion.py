"""Diffusion Maps and landmark (ROSELAND) spectral embeddings.

Both embeddings use the complete Gaussian-kernel graph; the landmark variant
only forms affinities between samples and a small landmark subset and reads
its spectrum off the SVD of the normalized landmark-affinity matrix.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, fix_signs, pairwise_sq_dist, round_half_up


@dataclass
class EmbeddingResult:
    coords: np.ndarray          # n x q' embedded points
    spectrum: np.ndarray        # spectral factors used by the map


def affinity_complete(X, h):
    """Complete-graph Gaussian affinity with the diagonal removed."""
    X = as_matrix(X, "X")
    if h <= 0:
        raise ValueError(f"bandwidth h must be positive, got {h}")
    if X.shape[1] < 2:
        raise ValueError("need at least two points")
    W0 = np.exp(-pairwise_sq_dist(X, X) / h)
    np.fill_diagonal(W0, 0.0)
    return W0


def auto_bandwidth(X, landmarks=None):
    """Noise-floor-corrected median squared distance heuristic.

    High-dimensional additive noise shifts every squared distance by a nearly
    constant offset, which concentrates near the lower quantiles; subtracting
    the 5th percentile from the median recovers the signal's own scale. On
    clean data the correction is small and the rule reduces to the plain
    median. Distances are taken to the landmark set when given, otherwise over
    all sample pairs.
    """
    X = as_matrix(X, "X")
    if landmarks is None:
        D = pairwise_sq_dist(X, X)
        vals = D[np.triu_indices_from(D, k=1)]
    else:
        vals = pairwise_sq_dist(X, X[:, landmarks]).ravel()
    med = float(np.median(vals))
    h = med - float(np.quantile(vals, 0.05))
    if h <= 0:
        h = med
    if h <= 0:
        raise ValueError("degenerate point cloud: median squared distance is 0")
    return h


def dm_embed(X, h, q_prime, t):
    """Diffusion-map embedding from the random-walk transition matrix.

    The kernel is density-normalized (divided by the outer product of raw
    degrees) before the random-walk normalization. t must be a positive
    integer: the transition matrix may have negative eigenvalues, for which
    non-integer powers are undefined over the reals.
    """
    X = as_matrix(X, "X")
    n = X.shape[1]
    if not 1 <= q_prime <= n - 1:
        raise ValueError(f"q_prime must be in [1, {n - 1}], got {q_prime}")
    if t != int(t) or t < 1:
        raise ValueError(f"diffusion time must be a positive integer, got {t}")
    t = int(t)

    W0 = affinity_complete(X, h)
    d0 = W0.sum(axis=1)
    if np.any(d0 <= 0):
        raise ValueError("isolated point: zero degree in the affinity graph")
    W = W0 / np.outer(d0, d0)
    deg = W.sum(axis=1)
    if np.any(deg <= 0):
        raise ValueError("isolated point after normalization")

    inv_sqrt = 1.0 / np.sqrt(deg)
    sym = W * np.outer(inv_sqrt, inv_sqrt)
    sym = 0.5 * (sym + sym.T)
    evals, evecs = np.linalg.eigh(sym)
    order = np.argsort(evals, kind="stable")[::-1]
    evals = evals[order]
    evecs = evecs[:, order]

    # right eigenvectors of D^-1 W, unit-normalized with deterministic signs
    u = evecs * inv_sqrt[:, None]
    u = u / np.linalg.norm(u, axis=0, keepdims=True)
    u = fix_signs(u)

    lam = evals[1 : q_prime + 1]
    coords = u[:, 1 : q_prime + 1] * lam[None, :] ** t
    return EmbeddingResult(coords=coords, spectrum=lam)


def select_landmarks(X, gamma, seed):
    """Uniformly subsample round(n^gamma) landmark indices, sorted ascending."""
    X = as_matrix(X, "X")
    n = X.shape[1]
    if not 0 < gamma < 1:
        raise ValueError(f"gamma must be in (0, 1), got {gamma}")
    m = round_half_up(n ** gamma)
    if m < 2:
        raise ValueError(f"landmark count round({n}^{gamma}) = {m} < 2")
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=m, replace=False)
    return np.sort(idx)


def roseland_embed(X, landmarks, h, q_prime, t):
    """Landmark diffusion embedding from the SVD of the normalized affinity.

    Unlike the complete-graph kernel, the sample-to-landmark affinity keeps
    coincident pairs at affinity 1. Singular values are nonnegative, so any
    real diffusion time t > 0 is valid, up to the t at which the leading
    factor s_1^(2t) underflows (ValueError).
    """
    X = as_matrix(X, "X")
    if h <= 0:
        raise ValueError(f"bandwidth h must be positive, got {h}")
    if t <= 0:
        raise ValueError(f"diffusion time must be positive, got {t}")
    landmarks = np.asarray(landmarks, dtype=int)
    n = X.shape[1]
    m = landmarks.size
    if not 1 <= q_prime <= min(n, m) - 1:
        raise ValueError(
            f"q_prime must be in [1, {min(n, m) - 1}], got {q_prime}"
        )

    Wb = np.exp(-pairwise_sq_dist(X, X[:, landmarks]) / h)
    deg = Wb @ (Wb.T @ np.ones(n))
    if np.any(deg <= 0):
        raise ValueError("zero row in the landmark kernel")
    inv_sqrt = 1.0 / np.sqrt(deg)
    Ab = Wb * inv_sqrt[:, None]
    U, s, _ = np.linalg.svd(Ab, full_matrices=False)
    U = fix_signs(U)

    spectral = s[1 : q_prime + 1] ** (2.0 * t)
    # an underflowed factor would zero every diffusion distance
    if spectral[0] < np.finfo(float).tiny:
        raise ValueError(
            f"diffusion time t={t} is too large: the leading spectral factor "
            f"{s[1]:.6g}^(2t) underflows"
        )
    coords = U[:, 1 : q_prime + 1] * inv_sqrt[:, None] * spectral[None, :]
    return EmbeddingResult(coords=coords, spectrum=spectral)
