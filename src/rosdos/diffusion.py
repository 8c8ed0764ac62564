"""Landmark (ROSELAND) diffusion embedding.

Affinities are formed only between the samples and a small landmark subset,
never over all sample pairs, and the spectrum is read off the SVD of the
normalized sample-to-landmark affinity matrix.
"""

import numpy as np

from .numerics import (
    as_matrix, is_integer, is_positive_finite, is_real, round_half_up)


def auto_bandwidth(sq_dists):
    """Noise-floor-corrected median heuristic over the n x m squared
    distances from every sample to the landmarks.

    High-dimensional additive noise shifts every squared distance by a nearly
    constant offset, which concentrates near the lower quantiles; subtracting
    the 5th percentile from the median recovers the signal's own scale. On
    clean data the correction is small and the rule reduces to the plain
    median.
    """
    vals = as_matrix(sq_dists, "sq_dists").ravel()
    med = float(np.median(vals))
    h = med - float(np.quantile(vals, 0.05))
    if h <= 0:
        h = med
    if h <= 0:
        raise ValueError("degenerate point cloud: median squared distance is 0")
    return h


def landmark_count(n, gamma):
    """round(n^gamma) for a real gamma in (0, 1); ValueError below 2."""
    if not (is_real(gamma) and 0 < gamma < 1):
        raise ValueError(f"gamma must be a real number in (0, 1), got {gamma!r}")
    m = round_half_up(n ** gamma)
    if m < 2:
        raise ValueError(f"landmark count round({n}^{gamma}) = {m} < 2")
    return m


def select_landmarks(X, gamma, seed):
    """Uniformly subsample round(n^gamma) landmark indices, sorted ascending."""
    X = as_matrix(X, "X")
    n = X.shape[1]
    rng = np.random.default_rng(seed)
    idx = rng.choice(n, size=landmark_count(n, gamma), replace=False)
    return np.sort(idx)


def roseland_embed(sq_dists, h, q_prime, t):
    """Landmark diffusion embedding from the SVD of the normalized affinity
    exp(-D/h), D = sq_dists being the n x m sample-to-landmark squared
    distances; a negative entry, whose kernel value could overflow, raises.
    Returns (coords, spectrum): the n x q' embedded points and the q'
    spectral factors s_i^(2t) that scale their columns.

    A landmark's affinity to itself is kept, not zeroed. Singular values are
    nonnegative, so any real diffusion time t > 0 is valid, up to the t at
    which the leading factor s_1^(2t) underflows (ValueError); h and t must
    be finite. The coords' column signs are the SVD's: only distances
    between rows carry meaning.
    """
    D = as_matrix(sq_dists, "sq_dists")
    if np.any(D < 0):
        raise ValueError("squared distances must be >= 0")
    if not is_positive_finite(h):
        raise ValueError(f"bandwidth h must be positive and finite, got {h!r}")
    if not is_positive_finite(t):
        raise ValueError(f"diffusion time must be positive and finite, got {t!r}")
    n, m = D.shape
    if not (is_integer(q_prime) and 1 <= q_prime <= min(n, m) - 1):
        raise ValueError(
            f"q_prime must be an integer in [1, {min(n, m) - 1}], got {q_prime!r}"
        )

    Wb = np.exp(-D / h)
    deg = Wb @ (Wb.T @ np.ones(n))
    if np.any(deg <= 0):
        raise ValueError("zero row in the landmark kernel")
    inv_sqrt = 1.0 / np.sqrt(deg)
    Ab = Wb * inv_sqrt[:, None]
    U, s, _ = np.linalg.svd(Ab, full_matrices=False)

    spectral = s[1 : q_prime + 1] ** (2.0 * t)
    # an underflowed factor would zero every diffusion distance
    if spectral[0] < np.finfo(float).tiny:
        raise ValueError(
            f"diffusion time t={t} is too large: the leading spectral factor "
            f"{s[1]:.6g}^(2t) underflows"
        )
    coords = U[:, 1 : q_prime + 1] * inv_sqrt[:, None] * spectral[None, :]
    return coords, spectral
