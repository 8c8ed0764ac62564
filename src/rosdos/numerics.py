"""Deterministic dense-matrix primitives shared by the rest of the package."""

from dataclasses import dataclass

import numpy as np


def as_matrix(values, name="matrix"):
    """Validate and return a finite 2-D float array (p x n, columns = samples)."""
    M = np.asarray(values, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {M.shape}")
    if M.shape[0] < 1 or M.shape[1] < 1:
        raise ValueError(f"{name} must have at least one row and one column")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


@dataclass
class SvdFactors:
    """Thin SVD with a deterministic sign convention."""

    left: np.ndarray      # p x q, orthonormal columns
    singular: np.ndarray  # q nonincreasing nonnegative values
    right: np.ndarray     # n x q, orthonormal columns


def fix_signs(U, V=None):
    """Flip column signs so each column of U has its largest-|entry| positive.

    Ties broken by lowest index (np.argmax returns the first maximum). If V is
    given its columns are flipped consistently.
    """
    U = np.array(U, copy=True)
    if V is not None:
        V = np.array(V, copy=True)
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
            if V is not None:
                V[:, j] = -V[:, j]
    return U if V is None else (U, V)


def svd(M):
    """Thin SVD of M with q = min(p, n) and deterministic signs."""
    M = as_matrix(M)
    U, s, Vt = np.linalg.svd(M, full_matrices=False)
    U, V = fix_signs(U, Vt.T)
    return SvdFactors(left=U, singular=s, right=V)


def pairwise_sq_dist(A, B):
    """Squared Euclidean distances between columns of A and columns of B."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"ambient dimensions differ: {A.shape[0]} vs {B.shape[0]}"
        )
    a2 = np.sum(A * A, axis=0)
    b2 = np.sum(B * B, axis=0)
    D = a2[:, None] + b2[None, :] - 2.0 * (A.T @ B)
    np.maximum(D, 0.0, out=D)
    if A is B or (A.shape == B.shape and np.shares_memory(A, B)):
        np.fill_diagonal(D, 0.0)
        D = 0.5 * (D + D.T)
    return D


def entrywise_median(columns):
    """Median over the last axis: for a p x m matrix, the coordinate-wise
    median of its m columns; for p x b x m, that of each of b column sets.

    Sorts along the last axis and takes the middle value, or the mean of the
    two middle values for an even m; equal to np.median(M, axis=-1), and
    faster on the narrow blocks the recovery step passes.
    """
    M = np.asarray(columns, dtype=float)
    if M.ndim < 2 or M.size == 0:
        raise ValueError(
            f"columns must be nonempty with 2 or more axes, got shape {M.shape}"
        )
    if not np.all(np.isfinite(M)):
        raise ValueError("columns contains non-finite entries")
    S = np.sort(M, axis=-1)
    h = S.shape[-1] // 2
    if S.shape[-1] % 2:
        return S[..., h]
    return (S[..., h - 1] + S[..., h]) / 2


def haar_frame(G):
    """Q factor of G's thin QR with column signs fixed so R's diagonal is >= 0.

    For G with i.i.d. standard-normal entries this is a Haar-distributed
    orthonormal frame of G's shape (Mezzadri 2007).
    """
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs[None, :]


def random_orthogonal(dim, seed):
    """Haar-distributed dim x dim orthogonal matrix: haar_frame of a square
    Gaussian."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    return haar_frame(rng.standard_normal((dim, dim)))


def round_half_up(x):
    """Closest integer with .5 rounded up (numpy rounds half to even)."""
    return int(np.floor(x + 0.5))
