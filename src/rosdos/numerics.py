"""Deterministic dense-matrix primitives shared by the rest of the package."""

import math
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


def short_side_spectrum(X):
    """Gram matrix of X's short side and its eigenvalues.

    Returns (Xw, transposed, gram, spectrum): Xw is X with the short side
    first (X.T when transposed), gram = Xw Xw^T, and spectrum its eigenvalues
    in descending order, clipped at 0 (all NaN when gram is not finite). The
    eigenvectors a caller keeps come from kept_eigenvectors.
    """
    transposed = X.shape[0] > X.shape[1]
    Xw = X.T if transposed else X
    gram = Xw @ Xw.T
    if not np.all(np.isfinite(gram)):  # eigvalsh raises on it
        return Xw, transposed, gram, np.full(gram.shape[0], np.nan)
    lam = np.linalg.eigvalsh(gram)
    return Xw, transposed, gram, np.maximum(lam[::-1], 0.0)


# Power steps replace inverse iteration for the top vector when
# lambda_1 / lambda_0 is below this. At 0.3 a 101 x 101 paper patch Gram
# matrix needs 27 steps, about the cost of the one solve they replace: one
# solve costs 26-28 matrix-vector products at OpenBLAS's default 2 threads
# and 36 at 1 thread (2-vCPU Xeon, OpenBLAS 0.3.31).
_POWER_RATIO_MAX = 0.3


def kept_eigenvectors(gram, spectrum, index):
    """Unit eigenvectors of the PSD matrix gram for spectrum[index], as
    columns; None when they fail a check.

    The top vector, when lambda_1 / lambda_0 is below _POWER_RATIO_MAX,
    takes s power steps from x0 = 1/sqrt(n), with s the least count for
    which (lambda_1 / lambda_0)^s reaches the residual bound below. Any
    other vector, and a top vector whose power steps miss that bound, comes
    from shifted inverse iteration: (gram - (lambda_i + 4 eps lambda_0) I)
    x = x0, from x0 = 1/sqrt(n) for the top vector and the alternating
    +-1 vector for the others, and once more from x when ||gram x -
    lambda_i x|| exceeds 8 sqrt(n) eps lambda_0, eigh's own rounding level
    (one solve can leave an angle of 1e-11 behind a residual under 64 n eps
    lambda_0). The residual must then be under that bound, and max |U^T U -
    I| under 64 n eps, which a repeated or clustered eigenvalue fails: the
    same start and shift then give the same vector twice.
    """
    n = gram.shape[0]
    eps = np.finfo(float).eps
    lam0 = spectrum[0]
    rel_tol = 8 * math.sqrt(n) * eps
    tol = rel_tol * lam0
    U = np.empty((n, len(index)))
    shifted = None
    try:
        for j, (i, lam) in enumerate(zip(index, spectrum[index])):
            if i == 0 and n > 1 and spectrum[1] < _POWER_RATIO_MAX * lam0:
                ratio = max(spectrum[1] / lam0, eps)
                x = np.full(n, 1 / np.sqrt(n))
                scaled = gram / lam0
                for _ in range(math.ceil(math.log(rel_tol) / math.log(ratio))):
                    x = scaled @ x
                norm = np.linalg.norm(x)  # 0 when x0 is in gram's null space
                if norm > 0:
                    x /= norm
                    if np.linalg.norm(gram @ x - lam * x) <= tol:
                        U[:, j] = x
                        continue
            if shifted is None:
                shifted = gram.copy()
                diagonal = gram.diagonal().copy()
            shifted.flat[::n + 1] = diagonal - (lam + 4 * eps * lam0)
            if i == 0:
                x = np.full(n, 1 / np.sqrt(n))
            else:
                x = np.ones(n)
                x[1::2] = -1.0
            for _ in range(2):
                x = np.linalg.solve(shifted, x)
                x /= np.linalg.norm(x)
                if np.linalg.norm(gram @ x - lam * x) <= tol:
                    break
            else:
                return None
            U[:, j] = x
    except np.linalg.LinAlgError:
        return None
    if len(index) > 1:
        overlap = U.T @ U
        overlap.flat[::len(index) + 1] -= 1.0
        if np.max(np.abs(overlap)) > 64 * n * eps:
            return None
    return U


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
