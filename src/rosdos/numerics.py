"""Dense-matrix primitives and value checks shared by the rest of the package."""

import math
import numbers

import numpy as np


def is_integer(value):
    """An integral number other than a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value):
    """A real number other than a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_positive_finite(value):
    """A finite real number above 0, bools excluded."""
    return is_real(value) and math.isfinite(value) and value > 0


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


def binary_exponent(M, axis=None):
    """e with max |M| in [2^(e-1), 2^e), over axis (all of M by default); 0
    where M is zero. np.ldexp(M, -e) is then M in power-of-two units: the
    scaling is exact unless an entry falls below the normal range."""
    return np.frexp(np.max(np.abs(M), axis=axis))[1]


def fix_signs(U):
    """Flip column signs so each column of U has its largest-|entry| positive.

    Ties broken by lowest index (np.argmax returns the first maximum).
    """
    U = np.array(U, copy=True)
    for j in range(U.shape[1]):
        i = int(np.argmax(np.abs(U[:, j])))
        if U[i, j] < 0:
            U[:, j] = -U[:, j]
    return U


def svd(M):
    """numpy's thin SVD (U, S, Vh) of M, q = min(p, n); column signs as
    LAPACK leaves them."""
    return np.linalg.svd(as_matrix(M), full_matrices=False)


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


# Forming a Gram matrix squares the condition number, so an eigenvalue below
# GRAM_FLOOR * lambda_max keeps few correct digits; a caller that reads one
# takes the SVD instead. An eigenvalue at the floor stays with the Gram matrix.
GRAM_FLOOR = np.sqrt(np.finfo(float).eps)

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
    if len(index) > 1 and not is_orthonormal(U):
        return None
    return U


def is_orthonormal(Q):
    """True when max |Q^T Q - I| is within 64 m eps, m = Q's row count; a
    non-finite Q fails."""
    overlap = Q.T @ Q
    overlap.flat[::overlap.shape[0] + 1] -= 1.0
    return bool(np.max(np.abs(overlap)) <= 64 * Q.shape[0] * np.finfo(float).eps)


def pairwise_sq_dist(A, B):
    """Squared Euclidean distances between columns of A and columns of B,
    clipped at 0. The kernel's rounding is kept: pairwise_sq_dist(X, X) need
    not have a zero diagonal."""
    A = as_matrix(A, "A")
    B = as_matrix(B, "B")
    if A.shape[0] != B.shape[0]:
        raise ValueError(
            f"ambient dimensions differ: {A.shape[0]} vs {B.shape[0]}"
        )
    # entry for entry a2 + b2 - 2 G, without its temporaries: -2 G is exact,
    # and addition commutes
    D = A.T @ B
    D *= -2.0
    D += np.add.outer(np.sum(A * A, axis=0), np.sum(B * B, axis=0))
    np.maximum(D, 0.0, out=D)
    return D


def entrywise_median(columns):
    """Median over the last axis: for a p x m matrix, the coordinate-wise
    median of its m columns; for p x b x m, that of each of b column sets.

    Sorts along the last axis and takes the middle value, or the mean of the
    two middle values for an even m; faster than np.median(M, axis=-1) on
    the narrow blocks the recovery step passes, and equal to it except where
    np.median overflows: where the two middle values' sum overflows, it
    returns inf, and this halves them before adding.
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
    lo, hi = S[..., h - 1], S[..., h]
    with np.errstate(over="ignore"):
        mid = (lo + hi) / 2
    over = np.isinf(mid)
    mid[over] = lo[over] / 2 + hi[over] / 2
    return mid


def _householder_frame(G):
    """Q factor of G's Householder thin QR with column signs fixed so R's
    diagonal is >= 0."""
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs[None, :]


def q_factor(A, R):
    """A R^-1, the Q factor of A = Q R for a square upper-triangular R; None
    when R is singular or the product fails is_orthonormal."""
    with np.errstate(all="ignore"):  # a non-finite product fails the check
        try:
            Q = A @ np.linalg.inv(R)
        except np.linalg.LinAlgError:
            return None
        return Q if is_orthonormal(Q) else None


def haar_frame(G):
    """Q factor of G's thin QR with R's diagonal >= 0.

    For G with i.i.d. standard-normal entries this is a Haar-distributed
    orthonormal frame of G's shape (Mezzadri 2007). It comes from Cholesky
    QR: with L = cholesky(G^T G), Q = G L^-T and R = L^T, whose diagonal is
    positive. G is first scaled by a power of two, which is exact, so that
    G^T G cannot overflow. Householder QR of G is the fallback, taken when
    cholesky raises or q_factor returns None (G wide or ill-conditioned).
    """
    scaled = np.ldexp(G, -binary_exponent(G))
    try:
        L = np.linalg.cholesky(scaled.T @ scaled)
    except np.linalg.LinAlgError:
        return _householder_frame(G)
    Q = q_factor(scaled, L.T)
    return _householder_frame(G) if Q is None else Q


def random_orthogonal(dim, seed):
    """Haar-distributed dim x dim orthogonal matrix: the sign-fixed
    Householder Q factor of a square Gaussian."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = np.random.default_rng(seed)
    return _householder_frame(rng.standard_normal((dim, dim)))


def round_half_up(x):
    """Closest integer with .5 rounded up (numpy rounds half to even)."""
    return int(np.floor(x + 0.5))
