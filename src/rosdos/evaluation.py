"""Per-point error metrics, the TSVD baseline, and experiment reports."""

import numpy as np

from .numerics import (
    GRAM_FLOOR, as_matrix, binary_exponent, is_integer, kept_eigenvectors,
    short_side_spectrum, svd)
from .synth import msnr


# column norms outside this range may have overflowed, underflowed or lost
# bits to subnormal squares
_NORM_RANGE = (2.0 ** -450, 2.0 ** 450)


def _column_norms(M):
    """(norms, e): the Euclidean norm of column c is norms[c] * 2^e[c].

    e is 0 where the plain norm is in _NORM_RANGE; the other columns are
    taken again in power-of-two units, which scales each norm exactly, so a
    ratio of two columns' norms is the same at any scale of M.
    """
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(M, axis=0)
    e = np.zeros(norms.shape, dtype=int)
    redo = np.flatnonzero(~((norms >= _NORM_RANGE[0]) & (norms <= _NORM_RANGE[1])))
    if redo.size:
        sub = M[:, redo]
        e[redo] = binary_exponent(sub, axis=0)
        # in M's memory order, which sets the order numpy sums the squares in
        order = "F" if abs(M.strides[0]) <= abs(M.strides[1]) else "C"
        norms[redo] = np.linalg.norm(np.ldexp(sub, -e[redo], order=order), axis=0)
    return norms, e


def _norm_ratios(A, B):
    """||a_i|| / ||b_i|| for each column pair, exact at any scale of A and B;
    raises ValueError naming the first zero column of B."""
    num, e_num = _column_norms(A)
    den, e_den = _column_norms(B)
    zero = np.flatnonzero(den == 0)
    if zero.size:
        raise ValueError(f"clean column {zero[0]} has zero norm")
    return np.ldexp(num / den, e_num - e_den)


def nrmse(S, S_tilde):
    """Per-column normalized recovery error ||s~_i - s_i|| / ||s_i||; the
    same for 2^j S and 2^j S~ wherever 2^j scales S, S~ and S~ - S exactly
    and finitely."""
    S = as_matrix(S, "S")
    S_tilde = as_matrix(S_tilde, "S_tilde")
    if S.shape != S_tilde.shape:
        raise ValueError(f"shape mismatch: {S.shape} vs {S_tilde.shape}")
    with np.errstate(over="ignore"):
        diff = S_tilde - S
    # where S~ - S overflows, take it again in units of 2, which the ratio
    # doubles back exactly
    over = np.flatnonzero(np.isinf(diff).any(axis=0))
    diff[:, over] = S_tilde[:, over] / 2 - S[:, over] / 2
    ratios = _norm_ratios(diff, S)
    ratios[over] *= 2
    return ratios


def baseline_tsvd(X, r):
    """Keep the top-r singular triplets unmodified.

    The result is U_r U_r^T X, with U_r the top-r left singular vectors of
    X's short side taken from its Gram matrix by numerics.kept_eigenvectors;
    the long-side singular vectors are never formed.
    """
    X = as_matrix(X, "X")
    q = min(X.shape)
    if not (is_integer(r) and 0 <= r <= q):
        raise ValueError(f"rank must be an integer in [0, {q}], got {r!r}")
    if r == 0:
        return np.zeros_like(X)
    # in power-of-two units the Gram matrix neither overflows nor underflows;
    # the scaling is exact and cancels in U_r U_r^T X
    _, transposed, gram, spectrum = short_side_spectrum(
        np.ldexp(X, -binary_exponent(X)))
    # the SVD when the Gram matrix does not resolve the r-th component (its
    # eigenvalue below GRAM_FLOOR * lambda_0) or the top-r eigenvectors fail
    # their checks
    U = None
    if spectrum[r - 1] >= GRAM_FLOOR * spectrum[0]:
        U = kept_eigenvectors(gram, spectrum, np.arange(r))
    if U is None:
        U, s, Vh = svd(X)
        return (U[:, :r] * s[:r]) @ Vh[:r]
    if transposed:
        return (X @ U) @ U.T
    return U @ (U.T @ X)


def summarize(S, S_tilde, noise=None):
    """Aggregate per-point NRMSE and noise statistics into a report dict, the
    record saved as JSON; its noise keys are None without noise."""
    errors = nrmse(S, S_tilde)
    ratio = None
    snr = None
    if noise is not None:
        noise = as_matrix(noise, "noise")
        S = as_matrix(S)
        if noise.shape != S.shape:
            raise ValueError("noise shape must match clean shape")
        ratio = float(np.median(_norm_ratios(noise, S)))
        snr = msnr(S, noise)
    return {
        "nrmse": [float(e) for e in errors],
        "nrmse_median": float(np.median(errors)),
        "nrmse_mean": float(np.mean(errors)),
        "noise_ratio_median": ratio,
        "msnr_db": snr,
    }
