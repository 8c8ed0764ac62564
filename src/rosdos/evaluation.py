"""Per-point error metrics, the TSVD baseline, and experiment reports."""

import copy
from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import (
    as_matrix, is_integer, kept_eigenvectors, short_side_spectrum, svd)
from .synth import msnr


def nrmse(S, S_tilde):
    """Per-column normalized recovery error ||s~_i - s_i|| / ||s_i||."""
    S = as_matrix(S, "S")
    S_tilde = as_matrix(S_tilde, "S_tilde")
    if S.shape != S_tilde.shape:
        raise ValueError(f"shape mismatch: {S.shape} vs {S_tilde.shape}")
    norms = np.linalg.norm(S, axis=0)
    zero = np.flatnonzero(norms == 0)
    if zero.size:
        raise ValueError(f"clean column {zero[0]} has zero norm")
    return np.linalg.norm(S_tilde - S, axis=0) / norms


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
    exponent = np.frexp(np.max(np.abs(X)))[1]
    _, transposed, gram, spectrum = short_side_spectrum(np.ldexp(X, -exponent))
    # the Gram matrix squares the condition number: below sqrt(eps) * lambda_0
    # it does not resolve the r-th component, so take the SVD instead; so too
    # when the top-r eigenvectors fail their checks
    U = None
    if spectrum[r - 1] > np.sqrt(np.finfo(float).eps) * spectrum[0]:
        U = kept_eigenvectors(gram, spectrum, np.arange(r))
    if U is None:
        U, s, Vh = svd(X)
        return (U[:, :r] * s[:r]) @ Vh[:r]
    if transposed:
        return (X @ U) @ U.T
    return U @ (U.T @ X)


@dataclass
class ExperimentReport:
    nrmse: list
    nrmse_median: float
    nrmse_mean: float
    noise_ratio_median: float | None
    msnr_db: float | None
    wallclock_seconds: float
    config_echo: dict = field(default_factory=dict)

    def to_dict(self):
        # one level of copy; asdict would deep-copy every element of nrmse
        return {f.name: copy.copy(getattr(self, f.name)) for f in fields(self)}


def summarize(S, S_tilde, noise=None, timing=0.0, config=None):
    """Aggregate per-point NRMSE and noise statistics into a report."""
    errors = nrmse(S, S_tilde)
    ratio = None
    snr = None
    if noise is not None:
        noise = as_matrix(noise, "noise")
        if noise.shape != as_matrix(S).shape:
            raise ValueError("noise shape must match clean shape")
        ratio = float(
            np.median(np.linalg.norm(noise, axis=0) / np.linalg.norm(S, axis=0))
        )
        snr = msnr(S, noise)
    return ExperimentReport(
        nrmse=[float(e) for e in errors],
        nrmse_median=float(np.median(errors)),
        nrmse_mean=float(np.mean(errors)),
        noise_ratio_median=ratio,
        msnr_db=snr,
        wallclock_seconds=float(timing),
        config_echo=dict(config) if config else {},
    )
