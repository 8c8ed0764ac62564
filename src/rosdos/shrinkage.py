"""Data-driven optimal singular-value shrinkage for separable-covariance noise.

Estimates the noise bulk edge and effective rank from the observed spectrum
alone, imputes the leading noise eigenvalues, plugs them into empirical
Stieltjes-transform quantities, and nonlinearly shrinks the kept singular
values to produce the denoised low-rank matrix.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .numerics import (
    as_matrix, kept_eigenvectors, round_half_up, short_side_spectrum, svd)

# 1 / (2^(2/3) - 1), the spread coefficient of the bulk-edge extrapolation
_EDGE_COEF = 1.0 / (2.0 ** (2.0 / 3.0) - 1.0)

_SQRT_EPS = np.sqrt(np.finfo(float).eps)


class ShrinkageError(ValueError):
    """Invalid input to a shrinkage operation."""


class DegenerateShrinkageError(ShrinkageError):
    """A component sits too close to the noise bulk to be shrunk reliably."""

    def __init__(self, component, detail=""):
        self.component = component
        msg = f"degenerate shrinkage for component {component}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


@dataclass
class StieltjesEstimates:
    m1: float
    m2: float
    m1p: float
    m2p: float
    T: float
    Tp: float


@dataclass
class ShrinkageOutput:
    spectrum: np.ndarray        # noisy eigenvalues of X X^T (after orientation)
    bulk_edge: float
    rank_threshold: float
    effective_rank: int
    imputed: np.ndarray
    shrunk: np.ndarray          # one value per kept component
    kept: np.ndarray            # indices (0-based) of kept components
    coords: np.ndarray          # n x r, rows as far apart as denoised's columns
    transposed: bool
    # denoised is formed from these: the kept left singular vectors U of Xw
    # (X with the short side first), their d / sigma scales, and Xw itself
    left: np.ndarray = field(repr=False)
    scale: np.ndarray = field(repr=False)
    short_side: np.ndarray = field(repr=False)
    warnings: list = field(default_factory=list)

    @cached_property
    def denoised(self):
        """p x n, original orientation, formed on first read.

        sum_i d_i u_i v_i^T with v_i = Xw^T u_i / sigma_i; the sign of each
        u_i cancels, so no sign convention is needed.
        """
        U = self.left
        denoised = (U * self.scale) @ (U.T @ self.short_side)
        return denoised.T if self.transposed else denoised


def estimate_bulk_edge(spectrum, n):
    """Extrapolate the right edge of the noise bulk from order statistics."""
    lam = np.asarray(spectrum, dtype=float)
    m = round_half_up(n ** 0.25)
    if lam.size <= 2 * m + 1:
        raise ShrinkageError(
            f"spectrum length {lam.size} too short; need more than {2 * m + 1}"
        )
    return float(lam[m] + _EDGE_COEF * (lam[m] - lam[2 * m]))


def estimate_effective_rank(spectrum, bulk_edge, n):
    """Count eigenvalues above the bulk edge plus the n^(-1/3) safety margin."""
    lam = np.asarray(spectrum, dtype=float)
    threshold = bulk_edge + n ** (-1.0 / 3.0)
    return int(np.sum(lam > threshold))


def impute_noise_eigs(spectrum, k):
    """Impute the k leading noise eigenvalues hidden under the signal spikes.

    Interpolates between the bulk-edge extrapolation (j=1) and the observed
    (k+1)-th eigenvalue (j -> k) using the same 2/3-exponent profile.
    """
    lam = np.asarray(spectrum, dtype=float)
    if k < 1:
        raise ShrinkageError(f"k must be >= 1, got {k}")
    if lam.size < 2 * k + 1:
        raise ShrinkageError(
            f"spectrum length {lam.size} too short for k={k}; need >= {2 * k + 1}"
        )
    j = np.arange(1, k + 1, dtype=float)
    profile = (1.0 - ((j - 1.0) / k) ** (2.0 / 3.0)) * _EDGE_COEF
    return lam[k] + profile * (lam[k] - lam[2 * k])


def stieltjes_estimates(spectrum, imputed, i, beta):
    """Empirical Stieltjes-transform quantities at the i-th (0-based) spike.

    The first len(imputed) noisy eigenvalues are replaced by the imputed noise
    eigenvalues; the remainder of the spectrum enters as observed.
    """
    lam = np.asarray(spectrum, dtype=float)
    imp = np.asarray(imputed, dtype=float)
    k = imp.size
    p = lam.size
    li = lam[i]
    if li <= 0:
        raise DegenerateShrinkageError(i, "nonpositive eigenvalue")
    tail = lam[k:]
    if np.any(imp >= li) or np.any(tail >= li):
        raise DegenerateShrinkageError(
            i, "eigenvalue not separated from the imputed bulk"
        )
    m1 = (np.sum(1.0 / (imp - li)) + np.sum(1.0 / (tail - li))) / p
    m2 = beta * m1 - (1.0 - beta) / li
    m1p = (np.sum(1.0 / (imp - li) ** 2) + np.sum(1.0 / (tail - li) ** 2)) / p
    m2p = (1.0 - beta) / li ** 2 + beta * m1p
    T = li * m1 * m2
    Tp = m1 * m2 + li * m1p * m2 + li * m1 * m2p
    if T <= 0 or Tp >= 0:
        raise DegenerateShrinkageError(i, f"T={T:.3g}, Tp={Tp:.3g}")
    return StieltjesEstimates(m1=m1, m2=m2, m1p=m1p, m2p=m2p, T=T, Tp=Tp)


def shrink_singular_value(lam_i, est):
    """Optimally shrunk singular value for an outlier eigenvalue lam_i."""
    phi2 = 1.0 / est.T
    a1 = est.m1 / (phi2 * est.Tp)
    a2 = est.m2 / (phi2 * est.Tp)
    prod = a1 * a2
    if prod <= 0:
        raise DegenerateShrinkageError(-1, f"a1*a2={prod:.3g}")
    d = np.sqrt(phi2) * np.sqrt(prod)
    if not np.isfinite(d) or d <= 0:
        raise DegenerateShrinkageError(-1, f"d={d!r}")
    return float(d)


def _rank_estimates(spectrum, n, k):
    """Bulk edge, rank threshold, effective rank, and the imputation count k
    raised to effective_rank + 5 when the rank reaches it."""
    edge = estimate_bulk_edge(spectrum, n)
    r = estimate_effective_rank(spectrum, edge, n)
    return edge, edge + n ** (-1.0 / 3.0), r, (r + 5 if r >= k else k)


def _shrink_components(spectrum, r, k, k_used, beta):
    """The notes, the imputed noise eigenvalues, and the kept components with
    their shrunk values, for effective rank r and imputation count k_used."""
    notes = []
    if k_used != k:
        if spectrum.size < 2 * k_used + 1:
            raise ShrinkageError(
                f"effective rank {r} >= k={k} and the spectrum is too short "
                f"to raise k to {k_used}"
            )
        notes.append(f"imputation count raised from {k} to {k_used}")

    if r == 0:
        notes.append("effective rank 0: denoised matrix is zero")
        return notes, np.array([]), np.array([], dtype=int), np.array([])
    # The sums over the spectrum in stieltjes_estimates, for components
    # 0..r-1 in one array pass; the O(1) rest of it and shrink_singular_value
    # on numpy scalars, which cost a tenth of an array operation. The
    # operations and their order are those two functions', so the values
    # are bit-identical, and the note of a dropped component comes from them.
    imputed = impute_noise_eigs(spectrum, k_used)
    li = spectrum[:r]
    gaps = np.concatenate((imputed, spectrum[k_used:])) - li[:, None]
    separated = gaps.max(axis=1) < 0
    kept = []
    shrunk = []
    with np.errstate(all="ignore"):
        inv = 1.0 / gaps
        inv2 = 1.0 / gaps ** 2
        m1s = (inv[:, :k_used].sum(1) + inv[:, k_used:].sum(1)) / spectrum.size
        m1ps = (inv2[:, :k_used].sum(1) + inv2[:, k_used:].sum(1)) / spectrum.size
        for i, (lam, m1, m1p) in enumerate(zip(li, m1s, m1ps)):
            m2 = beta * m1 - (1.0 - beta) / lam
            m2p = (1.0 - beta) / lam ** 2 + beta * m1p
            T = lam * m1 * m2
            Tp = m1 * m2 + lam * m1p * m2 + lam * m1 * m2p
            phi2 = 1.0 / T
            prod = m1 / (phi2 * Tp) * (m2 / (phi2 * Tp))
            d = np.sqrt(phi2) * np.sqrt(prod)
            if (lam > 0 and separated[i] and T > 0 and Tp < 0 and prod > 0
                    and 0 < d < np.inf):
                kept.append(i)
                shrunk.append(float(d))
                continue
            try:
                shrink_singular_value(lam, stieltjes_estimates(
                    spectrum, imputed, i, beta))
            except DegenerateShrinkageError as exc:
                notes.append(f"component {i} dropped: {exc}")
    return notes, imputed, np.array(kept, dtype=int), np.array(shrunk)


def eoptshrink(X, k=10):
    """Denoise X by nonlinear shrinkage of its singular values.

    k is the noise-eigenvalue imputation count; it is raised automatically to
    effective_rank + 5 when the detected rank reaches it.

    The spectrum comes from the eigenvalues of the Gram matrix of the short
    side, and the kept left singular vectors from power steps or shifted
    inverse iteration on it (numerics.kept_eigenvectors); the long-side
    singular vectors are never formed. An ill-conditioned
    Gram matrix, or kept vectors that fail their checks, send the whole
    computation to the SVD instead. The output carries the denoised samples
    in r coordinates (r kept components) with the same pairwise distances;
    the p x n denoised matrix is formed on the first read of `denoised`, from
    X itself, so X must not change before then.
    Notes (a raised k, a dropped component, rank 0, the SVD taken) are
    returned in `warnings`; none is emitted.
    """
    X = as_matrix(X, "X")
    pw, nw = sorted(X.shape)

    m_edge = round_half_up(nw ** 0.25)
    if pw <= 2 * max(k, m_edge) + 1:
        raise ShrinkageError(
            f"matrix too small: min(p,n)={pw} must exceed "
            f"{2 * max(k, m_edge) + 1} for k={k}, n={nw}"
        )

    Xw, transposed, gram, spectrum = short_side_spectrum(X)
    if not np.all(np.isfinite(spectrum)):
        raise ShrinkageError("non-finite spectrum: the Gram matrix of X overflows")
    beta = pw / nw
    edge, threshold, r, k_used = _rank_estimates(spectrum, nw, k)
    # Forming the Gram matrix squares the condition number, so an eigenvalue
    # below sqrt(eps) * lambda_max keeps few correct digits. When the smallest
    # order statistic the estimators read is that small, use the SVD instead.
    floor = spectrum[min(2 * max(k_used, m_edge), pw - 1)]
    if floor < _SQRT_EPS * spectrum[0]:
        reason = "ill-conditioned Gram"
    else:
        notes, imputed, kept, shrunk = _shrink_components(
            spectrum, r, k, k_used, beta)
        U = kept_eigenvectors(gram, spectrum, kept)
        reason = "eigenvector check failed" if U is None else None
    if reason is not None:
        factors = svd(Xw)
        spectrum = factors.singular ** 2
        edge, threshold, r, k_used = _rank_estimates(spectrum, nw, k)
        notes, imputed, kept, shrunk = _shrink_components(
            spectrum, r, k, k_used, beta)
        U = factors.left[:, kept]
        notes.append(f"SVD taken: {reason}")

    scale = shrunk / np.sqrt(spectrum[kept])
    # U and the v_i have orthonormal columns, so the samples are as far apart
    # as the rows of U diag(d) (samples on the short side) or of
    # (diag(d / sigma) U^T Xw)^T (samples on the long side)
    if transposed:
        coords = np.multiply(U, shrunk, order="C")
    else:
        coords = np.ascontiguousarray((U.T @ Xw).T)
        coords *= scale

    return ShrinkageOutput(
        spectrum=spectrum,
        bulk_edge=edge,
        rank_threshold=threshold,
        effective_rank=r,
        imputed=imputed,
        shrunk=shrunk,
        kept=kept,
        coords=coords,
        transposed=transposed,
        left=U,
        scale=scale,
        short_side=Xw,
        warnings=notes,
    )
