"""Synthetic manifold samplers, noise generators, and the mSNR diagnostic."""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import as_matrix, haar_frame, random_orthogonal


@dataclass
class ManifoldSpec:
    kind: str  # "m1" (Fourier circle) | "m3" (Klein bottle)
    p: int
    n: int
    seed: int


@dataclass
class NoiseSpec:
    kind: str  # "gaussian" | "separable"
    alpha: float
    seed: int


@dataclass
class SyntheticDataset:
    clean: np.ndarray    # p x n
    noisy: np.ndarray    # clean + noise / p^alpha
    noise: np.ndarray    # the scaled noise actually added
    latent: np.ndarray   # per-column intrinsic parameters
    msnr_db: float
    manifold: ManifoldSpec
    noise_spec: NoiseSpec


def sample_m1(p, n, seed):
    """Circle embedded via a decaying Fourier frame in the first 2*ceil(2p/5) axes."""
    if p < 5:
        raise ValueError(f"p must be >= 5, got {p}")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    J = math.ceil(2 * p / 5)
    S = np.zeros((p, n))
    for k in range(1, J + 1):
        S[2 * k - 2] = np.sin(k * theta) / (2 * k - 1)
        S[2 * k - 1] = np.cos(k * theta) / (2 * k)
    return S, theta


def sample_klein(p, n, seed):
    """Klein bottle embedded in the first four axes."""
    if p < 4:
        raise ValueError(f"p must be >= 4, got {p}")
    rng = np.random.default_rng(seed)
    t = rng.uniform(0.0, 2.0 * np.pi, size=n)
    s = rng.uniform(0.0, 2.0 * np.pi, size=n)
    S = np.zeros((p, n))
    S[0] = (2.0 * np.cos(t) + 1.0) * np.cos(s)
    S[1] = (2.0 * np.cos(t) + 1.0) * np.sin(s)
    S[2] = 2.0 * np.sin(t) * np.cos(s / 2.0)
    S[3] = 2.0 * np.sin(t) * np.sin(s / 2.0)
    return S, np.column_stack([t, s])


def gaussian_noise(p, n, seed):
    """i.i.d. standard-normal noise matrix."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((p, n))


_EIG_FLOOR = 0.05
_T5_SD = math.sqrt(5.0 / 3.0)


def _symmetric_gaussian(p, rng):
    """Symmetric matrix with i.i.d. N(0, 1/p) entries (upper triangle mirrored)."""
    G = rng.normal(0.0, 1.0 / math.sqrt(p), size=(p, p))
    return np.triu(G) + np.triu(G, k=1).T


def _times_b_half(left, d, rng_h, rng_f):
    """left @ B^(1/2) with B^(1/2) = O diag(d) O^T for a Haar-distributed
    n x n orthogonal O, sampled only where it acts: O(n p^2) work, no n x n
    array.

    With R = O^T and left^T = V C (thin QR, V is n x r, r = min(p, n)),
    H = R V is a Haar r-frame. Given H, R^T maps H onto V and H's
    complement onto V's complement by a uniformly random isometry. So with
    Y = diag(d) H C, the result's transpose is V (H^T Y) plus a Haar frame
    of V's complement applied to the coordinates of E = Y - H H^T Y in a
    basis F of its column space; E has rank s = min(p, n - r), which is 0
    when p >= n, and those coordinates are the first s rows of E's R
    factor. The result has the same distribution as with a dense O.
    """
    p, n = left.shape
    V, C = np.linalg.qr(left.T)
    r = V.shape[1]
    H = haar_frame(rng_h.standard_normal((n, r)))
    Y = d[:, None] * (H @ C)
    Yh = H.T @ Y
    out = Yh.T @ V.T
    s = min(p, n - r)
    if s > 0:
        E = Y - H @ Yh
        # with E = F R (thin QR), E^T F = R^T, so F itself is never formed
        R = np.linalg.qr(E, mode="r")[:s]
        G = rng_f.standard_normal((n, s))
        Fp = haar_frame(G - V @ (V.T @ G))
        out += R.T @ Fp.T
    return out


def separable_noise(p, n, seed, with_row_cov=False):
    """Separable-covariance noise A^(1/2) Z B^(1/2).

    A has a three-level base spectrum (1, 1/4, 1/2) perturbed by scaled Wigner
    eigenvalues; B mixes uniform and Student-t6 eigenvalues; Z has Student-t5
    entries scaled to unit standard deviation. Eigenvalues at or below 0.05
    are resampled to keep both factors safely positive definite.

    Returns (noise, A eigenvalues, B eigenvalues); with_row_cov=True appends
    the full p x p row-covariance factor A for diagnostics.
    """
    if p < 3 or n < 2:
        raise ValueError(f"need p >= 3 and n >= 2, got p={p}, n={n}")
    ss = np.random.SeedSequence(seed).spawn(4)
    rng_a, rng_b, rng_z = (np.random.default_rng(s) for s in ss[:3])

    wig = np.sort(np.linalg.eigvalsh(_symmetric_gaussian(p, rng_a)))[::-1]
    third = p // 3
    base = np.empty(p)
    base[:third] = 1.0
    base[third : 2 * third] = 0.25
    base[2 * third :] = 0.5
    a_eigs = base + wig / 32.0
    for _ in range(100):
        bad = a_eigs <= _EIG_FLOOR
        if not bad.any():
            break
        a_eigs[bad] = base[bad] + rng_a.normal(0.0, 1.0, size=bad.sum()) / 32.0
    else:
        raise ValueError("could not obtain positive eigenvalues for A")

    half = n // 2
    b_eigs = np.empty(n)
    b_eigs[:half] = rng_b.uniform(0.0, 1.0, size=half) / 4.0 + 1.0 / 6.0
    b_eigs[half:] = rng_b.standard_t(6, size=n - half) / 8.0 + 1.0
    for _ in range(100):
        bad = b_eigs <= _EIG_FLOOR
        if not bad.any():
            break
        b_eigs[bad] = rng_b.standard_t(6, size=bad.sum()) / 8.0 + 1.0
    else:
        raise ValueError("could not obtain positive eigenvalues for B")

    ss_q, ss_h, ss_f = ss[3].spawn(3)
    Q = random_orthogonal(p, np.random.default_rng(ss_q))
    Z = rng_z.standard_t(5, size=(p, n)) / _T5_SD

    # A^(1/2) Z = Q diag(sqrt(a)) Q^T Z
    left = Q @ (np.sqrt(a_eigs)[:, None] * (Q.T @ Z))
    Xi = _times_b_half(
        left, np.sqrt(b_eigs),
        np.random.default_rng(ss_h), np.random.default_rng(ss_f),
    )
    if with_row_cov:
        return Xi, a_eigs, b_eigs, Q @ (a_eigs[:, None] * Q.T)
    return Xi, a_eigs, b_eigs


def msnr(S, Xi):
    """Manifold SNR in dB: trace ratio of the empirical column covariances."""
    S = as_matrix(S, "S")
    Xi = as_matrix(Xi, "noise")
    if S.shape != Xi.shape:
        raise ValueError(f"shape mismatch: {S.shape} vs {Xi.shape}")
    tr_s = float(np.sum(np.var(S, axis=1, ddof=1)))
    tr_x = float(np.sum(np.var(Xi, axis=1, ddof=1)))
    if tr_x <= 0:
        raise ValueError("noise covariance trace is zero")
    return 10.0 * math.log10(tr_s / tr_x)


def check_specs(mspec, nspec):
    """Raise ValueError unless the specs name a known manifold and noise, with
    integer p and n and a finite alpha >= 0. The samplers check their own
    size minimums."""
    if mspec.kind not in ("m1", "m3"):
        raise ValueError(f"unknown manifold kind {mspec.kind!r}")
    for name in ("p", "n"):
        value = getattr(mspec, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if nspec.kind not in ("gaussian", "separable"):
        raise ValueError(f"unknown noise kind {nspec.kind!r}")
    alpha = nspec.alpha
    if isinstance(alpha, bool) or not isinstance(alpha, numbers.Real):
        raise ValueError(f"alpha must be a real number, got {alpha!r}")
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")


def make_dataset(mspec, nspec):
    """Generate a clean manifold sample plus scaled noise per the two specs.

    Both specs are checked before any sampler runs.
    """
    check_specs(mspec, nspec)
    if mspec.kind == "m1":
        clean, latent = sample_m1(mspec.p, mspec.n, mspec.seed)
    else:
        clean, latent = sample_klein(mspec.p, mspec.n, mspec.seed)
    if nspec.kind == "gaussian":
        raw = gaussian_noise(mspec.p, mspec.n, nspec.seed)
    else:
        raw, _, _ = separable_noise(mspec.p, mspec.n, nspec.seed)

    noise = raw / mspec.p ** nspec.alpha
    return SyntheticDataset(
        clean=clean,
        noisy=clean + noise,
        noise=noise,
        latent=latent,
        msnr_db=msnr(clean, noise),
        manifold=mspec,
        noise_spec=nspec,
    )
