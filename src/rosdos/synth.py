"""Synthetic manifold samplers, noise generators, and the mSNR diagnostic."""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .numerics import (
    as_matrix, binary_exponent, haar_frame, is_integer, is_real, q_factor,
    random_orthogonal)


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


# each manifold's least ambient dimension p, read by its sampler and check_specs
_P_MIN = {"m1": 5, "m3": 4}


def _check_p(kind, p):
    if p < _P_MIN[kind]:
        raise ValueError(f"p must be >= {_P_MIN[kind]}, got {p}")


def sample_m1(p, n, seed):
    """Circle embedded via a decaying Fourier frame in the first 2*ceil(2p/5) axes."""
    _check_p("m1", p)
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
    _check_p("m3", p)
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


def _raise_floor(eigs, redraw, name):
    """Redraw eigs' entries at or below _EIG_FLOOR in place, up to 100 rounds."""
    for _ in range(100):
        bad = eigs <= _EIG_FLOOR
        if not bad.any():
            return
        eigs[bad] = redraw(bad)
    raise ValueError(f"could not obtain positive eigenvalues for {name}")


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
    # C is Householder's R, signs included, which the draw depends on; V
    # comes from it, and left^T's Householder Q factor is the fallback
    C = np.linalg.qr(left.T, mode="r")
    r = C.shape[0]
    V = q_factor(left.T[:, :r], C[:, :r])
    if V is None:
        V, C = np.linalg.qr(left.T)
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


def separable_noise(p, n, seed):
    """Separable-covariance noise A^(1/2) Z B^(1/2).

    A has a three-level base spectrum (1, 1/4, 1/2) perturbed by scaled Wigner
    eigenvalues; B mixes uniform and Student-t6 eigenvalues; Z has Student-t5
    entries scaled to unit standard deviation. Eigenvalues at or below 0.05
    are resampled to keep both factors safely positive definite.

    Returns (noise, A eigenvalues, B eigenvalues).
    """
    if p < 3 or n < 2:
        raise ValueError(f"need p >= 3 and n >= 2, got p={p}, n={n}")
    ss = np.random.SeedSequence(seed).spawn(4)
    rng_a, rng_b, rng_z = (np.random.default_rng(s) for s in ss[:3])

    # a Wigner matrix with N(0, 1/p) entries: eigvalsh reads one triangle
    G = rng_a.normal(0.0, 1.0 / math.sqrt(p), size=(p, p))
    wig = np.linalg.eigvalsh(G.T)[::-1]
    third = p // 3
    base = np.empty(p)
    base[:third] = 1.0
    base[third : 2 * third] = 0.25
    base[2 * third :] = 0.5
    a_eigs = base + wig / 32.0
    _raise_floor(
        a_eigs, lambda bad: base[bad] + rng_a.normal(0.0, 1.0, size=bad.sum()) / 32.0,
        "A")

    half = n // 2
    b_eigs = np.empty(n)
    b_eigs[:half] = rng_b.uniform(0.0, 1.0, size=half) / 4.0 + 1.0 / 6.0
    b_eigs[half:] = rng_b.standard_t(6, size=n - half) / 8.0 + 1.0
    _raise_floor(
        b_eigs, lambda bad: rng_b.standard_t(6, size=bad.sum()) / 8.0 + 1.0, "B")

    ss_q, ss_h, ss_f = ss[3].spawn(3)
    Q = random_orthogonal(p, np.random.default_rng(ss_q))
    Z = rng_z.standard_t(5, size=(p, n)) / _T5_SD

    # A^(1/2) Z = Q diag(sqrt(a)) Q^T Z
    left = Q @ (np.sqrt(a_eigs)[:, None] * (Q.T @ Z))
    Xi = _times_b_half(
        left, np.sqrt(b_eigs),
        np.random.default_rng(ss_h), np.random.default_rng(ss_f),
    )
    return Xi, a_eigs, b_eigs


# a covariance trace below this may have lost bits to subnormal squares
_TRACE_MIN = 2.0 ** -900


def _trace_in_unit(M):
    """(m, k) with the trace of the empirical covariance of M's columns
    equal to m * 2^k, m in [0.5, 1) or 0. Where the plain trace overflows
    or falls below _TRACE_MIN, it is taken again from M in its own
    power-of-two unit, which scales it exactly."""
    with np.errstate(over="ignore"):
        tr = float(np.sum(np.var(M, axis=1, ddof=1)))
    e = 0
    if not (math.isfinite(tr) and tr >= _TRACE_MIN):
        e = int(binary_exponent(M))
        tr = float(np.sum(np.var(np.ldexp(M, -e), axis=1, ddof=1)))
    m, k = math.frexp(tr)
    return m, k + 2 * e


def msnr(S, Xi):
    """Manifold SNR in dB: trace ratio of the empirical column covariances.

    Each trace is taken in its own power-of-two unit (_trace_in_unit), and
    the ratio of the two as r * 2^shift. Where that ratio is a normal float
    it is formed exactly, by math.ldexp, so the result equals
    10 log10(tr_S / tr_Xi) bit for bit; otherwise the exponent term is
    added in the log domain.
    """
    S = as_matrix(S, "S")
    Xi = as_matrix(Xi, "noise")
    if S.shape != Xi.shape:
        raise ValueError(f"shape mismatch: {S.shape} vs {Xi.shape}")
    if S.shape[1] < 2:
        raise ValueError(f"mSNR needs at least two samples, got {S.shape[1]}")
    (m_s, k_s), (m_x, k_x) = _trace_in_unit(S), _trace_in_unit(Xi)
    if m_x == 0:
        raise ValueError("noise covariance trace is zero")
    if m_s == 0:
        raise ValueError("signal covariance trace is zero")
    ratio, shift = m_s / m_x, k_s - k_x
    exponent = math.frexp(ratio)[1] + shift
    if sys.float_info.min_exp <= exponent <= sys.float_info.max_exp:
        return 10.0 * math.log10(math.ldexp(ratio, shift))
    return 10.0 * (math.log10(ratio) + shift * math.log10(2.0))


def check_specs(mspec, nspec):
    """Raise ValueError unless the specs name a known manifold and noise, with
    an integer p at or above the manifold's minimum, an integer n >= 2
    (msnr's minimum), integer seeds >= 0 and an alpha >= 0 with p ** alpha finite."""
    if mspec.kind not in tuple(_P_MIN):  # a tuple: a JSON kind may be unhashable
        raise ValueError(f"unknown manifold kind {mspec.kind!r}")
    for name in ("p", "n"):
        value = getattr(mspec, name)
        if not is_integer(value):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    _check_p(mspec.kind, mspec.p)
    if mspec.n < 2:
        raise ValueError(
            f"n must be >= 2 (mSNR needs at least two samples), got {mspec.n}")
    for spec, name in ((mspec, "manifold"), (nspec, "noise")):
        if not is_integer(spec.seed) or spec.seed < 0:
            raise ValueError(
                f"{name} seed must be an integer >= 0, got {spec.seed!r}")
    if nspec.kind not in ("gaussian", "separable"):
        raise ValueError(f"unknown noise kind {nspec.kind!r}")
    alpha = nspec.alpha
    if not is_real(alpha):
        raise ValueError(f"alpha must be a real number, got {alpha!r}")
    try:  # make_dataset divides the noise by p ** alpha
        math.pow(mspec.p, alpha)
    except OverflowError:
        raise ValueError(f"p ** alpha overflows: p={mspec.p}, alpha={alpha}") from None
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
    )
