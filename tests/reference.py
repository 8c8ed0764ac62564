"""The tests' reference implementations: plain, independent forms of what the
package computes faster or in less memory, and the whole denoiser built from
such parts (reference_rosdos). None checks its arguments, and several form
n x n arrays, so they suit only small inputs.
"""

from collections import Counter
from types import SimpleNamespace

import numpy as np

from rosdos.numerics import pairwise_sq_dist, round_half_up, svd
from rosdos.pipeline import MODE_ROSELAND, MODE_SHRINK_ONLY, global_metric
from rosdos.shrinkage import (
    ShrinkageError, eoptshrink, estimate_bulk_edge, estimate_effective_rank,
    impute_noise_eigs)

EPS = np.finfo(float).eps


# The full-graph diffusion map. It fixes no signs: the tests compare its
# coordinates through distances, absolute values, or with another call on
# the same kernel.

def full_graph_sq_dist(X):
    """Squared distances between all columns of X, made exactly symmetric,
    with a zero diagonal."""
    D = pairwise_sq_dist(X, X)
    np.fill_diagonal(D, 0.0)
    return 0.5 * (D + D.T)


def full_graph_bandwidth(X):
    """auto_bandwidth's rule over all sample pairs: the median squared
    distance less its 5th percentile, or the median where that is not
    positive."""
    D = full_graph_sq_dist(X)
    vals = D[np.triu_indices_from(D, k=1)]
    med = float(np.median(vals))
    h = med - float(np.quantile(vals, 0.05))
    return h if h > 0 else med


def affinity_complete(X, h):
    """Complete-graph Gaussian affinity with the diagonal removed."""
    W0 = np.exp(-full_graph_sq_dist(X) / h)
    np.fill_diagonal(W0, 0.0)
    return W0


def dm_embed(X, h, q_prime, t):
    """Diffusion-map embedding from the random-walk transition matrix, as
    roseland_embed's (coords, spectrum) pair.

    The kernel is density-normalized (divided by the outer product of raw
    degrees) before the random-walk normalization; the coords are the
    right eigenvectors 1..q_prime of D^-1 W, unit-normalized and scaled by
    their eigenvalues to the power t (an integer: the transition matrix may
    have negative eigenvalues).
    """
    W0 = affinity_complete(X, h)
    d0 = W0.sum(axis=1)
    W = W0 / np.outer(d0, d0)
    inv_sqrt = 1.0 / np.sqrt(W.sum(axis=1))
    sym = W * np.outer(inv_sqrt, inv_sqrt)
    evals, evecs = np.linalg.eigh(0.5 * (sym + sym.T))
    order = np.argsort(evals, kind="stable")[::-1]
    u = evecs[:, order] * inv_sqrt[:, None]
    u /= np.linalg.norm(u, axis=0, keepdims=True)
    lam = evals[order][1 : q_prime + 1]
    return u[:, 1 : q_prime + 1] * lam[None, :] ** t, lam


# The eOptShrink rule one component at a time, on scalars: the reference
# that eoptshrink's array pass (shrinkage._shrink_components) must match
# bit for bit, values and notes alike.

class DegenerateShrinkageError(ShrinkageError):
    """A component sits too close to the noise bulk to be shrunk reliably."""

    def __init__(self, component, detail):
        super().__init__(f"degenerate shrinkage for component {component}: {detail}")


def stieltjes_estimates(spectrum, imputed, i, beta):
    """Empirical Stieltjes-transform quantities m1, m2, their derivatives
    m1p, m2p, T and Tp at the i-th (0-based) spike.

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
        raise DegenerateShrinkageError(i, "eigenvalue not separated from the imputed bulk")
    m1 = (np.sum(1.0 / (imp - li)) + np.sum(1.0 / (tail - li))) / p
    m2 = beta * m1 - (1.0 - beta) / li
    m1p = (np.sum(1.0 / (imp - li) ** 2) + np.sum(1.0 / (tail - li) ** 2)) / p
    m2p = (1.0 - beta) / li ** 2 + beta * m1p
    T = li * m1 * m2
    Tp = m1 * m2 + li * m1p * m2 + li * m1 * m2p
    if T <= 0 or Tp >= 0:
        raise DegenerateShrinkageError(i, f"T={T:.3g}, Tp={Tp:.3g}")
    return SimpleNamespace(m1=m1, m2=m2, m1p=m1p, m2p=m2p, T=T, Tp=Tp)


def shrink_singular_value(lam_i, est, i):
    """Optimally shrunk singular value for the i-th outlier eigenvalue lam_i."""
    phi2 = 1.0 / est.T
    a1 = est.m1 / (phi2 * est.Tp)
    a2 = est.m2 / (phi2 * est.Tp)
    prod = a1 * a2
    if prod <= 0:
        raise DegenerateShrinkageError(i, f"a1*a2={prod:.3g}")
    d = np.sqrt(phi2) * np.sqrt(prod)
    if not np.isfinite(d) or d <= 0:
        raise DegenerateShrinkageError(i, f"d={float(d)!r}")
    return float(d)


def scalar_components(lam, imputed, r, beta):
    """The kept components among 0..r-1, their shrunk values and the notes of
    the dropped ones, from stieltjes_estimates and shrink_singular_value."""
    kept, shrunk, notes = [], [], []
    for i in range(r):
        try:
            est = stieltjes_estimates(lam, imputed, i, beta)
            shrunk.append(shrink_singular_value(lam[i], est, i))
        except DegenerateShrinkageError as exc:
            notes.append(f"component {i} dropped: {exc}")
            continue
        kept.append(i)
    return kept, shrunk, notes


def reference_estimates(lam, pw, nw, k):
    """The estimator loop over a spectrum: bulk edge, effective rank, kept
    components, their shrunk values and the notes, with k raised to r + 5
    when the rank reaches it."""
    edge = estimate_bulk_edge(lam, nw)
    r = estimate_effective_rank(lam, edge, nw)
    notes = []
    if r >= k:
        notes.append(f"imputation count raised from {k} to {r + 5}")
        k = r + 5
    kept, shrunk = [], []
    if r > 0:
        kept, shrunk, dropped = scalar_components(
            lam, impute_noise_eigs(lam, k), r, pw / nw)
        notes += dropped
    else:
        notes.append("effective rank 0: denoised matrix is zero")
    return SimpleNamespace(edge=edge, r=r, k=k, kept=np.asarray(kept, dtype=int),
                           shrunk=np.asarray(shrunk), notes=notes)


# eOptShrink and truncated SVD from a dense decomposition

def svd_reference(X, k=10):
    """eOptShrink computed from the thin SVD of X: the squared singular values
    are the spectrum and the kept singular triplets rebuild the estimate.
    Its coords are the denoised columns themselves, so distances between
    them are taken in the ambient space, not in the r kept coordinates."""
    transposed = X.shape[0] > X.shape[1]
    Xw = X.T if transposed else X
    pw, nw = Xw.shape
    U, s, Vh = svd(Xw)
    lam = s ** 2
    e = reference_estimates(lam, pw, nw, k)
    denoised = (U[:, e.kept] * e.shrunk) @ Vh[e.kept]
    denoised = denoised.T if transposed else denoised
    return SimpleNamespace(spectrum=lam, bulk_edge=e.edge, effective_rank=e.r,
                           kept=e.kept, denoised=denoised, coords=denoised.T)


def eigh_reference(X, k=10):
    """eOptShrink with the spectrum and the left singular vectors from eigh
    of the short-side Gram matrix, and from the SVD when an order statistic
    the estimators read is below sqrt(eps) * lambda_max: the eigen step
    before inverse iteration replaced it."""
    transposed = X.shape[0] > X.shape[1]
    Xw = X.T if transposed else X
    pw, nw = Xw.shape
    lam, vecs = np.linalg.eigh(Xw @ Xw.T)
    lam, left = np.maximum(lam[::-1], 0.0), vecs[:, ::-1]
    m = round_half_up(nw ** 0.25)
    e = reference_estimates(lam, pw, nw, k)
    if lam[min(2 * max(e.k, m), pw - 1)] < np.sqrt(EPS) * lam[0]:
        left, s, _ = svd(Xw)
        lam = s ** 2
        e = reference_estimates(lam, pw, nw, k)
        e.notes.append("SVD taken: ill-conditioned Gram")
    U = left[:, e.kept]
    if transposed:
        coords = U * e.shrunk
    else:
        coords = (U.T @ Xw).T * (e.shrunk / np.sqrt(lam[e.kept]))
    return SimpleNamespace(spectrum=lam, effective_rank=e.r, kept=e.kept,
                           coords=coords, warnings=e.notes)


def eager_denoised(X, out):
    """The reconstruction eoptshrink formed on every call before `denoised`
    was formed on first read."""
    Xw = X.T if out.transposed else X
    denoised = np.zeros_like(Xw)
    if out.kept.size:
        U = out.left
        denoised = (U * (out.shrunk / np.sqrt(out.spectrum[out.kept]))) @ (U.T @ Xw)
    return denoised.T if out.transposed else denoised


def tsvd_reference(X, r):
    """The top-r singular triplets of X from its thin SVD."""
    if r == 0:
        return np.zeros_like(X)
    U, s, Vh = svd(X)
    return (U[:, :r] * s[:r]) @ Vh[:r]


def excess(S, X, raw=False):
    """How far eoptshrink's Frobenius loss on X exceeds the oracle's on the
    same singular vectors, d_i* = u_i^T S v_i, as a fraction of the oracle's,
    and the number of kept components; S is X's clean matrix, and raw=True
    keeps the singular values unshrunk."""
    out = eoptshrink(X)
    if out.transposed:  # out.left holds the short side's singular vectors
        S, X = S.T, X.T
    sigma = np.sqrt(out.spectrum[out.kept])
    U = out.left
    V = X.T @ U / sigma
    d = sigma if raw else out.shrunk
    oracle = np.einsum("ij,ik,kj->j", U, S, V)
    loss, best = (np.linalg.norm((U * e) @ V.T - S) for e in (d, oracle))
    return loss / best - 1.0, out.kept.size


# neighbours and the whole denoiser

def reference_neighborhoods(coords, K, block):
    """K nearest neighbors per point from per-block pairwise_sq_dist and a
    stable argsort of each row, self excluded."""
    P = coords.T
    ref = np.empty((P.shape[1], K), dtype=int)
    for start in range(0, P.shape[1], block):
        stop = min(start + block, P.shape[1])
        D = pairwise_sq_dist(P[:, start:stop], P)
        order = np.argsort(D, axis=1, kind="stable")
        for r, i in enumerate(range(start, stop)):
            ref[i] = order[r][order[r] != i][:K]
    return ref


def reference_rosdos(X, cfg, shrink):
    """rosdos from plain parts, with shrink (called as eoptshrink is) as the
    shrinker. Step 1 is shrink(X).coords in the two shrinkage modes and the
    package's global_metric in roseland mode, and the K neighbours come from
    a full stable argsort. Each patch, the point and then its neighbours, is
    ordered by a stable argsort of the distances from column 0: in
    shrink(patch).coords, in the raw patch with rank -1 where shrink raises
    ShrinkageError, or in the step-1 coordinates in shrink-only mode. Step 3
    is np.median over the first k_local. Returns denoised, selected
    (n x k_local), local_ranks and local_report in a namespace; local_report
    counts the patches by fallback reason and by each note in the shrinker's
    warnings (where it returns them), and is {} in shrink-only mode."""
    X = np.asarray(X, dtype=float)
    n = X.shape[1]
    if cfg.global_mode == MODE_ROSELAND:
        coords = global_metric(X, cfg).coords
    else:
        coords = shrink(X, k=cfg.k_imp).coords
    hoods = reference_neighborhoods(coords, cfg.K, n)
    selected = np.empty((n, cfg.k_local), dtype=int)
    ranks, reasons, notes = [], Counter(), Counter()
    for i in range(n):
        patch = np.concatenate([[i], hoods[i]])
        if cfg.global_mode == MODE_SHRINK_ONLY:
            d = np.linalg.norm(coords[patch] - coords[i], axis=1)
        else:
            Xi = X[:, patch]
            try:
                out = shrink(Xi, k=cfg.k_imp)
                d = np.linalg.norm(out.coords - out.coords[0], axis=1)
                ranks.append(out.effective_rank)
                for note in getattr(out, "warnings", ()):
                    notes[note] += 1
            except ShrinkageError as exc:
                d = np.linalg.norm(Xi - Xi[:, :1], axis=0)
                ranks.append(-1)
                reasons[str(exc)] += 1
        selected[i] = patch[np.argsort(d, kind="stable")[:cfg.k_local]]
    report = ({} if cfg.global_mode == MODE_SHRINK_ONLY
              else {"fallback_reasons": dict(reasons), "notes": dict(notes)})
    return SimpleNamespace(
        denoised=np.median(X[:, selected], axis=2), selected=selected,
        local_ranks=ranks, local_report=report)


# separable noise

def householder_frame(G):
    """haar_frame as first written, and random_orthogonal's frame: numpy's
    Householder Q factor with its column signs fixed so R's diagonal is
    >= 0."""
    Q, R = np.linalg.qr(G)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs[None, :]


def times_b_half(left, d, rng_h, rng_f, frame):
    """synth._times_b_half as first written, with each Haar frame from
    frame(G): V and C from left^T's Householder QR, and E's coordinates in
    the basis F from E^T F with F the thin QR's Q factor, not from the R
    factor."""
    p, n = left.shape
    V, C = np.linalg.qr(left.T)
    r = V.shape[1]
    H = frame(rng_h.standard_normal((n, r)))
    Y = d[:, None] * (H @ C)
    Yh = H.T @ Y
    out = Yh.T @ V.T
    s = min(p, n - r)
    if s > 0:
        E = Y - H @ Yh
        F = np.linalg.qr(E)[0][:, :s]
        G = rng_f.standard_normal((n, s))
        Fp = frame(G - V @ (V.T @ G))
        out += (E.T @ F) @ Fp.T
    return out


def dense_haar_reference(left, d, rng, draws):
    """The n x n construction, batched over draws: left @ O diag(d) O^T with
    O the QR factor of an n x n Gaussian under two sign fixes (R's diagonal,
    then O's diagonal, made positive); column signs cancel in O diag(d) O^T,
    so the second fix does not change the distribution."""
    n = left.shape[1]
    O, R = np.linalg.qr(rng.standard_normal((draws, n, n)))
    O = O * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    O = O * np.sign(np.diagonal(O, axis1=1, axis2=2))[:, None, :]
    return ((left @ O) * d) @ np.swapaxes(O, 1, 2)
