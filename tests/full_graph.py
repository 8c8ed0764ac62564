"""The full-graph diffusion map, kept as the tests' reference for the
landmark (ROSELAND) embedding the package ships.

It forms the n x n kernel over all sample pairs that roseland_embed exists
to avoid, so it suits only small inputs. It checks no arguments and fixes no
signs: the tests compare its coordinates through distances, absolute values,
or with another call on the same kernel.
"""

import numpy as np

from rosdos.numerics import pairwise_sq_dist


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
