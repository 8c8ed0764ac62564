import math

import numpy as np
import pytest


@pytest.fixture
def m1_gaussian_msnr():
    """Population mSNR of M1 under i.i.d. N(0, 1) noise scaled by p^-alpha.

    `sample_m1` puts sin(k theta)/(2k-1) and cos(k theta)/(2k), k = 1..ceil(2p/5),
    on its first 2J axes with theta uniform, so an axis of amplitude 1/j carries
    variance 1/(2 j^2) and the signal energy is E_S = 1/2 sum_{j<=2J} j^-2. The
    scaled noise has covariance trace p * p^(-2 alpha).
    """

    def msnr_db(p, alpha):
        J = math.ceil(2 * p / 5)
        e_s = 0.5 * sum(j ** -2 for j in range(1, 2 * J + 1))
        return 10.0 * math.log10(e_s) + (2.0 * alpha - 1.0) * 10.0 * math.log10(p)

    return msnr_db


@pytest.fixture
def ill_conditioned_spike():
    """A 1e8 spike over N(0, 1/n) noise: the squared condition number of the
    Gram matrix leaves the noise eigenvalues without correct digits, so
    eoptshrink takes the SVD."""
    p, n = 100, 400
    rng = np.random.default_rng(0)
    u = rng.standard_normal(p)
    v = rng.standard_normal(n)
    X = 1e8 * np.outer(u / np.linalg.norm(u), v / np.linalg.norm(v))
    return X + rng.standard_normal((p, n)) / np.sqrt(n)
