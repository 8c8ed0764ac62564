"""No output reads the sign of a singular vector.

np.linalg.svd is replaced by one that negates every other column of U
together with the matching row of Vh, which is as valid an SVD; each output
must come out bit for bit the same.
"""

import numpy as np
import pytest

from rosdos import baseline_tsvd, eoptshrink, rosdos
from rosdos.numerics import pairwise_sq_dist
from rosdos.pipeline import MODE_ROSELAND, PipelineConfig
from rosdos.synth import ManifoldSpec, NoiseSpec, make_dataset


def run_both(monkeypatch, fn):
    """fn() with numpy's SVD, then with every other singular pair negated;
    also the number of SVDs the second run took."""
    plain = fn()
    real = np.linalg.svd
    calls = []

    def flipped(a, *args, **kwargs):
        out = real(a, *args, **kwargs)
        if not kwargs.get("compute_uv", True):
            return out
        calls.append(np.shape(a))
        U, s, Vh = out
        U[:, ::2] *= -1.0     # in place, so the memory layout is numpy's
        Vh[::2] *= -1.0
        return out

    monkeypatch.setattr(np.linalg, "svd", flipped)
    return plain, fn(), len(calls)


def test_rosdos_roseland(monkeypatch):
    X = make_dataset(ManifoldSpec("m1", 60, 400, 0),
                     NoiseSpec("separable", 0.5, 1)).noisy
    cfg = PipelineConfig(global_mode=MODE_ROSELAND, K=40, k_local=10)
    (a, da), (b, db), calls = run_both(monkeypatch, lambda: rosdos(X, cfg))
    assert calls >= 1
    assert a.tobytes() == b.tobytes()
    assert np.array_equal(da.local_ranks, db.local_ranks)


@pytest.mark.parametrize("transpose", [False, True])
def test_eoptshrink_svd_fallback(monkeypatch, ill_conditioned_spike, transpose):
    X = ill_conditioned_spike.T if transpose else ill_conditioned_spike
    a, b, calls = run_both(monkeypatch, lambda: eoptshrink(X))
    assert calls == 1
    assert a.warnings == b.warnings == ["SVD taken: ill-conditioned Gram"]
    assert a.denoised.tobytes() == b.denoised.tobytes()
    assert (pairwise_sq_dist(a.coords.T, a.coords.T).tobytes()
            == pairwise_sq_dist(b.coords.T, b.coords.T).tobytes())


def test_baseline_tsvd_svd_fallback(monkeypatch):
    # rank two: lambda_2 is rounding noise, so r = 3 takes the SVD
    rng = np.random.default_rng(7)
    X = np.outer(rng.standard_normal(40), rng.standard_normal(300))
    X += 1e-3 * np.outer(rng.standard_normal(40), rng.standard_normal(300))
    a, b, calls = run_both(monkeypatch, lambda: baseline_tsvd(X, 3))
    assert calls == 1
    assert a.tobytes() == b.tobytes()
