from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rosdos import shrinkage
from rosdos.numerics import (
    random_orthogonal, round_half_up, short_side_spectrum, svd)
from rosdos.pipeline import (
    MODE_ROSELAND, MODE_SHRINK_ONLY, PipelineConfig, global_metric, rosdos)
from rosdos.shrinkage import (
    ShrinkageError,
    eoptshrink,
    estimate_bulk_edge,
    estimate_effective_rank,
    impute_noise_eigs,
)
from rosdos.synth import ManifoldSpec, NoiseSpec, make_dataset
from test_acceptance import spiked_noise

EDGE_COEF = 1.0 / (2.0 ** (2.0 / 3.0) - 1.0)
EPS = np.finfo(float).eps


# The eOptShrink rule one component at a time, on scalars: the reference
# that eoptshrink's array pass (shrinkage._shrink_components) must match
# bit for bit, values and notes alike.

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


def noise_spectrum(p, n, seed):
    """Eigenvalues of Z Z^T for i.i.d. N(0, 1/n) entries, descending."""
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((p, n)) / np.sqrt(n)
    return np.sort(np.linalg.eigvalsh(Z @ Z.T))[::-1], Z


class TestBulkEdge:
    def test_direct_formula(self):
        spectrum = [10.0, 5.0, 3.0, 2.5, 2.0, 1.5, 1.0, 0.5]
        # n=16 -> m=2: edge = lam_3 + (lam_3 - lam_5) * coef
        assert estimate_bulk_edge(spectrum, 16) == pytest.approx(
            3.0 + EDGE_COEF * 1.0, rel=1e-12
        )
        assert estimate_bulk_edge(spectrum, 16) == pytest.approx(4.7024, abs=1e-4)

    def test_flat_spectrum(self):
        assert estimate_bulk_edge([2.0] * 10, 16) == pytest.approx(2.0)

    def test_too_short(self):
        with pytest.raises(ShrinkageError):
            estimate_bulk_edge([3.0, 2.0, 1.0], 16)

    def test_marchenko_pastur_edge(self):
        # i.i.d. noise, p=200, n=1000: edge should approach (1+sqrt(0.2))^2
        target = (1.0 + np.sqrt(0.2)) ** 2
        edges = []
        for seed in range(50):
            spectrum, _ = noise_spectrum(200, 1000, seed)
            edges.append(estimate_bulk_edge(spectrum, 1000))
        assert abs(np.median(edges) - target) / target < 0.05


class TestEffectiveRank:
    def test_direct(self):
        spectrum = [10.0, 5.0, 3.0]
        edge = 4.7024
        # threshold = 4.7024 + 16^(-1/3) = 5.0993 -> only 10 exceeds it
        assert estimate_effective_rank(spectrum, edge, 16) == 1

    def test_pure_noise_rank_zero(self):
        hits = 0
        for seed in range(30):
            spectrum, _ = noise_spectrum(200, 1000, seed)
            edge = estimate_bulk_edge(spectrum, 1000)
            hits += estimate_effective_rank(spectrum, edge, 1000) == 0
        assert hits >= 29

    def test_spiked_rank_three(self):
        hits = 0
        for seed in range(30):
            spectrum, Z = noise_spectrum(200, 1000, seed)
            edge_scale = np.sqrt(estimate_bulk_edge(spectrum, 1000))
            U = random_orthogonal(200, seed)[:, :3]
            V = random_orthogonal(1000, 1000 + seed)[:, :3]
            X = U @ np.diag(edge_scale * np.array([8.0, 7.0, 6.0])) @ V.T + Z
            lam = np.sort(np.linalg.eigvalsh(X @ X.T))[::-1]
            edge = estimate_bulk_edge(lam, 1000)
            hits += estimate_effective_rank(lam, edge, 1000) == 3
        assert hits >= 29


class TestImputeNoiseEigs:
    def test_direct_formula(self):
        spectrum = [9.0, 8.0, 3.0, 2.5, 2.0]
        out = impute_noise_eigs(spectrum, 2)
        assert out[0] == pytest.approx(3.0 + EDGE_COEF * 1.0, rel=1e-12)
        assert out[1] == pytest.approx(3.0 + (1 - 0.5 ** (2 / 3)) * EDGE_COEF, rel=1e-4)
        assert out[1] == pytest.approx(3.6299, abs=1e-4)

    def test_flat_spectrum(self):
        out = impute_noise_eigs([4.0] * 9, 3)
        assert np.allclose(out, 4.0)

    def test_j1_matches_bulk_edge(self):
        # with n = k^4 the bulk-edge order statistic m equals k
        rng = np.random.default_rng(8)
        spectrum = np.sort(rng.uniform(1.0, 5.0, 20))[::-1]
        k = 3
        out = impute_noise_eigs(spectrum, k)
        assert out[0] == pytest.approx(estimate_bulk_edge(spectrum, k ** 4))

    def test_nonincreasing_and_bounded_below(self):
        rng = np.random.default_rng(9)
        spectrum = np.sort(rng.uniform(0.0, 3.0, 30))[::-1]
        out = impute_noise_eigs(spectrum, 10)
        assert np.all(np.diff(out) <= 1e-12)
        assert np.all(out >= spectrum[10] - 1e-12)

    def test_too_short(self):
        with pytest.raises(ShrinkageError):
            impute_noise_eigs([3.0, 2.0, 1.0], 2)

    def test_k_below_one(self):
        with pytest.raises(ShrinkageError, match="k must be >= 1, got 0"):
            impute_noise_eigs([3.0, 2.0, 1.0], 0)


class TestStieltjes:
    # frozen worked example: spectrum (9, 1, 0.5), k=1, beta=0.5, i=0
    def example(self):
        spectrum = np.array([9.0, 1.0, 0.5])
        imputed = impute_noise_eigs(spectrum, 1)
        return spectrum, imputed

    def test_worked_example(self):
        spectrum, imputed = self.example()
        est = stieltjes_estimates(spectrum, imputed, 0, 0.5)
        assert est.m1 == pytest.approx(-0.12751, abs=1e-5)
        assert est.m2 == pytest.approx(-0.11931, abs=1e-5)
        assert est.T == pytest.approx(0.13692, abs=1e-5)
        assert est.Tp == pytest.approx(-0.01880, abs=1e-5)

    def test_beta_zero_limit(self):
        spectrum, imputed = self.example()
        est = stieltjes_estimates(spectrum, imputed, 0, 0.0)
        assert est.m2 == pytest.approx(-1.0 / 9.0)

    def test_m1_negative(self):
        spectrum, imputed = self.example()
        for beta in [0.1, 0.5, 0.9]:
            assert stieltjes_estimates(spectrum, imputed, 0, beta).m1 < 0

    def test_kept_component_signs(self):
        spectrum, imputed = self.example()
        est = stieltjes_estimates(spectrum, imputed, 0, 0.5)
        assert est.m1 < 0 and est.m2 < 0 and est.T > 0 and est.Tp < 0

    def test_unseparated_component_rejected(self):
        spectrum = np.array([9.0, 1.0, 0.5])
        imputed = impute_noise_eigs(spectrum, 1)
        with pytest.raises(DegenerateShrinkageError):
            stieltjes_estimates(spectrum, imputed, 1, 0.5)


class TestShrink:
    def test_worked_example(self):
        spectrum = np.array([9.0, 1.0, 0.5])
        imputed = impute_noise_eigs(spectrum, 1)
        est = stieltjes_estimates(spectrum, imputed, 0, 0.5)
        d = shrink_singular_value(9.0, est, 0)
        assert d == pytest.approx(2.428, abs=1e-3)
        assert d < 3.0  # never amplifies: d < sigma = sqrt(9)

    def test_white_noise_closed_form(self):
        # i.i.d. noise of variance 1/n: compare against the known optimal
        # Frobenius shrinker (1/y) sqrt((y^2 - beta - 1)^2 - 4 beta)
        beta = 0.2
        p, n = 200, 1000
        for y_factor in [2.0, 3.5]:
            rel_errs = []
            for seed in range(5):
                _, Z = noise_spectrum(p, n, seed)
                y = y_factor * (1.0 + np.sqrt(beta))
                d2 = ((y ** 2 - 1 - beta) + np.sqrt((y ** 2 - 1 - beta) ** 2 - 4 * beta)) / 2
                u = np.zeros(p)
                u[0] = 1.0
                v = np.zeros(n)
                v[0] = 1.0
                out = eoptshrink(np.sqrt(d2) * np.outer(u, v) + Z)
                y_obs = np.sqrt(out.spectrum[0])
                closed = np.sqrt((y_obs ** 2 - beta - 1) ** 2 - 4 * beta) / y_obs
                rel_errs.append(abs(out.shrunk[0] - closed) / closed)
            assert np.median(rel_errs) < 0.05

    def test_large_spike_ratio_to_one(self):
        # fixed bulk, growing spike: d / sigma increases toward 1
        rng = np.random.default_rng(10)
        bulk = np.sort(rng.uniform(0.5, 1.0, 100))[::-1]
        ratios = []
        for lam in [1e2, 1e3, 1e4, 1e5, 1e6]:
            spectrum = np.concatenate([[lam], bulk])
            imputed = impute_noise_eigs(spectrum, 10)
            est = stieltjes_estimates(spectrum, imputed, 0, 0.5)
            ratios.append(shrink_singular_value(lam, est, 0) / np.sqrt(lam))
        assert np.all(np.diff(ratios) > 0)
        assert ratios[-1] == pytest.approx(1.0, abs=1e-3)


class TestEoptShrink:
    def spiked(self, seed=0, p=60, n=300, sv=(8.0, 6.0, 4.0)):
        rng = np.random.default_rng(seed)
        Z = rng.standard_normal((p, n)) / np.sqrt(n)
        U = random_orthogonal(p, seed + 1)[:, : len(sv)]
        V = random_orthogonal(n, seed + 2)[:, : len(sv)]
        return U @ np.diag(sv) @ V.T + Z

    def test_zero_matrix(self):
        out = eoptshrink(np.zeros((40, 100)))
        assert out.warnings == ["effective rank 0: denoised matrix is zero"]
        assert out.effective_rank == 0
        assert np.all(out.denoised == 0.0)

    def test_scale_equivariance(self):
        X = self.spiked()
        o1 = eoptshrink(X)
        o2 = eoptshrink(3.7 * X)
        assert o1.effective_rank == o2.effective_rank
        assert np.linalg.norm(o2.denoised - 3.7 * o1.denoised) < 1e-8 * np.linalg.norm(
            o1.denoised
        )

    def test_rotation_equivariance(self):
        X = self.spiked(seed=3)
        Q = random_orthogonal(X.shape[0], 99)
        o1 = eoptshrink(X)
        o2 = eoptshrink(Q @ X)
        assert np.linalg.norm(o2.denoised - Q @ o1.denoised) < 1e-6 * np.linalg.norm(
            o1.denoised
        )

    def test_shrunk_below_singular(self):
        out = eoptshrink(self.spiked(seed=4))
        sigma = np.sqrt(out.spectrum[out.kept])
        assert np.all(out.shrunk > 0)
        assert np.all(out.shrunk < sigma)

    def test_transpose_handling(self):
        X = self.spiked(seed=5, p=60, n=300)
        out_t = eoptshrink(X.T)
        assert out_t.transposed
        out = eoptshrink(X)
        assert np.allclose(out_t.denoised, out.denoised.T, atol=1e-10)

    def test_noiseless_low_rank_recovery(self):
        # clean rank-3 input: detected rank 3 and values within 2%
        sv = (10.0, 5.0, 2.0)
        rng = np.random.default_rng(6)
        U = random_orthogonal(200, 7)[:, :3]
        V = random_orthogonal(1000, 8)[:, :3]
        out = eoptshrink(U @ np.diag(sv) @ V.T)
        assert out.effective_rank == 3
        assert np.allclose(out.shrunk, sv, rtol=0.02)

    def test_rank_auto_adjusts_k(self):
        sv = np.linspace(12.0, 8.0, 5)
        U = random_orthogonal(100, 1)[:, :5]
        V = random_orthogonal(2000, 2)[:, :5]
        rng = np.random.default_rng(3)
        X = U @ np.diag(sv) @ V.T + rng.standard_normal((100, 2000)) / np.sqrt(2000)
        out = eoptshrink(X, k=3)
        assert out.warnings == ["imputation count raised from 3 to 10"]
        assert out.effective_rank == 5
        assert out.imputed.size == 10

    def test_beats_oracle_tsvd_on_separable_noise(self):
        from rosdos.evaluation import baseline_tsvd
        from rosdos.synth import separable_noise

        p, n = 200, 1000
        err_shrink, err_tsvd = [], []
        for trial in range(5):
            Xi, _, _ = separable_noise(p, n, trial)
            Z = Xi / np.sqrt(n)
            edge = np.sqrt(eoptshrink(Z).bulk_edge)
            U = random_orthogonal(p, trial)[:, :3]
            V = random_orthogonal(n, 1000 + trial)[:, :3]
            S = U @ np.diag(edge * np.array([4.5, 3.6, 3.0])) @ V.T
            X = S + Z
            err_shrink.append(np.linalg.norm(eoptshrink(X).denoised - S))
            err_tsvd.append(np.linalg.norm(baseline_tsvd(X, 3) - S))
        assert np.mean(err_shrink) <= np.mean(err_tsvd)

    def test_too_small_rejected(self):
        with pytest.raises(ShrinkageError):
            eoptshrink(np.ones((5, 30)))

    def test_too_short_to_raise_imputation_count(self):
        # rank 1 reaches k=1, and 10 eigenvalues cannot impute k=6
        X = self.spiked(p=10, n=100, sv=(10.0,))
        with pytest.raises(ShrinkageError, match=(
                "effective rank 1 >= k=1 and the spectrum is too short to "
                "raise k to 6")):
            eoptshrink(X, k=1)

    @pytest.mark.parametrize("k", [0, -3, 2.5, True, "3", None])
    def test_bad_imputation_count_rejected(self, k, monkeypatch):
        # rejected before the Gram matrix is formed
        monkeypatch.setattr(shrinkage, "short_side_spectrum", None)
        with pytest.raises(ShrinkageError, match="k must be an integer >= 1"):
            eoptshrink(self.spiked(), k=k)

    def test_numpy_integer_imputation_count(self):
        X = self.spiked()
        assert eoptshrink(X, k=np.int64(4)).shrunk.tobytes() == \
            eoptshrink(X, k=4).shrunk.tobytes()

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_overflowing_input_raises(self):
        X = self.spiked()
        # the Gram matrix overflows, and its eigenvalues come out NaN
        with pytest.raises(ShrinkageError, match="non-finite spectrum"):
            eoptshrink(1e155 * X)
        # a finite Gram matrix whose top eigenvalue, 31 * 1e307, overflows
        offset = np.sqrt(1e307 / 60) + 1e150 * X[:, :31]
        with pytest.raises(ShrinkageError, match="non-finite spectrum"):
            eoptshrink(offset)


def column_distances(M):
    """Pairwise Euclidean distances between the columns of M, from the
    differences themselves."""
    return np.linalg.norm(M[:, :, None] - M[:, None, :], axis=0)


class TestCoords:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        transposed=st.booleans(),
        rank=st.integers(0, 3),
        exponent=st.integers(-100, 100),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    def test_rows_as_far_apart_as_denoised_columns(
        self, transposed, rank, exponent, seed
    ):
        rng = np.random.default_rng(seed)
        p, n = 30, 90
        U = np.linalg.qr(rng.standard_normal((p, 3)))[0][:, :rank]
        V = np.linalg.qr(rng.standard_normal((n, 3)))[0][:, :rank]
        X = (U * [8.0, 6.0, 4.0][:rank]) @ V.T
        X = X + rng.standard_normal((p, n)) / np.sqrt(n)
        X = 10.0 ** exponent * (X.T if transposed else X)
        out = eoptshrink(X)
        assert out.transposed == transposed
        assert out.coords.shape == (X.shape[1], out.kept.size)
        assert out.coords.flags.c_contiguous
        D = column_distances(out.denoised)
        C = column_distances(out.coords.T)
        assert np.all(np.abs(C - D) <= 1e-12 * D.max())


# Criterion 5's spiked model (spikes at 4.5, 3.6 and 3.0 x the bulk edge),
# at aspect ratio beta = p / n = 0.2
SPIKES = [4.5, 3.6, 3.0]


def spiked_model(n, seed, separable=True):
    S, Z = spiked_noise(n // 5, n, seed, SPIKES, separable=separable)
    return S, S + Z


def oracle_excess(n, seed, raw=False):
    """How far eoptshrink's Frobenius loss exceeds the oracle's on the same
    singular vectors, d_i* = u_i^T S v_i, as a fraction of the oracle's;
    raw=True keeps the singular values unshrunk."""
    S, X = spiked_model(n, seed)
    out = eoptshrink(X)
    sigma = np.sqrt(out.spectrum[out.kept])
    U = out.left
    V = X.T @ U / sigma
    d = sigma if raw else out.shrunk
    oracle = np.einsum("ij,ik,kj->j", U, S, V)
    loss, best = (np.linalg.norm((U * e) @ V.T - S) for e in (d, oracle))
    return loss / best - 1.0


def mp_median(beta):
    """Median of the Marchenko-Pastur law of aspect ratio beta, unit variance."""
    lo, hi = (1 - np.sqrt(beta)) ** 2, (1 + np.sqrt(beta)) ** 2
    t = np.linspace(lo, hi, 100_001)
    density = np.sqrt((hi - t) * (t - lo)) / (2 * np.pi * beta * t)
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2)))
    return float(np.interp(0.5, cdf / cdf[-1], t))


def gavish_donoho(X):
    """Gavish & Donoho's Frobenius-optimal shrinker for white noise, with the
    noise level taken from the median singular value (arXiv 1405.7511)."""
    beta = min(X.shape) / max(X.shape)
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    unit = np.median(s) / np.sqrt(mp_median(beta))  # sqrt(n) sigma
    y = s / unit
    eta = np.zeros_like(y)
    above = y > 1 + np.sqrt(beta)
    eta[above] = np.sqrt((y[above] ** 2 - beta - 1) ** 2 - 4 * beta) / y[above]
    return (U * (eta * unit)) @ Vt


class TestFidelity:
    SEEDS = range(8)
    BOUND = 3e-3  # on the median excess loss at n = 1000

    def test_near_the_oracle_on_the_same_singular_vectors(self):
        # median excess measured 0.10 %, 0.022 % and 0.023 % at n = 500, 1000
        # and 2000, against 1.5 % at n = 1000 for the raw singular values
        excess = {n: np.median([oracle_excess(n, seed) for seed in self.SEEDS])
                  for n in (500, 1000, 2000)}
        assert excess[1000] < self.BOUND
        assert excess[2000] < 0.5 * excess[500]

    @pytest.mark.xfail(strict=True, reason=(
        "the rank rule keeps a noise-only fourth component at n = 500, "
        "seed 3 (excess 7.0 %); README names this limit"))
    def test_small_n_noise_component(self):
        assert oracle_excess(500, 3) < 0.01

    def test_raw_singular_values_fail_the_oracle_bound(self):
        raw = np.median([oracle_excess(1000, seed, raw=True) for seed in self.SEEDS])
        assert raw > self.BOUND

    def test_matches_gavish_donoho_on_white_noise_only(self):
        for seed in range(4):
            for separable in (False, True):
                S, X = spiked_model(1000, seed, separable)
                err = np.linalg.norm(eoptshrink(X).denoised - S)
                err_gd = np.linalg.norm(gavish_donoho(X) - S)
                if separable:
                    assert err_gd > 2 * err, seed
                else:
                    assert err_gd == pytest.approx(err, rel=1e-2), seed


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


def svd_reference(X, k=10):
    """eOptShrink computed from the thin SVD of X: the squared singular values
    are the spectrum and the kept singular triplets rebuild the estimate."""
    transposed = X.shape[0] > X.shape[1]
    Xw = X.T if transposed else X
    pw, nw = Xw.shape
    U, s, Vh = svd(Xw)
    lam = s ** 2
    e = reference_estimates(lam, pw, nw, k)
    denoised = (U[:, e.kept] * e.shrunk) @ Vh[e.kept]
    return SimpleNamespace(
        spectrum=lam, bulk_edge=e.edge, effective_rank=e.r, kept=e.kept,
        denoised=denoised.T if transposed else denoised,
    )


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


@pytest.fixture(scope="module")
def m1_separable():
    return make_dataset(
        ManifoldSpec("m1", 200, 1000, 0), NoiseSpec("separable", 1.0 / 3.0, 1)
    ).noisy


class TestArrayRule:
    """_shrink_components, which computes every candidate component at once,
    against reference_estimates' stieltjes_estimates and
    shrink_singular_value, one component at a time, bit for bit."""

    def assert_matches_scalar(self, lam, pw, nw, k=10):
        ref = reference_estimates(lam, pw, nw, k)
        _, r, k_used = shrinkage._rank_estimates(lam, nw, k)
        notes, _, kept, shrunk = shrinkage._shrink_components(
            lam, r, k, k_used, pw / nw)
        assert np.array_equal(kept, ref.kept)
        assert shrunk.tobytes() == ref.shrunk.tobytes()
        assert notes == ref.notes
        return ref

    def test_m1_separable_patches(self, m1_separable):
        X = m1_separable
        hoods = global_metric(X, PipelineConfig()).neighborhoods(100)
        ranks = set()
        for i in range(0, X.shape[1], 5):
            Xw, _, _, lam = short_side_spectrum(X[:, np.concatenate([[i], hoods[i]])])
            ranks.add(self.assert_matches_scalar(lam, *Xw.shape).r)
        Xw, _, _, lam = short_side_spectrum(X)
        self.assert_matches_scalar(lam, *Xw.shape)
        assert len(ranks) > 1

    def test_dropped_component(self):
        # component 1 clears the rank threshold (about 5.14) but not the
        # imputed noise eigenvalues, which the 2k-th order statistic sets
        lam = np.concatenate([[100.0, 10.0], np.full(9, 5.0),
                              np.linspace(4.5, 0.0, 10), np.zeros(79)])
        ref = self.assert_matches_scalar(lam, 100, 400)
        assert ref.r == 2
        assert ref.notes == [
            "component 1 dropped: degenerate shrinkage for component 1: "
            "eigenvalue not separated from the imputed bulk"]

    @pytest.mark.parametrize("exponent, note", [
        # the squared gaps underflow: m1p is inf and Tp NaN, which every
        # check but d's lets through
        (-540, "d=nan"),
        # lam_0 ** 2 overflows and Tp comes out a positive subnormal
        (507, "T=2.42e-155, Tp=5.79e-310"),
    ])
    def test_notes_name_the_component_at_the_float_range_ends(
            self, exponent, note):
        # rank 2 is given: at 2^-540 the absolute rank margin n^(-1/3)
        # would make it 0
        lam = 2.0 ** exponent * np.concatenate(
            [[100.0, 10.0], np.full(9, 5.0), np.linspace(4.5, 0.0, 10),
             np.zeros(79)])
        notes, imputed, kept, shrunk = shrinkage._shrink_components(
            lam, 2, 10, 10, 0.25)
        with np.errstate(all="ignore"):
            ref = scalar_components(lam, imputed, 2, 0.25)
        assert kept.tolist() == ref[0] == []
        assert shrunk.tolist() == ref[1] == []
        assert notes == ref[2] == [
            f"component 0 dropped: degenerate shrinkage for component 0: {note}",
            "component 1 dropped: degenerate shrinkage for component 1: "
            "eigenvalue not separated from the imputed bulk"]

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data(),
           case=st.sampled_from(["kept", "not separated", "rank 0", "raised k"]),
           nw=st.integers(30, 3000),
           level=st.floats(1.0, 100.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_spectra_match_scalar(self, data, case, nw, level, seed):
        """Spectra whose bulk edge is exactly `level`: s spikes on top, level
        through index max(2m, k_used), then a tail below level / 2. Each case
        shows in the result, so every run covers all four."""
        rng = np.random.default_rng(seed)
        m = round_half_up(nw ** 0.25)
        top = level + nw ** (-1.0 / 3.0)  # the rank threshold
        # above every imputed noise eigenvalue, which is at most
        # (1 + EDGE_COEF) * level
        big = (1.0 + EDGE_COEF) * level * (3.0 + 10.0 * rng.random(m))
        if case == "rank 0":
            k, spikes = data.draw(st.integers(1, 5), "k"), []
        elif case == "not separated":
            # the second spike clears the threshold but not the first imputed
            # eigenvalue, level + EDGE_COEF * (level - lam[2k]) >= 1.85 level
            k = data.draw(st.integers(m + 1, m + 5), "k")
            spikes = [big[0], top + rng.random() * (0.85 * level - (top - level))]
        else:
            s = data.draw(st.integers(1, m), "s")
            k = data.draw(st.integers(s + 1, s + 5) if case == "kept"
                          else st.integers(1, s), "k")
            spikes = big[:s]
        s = len(spikes)
        k_used = k if s < k else s + 5
        end = max(2 * m, k_used)
        low = max(2 * k_used + 1, end + 2)
        pw = data.draw(st.integers(low, min(nw, low + 150)), "pw")
        lam = np.full(pw, float(level))
        lam[:s] = np.sort(spikes)[::-1]
        lam[end + 1:] = np.sort(rng.uniform(0.0, level / 2, pw - end - 1))[::-1]

        ref = self.assert_matches_scalar(lam, pw, nw, k)
        assert ref.r == s
        if case == "rank 0":
            assert ref.notes == ["effective rank 0: denoised matrix is zero"]
        elif case == "not separated":
            assert ref.kept.tolist() == [0]
            assert ref.notes[-1].endswith("not separated from the imputed bulk")
        else:
            assert ref.kept.tolist() == list(range(s))
            assert (ref.notes == [f"imputation count raised from {k} to {k_used}"]) \
                == (case == "raised k")


class TestAgainstSvdReference:
    def assert_matches(self, X):
        out = eoptshrink(X)
        ref = svd_reference(X)
        assert np.max(np.abs(out.spectrum - ref.spectrum)) <= 1e-12 * ref.spectrum[0]
        assert out.effective_rank == ref.effective_rank
        assert np.array_equal(out.kept, ref.kept)
        err = np.linalg.norm(out.denoised - ref.denoised)
        assert err <= 1e-10 * np.linalg.norm(ref.denoised)
        return out, ref

    def test_local_patches(self, m1_separable):
        X = m1_separable
        hoods = global_metric(X, PipelineConfig()).neighborhoods(100)
        ranks = set()
        for i in range(0, X.shape[1], 50):
            out, _ = self.assert_matches(X[:, np.concatenate([[i], hoods[i]])])
            assert out.transposed
            ranks.add(out.effective_rank)
        assert len(ranks) > 1

    def test_whole_matrix(self, m1_separable):
        out, _ = self.assert_matches(m1_separable)
        assert out.effective_rank > 0

    def test_ill_conditioned_spike_uses_svd(self, ill_conditioned_spike):
        out, ref = self.assert_matches(ill_conditioned_spike)
        assert out.effective_rank == 1
        assert out.bulk_edge == pytest.approx(ref.bulk_edge, rel=1e-12)
        assert out.warnings == ["SVD taken: ill-conditioned Gram"]

    @pytest.mark.parametrize("case, note", [
        ("repeated", "SVD taken: eigenvector check failed"),
        ("rank-deficient", None),
        ("rank-deficient-below-guard", "SVD taken: ill-conditioned Gram"),
    ])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_repeated_and_rank_deficient_gram(self, case, note, transpose):
        rng = np.random.default_rng(5)
        if case == "repeated":
            # block-diagonal Gram matrix: each eigenvalue appears twice
            X = np.kron(np.eye(2), TestEoptShrink().spiked(seed=9, p=30, n=300))
        else:
            # 60 x 600 of rank 40, or of rank 15, under the 2k + 1 = 21
            # order statistics the estimators read
            rank = 40 if case == "rank-deficient" else 15
            Q = np.linalg.qr(rng.standard_normal((60, rank)))[0]
            X = Q @ TestEoptShrink().spiked(seed=10, p=rank, n=600)
        out, _ = self.assert_matches(X.T if transpose else X)
        assert out.effective_rank >= 2
        assert [w for w in out.warnings if w.startswith("SVD")] == (
            [note] if note else [])


class TestAgainstEighReference:
    def test_paper_patches(self, m1_separable):
        # 200 patches of 101 columns, as rosdos forms them
        X = m1_separable
        hoods = global_metric(X, PipelineConfig()).neighborhoods(100)
        eigenvector_svd = 0
        for i in range(0, X.shape[1], 5):
            Xi = X[:, np.concatenate([[i], hoods[i]])]
            out, ref = eoptshrink(Xi), eigh_reference(Xi)
            notes = [w for w in out.warnings
                     if w != "SVD taken: eigenvector check failed"]
            eigenvector_svd += len(out.warnings) - len(notes)
            assert out.effective_rank == ref.effective_rank
            assert np.array_equal(out.kept, ref.kept)
            assert notes == ref.warnings
            assert np.max(np.abs(out.spectrum - ref.spectrum)) <= (
                1e-12 * ref.spectrum[0])
            D = column_distances(ref.coords.T)
            assert np.all(np.abs(column_distances(out.coords.T) - D)
                          <= 1e-12 * D.max())
        # the comparison above is of the eigen path, not of the SVD
        assert eigenvector_svd < 10

    @pytest.mark.parametrize("mode", [MODE_ROSELAND, MODE_SHRINK_ONLY])
    def test_rosdos_matches_reference_loop(self, mode, monkeypatch):
        X = make_dataset(
            ManifoldSpec("m1", 200, 600, 2), NoiseSpec("separable", 1.0 / 3.0, 3)
        ).noisy
        cfg = PipelineConfig(global_mode=mode)
        St, diag = rosdos(X, cfg)
        monkeypatch.setattr(shrinkage, "eoptshrink", eigh_reference)
        ref, ref_diag = rosdos(X, cfg)
        assert np.array_equal(St, ref)
        assert diag.local_ranks == ref_diag.local_ranks
        assert diag.fallback_reasons == ref_diag.fallback_reasons


def eager_denoised(X, out):
    """The reconstruction eoptshrink formed on every call before `denoised`
    was formed on first read."""
    Xw = X.T if out.transposed else X
    if out.kept.size:
        U = out.left
        UtX = U.T @ Xw
        scale = out.shrunk / np.sqrt(out.spectrum[out.kept])
        denoised = (U * scale) @ UtX
    else:
        denoised = np.zeros_like(Xw)
    return denoised.T if out.transposed else denoised


class TestLazyDenoised:
    def assert_eager_equal(self, X):
        out = eoptshrink(X)
        assert "denoised" not in vars(out)
        want = eager_denoised(X, out)
        got = out.denoised
        assert got.shape == X.shape
        assert got.tobytes() == want.tobytes()
        assert out.denoised is got  # formed once
        return out

    @pytest.mark.parametrize("transpose", [False, True])
    def test_spiked(self, transpose):
        X = TestEoptShrink().spiked(seed=7)
        out = self.assert_eager_equal(X.T if transpose else X)
        assert out.transposed == transpose
        assert out.effective_rank == 3

    @pytest.mark.parametrize("transpose", [False, True])
    def test_rank_zero(self, transpose):
        X = 1e-3 * np.random.default_rng(17).standard_normal((30, 120))
        out = self.assert_eager_equal(X.T if transpose else X)
        assert out.effective_rank == 0 and out.kept.size == 0
        assert np.all(out.denoised == 0.0)

    def test_svd_fallback(self, monkeypatch, ill_conditioned_spike):
        calls = []
        real = shrinkage.svd
        monkeypatch.setattr(shrinkage, "svd", lambda M: calls.append(1) or real(M))
        out = self.assert_eager_equal(ill_conditioned_spike)
        assert calls == [1]
        assert out.effective_rank == 1
