"""Noise-robust manifold denoising via landmark diffusion embeddings and
optimal singular-value shrinkage under separable-covariance noise."""

from .diffusion import (
    EmbeddingResult,
    affinity_complete,
    auto_bandwidth,
    diffusion_distance,
    dm_embed,
    roseland_embed,
    select_landmarks,
)
from .evaluation import ExperimentReport, baseline_tsvd, nrmse, summarize
from .numerics import (
    SvdFactors,
    entrywise_median,
    pairwise_sq_dist,
    random_orthogonal,
    svd,
)
from .pipeline import (
    Diagnostics,
    GlobalMetric,
    PipelineConfig,
    global_metric,
    local_denoise,
    recover_point,
    rosdos,
)
from .shrinkage import (
    DegenerateShrinkageError,
    ShrinkageError,
    ShrinkageOutput,
    StieltjesEstimates,
    eoptshrink,
    estimate_bulk_edge,
    estimate_effective_rank,
    impute_noise_eigs,
    shrink_singular_value,
    stieltjes_estimates,
)
from .synth import (
    ManifoldSpec,
    NoiseSpec,
    SyntheticDataset,
    gaussian_noise,
    make_dataset,
    msnr,
    sample_klein,
    sample_m1,
    separable_noise,
)

__version__ = "0.1.0"
