"""Noise-robust manifold denoising via landmark diffusion embeddings and
optimal singular-value shrinkage under separable-covariance noise."""

from .diffusion import (
    auto_bandwidth,
    roseland_embed,
    select_landmarks,
)
from .evaluation import baseline_tsvd, nrmse, summarize
from .numerics import (
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
    recover_point,
    rosdos,
)
from .shrinkage import (
    ShrinkageError,
    ShrinkageOutput,
    eoptshrink,
    estimate_bulk_edge,
    estimate_effective_rank,
    impute_noise_eigs,
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
