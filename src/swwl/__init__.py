"""Sliced-Wasserstein Weisfeiler-Lehman graph kernels and robust GP regression.

The pipeline has three cacheable stages: continuous Weisfeiler-Lehman node
embeddings, projected quantile embeddings of their empirical distributions,
and pairwise kernel assembly whose cost no longer depends on graph size.
A robust Gaussian process with a Student-t predictive distribution sits on
top for regression with scalar covariates.
"""

__version__ = "0.1.0"

from .graphs import (
    AttributedGraph,
    Dataset,
    GraphRecord,
    StandardizationStats,
    compute_standardization,
    load_dataset,
    save_dataset,
)
from .wl import WlConfig, embed, sqrt_skip_iterations
from .sliced import (
    EmpiricalMeasure,
    PqEmbedding,
    PqFingerprint,
    PqStore,
    ProjectionSet,
    QuantileGrid,
    pq_embed,
    sample_projection_blocks,
    sample_projections,
)
from .kernels import (
    GramMatrix,
    KernelConfig,
    assemble_gram,
    assemble_gram_aniso,
    check_psd,
    matern52,
)
from .gp import (
    GpModel,
    GpSettings,
    PredictiveDistribution,
    TrainDistances,
    build_train_distances,
    fit,
    load_model,
    marginal_posterior,
    posterior_parts,
    predict,
    q2,
    rmse,
    save_model,
)
from .pipeline import embed_dataset

__all__ = [
    "AttributedGraph",
    "Dataset",
    "EmpiricalMeasure",
    "GpModel",
    "GpSettings",
    "GramMatrix",
    "GraphRecord",
    "KernelConfig",
    "PqEmbedding",
    "PqFingerprint",
    "PqStore",
    "PredictiveDistribution",
    "ProjectionSet",
    "QuantileGrid",
    "StandardizationStats",
    "TrainDistances",
    "WlConfig",
    "assemble_gram",
    "assemble_gram_aniso",
    "build_train_distances",
    "check_psd",
    "compute_standardization",
    "embed",
    "embed_dataset",
    "fit",
    "load_dataset",
    "load_model",
    "marginal_posterior",
    "matern52",
    "pq_embed",
    "posterior_parts",
    "predict",
    "q2",
    "rmse",
    "sample_projection_blocks",
    "sample_projections",
    "save_dataset",
    "save_model",
    "sqrt_skip_iterations",
]
