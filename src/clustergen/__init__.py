"""Synthetic cluster benchmark data from high-level dataset archetypes.

The pipeline: an `Archetype` describes dataset geometry at a high level;
`sample_mixture_model` draws a concrete mixture model whose cluster
centers are placed to meet pairwise overlap constraints exactly;
`sample_dataset` draws labeled points; `distort` and `wrap_around_sphere`
optionally make cluster shapes non-convex.  `nl` maps English archetype
descriptions onto parameters via a chat-completion API.
"""

__version__ = "0.1.0"

from .archetype import (
    Archetype,
    ConstraintKind,
    MaxMinSpec,
    assign_distributions,
    maxmin_sample,
    sample_aspect_ratios,
    sample_axis_lengths,
    sample_cluster_radii,
    sample_group_sizes,
    sample_hyperparams,
    validate_archetype,
)
from .distributions import RadialDistribution, normalization_constant
from .errors import (
    ArchetypeValidationError,
    ClustergenError,
    NLError,
    NonConvergenceError,
)
from .metrics import Labeling, ami, ari, kmeans, silhouette
from .mixture import Cluster, MixtureModel, covariance_of, sample_mixture_model, sample_orientation
from .overlap import (
    OverlapReport,
    c2c_overlap,
    exact_overlap_oracle,
    lda_axis,
    lda_overlap,
    monte_carlo_overlap,
    pairwise_overlaps,
    separation_quantile,
)
from .placement import (
    OverlapBounds,
    PlacementConfig,
    init_centers,
    optimize_centers,
    overlap_loss,
    penalty,
)
from .postprocess import DistortNetwork, distort, wrap_around_sphere
from .sampling import Dataset, sample_cluster_points, sample_dataset

__all__ = [
    "__version__",
    "Archetype",
    "ArchetypeValidationError",
    "Cluster",
    "ClustergenError",
    "ConstraintKind",
    "Dataset",
    "DistortNetwork",
    "Labeling",
    "MaxMinSpec",
    "MixtureModel",
    "NLError",
    "NonConvergenceError",
    "OverlapBounds",
    "OverlapReport",
    "PlacementConfig",
    "RadialDistribution",
    "ami",
    "ari",
    "assign_distributions",
    "c2c_overlap",
    "covariance_of",
    "distort",
    "exact_overlap_oracle",
    "init_centers",
    "kmeans",
    "lda_axis",
    "lda_overlap",
    "maxmin_sample",
    "monte_carlo_overlap",
    "normalization_constant",
    "optimize_centers",
    "overlap_loss",
    "pairwise_overlaps",
    "penalty",
    "sample_aspect_ratios",
    "sample_axis_lengths",
    "sample_cluster_points",
    "sample_cluster_radii",
    "sample_dataset",
    "sample_group_sizes",
    "sample_hyperparams",
    "sample_mixture_model",
    "sample_orientation",
    "separation_quantile",
    "silhouette",
    "validate_archetype",
    "wrap_around_sphere",
]
