"""Synthetic cluster benchmark data from high-level dataset archetypes.

The pipeline: an `Archetype` describes dataset geometry at a high level;
`sample_mixture_model` draws a concrete mixture model whose cluster
centers are placed to meet pairwise overlap constraints exactly;
`sample_dataset` draws labeled points; `distort` and `wrap_around_sphere`
optionally make cluster shapes non-convex.  `nl` maps English archetype
descriptions onto parameters via a chat-completion API.
"""

__version__ = "0.1.0"

from .archetype import Archetype
from .errors import (
    ArchetypeValidationError,
    ClustergenError,
    NLError,
    NonConvergenceError,
)
from .mixture import sample_mixture_model
from .overlap import (
    c2c_overlap,
    exact_overlap_oracle,
    lda_overlap,
    pairwise_overlaps,
)
from .placement import OverlapBounds, optimize_centers, overlap_loss
from .postprocess import distort, wrap_around_sphere
from .sampling import sample_dataset

__all__ = [
    "__version__",
    "Archetype",
    "ArchetypeValidationError",
    "ClustergenError",
    "NLError",
    "NonConvergenceError",
    "OverlapBounds",
    "c2c_overlap",
    "distort",
    "exact_overlap_oracle",
    "lda_overlap",
    "optimize_centers",
    "overlap_loss",
    "pairwise_overlaps",
    "sample_dataset",
    "sample_mixture_model",
    "wrap_around_sphere",
]
