"""Concrete mixture models sampled from archetypes.

A cluster is an ellipsoidal distribution: a center, orthonormal principal
axes, per-axis lengths, and a radial distribution.  Sampling a mixture
model draws the geometry (orientations, aspect ratios, radii, axis
lengths, distribution assignment, group sizes) from the archetype and then
places the centers so the pairwise overlap constraints hold exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import archetype as arch
from . import placement
from .distributions import RadialDistribution
from .errors import NonConvergenceError


def _typed(record: dict, key: str, kind: type, where: str):
    """record[key], which must be a `kind`."""
    if key not in record:
        raise ValueError(f"{where} is missing key {key!r}")
    if not isinstance(record[key], kind):
        raise ValueError(
            f"{where} key {key!r} must be a {kind.__name__}, got {type(record[key]).__name__}"
        )
    return record[key]


def _finite_array(record: dict, key: str, ndim: int, where: str) -> np.ndarray:
    """record[key] as a nonempty, finite, `ndim`-D float array."""
    if key not in record:
        raise ValueError(f"{where} is missing key {key!r}")
    try:
        array = np.asarray(record[key], dtype=float)
    except (TypeError, ValueError):
        array = None
    if array is None or array.ndim != ndim or not array.size or not np.isfinite(array).all():
        raise ValueError(f"{where} key {key!r} must be a nonempty, finite {ndim}-D array of numbers")
    return array


@dataclass(frozen=True)
class Cluster:
    """One ellipsoidal mixture component."""

    center: np.ndarray
    axes: np.ndarray  # columns are the principal axes
    axis_lengths: np.ndarray
    radial_distribution: RadialDistribution

    @property
    def dim(self) -> int:
        return self.center.shape[0]


@dataclass(frozen=True)
class MixtureModel:
    clusters: list[Cluster]
    group_sizes: np.ndarray
    archetype_name: str

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)

    @property
    def dim(self) -> int:
        return self.clusters[0].dim

    @property
    def centers(self) -> np.ndarray:
        return np.stack([c.center for c in self.clusters])

    def covariances(self) -> np.ndarray:
        return np.stack([covariance_of(c) for c in self.clusters])

    def to_dict(self) -> dict:
        return {
            "archetype_name": self.archetype_name,
            "group_sizes": [int(s) for s in self.group_sizes],
            "clusters": [
                {
                    "center": c.center.tolist(),
                    "axes": c.axes.tolist(),  # row-major
                    "axis_lengths": c.axis_lengths.tolist(),
                    "distribution": c.radial_distribution.to_dict(),
                }
                for c in self.clusters
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "MixtureModel":
        """Inverse of `to_dict`; a missing or ill-typed key raises ValueError naming it."""
        if not isinstance(data, dict):
            raise ValueError(f"model must be a JSON object, got {type(data).__name__}")
        name = _typed(data, "archetype_name", str, "model")
        raw_clusters = _typed(data, "clusters", list, "model")
        sizes = _typed(data, "group_sizes", list, "model")
        if not raw_clusters:
            raise ValueError("model key 'clusters' must list at least one cluster")
        if len(sizes) != len(raw_clusters) or not all(
            type(s) is int and s >= 0 for s in sizes
        ):
            raise ValueError("model key 'group_sizes' must hold one nonnegative integer per cluster")
        clusters = []
        for index, c in enumerate(raw_clusters):
            where = f"model cluster {index}"
            if not isinstance(c, dict):
                raise ValueError(f"{where} must be a JSON object, got {type(c).__name__}")
            center = _finite_array(c, "center", 1, where)
            axes = _finite_array(c, "axes", 2, where)
            lengths = _finite_array(c, "axis_lengths", 1, where)
            dim = clusters[0].dim if clusters else center.size
            if center.shape != (dim,) or axes.shape != (dim, dim) or lengths.shape != (dim,):
                raise ValueError(
                    f"{where} keys 'center', 'axes', 'axis_lengths' must have shapes "
                    f"({dim},), ({dim}, {dim}), ({dim},)"
                )
            distribution = _typed(c, "distribution", dict, where)
            _typed(distribution, "name", str, f"{where} distribution")
            if "params" in distribution:
                _typed(distribution, "params", dict, f"{where} distribution")
            clusters.append(
                Cluster(center, axes, lengths, RadialDistribution.from_dict(distribution))
            )
        return cls(clusters=clusters, group_sizes=np.asarray(sizes, dtype=int), archetype_name=name)

    @classmethod
    def from_json(cls, text: str) -> "MixtureModel":
        return cls.from_dict(json.loads(text))


def sample_orientation(dim: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` rotation-invariant random orthonormal matrices, stacked as (size, dim, dim).

    QR of square standard-normal matrices, with column signs fixed by the
    diagonal of R so the distribution does not depend on the QR convention.
    One draw and one stacked QR give the same matrices and generator state
    as `size` stacks of one drawn in turn.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    q, r = np.linalg.qr(rng.standard_normal((size, dim, dim)))
    signs = np.sign(np.diagonal(r, axis1=1, axis2=2))
    signs[signs == 0] = 1.0
    q *= signs[:, None, :]
    return q


def covariance_of(cluster: Cluster) -> np.ndarray:
    """Sigma = U diag(lengths^2) U'."""
    u = cluster.axes
    return (u * cluster.axis_lengths**2) @ u.T


def sample_mixture_model(a: arch.Archetype, rng: np.random.Generator) -> MixtureModel:
    """Draw a mixture model matching the archetype, overlap constraints met.

    Single-cluster archetypes skip placement and sit at the coordinate
    origin.  Otherwise centers are initialized in a density-calibrated ball
    and optimized from `placement.optimize_centers`' default learning rate,
    which follows the archetype's scale and halves after every 20 epochs
    without a new best loss; on non-convergence the initialization is
    redrawn up to `placement.MAX_RESTARTS` times, so placement makes at
    most MAX_RESTARTS + 1 attempts of up to `placement.MAX_EPOCHS` epochs
    each.
    """
    a.validated()
    k, dim = a.n_clusters, a.dim

    aspects = arch.sample_aspect_ratios(a, rng)
    radii = arch.sample_cluster_radii(a, rng)
    lengths = np.stack(
        [arch.sample_axis_lengths(aspects[j], radii[j], dim, rng) for j in range(k)]
    )
    orientations = sample_orientation(dim, rng, k)
    families = arch.assign_distributions(a, rng)
    group_sizes = arch.sample_group_sizes(a, rng)

    def placed_at(centers):
        clusters = [
            Cluster(centers[j], orientations[j], lengths[j], RadialDistribution(families[j]))
            for j in range(k)
        ]
        return MixtureModel(clusters, group_sizes, a.name)

    if k == 1:
        return placed_at(np.zeros((1, dim)))

    bounds = placement.OverlapBounds.from_overlaps(a.max_overlap, a.min_overlap)
    for _ in range(placement.MAX_RESTARTS + 1):
        # by position: perfbench/spans.py reads the config and the generator from it
        start = placed_at(placement.init_centers(k, dim, radii, None, rng))
        try:
            model, _ = placement.optimize_centers(start, bounds, None, rng)
            return model
        except NonConvergenceError as exc:
            last_error = exc
    raise last_error
