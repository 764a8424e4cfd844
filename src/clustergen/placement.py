"""Cluster center initialization and overlap-constrained SGD placement.

Centers start uniform inside a ball sized so that the cluster density
matches a sphere-packing-adjusted target, then move by per-cluster
stochastic gradient descent on the overlap loss

    L = (1/k) sum_i [ p((min_j q_ij - q_max)^+) + sum_j p((q_min - q_ij)^+) ]

until every pairwise separation q_ij respects the bounds.  Separations use
the LDA axis oriented from i to j, so q_ij = q_ji >= 0.  Gradients freeze
the axis at the current iterate and differentiate only the explicit center
dependence; axes and axis lengths never change during placement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np
from scipy.special import logsumexp

from .errors import NonConvergenceError
from .overlap import lda_separations
from .stats import normal_isf

if TYPE_CHECKING:  # pragma: no cover
    from .mixture import MixtureModel

_LOSS_SLACK = 1e-12


@dataclass(frozen=True)
class PlacementConfig:
    """Knobs for center initialization and SGD."""

    rho_2d: float = 0.10
    learning_rate: float | None = None  # None -> 0.1 * mean cluster radius
    penalty_mix: float = 0.5  # lambda in p(x) = lambda*x + (1-lambda)*x^2
    max_epochs: int = 1000
    loss_tolerance: float = 0.0
    max_restarts: int = 3

    def __post_init__(self):
        if not 0.0 <= self.penalty_mix <= 1.0:
            raise ValueError(f"penalty_mix must lie in [0, 1], got {self.penalty_mix}")
        if self.learning_rate is not None and self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 < self.rho_2d < 1.0:
            raise ValueError(f"rho_2d must lie in (0, 1), got {self.rho_2d}")
        if self.loss_tolerance < 0:
            raise ValueError(f"loss_tolerance must be nonnegative, got {self.loss_tolerance}")


@dataclass(frozen=True)
class OverlapBounds:
    """Separation band [q_min, q_max] implied by the overlap constraints."""

    q_min: float
    q_max: float

    def __post_init__(self):
        if not 0 < self.q_min < self.q_max:
            raise ValueError(
                f"need 0 < q_min < q_max, got q_min={self.q_min}, q_max={self.q_max}"
            )

    @classmethod
    def from_overlaps(cls, max_overlap: float, min_overlap: float) -> "OverlapBounds":
        return cls(
            q_min=float(normal_isf(max_overlap / 2.0)),
            q_max=float(normal_isf(min_overlap / 2.0)),
        )


def adjusted_density(dim: int, rho_2d: float) -> float:
    """Sphere-packing-adjusted target density: dim * 2^(1-dim) * rho_2d."""
    return dim * 2.0 ** (1.0 - dim) * rho_2d


def init_centers(
    k: int,
    dim: int,
    cluster_radii,
    config: PlacementConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Centers i.i.d. uniform in a ball matching the adjusted density.

    The ball volume V satisfies (sum of cluster volumes) / V = rho_adj; the
    unit-ball constant cancels, and radii enter in log space so very high
    dimensions cannot overflow.
    """
    radii = np.asarray(cluster_radii, dtype=float)
    log_total = logsumexp(dim * np.log(radii))
    ball_radius = np.exp((log_total - np.log(adjusted_density(dim, config.rho_2d))) / dim)
    directions = rng.standard_normal((k, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radial = rng.uniform(0.0, 1.0, size=(k, 1)) ** (1.0 / dim)
    return ball_radius * radial * directions


def penalty(x: float, penalty_mix: float) -> float:
    """p(x) = lambda*x + (1-lambda)*x^2, zero at zero, convex on [0, 1]."""
    return penalty_mix * x + (1.0 - penalty_mix) * x * x


def _penalty_slope(x, penalty_mix):
    return penalty_mix + 2.0 * (1.0 - penalty_mix) * x


def cluster_loss(centers, covs, i, bounds: OverlapBounds, penalty_mix: float):
    """Loss on cluster i and its frozen-axis gradient w.r.t. every center.

    The loss is the isolation penalty on i's nearest separation plus a
    crowding penalty for every separation below q_min.  Returns
    (loss, grad) with grad shaped like `centers` (k x dim).
    """
    others = np.array([j for j in range(centers.shape[0]) if j != i])
    q, axes = lda_separations(centers[i], covs[i], centers[others], covs[others])
    grad = np.zeros_like(centers)
    nearest = int(np.argmin(q))
    isolation = q[nearest] - bounds.q_max
    if isolation > 0:  # then every q_ij > q_max > q_min: no crowding term
        slope = _penalty_slope(isolation, penalty_mix)
        grad[i] -= slope * axes[nearest]
        grad[others[nearest]] += slope * axes[nearest]
        return penalty(isolation, penalty_mix), grad
    crowded = np.nonzero(q < bounds.q_min)[0]
    if crowded.size == 0:
        return 0.0, grad
    shortfall = bounds.q_min - q[crowded]
    pushes = _penalty_slope(shortfall, penalty_mix)[:, None] * axes[crowded]
    grad[i] += pushes.sum(axis=0)  # rows added in order, not by a BLAS dot
    grad[others[crowded]] -= pushes
    return sum(penalty(float(x), penalty_mix) for x in shortfall), grad


def overlap_loss(
    model: "MixtureModel", bounds: OverlapBounds, penalty_mix: float = 0.5
) -> float:
    """Average single-cluster loss; zero iff all constraints hold."""
    centers, covs, k = model.centers, model.covariances(), model.n_clusters
    return sum(cluster_loss(centers, covs, i, bounds, penalty_mix)[0] for i in range(k)) / k


def loss_trace_csv(trace) -> str:
    """Render a per-epoch loss trace as CSV for convergence plots."""
    rows = ["epoch,loss"]
    rows.extend(f"{epoch},{loss:.17g}" for epoch, loss in enumerate(trace))
    return "\n".join(rows) + "\n"


def _resolve_learning_rate(config: PlacementConfig, lengths: np.ndarray) -> float:
    if config.learning_rate is not None:
        return config.learning_rate
    radii = np.exp(np.mean(np.log(lengths), axis=1))  # per-cluster geometric mean
    return 0.1 * float(radii.mean())


def optimize_centers(
    model: "MixtureModel",
    bounds: OverlapBounds,
    config: PlacementConfig,
    rng: np.random.Generator,
):
    """Run SGD epochs until the overlap loss reaches tolerance.

    Each epoch visits the clusters in an order drawn from `rng` and steps
    each one's centers down its `cluster_loss` gradient.  Returns
    (converged model, per-epoch loss trace).  Axes and axis lengths are
    untouched; only centers move.  Raises NonConvergenceError with the
    final loss and trace when max_epochs is exhausted.
    """
    centers = model.centers
    covs = model.covariances()
    k = centers.shape[0]
    eta = _resolve_learning_rate(config, np.stack([c.axis_lengths for c in model.clusters]))
    stop_at = max(config.loss_tolerance, _LOSS_SLACK)
    trace: list[float] = []
    for epoch in range(config.max_epochs + 1):
        losses = [cluster_loss(centers, covs, i, bounds, config.penalty_mix)[0] for i in range(k)]
        loss = sum(losses) / k
        trace.append(loss)
        if loss <= stop_at:
            clusters = [replace(c, center=centers[j]) for j, c in enumerate(model.clusters)]
            return replace(model, clusters=clusters), trace
        if epoch == config.max_epochs:
            raise NonConvergenceError(loss, trace)
        for i in rng.permutation(k):
            _, grad = cluster_loss(centers, covs, int(i), bounds, config.penalty_mix)
            centers = centers - eta * grad
