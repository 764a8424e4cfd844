"""Cluster center initialization and overlap-constrained SGD placement.

Centers start uniform inside a ball sized so that the cluster density
matches a sphere-packing-adjusted target, then move by per-cluster
stochastic gradient descent on the overlap loss

    L = (1/k) sum_i [ p((min_j q_ij - q_max)^+) + sum_j p((q_min - q_ij)^+) ]

until every pairwise separation q_ij respects the bounds.  Separations use
the LDA axis oriented from i to j, so q_ij = q_ji >= 0.  Gradients freeze
the axis at the current iterate and differentiate only the explicit center
dependence; axes and axis lengths never change during placement.

Covariances therefore stay fixed too, so each `optimize_centers` call
inverts every pair's averaged covariance once, before the first epoch
(`overlap.pair_inverses`), and every separation after that is a
matrix-vector product.  The inverses take k(k-1)/2 * d^2 floats: 56 MB
at k=8, d=500.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonConvergenceError
from .overlap import PairInverses, lda_separations, pair_inverses, pairwise_separations
from .stats import normal_isf

if TYPE_CHECKING:  # pragma: no cover
    from .mixture import MixtureModel

_LOSS_SLACK = 1e-12


@dataclass(frozen=True)
class PlacementConfig:
    """Knobs for center initialization and SGD."""

    rho_2d: float = 0.10
    learning_rate: float | None = None  # None -> default_learning_rate
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


def log_adjusted_density(dim: int, rho_2d: float) -> float:
    """Log of the sphere-packing-adjusted target density dim * 2^(1-dim) * rho_2d.

    Taken in log space because 2^(1-dim) underflows to 0 from dim ~1080.
    """
    return float(np.log(dim * rho_2d) + (1 - dim) * np.log(2.0))


def init_centers(
    k: int,
    dim: int,
    cluster_radii,
    config: PlacementConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Centers i.i.d. uniform in a ball matching the adjusted density.

    The ball volume V satisfies (sum of cluster volumes) / V = rho_adj; the
    unit-ball constant cancels, and radii and density enter in log space so
    very high dimensions can neither overflow nor underflow.
    """
    log_volumes = dim * np.log(np.asarray(cluster_radii, dtype=float))
    shift = log_volumes.max()
    log_total = shift + np.log(np.sum(np.exp(log_volumes - shift)))
    ball_radius = np.exp((log_total - log_adjusted_density(dim, config.rho_2d)) / dim)
    directions = rng.standard_normal((k, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radial = rng.uniform(0.0, 1.0, size=(k, 1)) ** (1.0 / dim)
    return ball_radius * radial * directions


def penalty(x: float, penalty_mix: float) -> float:
    """p(x) = lambda*x + (1-lambda)*x^2, zero at zero, convex on [0, 1]."""
    return penalty_mix * x + (1.0 - penalty_mix) * x * x


def _penalty_slope(x, penalty_mix):
    return penalty_mix + 2.0 * (1.0 - penalty_mix) * x


def cluster_loss(
    centers, covs, inverses: PairInverses, i, bounds: OverlapBounds, penalty_mix: float
):
    """Loss on cluster i and its frozen-axis gradient w.r.t. the centers it touches.

    The loss is the isolation penalty on i's nearest separation plus a
    crowding penalty for every separation below q_min.  `inverses` is
    `pair_inverses(covs)`.  Returns (loss, rows, grad): grad[r] is the
    gradient w.r.t. centers[rows[r]]; every other center's gradient is zero.
    """
    others = inverses.others[i]
    q, axes = lda_separations(
        centers[i], covs[i], centers.take(others, axis=0), covs.take(others, axis=0),
        inverses.inv.take(inverses.pairs[i], axis=0),
    )
    nearest = int(q.argmin())
    isolation = float(q[nearest]) - bounds.q_max
    if isolation > 0:  # then every q_ij > q_max > q_min: no crowding term
        pull = _penalty_slope(isolation, penalty_mix) * axes[nearest]
        rows = np.array([i, others[nearest]])
        return penalty(isolation, penalty_mix), rows, np.stack([-pull, pull])
    crowded = np.nonzero(q < bounds.q_min)[0]
    shortfall = bounds.q_min - q[crowded]
    pushes = _penalty_slope(shortfall, penalty_mix)[:, None] * axes[crowded]
    rows = np.concatenate([[i], others[crowded]])
    # rows of pushes are added in order, not by a BLAS dot
    grad = np.concatenate([pushes.sum(axis=0)[None, :], -pushes])
    return float(penalty(shortfall, penalty_mix).sum()), rows, grad


def _mean_loss(centers, covs, inverses: PairInverses, bounds: OverlapBounds, penalty_mix):
    """Mean of the k cluster losses from one pass over the k(k-1)/2 pairs.

    q_ij = q_ji, so each pair's separation is computed once.
    """
    q, _ = pairwise_separations(centers, covs, inverses)
    q_of = q[inverses.pairs]  # row i: q_ij for every j != i
    isolation = np.maximum(q_of.min(axis=1) - bounds.q_max, 0.0)
    crowding = np.maximum(bounds.q_min - q_of, 0.0)
    losses = penalty(isolation, penalty_mix) + penalty(crowding, penalty_mix).sum(axis=1)
    return float(losses.mean())


def overlap_loss(
    model: "MixtureModel", bounds: OverlapBounds, penalty_mix: float = 0.5
) -> float:
    """Average single-cluster loss; zero iff all constraints hold."""
    covs = model.covariances()
    return _mean_loss(model.centers, covs, pair_inverses(covs), bounds, penalty_mix)


def default_learning_rate(lengths: np.ndarray) -> float:
    """0.1 * the mean cluster radius, from a k x dim array of axis lengths."""
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
    final loss and trace when max_epochs is exhausted, or at once when the
    loss is NaN or infinite.
    """
    centers = model.centers
    covs = model.covariances()
    k = centers.shape[0]
    inverses = pair_inverses(covs)
    eta = config.learning_rate
    if eta is None:
        eta = default_learning_rate(np.stack([c.axis_lengths for c in model.clusters]))
    stop_at = max(config.loss_tolerance, _LOSS_SLACK)
    trace: list[float] = []
    for epoch in range(config.max_epochs + 1):
        loss = _mean_loss(centers, covs, inverses, bounds, config.penalty_mix)
        trace.append(loss)
        if loss <= stop_at:
            clusters = [replace(c, center=centers[j]) for j, c in enumerate(model.clusters)]
            return replace(model, clusters=clusters), trace
        if epoch == config.max_epochs or not np.isfinite(loss):
            raise NonConvergenceError(loss, trace)  # no SGD step recovers from NaN/inf
        for i in rng.permutation(k):
            _, rows, grad = cluster_loss(
                centers, covs, inverses, int(i), bounds, config.penalty_mix
            )
            centers[rows] -= eta * grad  # untouched rows: c - eta*0 == c
