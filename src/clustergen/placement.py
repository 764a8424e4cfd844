"""Cluster center initialization and overlap-constrained gradient placement.

Centers start uniform inside a ball sized so that the cluster density
matches a sphere-packing-adjusted target, then move by gradient descent
on the overlap loss

    L = (1/k) sum_i [ p((min_j q_ij - q_max)^+) + sum_j p((q_min - q_ij)^+) ]

until every pairwise separation q_ij respects the bounds.  Separations use
the LDA axis oriented from i to j, so q_ij = q_ji >= 0.  Gradients freeze
the axis at the current iterate and differentiate only the explicit center
dependence; axes and axis lengths never change during placement.

Every epoch moves all clusters at once: one pass over the k(k-1)/2 pairs
gives the loss and the summed gradient of the k cluster losses, and each
cluster steps down its part of it, the step capped at _STEP_CAP times the
cluster's radius (the geometric mean of its axis lengths) so that the
first epochs out of the dense initial ball do not overshoot.  Placement
draws no random numbers; only the initial centers are random.

Covariances stay fixed too, so each `optimize_centers` call inverts
every pair's averaged covariance once, before the first epoch
(`overlap.pair_inverses`: LU up to d = 32, a Cholesky factor and its
recursive triangular inverse above), and every separation after that is
a matrix-vector product.  The inverses take k(k-1)/2 * d^2 floats: 56 MB
at k=8, d=500.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonConvergenceError
from .overlap import PairInverses, pair_inverses, pairwise_separations
from .stats import normal_isf

if TYPE_CHECKING:  # pragma: no cover
    from .mixture import MixtureModel

_LOSS_SLACK = 1e-12  # the loss at which placement stops
_STEP_CAP = 3.0  # largest step of a cluster per epoch, in its radii
_RHO_2D = 0.10  # target cluster density in 2-D, before the sphere-packing adjustment
_PENALTY_MIX = 0.5  # lambda in p(x) = lambda*x + (1-lambda)*x^2
MAX_EPOCHS = 1000  # gradient epochs per optimize_centers call
MAX_RESTARTS = 3  # fresh initializations after the first, in sample_mixture_model


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


def log_adjusted_density(dim: int) -> float:
    """Log of the sphere-packing-adjusted target density dim * 2^(1-dim) * _RHO_2D.

    Taken in log space because 2^(1-dim) underflows to 0 from dim ~1080.
    """
    return float(np.log(dim * _RHO_2D) + (1 - dim) * np.log(2.0))


def _log_total_volume(log_radii: np.ndarray, dim: int) -> float:
    """log of sum_i r_i^dim, from the log radii.

    Taken relative to the largest term, so no dim or scale overflows or underflows.
    """
    log_volumes = dim * log_radii
    shift = log_volumes.max()
    return shift + np.log(np.sum(np.exp(log_volumes - shift)))


def init_centers(
    k: int,
    dim: int,
    cluster_radii,
    learning_rate: float | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """Centers i.i.d. uniform in a ball matching the adjusted density.

    The ball volume V satisfies (sum of cluster volumes) / V = rho_adj; the
    unit-ball constant cancels, and radii and density enter in log space so
    very high dimensions can neither overflow nor underflow.
    `learning_rate` is accepted but not read: `perfbench` records each
    call's arguments and replays `optimize_centers` with this rate, which
    `sample_mixture_model` leaves as None (the default rule).
    """
    log_total = _log_total_volume(np.log(np.asarray(cluster_radii, dtype=float)), dim)
    ball_radius = np.exp((log_total - log_adjusted_density(dim)) / dim)
    directions = rng.standard_normal((k, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    radial = rng.uniform(0.0, 1.0, size=(k, 1)) ** (1.0 / dim)
    return ball_radius * radial * directions


def penalty(x: float) -> float:
    """p(x) = lambda*x + (1-lambda)*x^2, lambda = _PENALTY_MIX; zero at zero, convex."""
    return _PENALTY_MIX * x + (1.0 - _PENALTY_MIX) * x * x


def _penalty_slope(x):
    return _PENALTY_MIX + 2.0 * (1.0 - _PENALTY_MIX) * x


def _loss_and_gradient(centers, covs, inverses: PairInverses, bounds: OverlapBounds):
    """Mean of the k cluster losses and the sum of their gradients, from one pass.

    Cluster i's loss is the isolation penalty on its nearest separation,
    or, when that lies within q_max, a crowding penalty for every
    separation below q_min.  q_ij = q_ji, so each pair's separation is
    computed once, along axes[p] oriented from iu[p] to ju[p] and scaled
    so that grad_{c_ju} q = axes[p] = -grad_{c_iu} q (axis held fixed).
    Every cluster loss's term on pair p therefore adds w * axes[p] to the
    gradient of c_iu and -w * axes[p] to that of c_ju: w is the penalty
    slope for a crowding push and minus it for an isolation pull.
    """
    q, axes = pairwise_separations(centers, covs, inverses)
    q_of = q[inverses.pairs]  # row i: q_ij for every j != i
    nearest = q_of.argmin(axis=1)
    isolation = np.maximum(q_of[np.arange(len(q_of)), nearest] - bounds.q_max, 0.0)
    crowding = np.maximum(bounds.q_min - q_of, 0.0)
    losses = penalty(isolation) + penalty(crowding).sum(axis=1)
    shortfall = bounds.q_min - q
    # both clusters of a crowded pair push: neither can be isolated
    weight = np.where(shortfall > 0, 2.0 * _penalty_slope(shortfall), 0.0)
    isolated = np.flatnonzero(isolation)
    pulled = inverses.pairs[isolated, nearest[isolated]]  # mutual nearest pairs repeat
    np.subtract.at(weight, pulled, _penalty_slope(isolation[isolated]))
    table = np.zeros((len(centers), len(centers), centers.shape[1]))
    table[inverses.iu, inverses.ju] = weight[:, None] * axes
    return float(losses.mean()), table.sum(axis=1) - table.sum(axis=0)


def overlap_loss(model: "MixtureModel", bounds: OverlapBounds) -> float:
    """Average single-cluster loss; zero iff all constraints hold."""
    covs = model.covariances()
    return _loss_and_gradient(model.centers, covs, pair_inverses(covs), bounds)[0]


def optimize_centers(
    model: "MixtureModel",
    bounds: OverlapBounds,
    learning_rate: float | None = None,
    rng: np.random.Generator | None = None,
):
    """Run gradient epochs until the overlap loss is at most _LOSS_SLACK.

    Each epoch moves every cluster at once, down the summed gradient of
    all k cluster losses taken at the epoch's start (one pass over the
    pairs) times `learning_rate`, and caps each cluster's step at
    _STEP_CAP times its radius.  The default rate is 0.1 * the mean
    cluster radius * s, where s is the dim-th power mean of the radii:
    the archetype's `scale`, up to rounding, for a sampled model, since
    its cluster volumes average scale^dim.  q is scale-free but its gradient in the centers
    goes as 1/s, so a rate growing as s^2 runs the same descent at every
    scale.  A rate that is not positive and finite raises ValueError.
    The run is deterministic: `rng` is accepted, because `perfbench`
    passes it by position, but neither read nor advanced.  Returns
    (converged model, per-epoch loss trace).  Axes and axis lengths are
    untouched; only centers move.  Raises NonConvergenceError with the
    final loss and trace when MAX_EPOCHS epochs have not converged, or at
    once when the loss is NaN or infinite.
    """
    if learning_rate is not None and not 0 < learning_rate < np.inf:
        raise ValueError(f"learning_rate must be positive and finite, got {learning_rate!r}")
    centers = model.centers
    covs = model.covariances()
    inverses = pair_inverses(covs)
    # a cluster's radius is the geometric mean of its axis lengths
    log_radii = np.mean(np.log(np.stack([c.axis_lengths for c in model.clusters])), axis=1)
    radii = np.exp(log_radii)
    if learning_rate is None:
        log_s = (_log_total_volume(log_radii, model.dim) - np.log(len(radii))) / model.dim
        learning_rate = 0.1 * radii.mean() * np.exp(log_s)
    cap = _STEP_CAP * radii
    trace: list[float] = []
    for epoch in range(MAX_EPOCHS + 1):
        loss, grad = _loss_and_gradient(centers, covs, inverses, bounds)
        trace.append(loss)
        if loss <= _LOSS_SLACK:
            clusters = [replace(c, center=centers[j]) for j, c in enumerate(model.clusters)]
            return replace(model, clusters=clusters), trace
        if epoch == MAX_EPOCHS or not np.isfinite(loss):
            raise NonConvergenceError(loss, trace)  # no step recovers from NaN/inf
        step = learning_rate * grad
        length = np.sqrt(np.einsum("ij,ij->i", step, step))
        centers -= step * (cap / np.maximum(length, cap))[:, None]
