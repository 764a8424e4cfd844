"""Per-cluster placement loss, the reference the batched placement epoch is checked against.

`cluster_loss` evaluates one cluster's loss and gradient from that
cluster's own k-1 separations, the direct reading of the loss in
`clustergen.placement`'s docstring.  The sum of its gradients over all
clusters is the gradient every placement epoch steps down.
"""

import numpy as np

from clustergen import placement
from clustergen.overlap import pair_inverses
from clustergen.placement import OverlapBounds, penalty


def _penalty_slope(x):
    mix = placement._PENALTY_MIX  # read per call, so a monkeypatched mix applies
    return mix + 2.0 * (1.0 - mix) * x


def others_of(k: int) -> np.ndarray:
    """Row i lists every j != i in increasing order (k x (k-1))."""
    return np.array([np.delete(np.arange(k), i) for i in range(k)], dtype=np.intp)


def lda_separations(mu, S, others_mu, others_S, inv_avg):
    """LDA separations of one cluster (mu, S) against m others.

    inv_avg[m] is ((S + others_S[m])/2)^{-1}.  Returns (q, axes): q[m] >= 0
    is the separation quantile along the LDA axis toward others_mu[m], and
    axes[m] is that axis oriented from mu toward others_mu[m] and divided
    by the quantile denominator, so q[m] = axes[m] @ (others_mu[m] - mu),
    grad_{others_mu[m]} q[m] = axes[m] and grad_{mu} q[m] = -axes[m] with
    the axis held fixed.
    """
    delta = others_mu - mu
    axes = (inv_avg @ delta[:, :, None])[:, :, 0]
    var_i = np.einsum("mp,mp->m", axes @ S, axes)
    var_j = np.einsum("mp,mp->m", (others_S @ axes[:, :, None])[:, :, 0], axes)
    denom = np.sqrt(var_i) + np.sqrt(var_j)
    margin = np.einsum("mp,mp->m", axes, delta)
    return np.abs(margin) / denom, axes * np.copysign(1.0 / denom, margin)[:, None]


def separations_of(centers, covs, i):
    """(others, q, scaled axes) of cluster i against every other cluster."""
    inverses = pair_inverses(covs)
    others = others_of(len(centers))[i]
    q, axes = lda_separations(
        centers[i], covs[i], centers[others], covs[others], inverses.inv[inverses.pairs[i]]
    )
    return others, q, axes


def cluster_loss(centers, covs, i, bounds: OverlapBounds):
    """Loss on cluster i and its frozen-axis gradient, shaped like centers.

    The loss is the isolation penalty on i's nearest separation plus a
    crowding penalty for every separation below q_min.
    """
    others, q, axes = separations_of(centers, covs, i)
    grad = np.zeros_like(centers, dtype=float)
    nearest = int(q.argmin())
    isolation = float(q[nearest]) - bounds.q_max
    if isolation > 0:  # then every q_ij > q_max > q_min: no crowding term
        pull = _penalty_slope(isolation) * axes[nearest]
        grad[i] -= pull
        grad[others[nearest]] += pull
        return penalty(isolation), grad
    crowded = np.nonzero(q < bounds.q_min)[0]
    shortfall = bounds.q_min - q[crowded]
    pushes = _penalty_slope(shortfall)[:, None] * axes[crowded]
    grad[i] += pushes.sum(axis=0)
    grad[others[crowded]] -= pushes
    return float(penalty(shortfall).sum()), grad
