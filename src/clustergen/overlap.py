"""Pairwise cluster separation and overlap measures.

Overlap between two clusters is twice the minimax error rate of the best
linear classifier separating them.  Along a classification axis `a` the
separation quantile is

    q(a) = a'(mu2 - mu1) / (sqrt(a'S1 a) + sqrt(a'S2 a))

and the induced overlap is 2*(1 - Phi(q)).  Three estimators are provided:
the LDA approximation (axis solving the averaged-covariance system), the
cheaper center-to-center approximation, and an exact oracle for Gaussian
pairs that maximizes q over the one-parameter axis family
a(t) = (t*S1 + (1-t)*S2)^{-1} (mu2 - mu1), t in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import normal_sf

_MAX_CONDITION = 1e12
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _as_vector(x) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(-1)


def separation_quantile(mu1, mu2, S1, S2, axis) -> float:
    """Signed separation along `axis`; invariant to positive rescaling."""
    mu1, mu2, axis = _as_vector(mu1), _as_vector(mu2), _as_vector(axis)
    if not np.any(axis):
        raise ValueError("classification axis must be nonzero")
    s1 = float(axis @ np.asarray(S1) @ axis)
    s2 = float(axis @ np.asarray(S2) @ axis)
    if s1 <= 0 or s2 <= 0 or not np.isfinite(s1 + s2):
        raise ValueError("covariance matrices must be symmetric positive definite")
    return float(axis @ (mu2 - mu1)) / (np.sqrt(s1) + np.sqrt(s2))


def _require_separable(delta, avg) -> None:
    """Raise ValueError if any pair has coincident centers or a singular average."""
    if not np.all(np.any(delta, axis=-1)):
        raise ValueError("cluster centers coincide; no separating axis exists")
    if np.any(np.linalg.cond(avg) > _MAX_CONDITION):
        raise ValueError("averaged covariance is numerically singular")


def lda_axis(mu1, mu2, S1, S2) -> np.ndarray:
    """Solve ((S1+S2)/2) a = mu2 - mu1 without forming an inverse."""
    mu1, mu2 = _as_vector(mu1), _as_vector(mu2)
    delta = mu2 - mu1
    avg = 0.5 * (np.asarray(S1, dtype=float) + np.asarray(S2, dtype=float))
    _require_separable(delta, avg)
    return np.linalg.solve(avg, delta)


@dataclass(frozen=True)
class PairInverses:
    """Inverses of the averaged covariances of every cluster pair.

    inv[p] = ((S_i + S_j)/2)^{-1} for the pair (i, j) = (iu[p], ju[p]),
    i < j: k(k-1)/2 matrices of d x d, packed row by row, so they take
    k(k-1)/2 * d^2 floats.  others[i] lists every j != i in increasing
    order, and pairs[i] the matching entries of inv (both k x (k-1)).
    """

    inv: np.ndarray
    iu: np.ndarray
    ju: np.ndarray
    others: np.ndarray
    pairs: np.ndarray


def pair_inverses(covs) -> PairInverses:
    """Invert every averaged covariance once; covariances are not checked.

    Row i's pairs (i, j > i) are inverted in one batch, so no temporary is
    larger than k-1 matrices.
    """
    covs = np.asarray(covs, dtype=float)
    k, dim = covs.shape[0], covs.shape[-1]
    iu, ju = np.triu_indices(k, 1)
    index = np.zeros((k, k), dtype=np.intp)
    index[iu, ju] = index[ju, iu] = np.arange(iu.size)
    others = np.array([np.delete(np.arange(k), i) for i in range(k)], dtype=np.intp)
    pairs = np.take_along_axis(index, others, axis=1)
    inv = np.empty((iu.size, dim, dim))
    for i in range(k - 1):
        start = index[i, i + 1]
        inv[start : start + k - 1 - i] = np.linalg.inv(0.5 * (covs[i] + covs[i + 1 :]))
    return PairInverses(inv, iu, ju, others, pairs)


def _rowdot(x, y):
    return np.einsum("mp,mp->m", x, y)


def _oriented_separations(delta, axes, var_i, var_j):
    """(q, oriented scaled axes) from LDA axes and both clusters' variances along them."""
    denom = np.sqrt(var_i) + np.sqrt(var_j)
    margin = _rowdot(axes, delta)
    return np.abs(margin) / denom, axes * np.copysign(1.0 / denom, margin)[:, None]


def lda_separations(mu, S, others_mu, others_S, inv_avg):
    """LDA separations of one cluster (mu, S) against m others.

    inv_avg[m] is ((S + others_S[m])/2)^{-1}, from `pair_inverses`, so each
    axis is one matrix-vector product.  Returns (q, axes): q[m] >= 0 is the
    separation quantile along the LDA axis toward others_mu[m], and axes[m]
    is that axis oriented from mu toward others_mu[m] and pre-divided by
    the quantile denominator, so q[m] = axes[m] @ (others_mu[m] - mu),
    grad_{others_mu[m]} q[m] = axes[m] and grad_{mu} q[m] = -axes[m] with
    the axis held fixed.  Inputs are not checked; the reporting paths
    check theirs in `_checked_pair_separations`.
    """
    delta = others_mu - mu
    axes = (inv_avg @ delta[:, :, None])[:, :, 0]
    var_i = _rowdot(axes @ S, axes)
    var_j = _rowdot((others_S @ axes[:, :, None])[:, :, 0], axes)
    return _oriented_separations(delta, axes, var_i, var_j)


def pairwise_separations(centers, covs, inverses: PairInverses):
    """`lda_separations` of every pair i < j at once, packed like `inverses.inv`.

    The variances a'S_i a and a'S_j a come from two batched products of
    each covariance with a k x k x d table of axes, so no covariance is
    copied per pair.
    """
    iu, ju = inverses.iu, inverses.ju
    delta = centers[ju] - centers[iu]
    axes = (inverses.inv @ delta[:, :, None])[:, :, 0]
    table = np.zeros((centers.shape[0], *centers.shape))
    table[iu, ju] = axes  # table[i, j] @ covs[i] is a_ij' S_i
    var_i = _rowdot((table @ covs)[iu, ju], axes)
    var_j = _rowdot((table.transpose(1, 0, 2) @ covs)[ju, iu], axes)
    return _oriented_separations(delta, axes, var_i, var_j)


def _checked_pair_separations(centers, covs):
    """`pairwise_separations` raising `lda_axis`'s errors on inseparable pairs."""
    centers = np.stack([_as_vector(c) for c in centers])
    covs = np.asarray(covs, dtype=float).reshape(-1, centers.shape[1], centers.shape[1])
    for i in range(centers.shape[0] - 1):
        _require_separable(centers[i + 1 :] - centers[i], 0.5 * (covs[i] + covs[i + 1 :]))
    with np.errstate(invalid="ignore", divide="ignore"):
        q, axes = pairwise_separations(centers, covs, pair_inverses(covs))
    if not np.all(np.isfinite(q)):
        raise ValueError("covariance matrices must be symmetric positive definite")
    return q, axes


def lda_overlap(mu1, mu2, S1, S2) -> float:
    """Overlap along the LDA axis: 2*(1 - Phi(q))."""
    q, _ = _checked_pair_separations([mu1, mu2], [S1, S2])
    return float(2.0 * normal_sf(q[0]))


def c2c_overlap(mu1, mu2, S1, S2) -> float:
    """Overlap along the center-difference axis."""
    mu1, mu2 = _as_vector(mu1), _as_vector(mu2)
    delta = mu2 - mu1
    if not np.any(delta):
        raise ValueError("cluster centers coincide; no separating axis exists")
    q = separation_quantile(mu1, mu2, S1, S2, delta)
    return float(2.0 * normal_sf(q))


def exact_overlap_oracle(mu1, mu2, S1, S2, tol: float = 1e-6) -> float:
    """Exact overlap for a Gaussian pair.

    The minimax axis lies in the family a(t) = (t*S1 + (1-t)*S2)^{-1} delta
    for some t in (0,1), where it maximizes the separation quantile.  A
    64-point grid (log-symmetric in t-odds) brackets the maximum and
    golden-section search refines t to within `tol`.  The LDA axis is the
    t = 1/2 member, so the result never falls below the LDA quantile.
    """
    mu1, mu2 = _as_vector(mu1), _as_vector(mu2)
    delta = mu2 - mu1
    if not np.any(delta):
        raise ValueError("cluster centers coincide; no separating axis exists")
    S1 = np.asarray(S1, dtype=float)
    S2 = np.asarray(S2, dtype=float)

    def q_of(t: float) -> float:
        axis = np.linalg.solve(t * S1 + (1.0 - t) * S2, delta)
        return separation_quantile(mu1, mu2, S1, S2, axis)

    grid = 1.0 / (1.0 + np.exp(-np.linspace(-12.0, 12.0, 64)))
    values = np.array([q_of(t) for t in grid])
    if not np.all(np.isfinite(values)):
        raise ValueError("separation objective is not finite; cannot locate maximum")
    best = int(np.argmax(values))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, len(grid) - 1)]

    # golden-section maximization of q_of on [lo, hi]
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = q_of(x1), q_of(x2)
    while b - a > tol:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = q_of(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = q_of(x1)
    q_star = max(f1, f2, values[best], q_of(0.5))
    return float(2.0 * normal_sf(q_star))


@dataclass(frozen=True)
class MonteCarloOverlap:
    estimate: float
    std_error: float


def monte_carlo_overlap(c1, c2, n: int, rng: np.random.Generator) -> MonteCarloOverlap:
    """Empirical minimax overlap between two sampled clusters.

    Draws n points per cluster, projects onto the LDA axis of the model
    covariances, picks the threshold equalizing the two empirical error
    rates, and returns twice that rate with a binomial standard error.
    """
    from .mixture import covariance_of
    from .sampling import sample_cluster_points

    _, axes = _checked_pair_separations(
        [c1.center, c2.center], [covariance_of(c1), covariance_of(c2)]
    )
    axis = axes[0]
    s1 = sample_cluster_points(c1, n, rng) @ axis
    s2 = sample_cluster_points(c2, n, rng) @ axis
    if s1.mean() > s2.mean():
        s1, s2 = s2, s1
    cands = np.unique(np.concatenate([s1, s2]))
    err1 = 1.0 - np.searchsorted(np.sort(s1), cands, side="right") / n  # P(s1 > c)
    err2 = np.searchsorted(np.sort(s2), cands, side="right") / n  # P(s2 <= c)
    at = int(np.argmin(np.abs(err1 - err2)))
    rate = 0.5 * (err1[at] + err2[at])
    estimate = err1[at] + err2[at]
    std_error = float(np.sqrt(2.0 * rate * (1.0 - rate) / n))
    return MonteCarloOverlap(float(estimate), std_error)


@dataclass(frozen=True)
class OverlapReport:
    """Separation and overlap measures for one cluster pair."""

    i: int
    j: int
    q_lda: float
    alpha_lda: float
    alpha_c2c: float
    alpha_exact: float | None = None


def pairwise_overlaps(model, include_exact: bool = False) -> list[OverlapReport]:
    """All pairwise overlap reports for a mixture model."""
    centers = model.centers
    covs = model.covariances()
    k = len(model.clusters)
    q, _ = _checked_pair_separations(centers, covs)
    iu, ju = np.triu_indices(k, 1)
    reports = []
    for i, j, q_ij in zip(iu.tolist(), ju.tolist(), q.tolist()):
        alpha = float(2.0 * normal_sf(q_ij))
        a_c2c = c2c_overlap(centers[i], centers[j], covs[i], covs[j])
        a_exact = (
            exact_overlap_oracle(centers[i], centers[j], covs[i], covs[j])
            if include_exact
            else None
        )
        reports.append(OverlapReport(i, j, q_ij, alpha, a_c2c, a_exact))
    return reports


def overlap_report_rows(reports) -> list[str]:
    """CSV rows (with header) for a list of OverlapReport records."""
    rows = ["i,j,q_lda,alpha_lda,alpha_c2c,alpha_exact"]
    for r in reports:
        exact = "" if r.alpha_exact is None else f"{r.alpha_exact:.17g}"
        rows.append(
            f"{r.i},{r.j},{r.q_lda:.17g},{r.alpha_lda:.17g},{r.alpha_c2c:.17g},{exact}"
        )
    return rows
