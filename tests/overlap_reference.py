"""Scalar, one-pair-at-a-time overlap references the batched estimators are checked against.

Each function solves or evaluates one pair with plain NumPy, the direct
reading of the formulas in `clustergen.overlap`'s docstring, except
`exact_quantile_mp`, which runs `exact_quantile`'s search in 40-digit
mpmath, and `monte_carlo_overlap`, which estimates the overlap from sampled
points.  The two exact searches are an independent reference for the
package's bisection: a grid and golden-section search over
t in [logistic(-12), logistic(12)], so they miss a supremum that lies
closer than 6.1e-6 to an end of (0, 1).
"""

from dataclasses import dataclass

import mpmath
import numpy as np

from clustergen import mixture
from clustergen.overlap import lda_overlap
from clustergen.sampling import sample_cluster_points

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


def lda_axis(mu1, mu2, S1, S2) -> np.ndarray:
    """Solve ((S1+S2)/2) a = mu2 - mu1 without forming an inverse."""
    delta = _as_vector(mu2) - _as_vector(mu1)
    avg = 0.5 * (np.asarray(S1, dtype=float) + np.asarray(S2, dtype=float))
    if not np.any(delta):
        raise ValueError("cluster centers coincide; no separating axis exists")
    if np.linalg.cond(avg) > _MAX_CONDITION:
        raise ValueError("averaged covariance is numerically singular")
    return np.linalg.solve(avg, delta)


def c2c_quantile(mu1, mu2, S1, S2) -> float:
    """Separation along the center-difference axis."""
    return separation_quantile(mu1, mu2, S1, S2, _as_vector(mu2) - _as_vector(mu1))


def exact_quantile(mu1, mu2, S1, S2, tol=1e-6) -> float:
    """Largest separation over a(t) = (t*S1 + (1-t)*S2)^{-1} (mu2 - mu1), t in (0, 1).

    A 64-point grid, log-symmetric in t-odds, brackets the maximum, and
    golden-section search refines t to within `tol`.
    """
    delta = _as_vector(mu2) - _as_vector(mu1)
    S1, S2 = np.asarray(S1, dtype=float), np.asarray(S2, dtype=float)

    def q_of(t: float) -> float:
        axis = np.linalg.solve(t * S1 + (1.0 - t) * S2, delta)
        return separation_quantile(mu1, mu2, S1, S2, axis)

    grid = 1.0 / (1.0 + np.exp(-np.linspace(-12.0, 12.0, 64)))
    values = np.array([q_of(t) for t in grid])
    best = int(np.argmax(values))
    a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
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
    return max(f1, f2, values[best], q_of(0.5))


def exact_quantile_mp(mu1, mu2, S1, S2, digits=40, tol=1e-12) -> float:
    """`exact_quantile` of the float inputs, each step solved to `digits` digits.

    The grid brackets the maximum as there, and golden-section search
    narrows the bracket to `tol`.
    """
    with mpmath.workdps(digits):
        delta = mpmath.matrix((_as_vector(mu2) - _as_vector(mu1)).tolist())
        S1, S2 = mpmath.matrix(np.asarray(S1).tolist()), mpmath.matrix(np.asarray(S2).tolist())

        def q_of(t):
            axis = mpmath.lu_solve(t * S1 + (1 - t) * S2, delta)
            var1 = (axis.T * S1 * axis)[0]
            var2 = (axis.T * S2 * axis)[0]
            return (axis.T * delta)[0] / (mpmath.sqrt(var1) + mpmath.sqrt(var2))

        grid = [1 / (1 + mpmath.exp(-x)) for x in mpmath.linspace(-12, 12, 64)]
        values = [q_of(t) for t in grid]
        best = max(range(len(grid)), key=values.__getitem__)
        a, b = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
        golden = (mpmath.sqrt(5) - 1) / 2
        x1, x2 = b - golden * (b - a), a + golden * (b - a)
        f1, f2 = q_of(x1), q_of(x2)
        while b - a > tol:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + golden * (b - a)
                f2 = q_of(x2)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - golden * (b - a)
                f1 = q_of(x1)
        return float(max(f1, f2, values[best]))


@dataclass(frozen=True)
class MonteCarloOverlap:
    estimate: float
    std_error: float


def monte_carlo_overlap(c1, c2, n: int, rng: np.random.Generator) -> MonteCarloOverlap:
    """Empirical minimax overlap between two sampled clusters.

    Draws n points per cluster, projects onto the LDA axis of the model
    covariances (refusing what the package's estimators refuse), picks the
    threshold equalizing the two empirical error rates, and returns twice
    that rate with a binomial standard error.
    """
    centers = [c1.center, c2.center]
    covs = [mixture.covariance_of(c1), mixture.covariance_of(c2)]
    lda_overlap(*centers, *covs)  # refuses what every estimator refuses
    axis = lda_axis(*centers, *covs)
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
