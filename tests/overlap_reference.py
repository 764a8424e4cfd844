"""Scalar, one-pair-at-a-time overlap references the batched estimators are checked against.

Each function solves or evaluates one pair with plain NumPy, the direct
reading of the formulas in `clustergen.overlap`'s docstring.
"""

import numpy as np

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
