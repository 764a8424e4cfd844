"""Standard normal tail probability and its inverse, with accurate tails.

Overlap targets span roughly 1e-7 to 0.5, so tail probabilities must keep
full relative precision.  All tail math in the package therefore goes
through the survival-function pair (`normal_sf`, `normal_isf`) instead of
composing through probabilities near 1, where float64 resolution caps the
achievable accuracy at about 1e-8.

Both come from the standard library, so computing them loads no SciPy:
`normal_sf(x)` is 0.5·erfc(x·√½) from the C library's `erfc`, and
`normal_isf` is the negated `statistics.NormalDist.inv_cdf`, Wichura's
AS 241 (Applied Statistics 37, 1988).  Both map arrays elementwise, give
a float for a scalar, and keep SciPy's edge values: normal_sf(±inf) is
0 or 1, normal_isf(0) is +inf, normal_isf(1) is -inf, and NaN or a p
outside [0, 1] gives NaN.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_SQRT_HALF = math.sqrt(0.5)
_STANDARD = NormalDist()


def _sf(x: float) -> float:
    return 0.5 * math.erfc(x * _SQRT_HALF)


def _isf(p: float) -> float:
    # NaN first: an ordered comparison with NaN raises the invalid flag
    if math.isnan(p) or p < 0.0 or p > 1.0:
        return math.nan
    if p == 0.0:
        return math.inf
    if p == 1.0:
        return -math.inf
    return -_STANDARD.inv_cdf(p)


_sf_ufunc = np.frompyfunc(_sf, 1, 1)
_isf_ufunc = np.frompyfunc(_isf, 1, 1)


def normal_sf(x):
    """P(Z > x), computed with full relative precision for large x."""
    return np.asarray(_sf_ufunc(x), dtype=float)[()]


def normal_isf(p):
    """Inverse of `normal_sf`: the x with P(Z > x) = p."""
    return np.asarray(_isf_ufunc(p), dtype=float)[()]
