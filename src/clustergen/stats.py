"""Standard normal tail probability and its inverse, with accurate tails.

Overlap targets span roughly 1e-7 to 0.5, so tail probabilities must keep
full relative precision.  All tail math in the package therefore goes
through the survival-function pair (`normal_sf`, `normal_isf`) instead of
composing through probabilities near 1, where float64 resolution caps the
achievable accuracy at about 1e-8.
"""

from __future__ import annotations

import numpy as np
from scipy import special

def normal_sf(x):
    """P(Z > x), computed with full relative precision for large x."""
    return special.ndtr(np.negative(x))


def normal_isf(p):
    """Inverse of `normal_sf`: the x with P(Z > x) = p."""
    return -special.ndtri(p)
