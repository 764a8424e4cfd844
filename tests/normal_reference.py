"""mpmath references for the standard normal tail pair, and an ulp check.

The bounds the tests use are the conditioning of Φ once its argument has
been rounded: normal_sf evaluates erfc at the rounded x·√½, and a relative
error of half an ulp in the argument moves Φ(−x) by about x²/2 ulp.  So
the error may grow as x², and SciPy's `ndtr` meets the same bounds.  They
are checked only where the true value is a normal float: below that, the
spacing of subnormals is no longer relative, and SciPy's `ndtr` is off by
up to 4e12 ulp there.
"""

import mpmath
import numpy as np

from clustergen.stats import normal_isf

TINY = np.finfo(float).tiny
DIGITS = 40


def exact_cdf(t):
    """Φ(t) for the mpmath number or float t, to DIGITS significant digits."""
    with mpmath.workdps(DIGITS):
        return mpmath.ncdf(mpmath.mpf(t))


def exact_isf(p):
    """The x with P(Z > x) = p for the float p: Newton steps from normal_isf."""
    with mpmath.workdps(DIGITS):
        x = mpmath.mpf(float(normal_isf(p)))
        for _ in range(3):
            x += (mpmath.ncdf(-x) - p) / mpmath.npdf(x)
        return x


def ulps(got, exact):
    """|got − exact| in units of the last place of the float nearest `exact`."""
    with mpmath.workdps(DIGITS):
        ulp = mpmath.mpf(np.spacing(abs(float(exact))))
        return float(abs(mpmath.mpf(float(got)) - exact) / ulp)


def assert_within(got, exact, bounds):
    """Every error, in ulps, is within its bound where the true value is a normal float."""
    checked = [
        (ulps(g, e), b, i)
        for i, (g, e, b) in enumerate(zip(got, exact, bounds))
        if abs(e) >= TINY
    ]
    assert checked
    error, bound, index = max(checked, key=lambda c: c[0] / c[1])
    assert error <= bound, f"{error:.1f} ulp > bound {bound:.1f} at index {index}"
