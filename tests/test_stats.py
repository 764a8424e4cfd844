"""The standard normal tail pair against mpmath.

`normal_reference` explains the bounds: (4 + 2x²) ulp for normal_sf and
8 ulp for normal_isf.
"""

import math

import numpy as np
import pytest
from normal_reference import assert_within, exact_cdf, exact_isf

from clustergen.placement import OverlapBounds
from clustergen.stats import normal_isf, normal_sf


@pytest.mark.parametrize("seed", [0, 1])
def test_normal_sf_within_conditioning_bound(seed):
    x = np.random.default_rng(seed).uniform(-38.0, 38.0, 3000)
    assert_within(normal_sf(x), [exact_cdf(-v) for v in x], 4.0 + 2.0 * x**2)


def test_normal_isf_within_8_ulp():
    p = np.logspace(math.log10(5e-324), math.log10(0.5), 3000)
    assert p[0] > 0.0
    assert_within(normal_isf(p), [exact_isf(v) for v in p], np.full(p.size, 8.0))


class TestEdgeValues:
    def test_sf_at_infinities_and_nan(self):
        assert normal_sf(math.inf) == 0.0
        assert normal_sf(-math.inf) == 1.0
        assert math.isnan(normal_sf(math.nan))
        assert normal_sf(0.0) == 0.5

    def test_isf_at_zero_half_one_and_nan(self):
        assert normal_isf(0.0) == math.inf
        assert normal_isf(0.5) == 0.0
        assert normal_isf(1.0) == -math.inf
        for p in (math.nan, -0.1, 1.5):
            assert math.isnan(normal_isf(p))

    def test_scalar_gives_float_and_array_keeps_shape(self):
        assert isinstance(normal_sf(1.0), float)
        assert isinstance(normal_isf(0.1), float)
        values = normal_isf(np.array([[0.0, 0.5], [math.nan, 0.25]]))
        assert values.shape == (2, 2) and values.dtype == float
        assert values[0, 0] == math.inf and values[0, 1] == 0.0 and math.isnan(values[1, 0])

    def test_smallest_min_overlap_gives_infinite_q_max(self):
        # 5e-324 / 2 rounds to 0, whose quantile is +inf, not an error
        bounds = OverlapBounds.from_overlaps(0.05, 5e-324)
        assert bounds.q_max == math.inf
        assert bounds.q_min == pytest.approx(1.959963984540054, rel=1e-15)
