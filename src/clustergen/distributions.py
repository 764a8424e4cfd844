"""Radial distribution catalogue with 68.2%-quantile normalization.

Every supported family is rescaled so that the 68.2% quantile of its
absolute value equals 1, putting all families on the spread scale of the
standard normal (P(|N(0,1)| <= 1) ~ 0.682).  Each family's parameters are
fixed, so its normalization constant is a float literal: the smallest
float q with P(|X| <= q) >= 0.682 under the family's CDF at those
parameters.  `tests/test_sampling.py` checks every literal against an
independent implementation of that CDF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# name -> (fixed parameters, normalization constant, sampler(rng, size));
# to_dict writes the parameters, so their values stay floats
_FAMILIES = {
    "normal": ({}, 0.9985762706156598, lambda rng, size: rng.standard_normal(size)),
    "lognormal": (
        {"sigma": 0.75},
        1.426143743883611,
        lambda rng, size: rng.lognormal(mean=0.0, sigma=0.75, size=size),
    ),
    "exponential": (
        {"rate": 1.0},
        1.1457038962019603,
        lambda rng, size: rng.exponential(scale=1.0, size=size),
    ),
    "standard_t": (
        {"df": 5.0},
        1.1087487119679544,
        lambda rng, size: rng.standard_t(df=5.0, size=size),
    ),
    "gamma": (
        {"shape": 2.0},
        2.3566462241096136,
        lambda rng, size: rng.gamma(shape=2.0, size=size),
    ),
    "chisquare": (
        {"df": 4.0},
        4.713292448219227,
        lambda rng, size: rng.chisquare(df=4.0, size=size),
    ),
    "weibull": (
        {"shape": 1.5},
        1.0949179946711405,
        lambda rng, size: rng.weibull(a=1.5, size=size),
    ),
    "gumbel": (
        {"scale": 1.0},
        1.138860719981262,
        lambda rng, size: rng.gumbel(scale=1.0, size=size),
    ),
    "f": (
        {"dfnum": 5.0, "dfden": 10.0},
        1.356334260863724,
        lambda rng, size: rng.f(dfnum=5.0, dfden=10.0, size=size),
    ),
    "pareto": (
        {"shape": 3.0},
        1.4650674739819487,
        # numpy's pareto is the Lomax form; +1 shifts to classical Pareto (support >= 1)
        lambda rng, size: 1.0 + rng.pareto(a=3.0, size=size),
    ),
    "beta": (
        {"a": 2.0, "b": 2.0},
        0.6238673488127151,
        lambda rng, size: rng.beta(a=2.0, b=2.0, size=size),
    ),
    "uniform": ({}, 0.682, lambda rng, size: rng.uniform(0.0, 1.0, size=size)),
}

SUPPORTED_FAMILIES = tuple(_FAMILIES)


@dataclass(frozen=True)
class RadialDistribution:
    """A normalized scalar distribution driving a cluster's radial spread."""

    name: str

    def __post_init__(self):
        if self.name not in _FAMILIES:
            raise ValueError(f"unsupported distribution family {self.name!r}")

    @property
    def params(self) -> dict:
        return dict(_FAMILIES[self.name][0])

    @property
    def norm_constant(self) -> float:
        return _FAMILIES[self.name][1]

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """|X| / q_0.682 draws."""
        _, norm_constant, sample = _FAMILIES[self.name]
        return np.abs(sample(rng, size)) / norm_constant

    def to_dict(self) -> dict:
        return {"name": self.name, "params": self.params}

    @classmethod
    def from_dict(cls, data: dict) -> "RadialDistribution":
        """Inverse of `to_dict`; `params`, when given, must equal the family's fixed ones."""
        distribution = cls(data["name"])
        params = data.get("params")
        if params is not None and params != distribution.params:
            raise ValueError(
                f"distribution family {distribution.name!r} has the fixed parameters "
                f"{distribution.params}, got {params}"
            )
        return distribution
