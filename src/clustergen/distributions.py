"""Radial distribution catalog with 68.2%-quantile normalization.

Every supported family is rescaled so that the 68.2% quantile of its
absolute value equals 1, putting all families on the spread scale of the
standard normal (P(|N(0,1)| <= 1) ~ 0.682).  Each family's CDF is written
in closed form: normal and lognormal through `stats.normal_sf`, exponential
and Weibull through `np.expm1`, and gumbel, pareto and uniform from
elementary functions.  Only standard_t, gamma, chisquare, f and beta need
a special function (stdtr, gammainc, chdtr, fdtr, betainc, as in SciPy's
distribution objects).  They import `scipy.special` inside their CDF, so a
run that uses none of those five never pays SciPy's import, about half of
a cold start.  The normalization constant is found by bisection on the
CDF down to adjacent floats and cached per parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .stats import normal_sf

TARGET_MASS = 0.682


def _special():
    """scipy.special, imported by the first CDF call that needs it."""
    from scipy import special

    return special


def _positive(params: dict, key: str) -> float:
    value = float(params[key])
    if not value > 0:
        raise ValueError(f"parameter {key!r} must be positive, got {value}")
    return value


def _zero_up_to(edge, formula):
    """A CDF that is 0 for x <= edge and formula(x, params) above it.

    The formula only sees x inside the support, so log(0) and 0**-b are
    never evaluated."""

    def cdf(x, params):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        inside = x > edge
        out[inside] = formula(x[inside], params)
        return out[()]

    return cdf


class _Family:
    """CDF + sampler pair under one parameterization."""

    def __init__(self, name, defaults, cdf, sampler, signed):
        self.name = name
        self.defaults = dict(defaults)
        self.cdf = cdf  # (x, params) -> P(X <= x)
        self._sampler = sampler  # (rng, size, params) -> draws
        self.signed = signed

    def resolve(self, params: dict | None) -> dict:
        merged = dict(self.defaults)
        unknown = set(params or {}) - set(self.defaults)
        if unknown:
            raise ValueError(
                f"unknown parameter(s) for {self.name!r}: {sorted(unknown)}"
            )
        merged.update(params or {})
        return merged

    def sample(self, rng, size, params):
        return self._sampler(rng, size, params)


_FAMILIES: dict[str, _Family] = {}


def _register(name, defaults, cdf, sampler, signed):
    _FAMILIES[name] = _Family(name, defaults, cdf, sampler, signed)


_register(
    "normal",
    {},
    lambda x, p: normal_sf(np.negative(x)),
    lambda rng, size, p: rng.standard_normal(size),
    signed=True,
)
_register(
    "lognormal",
    {"sigma": 0.75},
    _zero_up_to(0.0, lambda x, p: normal_sf(-(np.log(x) / _positive(p, "sigma")))),
    lambda rng, size, p: rng.lognormal(mean=0.0, sigma=_positive(p, "sigma"), size=size),
    signed=False,
)
_register(
    "exponential",
    {"rate": 1.0},
    # x / (1/rate), not x * rate, to round as SciPy's expon(scale=1/rate) does
    _zero_up_to(0.0, lambda x, p: -np.expm1(-(x / (1.0 / _positive(p, "rate"))))),
    lambda rng, size, p: rng.exponential(scale=1.0 / _positive(p, "rate"), size=size),
    signed=False,
)
_register(
    "standard_t",
    {"df": 5.0},
    lambda x, p: _special().stdtr(_positive(p, "df"), x),
    lambda rng, size, p: rng.standard_t(df=_positive(p, "df"), size=size),
    signed=True,
)
_register(
    "gamma",
    {"shape": 2.0},
    _zero_up_to(0.0, lambda x, p: _special().gammainc(_positive(p, "shape"), x)),
    lambda rng, size, p: rng.gamma(shape=_positive(p, "shape"), size=size),
    signed=False,
)
_register(
    "chisquare",
    {"df": 4.0},
    _zero_up_to(0.0, lambda x, p: _special().chdtr(_positive(p, "df"), x)),
    lambda rng, size, p: rng.chisquare(df=_positive(p, "df"), size=size),
    signed=False,
)
_register(
    "weibull",
    {"shape": 1.5},
    _zero_up_to(0.0, lambda x, p: -np.expm1(-np.power(x, _positive(p, "shape")))),
    lambda rng, size, p: rng.weibull(a=_positive(p, "shape"), size=size),
    signed=False,
)
_register(
    "gumbel",
    {"scale": 1.0},
    lambda x, p: np.exp(-np.exp(-(x / _positive(p, "scale")))),
    lambda rng, size, p: rng.gumbel(scale=_positive(p, "scale"), size=size),
    signed=True,
)
_register(
    "f",
    {"dfnum": 5.0, "dfden": 10.0},
    _zero_up_to(
        0.0, lambda x, p: _special().fdtr(_positive(p, "dfnum"), _positive(p, "dfden"), x)
    ),
    lambda rng, size, p: rng.f(
        dfnum=_positive(p, "dfnum"), dfden=_positive(p, "dfden"), size=size
    ),
    signed=False,
)
_register(
    "pareto",
    {"shape": 3.0},
    _zero_up_to(1.0, lambda x, p: 1.0 - np.power(x, -_positive(p, "shape"))),
    # numpy's pareto is the Lomax form; +1 shifts to classical Pareto (support >= 1)
    lambda rng, size, p: 1.0 + rng.pareto(a=_positive(p, "shape"), size=size),
    signed=False,
)
_register(
    "beta",
    {"a": 2.0, "b": 2.0},
    _zero_up_to(
        0.0,
        lambda x, p: _special().betainc(_positive(p, "a"), _positive(p, "b"), np.minimum(x, 1.0)),
    ),
    lambda rng, size, p: rng.beta(a=_positive(p, "a"), b=_positive(p, "b"), size=size),
    signed=False,
)
_register(
    "uniform",
    {},
    _zero_up_to(0.0, lambda x, p: np.minimum(x, 1.0)),
    lambda rng, size, p: rng.uniform(0.0, 1.0, size=size),
    signed=False,
)

SUPPORTED_FAMILIES = tuple(_FAMILIES)

_norm_constant_cache: dict[tuple, float] = {}


def normalization_constant(name: str, params: dict | None = None) -> float:
    """The smallest float q with P(|X| <= q) >= 0.682, found by bisection on the CDF."""
    family = _FAMILIES.get(name)
    if family is None:
        raise ValueError(f"unsupported distribution family {name!r}")
    params = family.resolve(params)
    key = (name, tuple(sorted(params.items())))
    cached = _norm_constant_cache.get(key)
    if cached is not None:
        return cached

    def absolute_mass(q):
        if family.signed:
            return family.cdf(q, params) - family.cdf(-q, params)
        return family.cdf(q, params)

    hi = 1.0
    while absolute_mass(hi) < TARGET_MASS:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError(f"cannot bracket the {name!r} normalization constant")
    # absolute_mass(lo) < TARGET_MASS <= absolute_mass(hi) throughout; stop
    # when lo and hi are adjacent floats, so hi is the smallest float whose
    # mass reaches the target
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if absolute_mass(mid) < TARGET_MASS:
            lo = mid
        else:
            hi = mid
    _norm_constant_cache[key] = hi
    return hi


@dataclass(frozen=True)
class RadialDistribution:
    """A normalized scalar distribution driving a cluster's radial spread."""

    name: str
    params: dict = field(default_factory=dict)
    norm_constant: float = 0.0

    @classmethod
    def create(cls, name: str, params: dict | None = None) -> "RadialDistribution":
        family = _FAMILIES.get(name)
        if family is None:
            raise ValueError(f"unsupported distribution family {name!r}")
        resolved = family.resolve(params)
        return cls(name, resolved, normalization_constant(name, resolved))

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """|X| / q_0.682 draws."""
        raw = _FAMILIES[self.name].sample(rng, size, self.params)
        return np.abs(raw) / self.norm_constant

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, data: dict) -> "RadialDistribution":
        return cls.create(data["name"], data.get("params"))
