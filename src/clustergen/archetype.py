"""Dataset archetypes and max-min sampling of per-cluster geometry.

An archetype bundles the high-level geometric parameters of a clustered
dataset (cluster count, dimensionality, shape/volume variability, overlap
bounds, class imbalance, distribution mix).  Concrete per-cluster values
are drawn by *max-min sampling*: the user fixes a reference value and the
allowed max/min ratio, and draws come out in conjugate pairs that satisfy
a location constraint (geometric mean or sum) exactly.
"""

from __future__ import annotations

import enum
import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .distributions import SUPPORTED_FAMILIES
from .errors import ArchetypeValidationError

_IDENTIFIER_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

# canonical key order for JSON round-trips
_JSON_KEYS = (
    "n_clusters",
    "dim",
    "n_samples",
    "aspect_ref",
    "aspect_maxmin",
    "radius_maxmin",
    "max_overlap",
    "min_overlap",
    "imbalance_ratio",
    "distributions",
    "distribution_proportions",
    "name",
    "scale",
)


@dataclass(frozen=True)
class Archetype:
    """High-level geometric description of a clustered dataset.

    `n_samples=None` resolves to 100 points per cluster.  All other
    defaults describe balanced unit-scale spherical normal clusters with
    little overlap.
    """

    name: str
    n_clusters: int
    dim: int = 2
    n_samples: int | None = None
    aspect_ref: float = 1.0
    aspect_maxmin: float = 1.0
    radius_maxmin: float = 1.0
    scale: float = 1.0
    max_overlap: float = 0.05
    min_overlap: float = 0.001
    imbalance_ratio: float = 1.0
    distributions: tuple[str, ...] = ("normal",)
    distribution_proportions: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.n_samples is None and isinstance(self.n_clusters, int):
            object.__setattr__(self, "n_samples", 100 * self.n_clusters)
        if isinstance(self.distributions, list):
            object.__setattr__(self, "distributions", tuple(self.distributions))
        if isinstance(self.distribution_proportions, list):
            object.__setattr__(
                self, "distribution_proportions", tuple(self.distribution_proportions)
            )

    def validated(self) -> "Archetype":
        """Return self, raising ArchetypeValidationError on any violation."""
        violations = validate_archetype(self)
        if violations:
            raise ArchetypeValidationError(violations)
        return self

    def to_dict(self) -> dict:
        out: dict = {}
        for key in _JSON_KEYS:
            value = getattr(self, key)
            if value is None and key == "distribution_proportions":
                continue
            if isinstance(value, tuple):
                value = list(value)
            out[key] = value
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "Archetype":
        unknown = set(data) - set(_JSON_KEYS)
        if unknown:
            raise ArchetypeValidationError(
                [f"unknown key(s): {', '.join(sorted(unknown))}"]
            )
        return cls(**data).validated()

    @classmethod
    def from_json(cls, text: str) -> "Archetype":
        return cls.from_dict(json.loads(text))


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_archetype(a: Archetype) -> list[str]:
    """Collect human-readable violations; empty list means valid.

    Diagnostic only: junk-typed fields become violations, never exceptions.
    """
    v: list[str] = []
    if not isinstance(a.name, str) or not _IDENTIFIER_RE.match(a.name):
        v.append(f"name {a.name!r} is not a valid identifier")
    if not (isinstance(a.n_clusters, int) and not isinstance(a.n_clusters, bool)) or a.n_clusters < 1:
        v.append(f"n_clusters must be a positive integer, got {a.n_clusters!r}")
    if not (isinstance(a.dim, int) and not isinstance(a.dim, bool)) or a.dim < 2:
        v.append(f"dim must be an integer >= 2, got {a.dim!r}")
    if not (isinstance(a.n_samples, int) and not isinstance(a.n_samples, bool)) or a.n_samples < 1:
        v.append(f"n_samples must be a positive integer, got {a.n_samples!r}")
    if not _is_number(a.aspect_ref) or not a.aspect_ref >= 1:
        v.append(f"aspect_ref must be >= 1, got {a.aspect_ref!r}")
    if not _is_number(a.aspect_maxmin) or not a.aspect_maxmin >= 1:
        v.append(f"aspect_maxmin must be >= 1, got {a.aspect_maxmin!r}")
    if not _is_number(a.radius_maxmin) or not a.radius_maxmin >= 1:
        v.append(f"radius_maxmin must be >= 1, got {a.radius_maxmin!r}")
    if not _is_number(a.scale) or not a.scale > 0:
        v.append(f"scale must be positive, got {a.scale!r}")
    if not _is_number(a.max_overlap) or not 0 < a.max_overlap < 1:
        v.append(f"max_overlap must lie in (0, 1), got {a.max_overlap!r}")
    if not _is_number(a.min_overlap) or not 0 < a.min_overlap < 1:
        v.append(f"min_overlap must lie in (0, 1), got {a.min_overlap!r}")
    if (
        _is_number(a.max_overlap)
        and _is_number(a.min_overlap)
        and not a.min_overlap < a.max_overlap
    ):
        v.append(
            f"min_overlap must be strictly below max_overlap "
            f"({a.min_overlap!r} >= {a.max_overlap!r})"
        )
    if not _is_number(a.imbalance_ratio) or not a.imbalance_ratio >= 1:
        v.append(f"imbalance_ratio must be >= 1, got {a.imbalance_ratio!r}")
    if not isinstance(a.distributions, (tuple, list)) or not a.distributions:
        v.append("distributions must be a nonempty list of family names")
    else:
        for name in a.distributions:
            if name not in SUPPORTED_FAMILIES:
                v.append(f"unsupported distribution {name!r}")
    if a.distribution_proportions is not None:
        props = a.distribution_proportions
        if not isinstance(props, (tuple, list)) or not all(_is_number(p) for p in props):
            v.append("distribution_proportions must be a list of numbers")
        else:
            if isinstance(a.distributions, (tuple, list)) and len(props) != len(
                a.distributions
            ):
                v.append(
                    f"distribution_proportions has {len(props)} entries for "
                    f"{len(a.distributions)} distributions"
                )
            if any(p < 0 for p in props):
                v.append("distribution_proportions entries must be nonnegative")
            elif abs(sum(props) - 1.0) > 1e-9:
                v.append(f"distribution_proportions sum to {sum(props)!r}, expected 1")
    return v


class ConstraintKind(enum.Enum):
    GEOMETRIC_MEAN = "geometric_mean"
    SUM = "sum"


@dataclass(frozen=True)
class MaxMinSpec:
    """One max-min sampling task: a location constraint plus a spread bound."""

    ref_value: float
    maxmin_ratio: float
    constraint_kind: ConstraintKind
    count: int

    def __post_init__(self):
        if self.ref_value <= 0:
            raise ValueError(f"ref_value must be positive, got {self.ref_value}")
        if self.maxmin_ratio < 1:
            raise ValueError(f"maxmin_ratio must be >= 1, got {self.maxmin_ratio}")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")


def _triangular(rng: np.random.Generator, lo: float, mode: float, hi: float) -> float:
    if hi <= lo:  # degenerate spread (ratio == 1)
        return mode
    return rng.triangular(lo, mode, hi)


def maxmin_sample(spec: MaxMinSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw `count` positive values meeting the location and ratio constraints.

    Values come out in conjugate pairs.  For GEOMETRIC_MEAN each pair is
    (ref*e^u, ref*e^-u) with u triangular on [-ln(M)/2, ln(M)/2]; for SUM
    each pair is (s, 2*ref - s) with s triangular on
    [2*ref/(1+M), 2*ref*M/(1+M)].  Odd counts append the reference itself,
    so the constraint holds exactly for any count.
    """
    ref, M, count = spec.ref_value, spec.maxmin_ratio, spec.count
    values = np.empty(count)
    n_pairs = count // 2
    if spec.constraint_kind is ConstraintKind.GEOMETRIC_MEAN:
        half_span = 0.5 * np.log(M)
        for p in range(n_pairs):
            u = _triangular(rng, -half_span, 0.0, half_span)
            first = ref * np.exp(u)
            values[2 * p] = first
            values[2 * p + 1] = ref * ref / first
    else:
        lo = 2.0 * ref / (1.0 + M)
        hi = 2.0 * ref * M / (1.0 + M)
        _sum_pairs(rng, ref, lo, hi, values)
    if count % 2:
        values[-1] = ref
    return values


def _sum_pairs(rng: np.random.Generator, ref: float, lo: float, hi: float, values) -> None:
    """Fill `values` with SUM-constrained conjugate pairs (s, 2*ref - s).

    s is triangular on [lo, hi] with mode ref; an odd last slot is left as is.
    """
    for p in range(len(values) // 2):
        s = _triangular(rng, lo, ref, hi)
        values[2 * p] = s
        values[2 * p + 1] = 2.0 * ref - s


def sample_group_sizes(a: Archetype, rng: np.random.Generator) -> np.ndarray:
    """Integer cluster sizes summing exactly to n_samples.

    Real-valued sizes come from SUM-constrained max-min sampling with the
    imbalance ratio as spread; flooring plus largest-fractional-part
    rounding preserves the total with at most one count of distortion.
    """
    k, n = a.n_clusters, a.n_samples
    if n < k:
        raise ValueError(f"n_samples={n} cannot cover n_clusters={k}")
    spec = MaxMinSpec(n / k, a.imbalance_ratio, ConstraintKind.SUM, k)
    real = maxmin_sample(spec, rng)
    sizes = np.floor(real).astype(int)
    fractions = real - sizes
    shortfall = n - int(sizes.sum())
    if shortfall < 0:  # float rounding pushed a floor above its share
        for idx in np.argsort(-sizes, kind="stable")[: -shortfall]:
            sizes[idx] -= 1
    else:
        for idx in np.argsort(-fractions, kind="stable")[:shortfall]:
            sizes[idx] += 1
    # flooring can zero out a tiny cluster; pull counts from the largest
    while (sizes < 1).any():
        sizes[np.argmin(sizes)] += 1
        sizes[np.argmax(sizes)] -= 1
    return sizes


def sample_aspect_ratios(a: Archetype, rng: np.random.Generator) -> np.ndarray:
    """Per-cluster aspect ratios with geometric mean aspect_ref, all >= 1.

    Pairs around a reference close to 1 can dip below 1 when the spread
    allows it; those values clamp to 1 with the conjugate partner rescaled
    so the pair product (and hence the geometric mean) is preserved.
    """
    spec = MaxMinSpec(
        a.aspect_ref, a.aspect_maxmin, ConstraintKind.GEOMETRIC_MEAN, a.n_clusters
    )
    values = maxmin_sample(spec, rng)
    for p in range(a.n_clusters // 2):
        i, j = 2 * p, 2 * p + 1
        if values[i] < 1.0:
            i, j = j, i
        if values[j] < 1.0:
            # the product is aspect_ref**2 >= 1 up to rounding, which at
            # aspect_ref = 1 can land one ulp below 1
            values[i] = max(values[i] * values[j], 1.0)
            values[j] = 1.0
    return values


def sample_cluster_radii(a: Archetype, rng: np.random.Generator) -> np.ndarray:
    """Per-cluster radii whose dim-th powers (volumes) average to scale^dim.

    Volumes relative to scale^dim are SUM-constrained max-min draws around 1
    with spread M = radius_maxmin^dim, so they lie in (0, 2).  Their bounds
    2/(1+M) and 2M/(1+M) are a logistic of t = dim*log(radius_maxmin), and
    radius = scale * volume^(1/dim), so neither M nor scale^dim is formed
    and no dim, scale or ratio overflows or underflows.
    """
    e = math.exp(-a.dim * math.log(a.radius_maxmin))  # 1/M, in (0, 1]
    volumes = np.ones(a.n_clusters)
    _sum_pairs(rng, 1.0, 2.0 * e / (1.0 + e), 2.0 / (1.0 + e), volumes)
    return a.scale * volumes ** (1.0 / a.dim)


def sample_axis_lengths(
    aspect: float, radius: float, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Principal-axis lengths: geometric mean = radius, max/min = aspect.

    The two extreme axes realize the aspect ratio exactly; any remaining
    axes fill in between via geometric-mean max-min sampling at the same
    spread.  Returned sorted descending.
    """
    if aspect < 1:
        raise ValueError(f"aspect must be >= 1, got {aspect}")
    if radius <= 0:
        raise ValueError(f"radius must be positive, got {radius}")
    sqrt_aspect = np.sqrt(aspect)
    lengths = np.empty(dim)
    lengths[0] = radius * sqrt_aspect
    lengths[1] = radius / sqrt_aspect
    if dim > 2:
        spec = MaxMinSpec(radius, aspect, ConstraintKind.GEOMETRIC_MEAN, dim - 2)
        lengths[2:] = maxmin_sample(spec, rng)
    return np.sort(lengths)[::-1]


def assign_distributions(a: Archetype, rng: np.random.Generator) -> list[str]:
    """Assign a distribution family to each cluster.

    Counts per family follow the proportions (uniform when absent) with
    the remainder resolved by largest fractional part, ties broken by
    listing order; only the assignment order is random.
    """
    k = a.n_clusters
    names = list(a.distributions)
    if a.distribution_proportions is None:
        props = np.full(len(names), 1.0 / len(names))
    else:
        props = np.asarray(a.distribution_proportions, dtype=float)
    ideal = props * k
    counts = np.floor(ideal).astype(int)
    fractions = ideal - counts
    for idx in np.argsort(-fractions, kind="stable")[: k - int(counts.sum())]:
        counts[idx] += 1
    assigned = [name for name, c in zip(names, counts) for _ in range(c)]
    order = rng.permutation(k)
    return [assigned[i] for i in order]


_POISSON_HYPERPARAMS = ("n_clusters", "dim", "n_samples")
_STRUCTURAL_FLOORS = {"n_clusters": 1, "dim": 2, "n_samples": 1}
_MAX_ATTEMPTS = 10_000  # Poisson draws per hyperparameter before giving up


def sample_hyperparams(
    a: Archetype,
    n_variants: int,
    bounds: dict[str, tuple[int, int]] | None,
    rng: np.random.Generator,
) -> list[Archetype]:
    """Poisson-resample n_clusters/dim/n_samples around the originals.

    Each hyperparameter is redrawn independently from a Poisson centered
    on its current value and rejection-sampled into the caller's bounds.
    """
    if bounds is not None and not isinstance(bounds, dict):
        raise ValueError(f"bounds must map hyperparameter names to [min, max], got {bounds!r}")
    bounds = dict(bounds or {})
    unknown = set(bounds) - set(_POISSON_HYPERPARAMS)
    if unknown:
        raise ValueError(f"bounds given for unknown hyperparameter(s): {sorted(unknown)}")
    for key, pair in bounds.items():
        if not (
            isinstance(pair, (list, tuple)) and len(pair) == 2 and all(map(_is_number, pair))
        ):
            raise ValueError(f"{key} bounds must be a [min, max] pair of numbers, got {pair!r}")
        lo, hi = pair
        center = getattr(a, key)
        if lo > hi:
            raise ValueError(f"{key} bounds inverted: min {lo} > max {hi}")
        if not lo <= center <= hi:
            raise ValueError(
                f"{key} bounds [{lo}, {hi}] do not contain the center {center}"
            )

    def draw(key: str) -> int:
        center = getattr(a, key)
        lo, hi = bounds.get(key, (None, None))
        lo = max(lo if lo is not None else _STRUCTURAL_FLOORS[key], _STRUCTURAL_FLOORS[key])
        hi = hi if hi is not None else np.inf
        for _ in range(_MAX_ATTEMPTS):
            value = int(rng.poisson(center))
            if lo <= value <= hi:
                return value
        raise ValueError(
            f"rejection sampling for {key} failed after {_MAX_ATTEMPTS} attempts"
        )

    variants = []
    for i in range(n_variants):
        resampled = {key: draw(key) for key in _POISSON_HYPERPARAMS}
        variants.append(replace(a, name=f"{a.name}_v{i + 1}", **resampled))
    return variants


def load_archetypes_jsonl(path) -> list[Archetype]:
    """Read one archetype per line; errors carry the offending line number."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(Archetype.from_json(line))
            except (json.JSONDecodeError, TypeError) as exc:
                raise ArchetypeValidationError(
                    [f"{path}:{lineno}: cannot parse archetype JSON ({exc})"]
                ) from exc
            except ArchetypeValidationError as exc:
                raise ArchetypeValidationError(
                    [f"{path}:{lineno}: {v}" for v in exc.violations]
                ) from exc
    return out
