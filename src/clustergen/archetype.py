"""Dataset archetypes and max-min sampling of per-cluster geometry.

An archetype bundles the high-level geometric parameters of a clustered
dataset (cluster count, dimensionality, shape/volume variability, overlap
bounds, class imbalance, distribution mix).  Concrete per-cluster values
are drawn by *max-min sampling*: the user fixes a reference value and the
allowed max/min ratio, and draws come out in conjugate pairs that satisfy
a location constraint exactly.  `_geometric_pairs` keeps the geometric
mean (aspect ratios, axis lengths); `_sum_pairs` keeps the sum (group
sizes, cluster volumes).

Stream contract: each sampler takes one triangular draw per pair, in pair
order, all from one `rng.triangular` call, and no draw at all when the
spread is 1, so an archetype with unit ratios leaves `rng` untouched.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from .distributions import SUPPORTED_FAMILIES
from .errors import ArchetypeValidationError
from .overlap import _MAX_CONDITION

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
        if not isinstance(data, dict):
            raise ArchetypeValidationError(
                [f"archetype must be a JSON object, got {type(data).__name__}"]
            )
        unknown = set(data) - set(_JSON_KEYS)
        if unknown:
            raise ArchetypeValidationError(
                [f"unknown key(s): {', '.join(sorted(unknown))}"]
            )
        missing = [key for key in ("name", "n_clusters") if key not in data]
        if missing:
            raise ArchetypeValidationError([f"missing key(s): {', '.join(missing)}"])
        return cls(**data).validated()

    @classmethod
    def from_json(cls, text: str) -> "Archetype":
        return cls.from_dict(json.loads(text))


_SCALE_RANGE = (1e-100, 1e100)  # placement's arithmetic stays finite inside it
# Largest aspect ratio a cluster may be drawn with: aspect² is its
# covariance's condition number, which overlap refuses above 1e12.
_ASPECT_MAX = math.sqrt(_MAX_CONDITION)  # exactly 1e6
# Largest n_clusters, dim or n_samples: every count up to it is exact in
# float64, so sizes drawn as floats still sum to n_samples.
_MAX_COUNT = 2**53


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    """A number that is finite as a float; an int too large for one is not."""
    try:
        return _is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


# An int with more digits than this is shown by its digit count: printing
# one of over 4300 digits raises ValueError (Python's int_max_str_digits).
_SHOWN_DIGITS = 30


def _shown(value) -> str:
    """repr of a field's value, or "an int of N digits" for a long int."""
    if not _is_int(value) or abs(value) < 10**_SHOWN_DIGITS:
        return repr(value)
    size = abs(value)
    exponent = int(math.log10(size))  # may be one off near a power of 10
    exponent += (size >= 10 ** (exponent + 1)) - (size < 10**exponent)
    return f"an int of {exponent + 1} digits"


def validate_archetype(a: Archetype) -> list[str]:
    """Collect human-readable violations; empty list means valid.

    Diagnostic only: junk-typed fields become violations, never exceptions.
    """
    v: list[str] = []
    if not isinstance(a.name, str) or not _IDENTIFIER_RE.match(a.name):
        v.append(f"name {_shown(a.name)} is not a valid identifier")
    if not _is_int(a.n_clusters) or a.n_clusters < 1:
        v.append(f"n_clusters must be a positive integer, got {_shown(a.n_clusters)}")
    if not _is_int(a.dim) or a.dim < 2:
        v.append(f"dim must be an integer >= 2, got {_shown(a.dim)}")
    if not _is_int(a.n_samples) or a.n_samples < 1:
        v.append(f"n_samples must be a positive integer, got {_shown(a.n_samples)}")
    elif _is_int(a.n_clusters) and a.n_samples < a.n_clusters <= _MAX_COUNT:
        v.append(f"n_samples={a.n_samples} cannot cover n_clusters={a.n_clusters}")
    for key in ("n_clusters", "dim", "n_samples"):
        value = getattr(a, key)
        if _is_int(value) and value > _MAX_COUNT:
            v.append(f"{key} must be at most 2**53 = {_MAX_COUNT}, got {_shown(value)}")
    if not _is_finite(a.aspect_ref) or not a.aspect_ref >= 1:
        v.append(f"aspect_ref must be finite and >= 1, got {_shown(a.aspect_ref)}")
    if not _is_finite(a.aspect_maxmin) or not a.aspect_maxmin >= 1:
        v.append(f"aspect_maxmin must be finite and >= 1, got {_shown(a.aspect_maxmin)}")
    if (
        _is_finite(a.aspect_ref)
        and _is_finite(a.aspect_maxmin)
        and a.aspect_ref >= 1
        and a.aspect_maxmin >= 1
        and a.aspect_ref * math.sqrt(a.aspect_maxmin) > _ASPECT_MAX
    ):
        v.append(
            f"aspect_ref·√aspect_maxmin, the largest aspect ratio drawn, must be at most "
            f"{_ASPECT_MAX:g}, got {a.aspect_ref * math.sqrt(a.aspect_maxmin)!r}"
        )
    if not _is_finite(a.radius_maxmin) or not a.radius_maxmin >= 1:
        v.append(f"radius_maxmin must be finite and >= 1, got {_shown(a.radius_maxmin)}")
    lo, hi = _SCALE_RANGE
    if not _is_number(a.scale) or not lo <= a.scale <= hi:
        v.append(f"scale must lie in [{lo:g}, {hi:g}], got {_shown(a.scale)}")
    if not _is_number(a.max_overlap) or not 0 < a.max_overlap < 1:
        v.append(f"max_overlap must lie in (0, 1), got {_shown(a.max_overlap)}")
    if not _is_number(a.min_overlap) or not 0 < a.min_overlap < 1:
        v.append(f"min_overlap must lie in (0, 1), got {_shown(a.min_overlap)}")
    if (
        _is_number(a.max_overlap)
        and _is_number(a.min_overlap)
        and not a.min_overlap < a.max_overlap
    ):
        v.append(
            f"min_overlap must be strictly below max_overlap "
            f"({_shown(a.min_overlap)} >= {_shown(a.max_overlap)})"
        )
    if not _is_finite(a.imbalance_ratio) or not a.imbalance_ratio >= 1:
        v.append(f"imbalance_ratio must be finite and >= 1, got {_shown(a.imbalance_ratio)}")
    if not isinstance(a.distributions, (tuple, list)) or not a.distributions:
        v.append("distributions must be a nonempty list of family names")
    else:
        for name in a.distributions:
            if name not in SUPPORTED_FAMILIES:
                v.append(f"unsupported distribution {_shown(name)}")
    if a.distribution_proportions is not None:
        props = a.distribution_proportions
        if not isinstance(props, (tuple, list)) or not all(_is_finite(p) for p in props):
            v.append("distribution_proportions must be a list of finite numbers")
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
                v.append(f"distribution_proportions sum to {_shown(sum(props))}, expected 1")
    return v


def _geometric_pairs(ref: float, ratio: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` values in pairs (ref*e^u, ref^2/(ref*e^u)), u triangular on ±ln(ratio)/2.

    Every pair has geometric mean ref, so the values do; an odd count ends
    with ref.  No draw is made when the spread is empty (ratio 1).
    """
    half_span = 0.5 * np.log(ratio)
    n = count // 2
    u = rng.triangular(-half_span, 0.0, half_span, size=n) if half_span > 0 else np.zeros(n)
    first = ref * np.exp(u)
    values = np.empty(count)
    values[0 : 2 * n : 2] = first
    values[1 : 2 * n : 2] = ref * ref / first
    values[2 * n :] = ref
    return values


def _sum_pairs(ref: float, e: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """`count` values in pairs (s, 2*ref - s), s triangular with mode ref on
    [2*ref*e/(1+e), 2*ref/(1+e)], where e = 1/M in (0, 1] for a max/min ratio M.

    Every pair sums to 2*ref, so the values average ref; an odd count ends
    with ref.  Neither bound forms M, so no ratio overflows.  No draw is
    made when the bounds meet.
    """
    lo, hi = 2.0 * ref * e / (1.0 + e), 2.0 * ref / (1.0 + e)
    n = count // 2
    s = rng.triangular(lo, ref, hi, size=n) if hi > lo else np.full(n, float(ref))
    values = np.empty(count)
    values[0 : 2 * n : 2] = s
    values[1 : 2 * n : 2] = 2.0 * ref - s
    values[2 * n :] = ref
    return values


def sample_group_sizes(a: Archetype, rng: np.random.Generator) -> np.ndarray:
    """Integer cluster sizes summing exactly to n_samples.

    Real-valued sizes are SUM pairs around n/k with the imbalance ratio as
    spread; flooring plus largest-fractional-part rounding preserves the
    total with at most one count of distortion.
    """
    k, n = a.n_clusters, a.n_samples
    if n < k:
        raise ValueError(f"n_samples={n} cannot cover n_clusters={k}")
    real = _sum_pairs(n / k, 1.0 / a.imbalance_ratio, k, rng)
    sizes = np.floor(real).astype(int)
    fractions = real - sizes
    shortfall = n - int(sizes.sum())
    if shortfall < 0:  # float rounding pushed a floor above its share
        sizes[np.argsort(-sizes, kind="stable")[:-shortfall]] -= 1
    else:
        sizes[np.argsort(-fractions, kind="stable")[:shortfall]] += 1
    # flooring can zero out a tiny cluster; pull counts from the largest
    while (sizes < 1).any():
        sizes[np.argmin(sizes)] += 1
        sizes[np.argmax(sizes)] -= 1
    return sizes


def sample_aspect_ratios(a: Archetype, rng: np.random.Generator) -> np.ndarray:
    """Per-cluster aspect ratios with geometric mean aspect_ref, all >= 1.

    Pairs around a reference close to 1 can dip below 1 when the spread
    allows it; the member below 1 clamps to 1 and its partner becomes the
    pair product, so the geometric mean is preserved.
    """
    values = _geometric_pairs(a.aspect_ref, a.aspect_maxmin, a.n_clusters, rng)
    pairs = values[: a.n_clusters // 2 * 2].reshape(-1, 2)  # a view into values
    rows = np.flatnonzero(pairs.min(axis=1) < 1.0)
    low = pairs[rows].argmin(axis=1)
    # the product is aspect_ref**2 >= 1 up to rounding, which at
    # aspect_ref = 1 can land one ulp below 1
    pairs[rows, 1 - low] = np.maximum(pairs[rows, 0] * pairs[rows, 1], 1.0)
    pairs[rows, low] = 1.0
    return values


def sample_cluster_radii(a: Archetype, rng: np.random.Generator) -> np.ndarray:
    """Per-cluster radii whose dim-th powers (volumes) average to scale^dim.

    Volumes relative to scale^dim are SUM pairs around 1 with spread
    M = radius_maxmin^dim, so they lie in (0, 2).  Their bounds 2/(1+M)
    and 2M/(1+M) are a logistic of t = dim*log(radius_maxmin), and
    radius = scale * volume^(1/dim), so neither M nor scale^dim is formed
    and no dim, scale or ratio overflows or underflows.
    """
    e = math.exp(-a.dim * math.log(a.radius_maxmin))  # 1/M, in (0, 1]
    volumes = _sum_pairs(1.0, e, a.n_clusters, rng)
    return a.scale * volumes ** (1.0 / a.dim)


def sample_axis_lengths(
    aspect: float, radius: float, dim: int, rng: np.random.Generator
) -> np.ndarray:
    """Principal-axis lengths: geometric mean = radius, max/min = aspect.

    The two extreme axes realize the aspect ratio exactly; any remaining
    axes fill in between as geometric-mean pairs at the same spread.
    Returned sorted descending.
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
        lengths[2:] = _geometric_pairs(radius, aspect, dim - 2, rng)
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
    counts[np.argsort(-fractions, kind="stable")[: k - int(counts.sum())]] += 1
    assigned = [name for name, c in zip(names, counts) for _ in range(c)]
    order = rng.permutation(k)
    return [assigned[i] for i in order]


_POISSON_HYPERPARAMS = ("n_clusters", "dim", "n_samples")
_MAX_ATTEMPTS = 10_000  # Poisson draws per hyperparameter before giving up


def sample_hyperparams(
    a: Archetype,
    n_variants: int,
    bounds: dict[str, tuple[int, int]] | None,
    rng: np.random.Generator,
) -> list[Archetype]:
    """Poisson-resample n_clusters/dim/n_samples around the originals.

    Each hyperparameter is redrawn from a Poisson centered on its current
    value and rejection-sampled into the caller's bounds and below 2**53, the
    validation cap; n_clusters is also kept at or below the n_samples
    maximum, and n_samples at or above the variant's n_clusters.
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

    def draw(key: str, floor: int, ceiling=np.inf) -> int:
        center = getattr(a, key)
        lo, hi = bounds.get(key, (floor, np.inf))
        lo, hi = max(lo, floor), min(hi, ceiling, _MAX_COUNT)
        for _ in range(_MAX_ATTEMPTS):
            value = int(rng.poisson(center))
            if lo <= value <= hi:
                return value
        raise ValueError(
            f"rejection sampling for {key} into [{lo}, {hi}] failed "
            f"after {_MAX_ATTEMPTS} attempts"
        )

    # a variant needs n_samples >= n_clusters, so n_clusters is capped at the
    # n_samples maximum; the capped range holds the n_clusters center, which
    # validation keeps at or below the n_samples center
    most_samples = bounds.get("n_samples", (0, np.inf))[1]
    variants = []
    for i in range(n_variants):
        resampled = {
            "n_clusters": draw("n_clusters", 1, most_samples),
            "dim": draw("dim", 2),
        }
        # drawn last and floored at the drawn n_clusters, so every variant
        # is valid and one that already covered its clusters is unchanged
        resampled["n_samples"] = draw("n_samples", resampled["n_clusters"])
        variants.append(replace(a, name=f"{a.name}_v{i + 1}", **resampled))
    return variants


def load_archetypes_jsonl(path) -> list[Archetype]:
    """Read one archetype per line; errors carry the offending line number.

    Names must be unique: a dataset's output file is named after its archetype.
    A file with no archetype (empty or blank lines only) is an error too.
    """
    out = []
    first_line: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                a = Archetype.from_json(line)
            except json.JSONDecodeError as exc:
                raise ArchetypeValidationError(
                    [f"{path}:{lineno}: cannot parse archetype JSON ({exc})"]
                ) from exc
            except ArchetypeValidationError as exc:
                raise ArchetypeValidationError(
                    [f"{path}:{lineno}: {v}" for v in exc.violations]
                ) from exc
            if a.name in first_line:
                taken = first_line[a.name]
                raise ArchetypeValidationError(
                    [f"{path}:{lineno}: name {a.name!r} is already taken by line {taken}"]
                )
            first_line[a.name] = lineno
            out.append(a)
    if not out:
        raise ArchetypeValidationError([f"{path}: holds no archetype"])
    return out
