import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from normal_reference import DIGITS, ulps
from scipy import stats as sps

import clustergen
from clustergen.archetype import Archetype
from clustergen.distributions import SUPPORTED_FAMILIES, RadialDistribution
from clustergen.mixture import Cluster, sample_mixture_model
from clustergen.sampling import (
    _CSV_BLOCK_VALUES,
    Dataset,
    dataset_from_csv,
    dataset_to_csv,
    sample_cluster_points,
    sample_dataset,
)

FIXTURES = Path(__file__).parent / "fixtures"
# every family is scaled so that P(|X| <= 1) reaches this mass
TARGET_MASS = 0.682


def make_cluster(family="normal", sigma=(1.0, 1.0), axes=None, center=None):
    sigma = np.asarray(sigma, dtype=float)
    dim = sigma.size
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    return Cluster(
        center=center,
        axes=np.eye(dim) if axes is None else axes,
        axis_lengths=sigma,
        radial_distribution=RadialDistribution(family),
    )


# scipy.stats as a test-only oracle, built from each family's fixed parameters
SCIPY_FROZEN = {
    "normal": lambda p: sps.norm(),
    "lognormal": lambda p: sps.lognorm(s=p["sigma"]),
    "exponential": lambda p: sps.expon(scale=1.0 / p["rate"]),
    "standard_t": lambda p: sps.t(df=p["df"]),
    "gamma": lambda p: sps.gamma(a=p["shape"]),
    "chisquare": lambda p: sps.chi2(df=p["df"]),
    "weibull": lambda p: sps.weibull_min(c=p["shape"]),
    "gumbel": lambda p: sps.gumbel_r(scale=p["scale"]),
    "f": lambda p: sps.f(dfn=p["dfnum"], dfd=p["dfden"]),
    "pareto": lambda p: sps.pareto(b=p["shape"]),
    "beta": lambda p: sps.beta(a=p["a"], b=p["b"]),
    "uniform": lambda p: sps.uniform(),
}


def scipy_absolute_mass(family):
    """q -> P(|X| <= q) under SciPy's distribution at the family's fixed parameters."""
    frozen = SCIPY_FROZEN[family](RadialDistribution(family).params)
    return lambda q: frozen.cdf(q) - frozen.cdf(-q)


def bisect_for_target(mass):
    """The smallest float q with mass(q) >= TARGET_MASS, by bisection down to
    adjacent floats, for a nondecreasing mass with mass(0) < TARGET_MASS."""
    hi = 1.0
    while mass(hi) < TARGET_MASS:
        hi *= 2.0
    lo = 0.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if mass(mid) < TARGET_MASS:
            lo = mid
        else:
            hi = mid


# P(|X| <= q) in closed form at each family's fixed parameters, evaluated
# by mpmath to DIGITS digits: an oracle independent of SciPy
EXACT_ABSOLUTE_MASS = {
    "normal": lambda q: mpmath.erf(q / mpmath.sqrt(2)),
    "lognormal": lambda q: mpmath.ncdf(mpmath.log(q) / mpmath.mpf("0.75")),
    "exponential": lambda q: -mpmath.expm1(-q),
    "standard_t": lambda q: 1 - mpmath.betainc(2.5, 0.5, 0, 5 / (5 + q**2), regularized=True),
    "gamma": lambda q: mpmath.gammainc(2, 0, q, regularized=True),
    "chisquare": lambda q: mpmath.gammainc(2, 0, q / 2, regularized=True),
    "weibull": lambda q: -mpmath.expm1(-(q**1.5)),
    "gumbel": lambda q: mpmath.exp(-mpmath.exp(-q)) - mpmath.exp(-mpmath.exp(q)),
    "f": lambda q: mpmath.betainc(2.5, 5, 0, 5 * q / (5 * q + 10), regularized=True),
    "pareto": lambda q: 1 - q**-3,
    "beta": lambda q: 3 * q**2 - 2 * q**3,
    "uniform": lambda q: q,
}


def other_params(family):
    """Parameters that differ from the family's fixed ones."""
    params = RadialDistribution(family).params
    if not params:
        return {"scale": 2.0}
    key = sorted(params)[0]
    return {**params, key: 2.0 * params[key]}


class TestNormalizationConstant:
    def test_normal_close_to_one(self):
        # independent oracle: Phi^-1(0.5 + 0.682/2)
        expected = sps.norm.ppf(0.5 + 0.682 / 2)
        assert RadialDistribution("normal").norm_constant == pytest.approx(expected, abs=1e-9)

    def test_exponential_analytic(self):
        assert RadialDistribution("exponential").norm_constant == pytest.approx(
            -math.log(1 - 0.682), abs=1e-9
        )

    def test_uniform_is_the_mass_itself(self):
        assert RadialDistribution("uniform").norm_constant == pytest.approx(0.682, abs=1e-12)

    def test_pareto_analytic(self):
        # survival (1/q)^3 = 0.318 inverts to q = 0.318^(-1/3)
        assert RadialDistribution("pareto").norm_constant == pytest.approx(
            (1 - 0.682) ** (-1 / 3), abs=1e-9
        )

    def test_weibull_analytic(self):
        expected = (-math.log(1 - 0.682)) ** (1 / 1.5)
        assert RadialDistribution("weibull").norm_constant == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_absolute_mass_at_constant_is_target(self, family):
        mass = scipy_absolute_mass(family)(RadialDistribution(family).norm_constant)
        assert mass == pytest.approx(0.682, abs=1e-9)


class TestFixedCatalogue:
    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_constant_is_smallest_float_reaching_target(self, family):
        mass = scipy_absolute_mass(family)
        q = RadialDistribution(family).norm_constant
        assert mass(q) >= TARGET_MASS > mass(np.nextafter(q, 0.0))

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_constant_equals_bisection_on_scipy_mass(self, family):
        expected = bisect_for_target(scipy_absolute_mass(family))
        assert RadialDistribution(family).norm_constant == expected

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_constant_within_conditioning_of_exact_root(self, family):
        # a mass within 4 ulp of the exact one (the bound `normal_reference`
        # explains) moves the root by 4 ulp(0.682) / density; rounding the
        # root up to the first float reaching the target adds 1 ulp
        q = RadialDistribution(family).norm_constant
        mass = EXACT_ABSOLUTE_MASS[family]
        with mpmath.workdps(DIGITS):
            root = mpmath.findroot(lambda x: mass(x) - mpmath.mpf(TARGET_MASS), mpmath.mpf(q))
            density = float(mpmath.diff(mass, root))
        bound = 1.0 + 4.0 * np.spacing(TARGET_MASS) / density / np.spacing(q)
        assert ulps(q, root) <= bound

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unsupported distribution family 'cauchy'"):
            RadialDistribution("cauchy")


class TestRadialDistribution:
    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_draws_follow_scipy_law_at_fixed_params(self, family):
        # the sampler and the written params describe the same distribution
        dist = RadialDistribution(family)
        draws = dist.draw(np.random.default_rng(8), 20_000) * dist.norm_constant
        assert sps.kstest(draws, scipy_absolute_mass(family)).pvalue > 1e-3

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_draw_is_reproducible_finite_and_nonnegative(self, family):
        dist = RadialDistribution(family)
        draws = dist.draw(np.random.default_rng(9), 1000)
        assert draws.shape == (1000,)
        assert np.array_equal(draws, dist.draw(np.random.default_rng(9), 1000))
        assert np.isfinite(draws).all() and (draws >= 0).all()

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_json_round_trip(self, family):
        dist = RadialDistribution(family)
        data = json.loads(json.dumps(dist.to_dict()))
        assert data == {"name": family, "params": dist.params}
        assert RadialDistribution.from_dict(data) == dist

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_written_params_are_floats(self, family):
        # model JSON writes 5.0, never 5
        params = RadialDistribution(family).to_dict()["params"]
        assert all(type(value) is float for value in params.values())

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_params_absent_or_equal_accepted(self, family):
        dist = RadialDistribution(family)
        integral = {
            key: int(value) if value.is_integer() else value for key, value in dist.params.items()
        }
        for data in (
            {"name": family},
            {"name": family, "params": dist.params},
            {"name": family, "params": integral},
        ):
            assert RadialDistribution.from_dict(data) == dist

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_other_params_rejected(self, family):
        data = {"name": family, "params": other_params(family)}
        with pytest.raises(ValueError, match=f"family '{family}' has the fixed parameters"):
            RadialDistribution.from_dict(data)


def modules_loaded_after(code, *argv):
    """The scipy and urllib.request modules loaded once `code` has run in a
    fresh interpreter (this test session has imported SciPy itself)."""
    code += (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m, module in sys.modules.items() if module"
        " and (m.split('.')[0] == 'scipy' or m == 'urllib.request'))))"
    )
    src = str(Path(clustergen.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(result.stdout.splitlines()[-1])


# cli.main(argv[1:]) where any import of SciPy raises ModuleNotFoundError;
# the None that blocks it is not a loaded module
WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None
from clustergen import cli
assert cli.main(sys.argv[1:]) == cli.EXIT_OK
"""


def test_package_import_loads_no_scipy_or_http():
    assert modules_loaded_after("import clustergen, clustergen.cli") == []


@pytest.mark.parametrize("command", ["generate", "bench", "validate-overlap"])
def test_runs_without_scipy(tmp_path, command):
    every_family = {
        "name": "every_family", "n_clusters": 12, "dim": 2, "n_samples": 240,
        "distributions": list(SUPPORTED_FAMILIES),
    }
    archetype = tmp_path / "every_family.json"
    archetype.write_text(json.dumps(every_family))
    argv = {
        "generate": ["generate", "--archetypes", str(archetype), "--out-dir", str(tmp_path / "out"),
                     "--distort", "--wrap"],
        "bench": ["bench", "--archetypes", str(FIXTURES / "benchmark_archetypes.jsonl"),
                  "--n-datasets", "1", "--out", str(tmp_path / "bench.csv")],
        "validate-overlap": ["validate-overlap", "--archetype", str(archetype), "--exact",
                             "--out", str(tmp_path / "overlap.csv")],
    }[command]
    assert modules_loaded_after(WITHOUT_SCIPY, *argv) == []


class TestQuantileInvariant:
    @pytest.mark.parametrize("family", ["normal", "exponential", "pareto"])
    def test_empirical_682_quantile_near_one(self, family):
        dist = RadialDistribution(family)
        draws = dist.draw(np.random.default_rng(0), 100_000)
        assert 0.99 <= np.quantile(draws, 0.682) <= 1.01


class TestSampleClusterPoints:
    def test_zero_points(self):
        points = sample_cluster_points(make_cluster(), 0, np.random.default_rng(0))
        assert points.shape == (0, 2)

    def test_spherical_normal_covariance_proportional_to_identity(self):
        cluster = make_cluster(sigma=(1.0, 1.0, 1.0))
        points = sample_cluster_points(cluster, 100_000, np.random.default_rng(1))
        cov = np.cov(points.T)
        diag = np.diag(cov)
        assert np.abs(diag / diag.mean() - 1).max() <= 0.05
        off = cov - np.diag(diag)
        assert np.abs(off).max() <= 0.05 * diag.mean()

    def test_normal_family_is_multivariate_normal_scale(self):
        # marginals along the axes carry the full per-axis scale
        cluster = make_cluster(sigma=(2.0, 0.5))
        points = sample_cluster_points(cluster, 200_000, np.random.default_rng(2))
        assert np.std(points[:, 0]) == pytest.approx(2.0, rel=0.02)
        assert np.std(points[:, 1]) == pytest.approx(0.5, rel=0.02)

    def test_aspect_ratio_realized_in_sample(self):
        cluster = make_cluster(sigma=(np.sqrt(3), 1 / np.sqrt(3)))
        points = sample_cluster_points(cluster, 100_000, np.random.default_rng(3))
        eigs = np.sort(np.linalg.eigvalsh(np.cov(points.T)))
        assert eigs[1] / eigs[0] == pytest.approx(3.0**2, rel=0.1)

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_points_centered_on_cluster(self, family):
        cluster = make_cluster(family=family, center=(5.0, -2.0))
        points = sample_cluster_points(cluster, 50_000, np.random.default_rng(4))
        np.testing.assert_allclose(points.mean(axis=0), [5.0, -2.0], atol=0.05)

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_radii_follow_radial_law(self, family):
        # rotated unit axes keep the radius; the normal family draws chi(dim)
        dim = 3
        axes = np.linalg.qr(np.random.default_rng(10).standard_normal((dim, dim)))[0]
        cluster = make_cluster(family=family, sigma=np.ones(dim), axes=axes)
        points = sample_cluster_points(cluster, 20_000, np.random.default_rng(11))
        radii = np.linalg.norm(points, axis=1) * cluster.radial_distribution.norm_constant
        law = sps.chi(df=dim).cdf if family == "normal" else scipy_absolute_mass(family)
        assert sps.kstest(radii, law).pvalue > 1e-3

    @pytest.mark.parametrize("family", ["pareto", "standard_t"])
    def test_heavy_tails_make_far_outliers(self, family):
        cluster = make_cluster(family=family)
        points = sample_cluster_points(cluster, 100_000, np.random.default_rng(5))
        radii = np.linalg.norm(points, axis=1)
        assert (radii > 10.0).sum() > 0  # radius 1 cluster, outliers beyond 10x

    def test_bounded_support_has_hard_edge(self):
        cluster = make_cluster(family="uniform")
        points = sample_cluster_points(cluster, 100_000, np.random.default_rng(6))
        radii = np.linalg.norm(points, axis=1)
        assert radii.max() <= 1.0 / RadialDistribution("uniform").norm_constant + 1e-9


class TestSampleDataset:
    def test_balanced_two_cluster_dataset(self):
        a = Archetype(name="two", n_clusters=2, dim=2, n_samples=100)
        model = sample_mixture_model(a, np.random.default_rng(0))
        dataset = sample_dataset(model, np.random.default_rng(1))
        assert dataset.points.shape == (100, 2)
        np.testing.assert_array_equal(np.bincount(dataset.labels), [50, 50])

    def test_benchmark_archetype_dataset(self, benchmark_archetypes):
        a = benchmark_archetypes[0]
        rng = np.random.default_rng(2)
        model = sample_mixture_model(a, rng)
        dataset = sample_dataset(model, rng)
        assert dataset.points.shape == (1200, 2)
        assert np.unique(dataset.labels).size == 12
        counts = np.bincount(dataset.labels)
        np.testing.assert_array_equal(np.sort(counts), np.sort(model.group_sizes))

    def test_label_multiplicities_match_group_sizes(self):
        a = Archetype(name="multi", n_clusters=4, n_samples=401, imbalance_ratio=2.5)
        rng = np.random.default_rng(3)
        model = sample_mixture_model(a, rng)
        dataset = sample_dataset(model, rng)
        np.testing.assert_array_equal(
            np.bincount(dataset.labels), model.group_sizes
        )
        assert np.isfinite(dataset.points).all()

    def test_same_seed_identical(self):
        a = Archetype(name="det", n_clusters=3, n_samples=120)
        model = sample_mixture_model(a, np.random.default_rng(4))
        d1 = sample_dataset(model, np.random.default_rng(7))
        d2 = sample_dataset(model, np.random.default_rng(7))
        np.testing.assert_array_equal(d1.points, d2.points)
        np.testing.assert_array_equal(d1.labels, d2.labels)


class TestCsvRoundTrip:
    def test_bit_stable_round_trip(self, tmp_path):
        a = Archetype(name="csv", n_clusters=2, n_samples=40)
        model = sample_mixture_model(a, np.random.default_rng(5))
        dataset = sample_dataset(model, np.random.default_rng(6))
        path = tmp_path / "data.csv"
        dataset_to_csv(dataset, path)
        again = dataset_from_csv(path)
        np.testing.assert_array_equal(again.points, dataset.points)
        np.testing.assert_array_equal(again.labels, dataset.labels)

    def test_header_validation(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="label"):
            dataset_from_csv(path)

    @pytest.mark.parametrize("body,match", [
        (b"x1,label\r\n0.5,1.5\r\n", "integers"),
        (b"x1,x2,label\r\n0.5,1\r\n", "fields"),
        (b"", "label"),
        (b"x1,label\r\n0.5,nan\r\n", "column 'label' has a non-finite value"),
        (b"x1,x2,label\r\n0.5,-inf,1\r\n", "column 'x2' has a non-finite value"),
        (b"x1,label\r\n0.5,1e300\r\n", "integers within the int64 range"),
        (b"x1,label\r\n0.5,-1e300\r\n", "integers within the int64 range"),
        (b"x1,label\r\n0.5,9223372036854775808\r\n", "integers within the int64 range"),
    ])
    def test_malformed_rows_rejected(self, tmp_path, body, match):
        path = tmp_path / "bad.csv"
        path.write_bytes(body)
        with pytest.raises(ValueError, match=match):
            dataset_from_csv(path)


def reference_csv(dataset, path):
    """CSV bytes as a `csv.writer` with the default dialect writes them."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(dataset.dim)] + ["label"])
        for row, label in zip(dataset.points, dataset.labels):
            writer.writerow([f"{v:.17g}" for v in row] + [int(label)])


def halfway_values(rng, count):
    """Doubles whose 18th significant digit is an exact 5 followed by zeros.

    (2q+1) / 2**(s+1) times 10**s ends in .5 for every s; q is drawn so the
    value has its 17 digits at exponent 16-s and is an exact double.
    """
    values = []
    for s in range(1, 21):
        lo = -(-(10**16 * 2**s) // 10**s)  # ceil(10**(16-s) * 2**s)
        hi = min(10**17 * 2**s // 10**s, 2**52)
        q = rng.integers(lo, hi, count)
        values.append((2 * q + 1) / 2.0 ** (s + 1))
    return np.concatenate(values)


def float_cases(rng):
    """About 10**6 doubles from the categories the exact fast path has to get right."""
    bits = rng.integers(0, 2**64, 420_000, dtype=np.uint64).view(np.float64)
    normals = rng.standard_normal(400_000) * 10.0 ** rng.uniform(-6.0, 20.0, 400_000)
    powers = np.array([float(f"1e{e}") for e in range(-8, 18)])
    around = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    special = np.concatenate([around, halfway_values(rng, 5_000), [0.0]])
    return np.concatenate([bits[np.isfinite(bits)], normals, special, -special])


class TestCsvBytes:
    """`dataset_to_csv` writes exactly the bytes of the csv.writer reference."""

    # enough rows at dim 10 that the dataset crosses two write blocks
    BLOCKS_ROWS = 2 * (_CSV_BLOCK_VALUES // 11) + 100
    CASES = {
        "edge_values": Dataset(
            np.array([[-0.0, 5e-324, 1e300], [-1e-300, 0.0, 1.5], [0.1, -2.5e-308, 1e16]]),
            np.array([0, 2, 11]),
            "edge",
        ),
        "empty": Dataset(np.empty((0, 4)), np.empty(0, dtype=int), "empty"),
        "labels_only": Dataset(np.empty((3, 0)), np.array([2, 0, 1]), "labels_only"),
        "dim1": Dataset(
            np.random.default_rng(0).standard_normal((30, 1)),
            np.random.default_rng(1).integers(0, 3, 30),
            "dim1",
        ),
        "random": Dataset(
            np.random.default_rng(2).standard_normal((500, 6)) * 1e3,
            np.random.default_rng(3).integers(0, 5, 500),
            "random",
        ),
        "wide_labels": Dataset(
            np.full((8, 1), 0.5),
            np.array([-1, -10_000, 9_999, 10_000, 99_999, 123_456_789, 2**62, -(2**63)]),
            "wide_labels",
        ),
        "near_bounds": Dataset(
            np.array([
                [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0)],
                [np.nextafter(1e17, 0.0), 1e17, np.nextafter(1e17, np.inf)],
                [-np.nextafter(1e-4, 0.0), -1e-4, -np.nextafter(1e-4, 1.0)],
                [-np.nextafter(1e17, 0.0), -1e17, -np.nextafter(1e17, np.inf)],
            ]),
            np.array([0, 1, 2, 3]),
            "near_bounds",
        ),
        "halfway": Dataset(
            halfway_values(np.random.default_rng(4), 6).reshape(-1, 4)
            * np.array([1.0, -1.0, 1.0, -1.0]),
            np.arange(30),
            "halfway",
        ),
        "blocks": Dataset(
            np.random.default_rng(5).standard_normal((BLOCKS_ROWS, 10))
            * 10.0 ** np.random.default_rng(6).uniform(-6.0, 20.0, (BLOCKS_ROWS, 10)),
            np.random.default_rng(7).integers(-3, 20_000, BLOCKS_ROWS),
            "blocks",
        ),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_same_bytes_as_csv_writer(self, tmp_path, name):
        dataset = self.CASES[name]
        dataset_to_csv(dataset, tmp_path / "fast.csv")
        reference_csv(dataset, tmp_path / "ref.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_round_trip_is_bit_exact(self, tmp_path, name):
        dataset = self.CASES[name]
        dataset_to_csv(dataset, tmp_path / "data.csv")
        again = dataset_from_csv(tmp_path / "data.csv")
        assert again.points.shape == dataset.points.shape
        # compare bit patterns, so -0.0 and 0.0 count as different
        assert np.array_equal(again.points.view(np.uint64), dataset.points.view(np.uint64))
        np.testing.assert_array_equal(again.labels, dataset.labels)

    def test_label_wider_than_its_cell_rejected(self, tmp_path):
        dataset = Dataset(np.zeros((1, 2)), np.array([1e300]), "wide")
        with pytest.raises(ValueError, match="^a CSV field does not fit in 24 bytes$"):
            dataset_to_csv(dataset, tmp_path / "wide.csv")

    def test_a_million_floats_match_percent_17g(self, tmp_path):
        values = float_cases(np.random.default_rng(8))
        assert values.size >= 10**6
        values = np.concatenate([values, np.zeros(-values.size % 8)])
        dataset = Dataset(values.reshape(-1, 8), np.zeros(values.size // 8, dtype=int), "floats")
        dataset_to_csv(dataset, tmp_path / "floats.csv")
        rows = (tmp_path / "floats.csv").read_bytes().decode().split("\r\n")[1:-1]
        fields = [field for row in rows for field in row.split(",")[:-1]]
        assert len(fields) == values.size
        wrong = [(v, f) for v, f in zip(values.tolist(), fields) if f != "%.17g" % v]
        assert not wrong[:5]

    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_any_finite_float_matches_percent_17g(self, values):
        dataset = Dataset(np.array(values)[:, None], np.zeros(len(values), dtype=int), "floats")
        with tempfile.TemporaryDirectory() as tmp:
            dataset_to_csv(dataset, Path(tmp) / "floats.csv")
            text = (Path(tmp) / "floats.csv").read_bytes().decode()
        assert text == "x1,label\r\n" + "".join("%.17g,0\r\n" % v for v in values)

    @pytest.mark.parametrize("n,dim", [(200_000, 10), (20_000, 200)])
    def test_peak_memory_is_bounded(self, tmp_path, n, dim):
        # the writer formats one block at a time, whatever the dataset's size
        dataset = Dataset(
            np.random.default_rng(dim).standard_normal((n, dim)), np.zeros(n, dtype=int), "big"
        )
        tracemalloc.start()
        try:
            dataset_to_csv(dataset, tmp_path / "big.csv")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
