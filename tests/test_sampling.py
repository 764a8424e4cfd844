import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from normal_reference import assert_within, exact_cdf, exact_lognormal_cdf
from scipy import optimize
from scipy import stats as sps

import clustergen
from clustergen.archetype import Archetype
from clustergen.distributions import (
    _FAMILIES,
    SUPPORTED_FAMILIES,
    TARGET_MASS,
    RadialDistribution,
    normalization_constant,
)
from clustergen.mixture import Cluster, sample_mixture_model
from clustergen.sampling import (
    Dataset,
    dataset_from_csv,
    dataset_to_csv,
    sample_cluster_points,
    sample_dataset,
)


def make_cluster(family="normal", sigma=(1.0, 1.0), axes=None, center=None):
    sigma = np.asarray(sigma, dtype=float)
    dim = sigma.size
    center = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    return Cluster(
        center=center,
        axes=np.eye(dim) if axes is None else axes,
        axis_lengths=sigma,
        radial_distribution=RadialDistribution.create(family),
    )


class TestNormalizationConstant:
    def test_normal_close_to_one(self):
        # independent oracle: Phi^-1(0.5 + 0.682/2)
        expected = sps.norm.ppf(0.5 + 0.682 / 2)
        assert normalization_constant("normal") == pytest.approx(expected, abs=1e-9)

    def test_exponential_analytic(self):
        assert normalization_constant("exponential") == pytest.approx(
            -math.log(1 - 0.682), abs=1e-9
        )

    def test_uniform_is_the_mass_itself(self):
        assert normalization_constant("uniform") == pytest.approx(0.682, abs=1e-12)

    def test_pareto_analytic(self):
        # survival (1/q)^3 = 0.318 inverts to q = 0.318^(-1/3)
        assert normalization_constant("pareto") == pytest.approx(
            (1 - 0.682) ** (-1 / 3), abs=1e-9
        )

    def test_weibull_analytic(self):
        expected = (-math.log(1 - 0.682)) ** (1 / 1.5)
        assert normalization_constant("weibull") == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("family", SUPPORTED_FAMILIES)
    def test_absolute_mass_at_constant_is_target(self, family):
        q = normalization_constant(family)
        dist = RadialDistribution.create(family)
        frozen = {
            "normal": sps.norm(),
            "lognormal": sps.lognorm(s=0.75),
            "exponential": sps.expon(),
            "standard_t": sps.t(df=5),
            "gamma": sps.gamma(a=2),
            "chisquare": sps.chi2(df=4),
            "weibull": sps.weibull_min(c=1.5),
            "gumbel": sps.gumbel_r(),
            "f": sps.f(dfn=5, dfd=10),
            "pareto": sps.pareto(b=3),
            "beta": sps.beta(a=2, b=2),
            "uniform": sps.uniform(),
        }[family]
        mass = frozen.cdf(q) - frozen.cdf(-q)
        assert mass == pytest.approx(0.682, abs=1e-9)
        assert dist.norm_constant == q

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            normalization_constant("gamma", {"shape": -1.0})
        with pytest.raises(ValueError, match="unsupported"):
            normalization_constant("cauchy")
        with pytest.raises(ValueError, match="unknown parameter"):
            normalization_constant("gamma", {"rate": 2.0})


# scipy.stats as a test-only oracle for the closed-form CDFs
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

# defaults ({}) plus two non-default sets for every family that has parameters
PARAM_SETS = {
    "normal": [{}],
    "lognormal": [{}, {"sigma": 0.2}, {"sigma": 2.5}],
    "exponential": [{}, {"rate": 0.3}, {"rate": 7.0}],
    "standard_t": [{}, {"df": 1.0}, {"df": 30.0}],
    "gamma": [{}, {"shape": 0.5}, {"shape": 9.0}],
    "chisquare": [{}, {"df": 1.0}, {"df": 12.0}],
    "weibull": [{}, {"shape": 0.7}, {"shape": 4.0}],
    "gumbel": [{}, {"scale": 0.25}, {"scale": 3.0}],
    "f": [{}, {"dfnum": 2.0, "dfden": 3.0}, {"dfnum": 20.0, "dfden": 50.0}],
    "pareto": [{}, {"shape": 1.5}, {"shape": 8.0}],
    "beta": [{}, {"a": 0.5, "b": 0.5}, {"a": 5.0, "b": 1.5}],
    "uniform": [{}],
}
CASES = [(name, params) for name in SUPPORTED_FAMILIES for params in PARAM_SETS[name]]


def case_ids(cases):
    return [f"{name}-{params}" for name, params in cases]


CASE_IDS = case_ids(CASES)
# normal and lognormal go through the C library's erfc, not SciPy's ndtr, so
# mpmath is their oracle, with the bounds explained in `normal_reference`
MPMATH_FAMILIES = ("normal", "lognormal")
SCIPY_CASES = [case for case in CASES if case[0] not in MPMATH_FAMILIES]
MPMATH_CASES = [case for case in CASES if case[0] in MPMATH_FAMILIES]

# negatives, both signs of zero, the support edges 0 and 1, their neighbours
# and points beyond them
CDF_GRID = np.array([
    -30.0, -5.0, -1.0, -0.5, -5e-324, -0.0, 0.0, 5e-324, 1e-10, 0.25, 0.5,
    np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5, 2.0, 3.7, 10.0, 50.0, 1e3,
])


def absolute_mass(name, params, q):
    family = _FAMILIES[name]
    params = family.resolve(params)
    if family.signed:
        return family.cdf(q, params) - family.cdf(-q, params)
    return family.cdf(q, params)


def mpmath_cdf_and_bounds(name, params):
    """The exact CDF over CDF_GRID and the (4 + c·t²)-ulp bound at each point."""
    if name == "normal":
        return [exact_cdf(x) for x in CDF_GRID], 4.0 + 2.0 * CDF_GRID**2
    sigma = params["sigma"]
    # where x <= 0 the exact CDF is 0, which the check skips, so its bound is never read
    exact = [exact_lognormal_cdf(x, sigma) if x > 0 else 0.0 for x in CDF_GRID]
    t = np.log(np.maximum(CDF_GRID, 5e-324)) / sigma
    return exact, 4.0 + 3.0 * t**2


class TestClosedFormCdf:
    @pytest.mark.parametrize("name,params", SCIPY_CASES, ids=case_ids(SCIPY_CASES))
    def test_matches_scipy_stats(self, name, params):
        resolved = _FAMILIES[name].resolve(params)
        expected = SCIPY_FROZEN[name](resolved).cdf(CDF_GRID)
        np.testing.assert_array_max_ulp(_FAMILIES[name].cdf(CDF_GRID, resolved), expected, 2)
        scalars = [_FAMILIES[name].cdf(x, resolved) for x in CDF_GRID]
        np.testing.assert_array_max_ulp(np.array(scalars), expected, 2)

    @pytest.mark.parametrize("name,params", MPMATH_CASES, ids=case_ids(MPMATH_CASES))
    def test_matches_mpmath(self, name, params):
        resolved = _FAMILIES[name].resolve(params)
        exact, bounds = mpmath_cdf_and_bounds(name, resolved)
        assert_within(_FAMILIES[name].cdf(CDF_GRID, resolved), exact, bounds)
        assert_within([_FAMILIES[name].cdf(x, resolved) for x in CDF_GRID], exact, bounds)

    @pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
    def test_constant_matches_brentq_on_scipy_mass(self, name, params):
        frozen = SCIPY_FROZEN[name](_FAMILIES[name].resolve(params))

        def old_mass(q):
            return frozen.cdf(q) - frozen.cdf(-q)

        hi = 1.0
        while old_mass(hi) < TARGET_MASS:
            hi *= 2.0
        expected = optimize.brentq(lambda x: old_mass(x) - TARGET_MASS, 0.0, hi, xtol=1e-13)
        assert normalization_constant(name, params) == pytest.approx(expected, rel=1e-12, abs=0)

    @pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
    def test_constant_is_smallest_float_reaching_target(self, name, params):
        q = normalization_constant(name, params)
        assert absolute_mass(name, params, q) >= TARGET_MASS
        assert absolute_mass(name, params, np.nextafter(q, 0.0)) < TARGET_MASS

    @pytest.mark.parametrize("name,params", CASES, ids=CASE_IDS)
    def test_no_warning_at_left_edge(self, name, params):
        resolved = _FAMILIES[name].resolve(params)
        edge = 1.0 if name == "pareto" else 0.0
        points = [edge, np.nextafter(edge, -1.0), -0.0, -1.0, -30.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = _FAMILIES[name].cdf(np.array(points), resolved)
            for x in points:
                _FAMILIES[name].cdf(x, resolved)
        if not _FAMILIES[name].signed:
            np.testing.assert_array_equal(values, 0.0)


def modules_loaded_after(code, *argv):
    """The scipy and urllib.request modules loaded once `code` has run in a
    fresh interpreter (this test session has imported SciPy itself)."""
    code += (
        "\nimport json, sys"
        "\nprint(json.dumps(sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'scipy' or m == 'urllib.request')))"
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


# generate --distort --wrap with the families in argv[2], then the CDF of each
GENERATE_CODE = """
import json, sys
from clustergen import cli
from clustergen.distributions import normalization_constant
families = sys.argv[2].split(",")
spec = {"name": "fresh", "n_clusters": 3, "dim": 3, "n_samples": 30, "distributions": families}
argv = ["generate", "--inline", json.dumps(spec), "--out-dir", sys.argv[1], "--distort", "--wrap"]
assert cli.main(argv) == cli.EXIT_OK
for name in families:
    normalization_constant(name)
"""


def test_package_import_loads_no_scipy_or_http():
    assert modules_loaded_after("import clustergen, clustergen.cli") == []


@pytest.mark.parametrize(
    "families",
    ["normal", "normal,lognormal,exponential,weibull,gumbel,pareto,uniform"],
    ids=["normal", "elementary"],
)
def test_generate_loads_no_scipy_or_http(tmp_path, families):
    assert modules_loaded_after(GENERATE_CODE, str(tmp_path), families) == []


def test_gamma_family_loads_scipy_special(tmp_path):
    loaded = modules_loaded_after(GENERATE_CODE, str(tmp_path), "gamma")
    assert "scipy.special" in loaded
    assert "urllib.request" not in loaded


class TestQuantileInvariant:
    @pytest.mark.parametrize("family", ["normal", "exponential", "pareto"])
    def test_empirical_682_quantile_near_one(self, family):
        dist = RadialDistribution.create(family)
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

    def test_points_centered_on_cluster(self):
        cluster = make_cluster(family="exponential", center=(5.0, -2.0))
        points = sample_cluster_points(cluster, 50_000, np.random.default_rng(4))
        np.testing.assert_allclose(points.mean(axis=0), [5.0, -2.0], atol=0.05)

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
        assert radii.max() <= 1.0 / normalization_constant("uniform") + 1e-9


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
        again = dataset_from_csv(path, archetype_name="csv")
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


class TestCsvBytes:
    """`dataset_to_csv` writes exactly the bytes of the csv.writer reference."""

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
