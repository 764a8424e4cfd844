import csv
import math

import numpy as np
import pytest
from scipy import stats as sps

from clustergen.archetype import Archetype
from clustergen.distributions import (
    SUPPORTED_FAMILIES,
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
