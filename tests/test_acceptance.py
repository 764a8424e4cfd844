"""Acceptance suite: one test per release criterion, each printing a PASS line.

Statistical criteria run deterministic, seeded experiments.  The
difficulty-monotonicity experiment pairs overlap levels with common random
numbers (the same per-dataset stream at every level) so that 30 datasets
per level isolate the overlap effect from geometry noise.
"""

import numpy as np
import pytest
from overlap_reference import monte_carlo_overlap, separation_quantile
from scipy import stats as sps

from clustergen import archetype as arch_mod
from clustergen.archetype import Archetype
from clustergen.distributions import SUPPORTED_FAMILIES, RadialDistribution
from clustergen.errors import NLParseError, NLValidationError, NonConvergenceError
from clustergen.metrics import ami, ari, kmeans
from clustergen.mixture import Cluster, MixtureModel, sample_mixture_model, sample_orientation
from clustergen.nl import ClientConfig, describe_to_archetype, parse_archetype_json
from clustergen.overlap import (
    c2c_overlap,
    exact_overlap_oracle,
    lda_overlap,
)
from clustergen.placement import (
    OverlapBounds,
    init_centers,
    optimize_centers,
)
from clustergen.postprocess import DistortNetwork, distort, wrap_around_sphere
from clustergen.sampling import sample_dataset
from test_metrics import ami_bruteforce, ari_bruteforce, random_nondegenerate_labels


def random_cov(dim, rng, max_aspect=3.0):
    u = sample_orientation(dim, rng, 1)[0]
    aspect = rng.uniform(1.0, max_aspect)
    radius = rng.uniform(0.5, 2.0)
    logs = rng.uniform(-0.5 * np.log(aspect), 0.5 * np.log(aspect), dim)
    logs[0], logs[1] = 0.5 * np.log(aspect), -0.5 * np.log(aspect)
    lengths = radius * np.exp(logs - logs.mean())
    return (u * lengths**2) @ u.T


def random_gaussian_pair(dim, rng, q_range=(0.5, 2.5)):
    s1, s2 = random_cov(dim, rng), random_cov(dim, rng)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    mu1 = rng.standard_normal(dim)
    unit_q = separation_quantile(mu1, mu1 + direction, s1, s2, direction)
    mu2 = mu1 + direction * rng.uniform(*q_range) / unit_q
    return mu1, mu2, s1, s2


@pytest.fixture(scope="session")
def placement_runs(benchmark_archetypes):
    """20 seeded placement runs per benchmark archetype: traces + geometry."""
    runs = {}
    for a in benchmark_archetypes:
        bounds = OverlapBounds.from_overlaps(a.max_overlap, a.min_overlap)
        entries = []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            k, dim = a.n_clusters, a.dim
            aspects = arch_mod.sample_aspect_ratios(a, rng)
            radii = arch_mod.sample_cluster_radii(a, rng)
            lengths = np.stack(
                [arch_mod.sample_axis_lengths(aspects[j], radii[j], dim, rng) for j in range(k)]
            )
            orientations = sample_orientation(dim, rng, k)
            centers = init_centers(k, dim, radii, None, rng)
            start = MixtureModel(
                clusters=[
                    Cluster(
                        centers[j], orientations[j], lengths[j], RadialDistribution("normal")
                    )
                    for j in range(k)
                ],
                group_sizes=np.full(k, a.n_samples // k),
                archetype_name=a.name,
            )
            covs = start.covariances()
            try:
                model, trace = optimize_centers(start, bounds, None, rng)
                centers = model.centers
                converged = True
            except NonConvergenceError as exc:
                trace = exc.trace
                converged = False
            entries.append(
                {"centers": centers, "covs": covs, "trace": trace, "converged": converged}
            )
        runs[a.name] = (a, bounds, entries)
    return runs


class TestAcceptance:
    def test_01_lda_approximation_quality(self):
        """Median relative LDA error <= 10% and Pearson r >= 0.99 on 100 pairs."""
        rng = np.random.default_rng(0)
        lda_vals, exact_vals = [], []
        for i in range(100):
            dim = 2 if i % 2 == 0 else 10
            mu1, mu2, s1, s2 = random_gaussian_pair(dim, rng)
            lda_vals.append(lda_overlap(mu1, mu2, s1, s2))
            exact_vals.append(exact_overlap_oracle(mu1, mu2, s1, s2))
        lda_vals = np.array(lda_vals)
        exact_vals = np.array(exact_vals)
        rel_err = np.abs(lda_vals - exact_vals) / exact_vals
        pearson = np.corrcoef(lda_vals, exact_vals)[0, 1]
        assert np.median(rel_err) <= 0.10
        assert pearson >= 0.99
        print(
            f"\nPASS criterion 1: LDA approximation (median rel err "
            f"{np.median(rel_err):.4f} <= 0.10, pearson {pearson:.5f} >= 0.99)"
        )

    def test_02_special_case_exactness(self):
        """Proportional covariances match LDA, spherical match C2C, to 1e-3."""
        rng = np.random.default_rng(1)
        worst_prop = 0.0
        for _ in range(50):
            dim = int(rng.choice([2, 3, 5]))
            cov = random_cov(dim, rng)
            lam = rng.uniform(0.25, 4.0)
            mu1 = rng.standard_normal(dim)
            mu2 = mu1 + rng.standard_normal(dim) * rng.uniform(0.5, 2.0)
            gap = abs(
                lda_overlap(mu1, mu2, lam * cov, cov)
                - exact_overlap_oracle(mu1, mu2, lam * cov, cov)
            )
            worst_prop = max(worst_prop, gap)
            assert gap <= 1e-3
        worst_sph = 0.0
        for _ in range(50):
            dim = int(rng.choice([2, 4, 8]))
            s1 = rng.uniform(0.5, 2.0) ** 2 * np.eye(dim)
            s2 = rng.uniform(0.5, 2.0) ** 2 * np.eye(dim)
            mu1 = rng.standard_normal(dim)
            mu2 = mu1 + rng.standard_normal(dim) * rng.uniform(0.5, 2.0)
            gap = abs(
                c2c_overlap(mu1, mu2, s1, s2) - exact_overlap_oracle(mu1, mu2, s1, s2)
            )
            worst_sph = max(worst_sph, gap)
            assert gap <= 1e-3
        print(
            f"\nPASS criterion 2: special-case exactness (proportional worst {worst_prop:.2e},"
            f" spherical worst {worst_sph:.2e}, both <= 1e-3)"
        )

    def test_03_placement_convergence(self, placement_runs):
        """>=95% of seeds reach loss <= 1e-12 in 1000 epochs; log traces linear."""
        for name, (a, bounds, entries) in placement_runs.items():
            converged = [e for e in entries if e["converged"]]
            assert len(converged) >= 19, f"{name}: only {len(converged)}/20 converged"
            r_squared = []
            for entry in converged:
                positive = np.array([t for t in entry["trace"] if t > 0])
                if positive.size < 3:
                    continue  # immediate convergence leaves nothing to fit
                fit = sps.linregress(np.arange(positive.size), np.log10(positive))
                assert fit.slope < 0, f"{name}: non-decreasing log-loss trace"
                r_squared.append(fit.rvalue**2)
            assert r_squared, f"{name}: no traces long enough to fit"
            median_r2 = float(np.median(r_squared))
            assert median_r2 >= 0.8, f"{name}: median R^2 {median_r2:.3f} < 0.8"
        print("\nPASS criterion 3: placement converges at an exponential rate "
              "(all six archetypes, >=19/20 seeds, negative log-linear fits)")

    def test_04_overlap_constraint_satisfaction(self, placement_runs):
        """Pairwise overlaps never exceed max_overlap; no isolated clusters."""
        for name, (a, bounds, entries) in placement_runs.items():
            pooled = []
            for entry in entries:
                if not entry["converged"]:
                    continue
                centers, covs = entry["centers"], entry["covs"]
                k = centers.shape[0]
                alphas = np.full((k, k), np.nan)
                for i in range(k):
                    for j in range(i + 1, k):
                        alpha = lda_overlap(centers[i], centers[j], covs[i], covs[j])
                        alphas[i, j] = alphas[j, i] = alpha
                        pooled.append(alpha)
                assert np.nanmax(alphas) <= a.max_overlap + 1e-9, name
                neighbor_best = np.nanmax(alphas, axis=1)
                assert (neighbor_best >= a.min_overlap - 1e-9).all(), name
            pooled = np.array(pooled)
            assert (pooled > a.max_overlap + 1e-9).sum() == 0  # histogram mass above cap
        print("\nPASS criterion 4: overlap constraints satisfied on 20 models "
              "per archetype (no pairwise mass above max_overlap)")

    def test_05_quantile_normalization(self):
        """Empirical 68.2% quantile of |draws| within 1% for all 12 families."""
        rng = np.random.default_rng(2)
        observed = {}
        for family in SUPPORTED_FAMILIES:
            draws = RadialDistribution(family).draw(rng, 100_000)
            quantile = float(np.quantile(draws, 0.682))
            observed[family] = quantile
            assert 0.99 <= quantile <= 1.01, f"{family}: {quantile:.4f}"
        assert len(observed) == 12
        worst = max(abs(q - 1) for q in observed.values())
        print(f"\nPASS criterion 5: quantile normalization (12 families, worst "
              f"deviation {worst:.4f} within [0.99, 1.01])")

    def test_06_difficulty_monotonicity(self):
        """K-Means AMI decreases strictly across the overlap grid, also after distort."""
        grid = [1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.5]
        master_seed = 1
        means_plain, means_distorted = [], []
        for max_overlap in grid:
            plain_scores, distorted_scores = [], []
            for i in range(30):
                a = Archetype(
                    name="two_clusters_2d", n_clusters=2, dim=2, n_samples=200,
                    aspect_ref=1.5, aspect_maxmin=3.0, radius_maxmin=3.0,
                    imbalance_ratio=2.0, max_overlap=max_overlap,
                    min_overlap=max_overlap / 10.0,
                    distributions=("normal", "exponential"),
                )
                seed = master_seed * 1000 + i  # same stream at every level
                rng = np.random.default_rng(seed)
                model = sample_mixture_model(a, rng)
                dataset = sample_dataset(model, rng)
                plain_scores.append(
                    ami(dataset.labels, kmeans(dataset.points, 2, rng=np.random.default_rng(seed)))
                )
                distorted = distort(dataset.points, seed=master_seed)
                distorted_scores.append(
                    ami(dataset.labels, kmeans(distorted, 2, rng=np.random.default_rng(seed)))
                )
            means_plain.append(float(np.mean(plain_scores)))
            means_distorted.append(float(np.mean(distorted_scores)))
        assert all(a > b for a, b in zip(means_plain, means_plain[1:])), means_plain
        rho = sps.spearmanr(np.arange(len(grid)), means_plain).statistic
        assert rho == -1.0
        assert all(a > b for a, b in zip(means_distorted, means_distorted[1:])), (
            means_distorted
        )
        rho_d = sps.spearmanr(np.arange(len(grid)), means_distorted).statistic
        assert rho_d == -1.0
        print(
            f"\nPASS criterion 6: difficulty monotonicity (plain AMI means "
            f"{[round(m, 3) for m in means_plain]}, distorted "
            f"{[round(m, 3) for m in means_distorted]}, both Spearman -1)"
        )

    def test_07_bounded_support_caveat(self):
        """Beta clusters at nominal 1% overlap under-shoot in >=90% of trials."""
        successes = 0
        for trial in range(50):
            a = Archetype(
                name="beta_pair", n_clusters=2, dim=2, n_samples=200,
                max_overlap=0.01, min_overlap=0.001, distributions=("beta",),
            )
            rng = np.random.default_rng(trial)
            model = sample_mixture_model(a, rng)
            result = monte_carlo_overlap(model.clusters[0], model.clusters[1], 10_000, rng)
            successes += result.estimate <= 0.01
        assert successes >= 45
        print(f"\nPASS criterion 7: bounded-support caveat ({successes}/50 trials "
              "at or below the nominal 1% overlap)")

    def test_08_postprocessing_invariants(self):
        """Sphere wrap is unit-norm; distort ties weights and preserves shape."""
        rng = np.random.default_rng(3)
        for dim in (2, 5, 50):
            X = rng.normal(size=(10_000, dim)) * rng.uniform(0.1, 10.0)
            wrapped = wrap_around_sphere(X)
            assert wrapped.shape == (10_000, dim + 1)
            np.testing.assert_allclose(
                np.linalg.norm(wrapped, axis=1), 1.0, atol=1e-12
            )
        net = DistortNetwork.create(dim=7, seed=0)
        assert np.abs(net.projection_weight - net.embedding_weight.T).max() == 0.0
        X = rng.normal(size=(500, 7))
        assert distort(X, seed=0).shape == X.shape
        print("\nPASS criterion 8: post-processing invariants (unit norms at dims "
              "{2, 5, 50}, exact weight tying, shape preserved)")

    def test_09_metric_oracles(self):
        """AMI/ARI match independent brute-force implementations to 1e-10."""
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(4, 13))
            a = random_nondegenerate_labels(rng, n, int(rng.integers(2, 5)))
            b = random_nondegenerate_labels(rng, n, int(rng.integers(2, 5)))
            assert ami(a, b) == pytest.approx(ami_bruteforce(a, b), abs=1e-10)
            assert ari(a, b) == pytest.approx(ari_bruteforce(a, b), abs=1e-10)
        print("\nPASS criterion 9: AMI/ARI equal brute-force oracles on 200 "
              "random contingency cases (<= 1e-10)")

    def test_10_nl_pipeline_fixture_mode(self, nl_fixtures, benchmark_archetypes,
                                         fake_transport_factory):
        """Recorded responses reproduce the six benchmark archetypes field-for-field."""
        expected_by_name = {a.name: a for a in benchmark_archetypes}
        config = ClientConfig(api_key="fixture")
        descriptions = [d for d in nl_fixtures if not d.startswith("_")]
        assert len(descriptions) == 6
        for description in descriptions:
            recorded = nl_fixtures[description]
            transport = fake_transport_factory(
                {"identifier": recorded["identifier"], "params": recorded["params"]}
            )
            result, _ = describe_to_archetype(description, config, transport)
            expected = expected_by_name[result.name]
            assert result.to_dict() == expected.to_dict(), description
        malformed = nl_fixtures["_malformed"]
        with pytest.raises(NLParseError):
            parse_archetype_json(malformed["refusal"], defaults={"name": "x"})
        with pytest.raises(NLValidationError):
            parse_archetype_json(malformed["bad_values"], defaults={"name": "x"})
        with pytest.raises(NLValidationError, match="unknown"):
            parse_archetype_json(malformed["unknown_key"], defaults={"name": "x"})
        from clustergen.nl import parse_identifier

        with pytest.raises(NLParseError):
            parse_identifier(malformed["bad_identifier"])
        print("\nPASS criterion 10: NL fixture mode (six descriptions match the "
              "benchmark archetypes field-for-field; malformed responses raise "
              "the documented errors)")
