import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from overlap_reference import (
    c2c_quantile,
    exact_quantile,
    exact_quantile_mp,
    lda_axis,
    monte_carlo_overlap,
    separation_quantile,
)
from placement_reference import separations_of

from clustergen import mixture, overlap
from clustergen.archetype import Archetype
from clustergen.distributions import RadialDistribution
from clustergen.mixture import Cluster, MixtureModel, sample_mixture_model, sample_orientation
from clustergen.overlap import (
    c2c_overlap,
    exact_overlap_oracle,
    lda_overlap,
    overlap_report_rows,
    pair_inverses,
    pairwise_overlaps,
    pairwise_separations,
)
from clustergen.stats import normal_isf, normal_sf


def random_cov(dim, rng, max_aspect=3.0, scale_range=(0.5, 2.0)):
    u = sample_orientation(dim, rng, 1)[0]
    aspect = rng.uniform(1.0, max_aspect)
    radius = rng.uniform(*scale_range)
    logs = rng.uniform(-0.5 * np.log(aspect), 0.5 * np.log(aspect), dim)
    logs[0], logs[1] = 0.5 * np.log(aspect), -0.5 * np.log(aspect)
    lengths = radius * np.exp(logs - logs.mean())
    return (u * lengths**2) @ u.T


def random_pair(dim, rng, q_range=(0.5, 2.5), **cov_kwargs):
    s1 = random_cov(dim, rng, **cov_kwargs)
    s2 = random_cov(dim, rng, **cov_kwargs)
    direction = rng.standard_normal(dim)
    direction /= np.linalg.norm(direction)
    mu1 = rng.standard_normal(dim)
    # scale the separation so overlaps land in an informative range
    unit_q = separation_quantile(mu1, mu1 + direction, s1, s2, direction)
    mu2 = mu1 + direction * rng.uniform(*q_range) / unit_q
    return mu1, mu2, s1, s2


class TestNormalStats:
    def test_quantile_cdf_round_trip(self):
        # tail-appropriate composition keeps full precision on [0, 6]
        x = np.linspace(0.0, 6.0, 2001)
        np.testing.assert_allclose(normal_isf(normal_sf(x)), x, atol=1e-9, rtol=0)

    def test_cdf_matches_erfc(self):
        for x in (-5.0, -1.0, 0.0, 0.3, 2.0, 6.0):
            assert normal_sf(x) == pytest.approx(0.5 * math.erfc(x / math.sqrt(2)), rel=1e-13)


class TestSeparationQuantile:
    def test_hand_evaluated_case(self):
        q = separation_quantile([0, 0], [2, 0], np.eye(2), np.eye(2), [1, 0])
        assert q == pytest.approx(1.0)

    def test_scale_invariance_in_axis(self):
        rng = np.random.default_rng(0)
        mu1, mu2, s1, s2 = random_pair(3, rng)
        axis = rng.standard_normal(3)
        assert separation_quantile(mu1, mu2, s1, s2, 7.0 * axis) == pytest.approx(
            separation_quantile(mu1, mu2, s1, s2, axis), rel=1e-12
        )

    def test_sign_flips_with_axis(self):
        rng = np.random.default_rng(1)
        mu1, mu2, s1, s2 = random_pair(3, rng)
        axis = rng.standard_normal(3)
        assert separation_quantile(mu1, mu2, s1, s2, -axis) == pytest.approx(
            -separation_quantile(mu1, mu2, s1, s2, axis), rel=1e-12
        )

    def test_matches_independent_reevaluation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mu1, mu2, s1, s2 = random_pair(5, rng)
            axis = rng.standard_normal(5)
            expected = (axis @ (mu2 - mu1)) / (
                np.sqrt(axis @ s1 @ axis) + np.sqrt(axis @ s2 @ axis)
            )
            assert separation_quantile(mu1, mu2, s1, s2, axis) == pytest.approx(
                expected, rel=1e-12
            )

    def test_zero_axis_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            separation_quantile([0, 0], [1, 0], np.eye(2), np.eye(2), [0, 0])

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            separation_quantile([0, 0], [1, 0], np.diag([1.0, -1.0]), np.eye(2), [0, 1])


class TestLdaAxis:
    def test_identity_covariances(self):
        np.testing.assert_allclose(
            lda_axis([0, 0], [3, 4], np.eye(2), np.eye(2)), [3.0, 4.0]
        )

    def test_proportional_isotropic(self):
        np.testing.assert_allclose(
            lda_axis([0, 0], [1, 0], 2 * np.eye(2), 4 * np.eye(2)), [1 / 3, 0]
        )

    def test_singular_average_rejected(self):
        degenerate = np.diag([1.0, 0.0])
        with pytest.raises(ValueError, match="singular"):
            lda_axis([0, 0], [1, 0], degenerate, degenerate)

    def test_residual_small(self):
        rng = np.random.default_rng(3)
        mu1, mu2, s1, s2 = random_pair(6, rng)
        axis = lda_axis(mu1, mu2, s1, s2)
        residual = 0.5 * (s1 + s2) @ axis - (mu2 - mu1)
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(mu2 - mu1)


def reference_separation(mu1, mu2, s1, s2):
    """(q, oriented scaled axis) from lda_axis and separation_quantile."""
    axis = lda_axis(mu1, mu2, s1, s2)
    q = separation_quantile(mu1, mu2, s1, s2, axis)
    scaled = axis / (np.sqrt(axis @ s1 @ axis) + np.sqrt(axis @ s2 @ axis))
    return abs(q), np.sign(q) * scaled


def assert_as_accurate_as_lu(dim, cond):
    # clusters 0-2 share an orientation, so their pairs' averages have
    # condition number cond; cluster 3's pairs are less ill-conditioned
    rng = np.random.default_rng(dim)
    u = sample_orientation(dim, rng, 2)
    spectrum = np.geomspace(1.0, cond, dim)
    covs = np.stack([
        (u[j // 3] * (r * spectrum)) @ u[j // 3].T
        for j, r in enumerate(rng.uniform(0.25, 4.0, 4))
    ])
    inverses = pair_inverses(covs)
    w = inverses.whitening
    mean = 0.5 * (covs[inverses.iu] + covs[inverses.ju])
    assert np.array_equal(w, np.tril(w))
    # W whitens the pair average, W A W' = I; Frobenius norms over the whole stack of pairs
    residual = np.linalg.norm(w @ mean @ w.transpose(0, 2, 1) - np.eye(dim))
    assert residual <= 10.0 * np.linalg.norm(mean @ np.linalg.inv(mean) - np.eye(dim))


def lower_factors(dim, rng, count=3):
    """Cholesky factors whose rows differ in scale by up to e^6."""
    g = rng.standard_normal((count, dim, dim))
    spread = np.exp(rng.uniform(-3.0, 3.0, (count, dim, 1)))
    return np.linalg.cholesky(spread * (g @ g.transpose(0, 2, 1) / dim + np.eye(dim))
                              * spread.transpose(0, 2, 1))


class TestPairInverses:
    @pytest.mark.parametrize("cond", [10.0, 1e3, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("dim", [2, 5, 17, 32])
    def test_cholesky_up_to_dim_32_as_accurate_as_lu(self, dim, cond):
        assert_as_accurate_as_lu(dim, cond)

    @pytest.mark.parametrize("cond", [10.0, 1e3, 1e6, 1e9, 1e12])
    @pytest.mark.parametrize("dim", [33, 40, 64, 100, 200])
    def test_cholesky_above_dim_32_as_accurate_as_lu(self, dim, cond):
        assert_as_accurate_as_lu(dim, cond)

    def test_triangular_inverse_is_exactly_lower(self):
        # unequal variances make L[i, j] outweigh L[j, j], so an elimination
        # that pivoted would fill the upper part
        rng = np.random.default_rng(0)
        spread = np.exp(rng.uniform(-3.0, 3.0, (3, 50, 1)))
        low = np.linalg.cholesky(spread * random_cov(50, rng) * spread.transpose(0, 2, 1))
        inv = low.copy()
        overlap._invert_lower(inv)
        assert np.array_equal(inv, np.tril(inv))
        np.testing.assert_allclose(inv @ low, np.broadcast_to(np.eye(50), low.shape), atol=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 15, 16, 17, 31, 33, 200])
    def test_triangular_inverse_around_leaf_sizes(self, dim):
        # 16 rows is the largest leaf; 17, 31 and 33 split into leaves of
        # unequal size, 200 recurses four levels
        low = lower_factors(dim, np.random.default_rng(dim))
        inv = low.copy()
        overlap._invert_lower(inv)
        assert np.array_equal(inv, np.tril(inv))
        np.testing.assert_allclose(inv @ low, np.broadcast_to(np.eye(dim), low.shape), atol=1e-10)

    @pytest.mark.parametrize("dim", [5, 64])
    def test_inverse_does_not_depend_on_the_batch(self, monkeypatch, dim):
        # at dim 64 a batch holds 32 pairs, so k = 12's 66 pairs take three
        rng = np.random.default_rng(dim)
        covs = np.stack([random_cov(dim, rng, max_aspect=10.0) for _ in range(12)])
        whole = pair_inverses(covs)
        half = pair_inverses(covs[:6])
        in_half = {(i, j): p for p, (i, j) in enumerate(zip(half.iu, half.ju))}
        for p, (i, j) in enumerate(zip(whole.iu, whole.ju)):
            assert np.array_equal(pair_inverses(covs[[i, j]]).whitening[0], whole.whitening[p])
            if (i, j) in in_half:
                assert np.array_equal(half.whitening[in_half[i, j]], whole.whitening[p])
        monkeypatch.setattr(overlap, "_BATCH_FLOATS", 1)  # batches of k-1 = 11 pairs, across rows
        assert np.array_equal(pair_inverses(covs).whitening, whole.whitening)

    def test_single_cluster_gives_empty_stacks(self):
        inverses = pair_inverses(np.eye(3)[None])
        assert inverses.whitening.shape == (0, 3, 3)
        assert inverses.iu.size == inverses.ju.size == 0
        assert inverses.pairs.shape == (1, 0)
        assert list(overlap._pair_averages(np.eye(3)[None])) == []

    def test_temporaries_stay_within_a_few_batches(self):
        # k = 40 at dim 64: 780 pairs in batches of k-1 = 39, about 1.2 MiB each
        k, dim = 40, 64
        rng = np.random.default_rng(40)
        covs = np.stack([random_cov(dim, rng) for _ in range(k)])
        tracemalloc.start()
        try:
            whitening = pair_inverses(covs).whitening
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one batch's averages and factor, and the next batch's averages as
        # they are formed: three stacks of a batch, against 20 for all pairs
        batch_bytes = (k - 1) * dim * dim * 8
        assert peak - whitening.nbytes < 4 * batch_bytes


class TestCachedPairKernel:
    @pytest.mark.parametrize("dim", [2, 5, 20, 40, 100, 200])
    def test_matches_lda_axis_reference(self, dim):
        rng = np.random.default_rng(dim)
        k = 4
        covs = np.stack([random_cov(dim, rng, max_aspect=10.0) for _ in range(k)])
        centers = rng.standard_normal((k, dim)) * 3.0
        inverses = pair_inverses(covs)

        def check(q, axis, i, j):
            q_ref, axis_ref = reference_separation(centers[i], centers[j], covs[i], covs[j])
            assert q == pytest.approx(q_ref, rel=1e-12)
            assert np.linalg.norm(axis - axis_ref) <= 1e-12 * np.linalg.norm(axis_ref)

        for i in range(k):  # each row's entries of inverses.pairs
            others, q, axes = separations_of(centers, covs, i)
            for m, j in enumerate(others):
                check(q[m], axes[m], i, j)
        q, axes = pairwise_separations(centers, covs, inverses)
        assert q.size == k * (k - 1) // 2
        for p, (i, j) in enumerate(zip(inverses.iu, inverses.ju)):
            check(q[p], axes[p], i, j)


class TestLdaOverlap:
    def test_hand_evaluated_alpha(self):
        # q = 1 for unit spherical clusters two apart: alpha = erfc(1/sqrt(2))
        alpha = lda_overlap([0, 0], [2, 0], np.eye(2), np.eye(2))
        assert alpha == pytest.approx(math.erfc(1 / math.sqrt(2)), rel=1e-12)

    def test_swap_symmetry(self):
        rng = np.random.default_rng(4)
        mu1, mu2, s1, s2 = random_pair(4, rng)
        assert lda_overlap(mu1, mu2, s1, s2) == pytest.approx(
            lda_overlap(mu2, mu1, s2, s1), rel=1e-12
        )

    def test_monotone_in_distance(self):
        rng = np.random.default_rng(5)
        s1, s2 = random_cov(3, rng), random_cov(3, rng)
        direction = np.array([1.0, 0.5, -0.2])
        alphas = [
            lda_overlap([0, 0, 0], d * direction, s1, s2) for d in np.linspace(0.5, 5, 10)
        ]
        assert all(a > b for a, b in zip(alphas, alphas[1:]))

    def test_identical_centers_rejected(self):
        with pytest.raises(ValueError, match="coincide"):
            lda_overlap([1, 1], [1, 1], np.eye(2), np.eye(2))


class TestC2cOverlap:
    def test_hand_evaluated_spherical(self):
        # sigma1=1, sigma2=2, distance 3: q = 9/(3+6) = 1
        alpha = c2c_overlap([0, 0], [3, 0], np.eye(2), 4 * np.eye(2))
        assert alpha == pytest.approx(math.erfc(1 / math.sqrt(2)), rel=1e-12)

    def test_identity_covariances_match_lda(self):
        mu1, mu2 = np.zeros(3), np.array([1.0, -2.0, 0.5])
        assert c2c_overlap(mu1, mu2, np.eye(3), np.eye(3)) == pytest.approx(
            lda_overlap(mu1, mu2, np.eye(3), np.eye(3)), rel=1e-12
        )

    def test_anisotropic_error_exceeds_lda_on_average(self):
        rng = np.random.default_rng(7)
        lda_errors, c2c_errors = [], []
        for _ in range(40):
            mu1, mu2, s1, s2 = random_pair(4, rng)
            exact = exact_overlap_oracle(mu1, mu2, s1, s2)
            lda_errors.append(abs(lda_overlap(mu1, mu2, s1, s2) - exact) / exact)
            c2c_errors.append(abs(c2c_overlap(mu1, mu2, s1, s2) - exact) / exact)
        assert np.mean(c2c_errors) > np.mean(lda_errors)


class TestExactOracle:
    def test_proportional_covariances_match_lda(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            cov = random_cov(4, rng)
            lam = rng.uniform(0.25, 4.0)
            mu1 = rng.standard_normal(4)
            mu2 = mu1 + rng.standard_normal(4)
            exact = exact_overlap_oracle(mu1, mu2, lam * cov, cov)
            assert abs(exact - lda_overlap(mu1, mu2, lam * cov, cov)) <= 1e-6

    def test_spherical_covariances_match_c2c(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            s1 = rng.uniform(0.5, 2.0) ** 2 * np.eye(5)
            s2 = rng.uniform(0.5, 2.0) ** 2 * np.eye(5)
            mu1 = rng.standard_normal(5)
            mu2 = mu1 + rng.standard_normal(5)
            exact = exact_overlap_oracle(mu1, mu2, s1, s2)
            assert abs(exact - c2c_overlap(mu1, mu2, s1, s2)) <= 1e-6

    def test_family_bound_lda_never_below_exact(self):
        # the LDA axis is the t=1/2 family member, so q_lda <= q*
        rng = np.random.default_rng(10)
        for _ in range(50):
            mu1, mu2, s1, s2 = random_pair(3, rng)
            assert lda_overlap(mu1, mu2, s1, s2) >= exact_overlap_oracle(
                mu1, mu2, s1, s2
            ) - 1e-12

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(11)
        mu1, mu2, s1, s2 = random_pair(4, rng)
        rot = sample_orientation(4, rng, 1)[0]
        originals = (
            lda_overlap(mu1, mu2, s1, s2),
            c2c_overlap(mu1, mu2, s1, s2),
            exact_overlap_oracle(mu1, mu2, s1, s2),
        )
        rotated = (
            lda_overlap(rot @ mu1, rot @ mu2, rot @ s1 @ rot.T, rot @ s2 @ rot.T),
            c2c_overlap(rot @ mu1, rot @ mu2, rot @ s1 @ rot.T, rot @ s2 @ rot.T),
            exact_overlap_oracle(rot @ mu1, rot @ mu2, rot @ s1 @ rot.T, rot @ s2 @ rot.T),
        )
        np.testing.assert_allclose(rotated, originals, atol=1e-10)


    @staticmethod
    def exact_q(mu1, mu2, S1, S2):
        centers, covs = overlap._checked([mu1, mu2], [S1, S2])
        inverses = pair_inverses(covs)
        q_lda = pairwise_separations(centers, covs, inverses)[0]
        return overlap._exact(centers, covs, q_lda, inverses)[0]

    def test_singular_covariances_with_regular_average(self):
        # each pair is whitened by its average, which is regular, not by
        # S2, which has no Cholesky factor here.  Along a = (a1, a2),
        # q = (a1 + 2 a2) / (|a1| + |a2|), whose supremum 2 the family
        # approaches only as t -> 1
        pair = (np.zeros(2), np.array([1.0, 2.0]), np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert self.exact_q(*pair) == pytest.approx(2.0, rel=1e-12)

    @staticmethod
    def hard_pair(seed):
        """A pair of dim 2-8: regular, with a singular covariance, or averaging to condition ~1e12."""
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 9))
        kind = seed % 4
        if kind == 0:
            return random_pair(dim, rng, max_aspect=100.0)
        mu1, mu2 = rng.standard_normal(dim), rng.standard_normal(dim)
        if kind == 1:  # S1 has a null space, S2 is regular
            lengths = rng.uniform(0.5, 2.0, dim)
            lengths[: rng.integers(1, dim)] = 0.0
            return mu1, mu2, np.diag(rng.permutation(lengths)), random_cov(dim, rng)
        if kind == 2:  # both singular, on complementary coordinates
            zero = rng.permutation(dim) < dim // 2
            return mu1, mu2, np.diag(np.where(zero, 0.0, 1.0)), np.diag(np.where(zero, 1.0, 0.5))
        # as in test_matches_40_digit_search_at_condition_near_1e12
        low = np.diag(np.sqrt(np.geomspace(1.0, 1.0 / 0.99e12, dim)))
        v = sample_orientation(dim, rng, 1)[0]
        b = (v * rng.uniform(0.01, 1.99, dim)) @ v.T
        s1, s2 = (low @ c @ low for c in (b, 2.0 * np.eye(dim) - b))
        return mu1, mu1 + 2.0 * low @ rng.standard_normal(dim), 0.5 * (s1 + s1.T), 0.5 * (s2 + s2.T)

    @pytest.mark.parametrize("seed", range(24))
    def test_never_below_the_grid_search(self, seed):
        # the grid and golden-section search of overlap_reference is an
        # independent algorithm over t in [logistic(-12), logistic(12)]
        pair = self.hard_pair(seed)
        assert self.exact_q(*pair) >= exact_quantile(*pair) * (1.0 - 1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_40_digit_search_at_condition_near_1e12(self, seed):
        # S1 = L B L' and S2 = L (2I - B) L' average to LL', of condition
        # 0.99e12.  L is diagonal, so the pair is ill-conditioned by the scale
        # of its coordinates and the float inputs fix q to near full
        # precision; under a rotated L, a float search (the solve-based one
        # included) can be off by eps times the condition number.
        rng = np.random.default_rng(seed)
        dim = 12
        low = np.diag(np.sqrt(np.geomspace(1.0, 1.0 / 0.99e12, dim)))
        v = sample_orientation(dim, rng, 1)[0]
        b = (v * rng.uniform(0.01, 1.99, dim)) @ v.T
        s1, s2 = (low @ c @ low for c in (b, 2.0 * np.eye(dim) - b))
        s1, s2 = 0.5 * (s1 + s1.T), 0.5 * (s2 + s2.T)
        mu1 = rng.standard_normal(dim)
        mu2 = mu1 + 2.0 * low @ rng.standard_normal(dim)
        q = self.exact_q(mu1, mu2, s1, s2)
        assert q == pytest.approx(exact_quantile_mp(mu1, mu2, s1, s2), rel=1e-9)

    def test_search_keeps_no_grid_of_every_pair(self):
        # the bisection holds a few d-vectors of every pair at a time, about
        # 11 at d = 2; keeping a value of every pair per step would not fit
        k, dim = 400, 2
        model = random_model(k, dim, np.random.default_rng(400))
        centers, covs = overlap._checked(model.centers, model.covariances())
        inverses = pair_inverses(covs)
        q_lda = pairwise_separations(centers, covs, inverses)[0]
        tracemalloc.start()
        try:
            overlap._exact(centers, covs, q_lda, inverses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * q_lda.size * dim * 8


def spherical_cluster(center, sigma, dim, family="normal"):
    return Cluster(
        center=np.asarray(center, dtype=float),
        axes=np.eye(dim),
        axis_lengths=np.full(dim, sigma),
        radial_distribution=RadialDistribution(family),
    )


class TestMonteCarloOverlap:
    def test_gaussian_pair_recovers_lda_overlap(self):
        # alpha_lda = 0.10 at distance 2 * Phi^-1(0.95) for unit spheres
        distance = 2 * float(normal_isf(0.05))
        c1 = spherical_cluster([0, 0], 1.0, 2)
        c2 = spherical_cluster([distance, 0], 1.0, 2)
        result = monte_carlo_overlap(c1, c2, 10_000, np.random.default_rng(0))
        assert abs(result.estimate - 0.10) <= 3 * result.std_error

    def test_separated_clusters_near_zero(self):
        c1 = spherical_cluster([0, 0], 1.0, 2)
        c2 = spherical_cluster([40, 0], 1.0, 2)
        result = monte_carlo_overlap(c1, c2, 10_000, np.random.default_rng(1))
        assert result.estimate <= 1e-3

    @pytest.mark.parametrize("family", ["beta", "uniform"])
    def test_bounded_support_falls_below_nominal(self, family):
        # bounded support separates more than the nominal 1% overlap
        distance = 2 * float(normal_isf(0.005))
        c1 = spherical_cluster([0, 0], 1.0, 2, family=family)
        c2 = spherical_cluster([distance, 0], 1.0, 2, family=family)
        result = monte_carlo_overlap(c1, c2, 10_000, np.random.default_rng(2))
        assert result.estimate < 0.01


class TestPairwiseReports:
    def test_alpha_q_relation_and_csv(self):
        a = Archetype(name="rep", n_clusters=3, n_samples=90)
        model = sample_mixture_model(a, np.random.default_rng(0))
        reports = pairwise_overlaps(model, include_exact=True)
        assert len(reports) == 3
        for r in reports:
            assert abs(r.alpha_lda - 2.0 * normal_sf(r.q_lda)) <= 1e-12
            assert 0.0 < r.alpha_exact <= r.alpha_lda + 1e-12
        rows = overlap_report_rows(reports)
        assert rows[0].split(",") == ["i", "j", "q_lda", "alpha_lda", "alpha_c2c", "alpha_exact"]
        assert len(rows) == 4

    def test_exact_column_leaves_the_others_bit_identical(self):
        model = random_model(12, 64, np.random.default_rng(65))
        plain = pairwise_overlaps(model)
        exact = pairwise_overlaps(model, include_exact=True)
        assert [replace(r, alpha_exact=None) for r in exact] == plain

    def test_exact_report_factors_each_pair_batch_once(self, monkeypatch):
        # k = 12 at dim 64: 66 pairs in batches of 32, 32 and 2, which the
        # LDA axes and the exact oracle share
        model = random_model(12, 64, np.random.default_rng(64))
        cholesky, batches = np.linalg.cholesky, []
        monkeypatch.setattr(overlap.np.linalg, "cholesky",
                            lambda a: batches.append(len(a)) or cholesky(a))
        pairwise_overlaps(model, include_exact=True)
        assert batches == [32, 32, 2]

    @pytest.mark.parametrize("power", [-330, -300, -200, 200, 300, 330])
    def test_reports_do_not_depend_on_a_power_of_two_scale(self, power):
        # in raw units delta'S delta goes as 2^(4 power): it underflows or
        # overflows at |power| = 300, inside the validated scales 1e-100-1e100
        model = sample_mixture_model(Archetype(name="scaled", n_clusters=6, dim=7),
                                     np.random.default_rng(31))
        scaled = replace(model, clusters=[
            replace(c, center=np.ldexp(c.center, power), axis_lengths=np.ldexp(c.axis_lengths, power))
            for c in model.clusters
        ])
        expected = pairwise_overlaps(model, include_exact=True)
        assert pairwise_overlaps(scaled, include_exact=True) == expected

    def test_coincident_centers_rejected(self):
        clusters = [spherical_cluster(c, 1.0, 2) for c in ([0, 0], [3, 0], [0, 0])]
        model = MixtureModel(clusters, np.full(3, 10), "twins")
        with pytest.raises(ValueError, match="coincide"):
            pairwise_overlaps(model)


def random_model(k, dim, rng):
    clusters = [
        Cluster(
            center=rng.standard_normal(dim) * 3.0,
            axes=sample_orientation(dim, rng, 1)[0],
            axis_lengths=rng.uniform(0.3, 3.0, dim),
            radial_distribution=RadialDistribution("normal"),
        )
        for _ in range(k)
    ]
    return MixtureModel(clusters, np.full(k, 10), "random")


class TestBatchedMatchesScalar:
    @pytest.mark.parametrize("k", [2, 5, 12])
    @pytest.mark.parametrize("dim", [2, 5, 40])
    def test_every_pair_matches_references(self, k, dim):
        model = random_model(k, dim, np.random.default_rng(100 * k + dim))
        centers, covs = model.centers, model.covariances()
        reports = pairwise_overlaps(model, include_exact=True)
        q_placement, _ = pairwise_separations(centers, covs, pair_inverses(covs))
        assert [r.q_lda for r in reports] == q_placement.tolist()
        for r in reports:
            pair = (centers[r.i], centers[r.j], covs[r.i], covs[r.j])
            q_ref = separation_quantile(*pair, lda_axis(*pair))
            assert r.q_lda == pytest.approx(q_ref, rel=1e-12)
            assert r.alpha_c2c == pytest.approx(2.0 * normal_sf(c2c_quantile(*pair)), rel=1e-12)
            assert r.alpha_exact == pytest.approx(2.0 * normal_sf(exact_quantile(*pair)), rel=1e-12)

    def test_single_pair_functions_are_the_two_cluster_case(self):
        model = random_model(2, 4, np.random.default_rng(7))
        (report,) = pairwise_overlaps(model, include_exact=True)
        pair = (*model.centers, *model.covariances())
        assert lda_overlap(*pair) == report.alpha_lda
        assert c2c_overlap(*pair) == report.alpha_c2c
        assert exact_overlap_oracle(*pair) == report.alpha_exact

    def test_single_cluster_has_no_pairs(self):
        model = random_model(1, 3, np.random.default_rng(8))
        assert pairwise_overlaps(model, include_exact=True) == []


def _clusters(mu1, mu2, S1, S2):
    """Two clusters whose covariances S1, S2 ride in `axes` (see `covariance_as_given`)."""
    return [
        Cluster(np.asarray(mu, dtype=float), np.asarray(S, dtype=float), np.ones(2),
                RadialDistribution("normal"))
        for mu, S in ((mu1, S1), (mu2, S2))
    ]


ESTIMATORS = {
    "lda_overlap": lda_overlap,
    "c2c_overlap": c2c_overlap,
    "exact_overlap_oracle": exact_overlap_oracle,
    "monte_carlo_overlap": lambda *pair: monte_carlo_overlap(
        *_clusters(*pair), 200, np.random.default_rng(0)
    ),
    "pairwise_overlaps": lambda *pair: pairwise_overlaps(
        MixtureModel(_clusters(*pair), np.full(2, 10), "pair"), include_exact=True
    ),
}

CONDITION_0_5E12 = np.diag([1.0, 1.0 / 0.5e12])
CONDITION_2E12 = np.diag([1.0, 1.0 / 2e12])


class TestRefusals:
    """Every estimator refuses the same inputs with the same message."""

    @pytest.fixture(autouse=True)
    def covariance_as_given(self, monkeypatch):
        # lets a cluster carry any matrix, indefinite ones included, as its covariance
        monkeypatch.setattr(mixture, "covariance_of", lambda cluster: cluster.axes)

    @pytest.mark.parametrize("name", ESTIMATORS)
    @pytest.mark.parametrize(
        "pair, match",
        [
            (([1, 1], [1, 1], np.eye(2), np.eye(2)), "coincide"),
            (([0, 0], [1, 0], np.diag([1.0, 0.0]), np.diag([1.0, 0.0])), "singular"),
            (([0, 0], [1, 0], CONDITION_2E12, CONDITION_2E12), "singular"),
            # its condition ratio reads 0 >= 0
            (([0, 0], [1, 0], np.zeros((2, 2)), np.zeros((2, 2))), "singular"),
            (([0, 0], [0, 1], np.diag([1.0, -0.5]), np.eye(2)), "positive definite"),
            # positive along the center difference, negative along the LDA axis
            (([0, 0], [1, 1.2], np.diag([1.0, -0.5]), np.diag([1.0, 2.0])), "positive definite"),
            (([0, np.nan], [1, 1], np.eye(2), np.eye(2)), "centers must be finite"),
            (([0, 0], [np.inf, 1], np.eye(2), np.eye(2)), "centers must be finite"),
        ],
        ids=["coincident", "singular", "condition-2e12", "zero", "indefinite", "indefinite-lda-axis",
             "nan-center", "inf-center"],
    )
    def test_refused(self, name, pair, match):
        with pytest.raises(ValueError, match=match):
            ESTIMATORS[name](*pair)

    @pytest.mark.parametrize("name", ESTIMATORS)
    def test_condition_half_e12_accepted(self, name):
        ESTIMATORS[name]([0, 0], [1, 0], CONDITION_0_5E12, CONDITION_0_5E12)
