from dataclasses import replace

import numpy as np
import pytest
from overlap_reference import lda_axis, separation_quantile
from placement_reference import cluster_loss, separations_of

import clustergen.archetype as arch
from clustergen.archetype import Archetype
from clustergen.distributions import RadialDistribution
from clustergen import placement
from clustergen.errors import NonConvergenceError
from clustergen.mixture import (
    Cluster,
    MixtureModel,
    sample_mixture_model,
    sample_orientation,
)
from clustergen.overlap import pair_inverses, pairwise_overlaps
from clustergen.placement import (
    OverlapBounds,
    _loss_and_gradient,
    log_adjusted_density,
    init_centers,
    optimize_centers,
    overlap_loss,
    penalty,
)
from clustergen.stats import normal_isf

BOUNDS = OverlapBounds.from_overlaps(max_overlap=0.05, min_overlap=0.001)


def spherical_model(centers, sigma=1.0):
    centers = np.asarray(centers, dtype=float)
    dim = centers.shape[1]
    clusters = [
        Cluster(
            center=c,
            axes=np.eye(dim),
            axis_lengths=np.full(dim, sigma),
            radial_distribution=RadialDistribution("normal"),
        )
        for c in centers
    ]
    return MixtureModel(
        clusters=clusters,
        group_sizes=np.full(len(clusters), 10),
        archetype_name="test",
    )


def anisotropic_covs(k, dim, rng):
    """k random covariances with axis lengths in [0.6, 1.6]."""
    lengths = rng.uniform(0.6, 1.6, size=(k, dim))
    axes = sample_orientation(dim, rng, k)  # drawn after lengths
    return np.stack([(u * l**2) @ u.T for u, l in zip(axes, lengths)])


def start_model(a, rng):
    """A model with `a`'s geometry at initial centers, all of the normal family.

    The geometry is drawn in `sample_mixture_model`'s order, but without its
    `assign_distributions` and `sample_group_sizes` draws, so for k > 1 these
    initial centers are not the ones `sample_mixture_model` starts from.
    """
    k, dim = a.n_clusters, a.dim
    aspects = arch.sample_aspect_ratios(a, rng)
    radii = arch.sample_cluster_radii(a, rng)
    lengths = [arch.sample_axis_lengths(aspects[j], radii[j], dim, rng) for j in range(k)]
    axes = sample_orientation(dim, rng, k)
    centers = init_centers(k, dim, radii, None, rng)
    clusters = [
        Cluster(centers[j], axes[j], lengths[j], RadialDistribution("normal")) for j in range(k)
    ]
    return MixtureModel(clusters, group_sizes=np.full(k, a.n_samples // k), archetype_name=a.name)


def model_cluster_loss(i, model, bounds):
    """Reference (loss, grad) of cluster i at the model's centers."""
    return cluster_loss(model.centers, model.covariances(), i, bounds)


def model_at_separation(q, sigma=1.0):
    """Two unit spherical clusters whose pairwise separation is exactly q."""
    return spherical_model([[0.0, 0.0], [2.0 * sigma * q, 0.0]], sigma)


class TestOverlapBounds:
    def test_band_orientation(self):
        assert 0 < BOUNDS.q_min < BOUNDS.q_max
        assert BOUNDS.q_min == pytest.approx(float(normal_isf(0.025)))
        assert BOUNDS.q_max == pytest.approx(float(normal_isf(0.0005)))

    def test_degenerate_band_rejected(self):
        with pytest.raises(ValueError):
            OverlapBounds(q_min=2.0, q_max=1.0)


class TestInitCenters:
    def test_density_adjustment_formula(self):
        assert log_adjusted_density(2) == pytest.approx(np.log(0.1))
        assert log_adjusted_density(10) == pytest.approx(np.log(10 * 2**-9 * 0.1))
        assert log_adjusted_density(10) == pytest.approx(np.log(1.953125e-3))
        # 2^(1-dim) alone underflows here; its log does not
        assert log_adjusted_density(1100) == pytest.approx(
            np.log(1100 * 0.1) - 1099 * np.log(2.0)
        )

    def test_centers_inside_calibrated_ball(self):
        radii = np.array([1.0, 2.0, 0.5, 1.5])
        rng = np.random.default_rng(0)
        # ball radius from (sum r^dim) / R^dim = rho_adj
        expected_radius = (np.sum(radii**3) / np.exp(log_adjusted_density(3))) ** (1 / 3)
        for _ in range(50):
            centers = init_centers(4, 3, radii, None, rng)
            assert centers.shape == (4, 3)
            assert (np.linalg.norm(centers, axis=1) <= expected_radius + 1e-12).all()

    def test_no_overflow_in_100d(self):
        centers = init_centers(4, 100, np.full(4, 1.2), None, np.random.default_rng(1))
        assert np.isfinite(centers).all()

    @pytest.mark.parametrize("dim", [1100, 5000])
    def test_finite_past_density_underflow(self, dim):
        centers = init_centers(2, dim, np.ones(2), None, np.random.default_rng(0))
        assert np.isfinite(centers).all()
        assert (np.linalg.norm(centers, axis=1) > 0).all()


class TestPenalty:
    def test_zero_at_zero(self, monkeypatch):
        for lam in (0.0, 0.3, 1.0):
            monkeypatch.setattr(placement, "_PENALTY_MIX", lam)
            assert penalty(0.0) == 0.0

    def test_linear_case(self, monkeypatch):
        monkeypatch.setattr(placement, "_PENALTY_MIX", 1.0)
        assert penalty(0.3) == pytest.approx(0.3)

    def test_mixed_case(self):
        assert penalty(2.0) == pytest.approx(3.0)  # 0.5*2 + 0.5*4


class TestSingleClusterLoss:
    def test_zero_inside_band(self):
        q_mid = 0.5 * (BOUNDS.q_min + BOUNDS.q_max)
        model = model_at_separation(q_mid)
        assert model_cluster_loss(0, model, BOUNDS)[0] == 0.0
        assert model_cluster_loss(1, model, BOUNDS)[0] == 0.0

    def test_isolation_penalty_linear(self, monkeypatch):
        monkeypatch.setattr(placement, "_PENALTY_MIX", 1.0)
        model = model_at_separation(BOUNDS.q_max + 0.5)
        assert model_cluster_loss(0, model, BOUNDS)[0] == pytest.approx(0.5, rel=1e-9)

    def test_crowding_penalty_quadratic(self, monkeypatch):
        monkeypatch.setattr(placement, "_PENALTY_MIX", 0.0)
        model = model_at_separation(BOUNDS.q_min - 0.2)
        assert model_cluster_loss(0, model, BOUNDS)[0] == pytest.approx(0.04, rel=1e-9)

    def test_separations_match_overlap_module(self):
        rng = np.random.default_rng(3)
        model = spherical_model(rng.normal(size=(4, 3)) * 3, sigma=0.8)
        centers = model.centers
        covs = model.covariances()
        _, q, _ = separations_of(centers, covs, 0)
        for m, j in enumerate([1, 2, 3]):
            axis = lda_axis(centers[0], centers[j], covs[0], covs[j])
            expected = abs(
                separation_quantile(centers[0], centers[j], covs[0], covs[j], axis)
            )
            assert q[m] == pytest.approx(expected, rel=1e-12)


class TestOverlapLoss:
    def test_satisfied_configuration(self):
        model = model_at_separation(0.5 * (BOUNDS.q_min + BOUNDS.q_max))
        assert overlap_loss(model, BOUNDS) == 0.0

    def test_symmetric_two_cluster_violation(self):
        model = model_at_separation(BOUNDS.q_min - 0.3)
        l0 = model_cluster_loss(0, model, BOUNDS)[0]
        l1 = model_cluster_loss(1, model, BOUNDS)[0]
        assert l0 == pytest.approx(l1, rel=1e-12)
        assert overlap_loss(model, BOUNDS) == pytest.approx(l0, rel=1e-12)

    def test_single_cluster_has_zero_loss(self):
        a = Archetype.from_dict({"name": "one", "n_clusters": 1, "dim": 3})
        assert overlap_loss(start_model(a, np.random.default_rng(0)), BOUNDS) == 0.0

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            model = spherical_model(rng.normal(size=(3, 2)) * rng.uniform(0.5, 10))
            assert overlap_loss(model, BOUNDS) >= 0.0


class TestVectorizedLoss:
    @pytest.mark.parametrize("spacing,regime", [(20.0, "isolation"), (0.8, "crowding")])
    def test_overlap_loss_is_mean_of_cluster_losses(self, spacing, regime):
        rng = np.random.default_rng(9)
        grid = np.array([[a, b, c] for a in range(2) for b in range(2) for c in range(2)])
        model = spherical_model((grid + 0.1 * rng.normal(size=grid.shape)) * spacing)
        centers, covs = model.centers, model.covariances()
        nearest = [separations_of(centers, covs, i)[1].min() for i in range(len(grid))]
        if regime == "isolation":
            assert min(nearest) > BOUNDS.q_max
        else:
            assert max(nearest) < BOUNDS.q_min
        losses = [model_cluster_loss(i, model, BOUNDS)[0] for i in range(len(grid))]
        assert min(losses) > 0.0
        assert overlap_loss(model, BOUNDS) == pytest.approx(np.mean(losses), rel=1e-12)


class TestLossGradient:
    def test_zero_gradient_inside_band(self):
        model = model_at_separation(0.5 * (BOUNDS.q_min + BOUNDS.q_max))
        np.testing.assert_array_equal(model_cluster_loss(0, model, BOUNDS)[1], 0.0)

    def test_no_gradient_once_converged(self):
        model = model_at_separation(0.5 * (BOUNDS.q_min + BOUNDS.q_max))
        covs = model.covariances()
        assert _loss_and_gradient(model.centers, covs, pair_inverses(covs), BOUNDS) == (0.0, None)

    def test_crowded_pair_pushed_apart(self):
        model = model_at_separation(BOUNDS.q_min - 0.5)
        grad = model_cluster_loss(0, model, BOUNDS)[1]
        # descent step -grad moves cluster 0 left and cluster 1 right
        assert grad[0][0] > 0
        assert grad[1][0] < 0

    def test_isolated_cluster_pulled_toward_neighbor(self):
        model = model_at_separation(BOUNDS.q_max + 1.0)
        grad = model_cluster_loss(0, model, BOUNDS)[1]
        assert grad[0][0] < 0  # descent moves cluster 0 toward cluster 1 (right)
        assert grad[1][0] > 0

    def test_matches_finite_differences_on_smooth_configs(self):
        # frozen-axis convention: axes held at the base configuration
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 100:
            k, dim = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            centers = rng.normal(size=(k, dim)) * rng.uniform(1.0, 6.0)
            covs = anisotropic_covs(k, dim, rng)
            i = int(rng.integers(k))
            frozen = separations_of(centers, covs, i)

            def frozen_loss(flat):
                moved = flat.reshape(k, dim)
                others, _, scaled_axes = frozen
                # recompute q along the frozen scaled axes
                margins = np.einsum(
                    "mp,mp->m", scaled_axes, moved[others] - moved[i]
                )
                isolation = max(margins.min() - BOUNDS.q_max, 0.0)
                crowding = np.maximum(BOUNDS.q_min - margins, 0.0)
                return penalty(isolation) + sum(penalty(x) for x in crowding)

            base_q = frozen[1]
            margin_gaps = np.concatenate(
                [np.abs(base_q - BOUNDS.q_min), np.abs(base_q - BOUNDS.q_max)]
            )
            if margin_gaps.min() < 1e-3:  # too close to a kink
                continue
            analytic = cluster_loss(centers, covs, i, BOUNDS)[1].ravel()
            step = 1e-6
            numeric = np.empty_like(analytic)
            flat = centers.ravel().copy()
            for idx in range(flat.size):
                up, down = flat.copy(), flat.copy()
                up[idx] += step
                down[idx] -= step
                numeric[idx] = (frozen_loss(up) - frozen_loss(down)) / (2 * step)
            scale = max(np.abs(numeric).max(), 1e-12)
            assert np.abs(analytic - numeric).max() <= 1e-5 * max(scale, 1.0)
            checked += 1


class TestBatchedGradient:
    """The epoch's summed gradient is the sum of the per-cluster reference gradients."""

    CUBE = np.array([[a, b, c] for a in range(2) for b in range(2) for c in range(2)])
    CASES = {
        "isolation": CUBE * 20.0,  # far apart: every cluster pulls on its nearest pair
        # 0 and 1 are each other's nearest: both pull on the pair (0, 1)
        "mutual_nearest": [[0.0, 0.0], [2 * (BOUNDS.q_max + 0.5), 0.0], [60.0, 0.0]],
        "crowding": CUBE * 0.8,
        # 0 and 1 crowd each other, 2 is isolated and pulls on (1, 2)
        "mixed": [[0.0, 0.0], [2 * (BOUNDS.q_min - 0.3), 0.0], [40.0, 0.0]],
    }

    def assert_matches_reference(self, centers, covs):
        loss, grad = _loss_and_gradient(centers, covs, pair_inverses(covs), BOUNDS)
        reference = [cluster_loss(centers, covs, i, BOUNDS) for i in range(len(centers))]
        summed = np.sum([g for _, g in reference], axis=0)
        assert np.abs(summed).max() > 0
        assert np.abs(grad - summed).max() <= 1e-12 * np.abs(summed).max()
        assert loss == pytest.approx(np.mean([l for l, _ in reference]), rel=1e-12)

    @pytest.mark.parametrize("case", list(CASES))
    def test_summed_gradient_matches_reference(self, case):
        rng = np.random.default_rng(11)
        centers = np.array(self.CASES[case], dtype=float)
        if case in ("isolation", "crowding"):
            centers += 0.1 * rng.normal(size=centers.shape) * centers.max()
            covs = anisotropic_covs(*centers.shape, rng)
        else:
            covs = spherical_model(centers).covariances()
        nearest = [separations_of(centers, covs, i)[1].min() for i in range(len(centers))]
        isolated = [q > BOUNDS.q_max for q in nearest]
        crowded = [q < BOUNDS.q_min for q in nearest]
        if case in ("isolation", "mutual_nearest"):
            assert all(isolated)
        elif case == "crowding":
            assert all(crowded)
        else:
            assert crowded == [True, True, False] and isolated == [False, False, True]
        if case == "mutual_nearest":
            assert [separations_of(centers, covs, i)[1].argmin() for i in (0, 1)] == [0, 0]
        self.assert_matches_reference(centers, covs)

    def test_random_configurations_match_reference(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            k, dim = int(rng.integers(2, 9)), int(rng.integers(2, 6))
            centers = rng.normal(size=(k, dim)) * rng.uniform(0.5, 12.0)
            self.assert_matches_reference(centers, anisotropic_covs(k, dim, rng))


class TestOptimizeCenters:
    def test_already_satisfied_returns_immediately(self):
        model = model_at_separation(0.5 * (BOUNDS.q_min + BOUNDS.q_max))
        converged, trace = optimize_centers(
            model, BOUNDS, None, np.random.default_rng(0)
        )
        assert trace == [0.0]
        np.testing.assert_array_equal(converged.centers, model.centers)

    def test_single_cluster_returns_at_once(self):
        a = Archetype.from_dict({"name": "one", "n_clusters": 1, "dim": 3})
        model = start_model(a, np.random.default_rng(0))
        converged, trace = optimize_centers(model, BOUNDS)
        assert trace == [0.0]
        np.testing.assert_array_equal(converged.centers, model.centers)

    def test_benchmark_archetype_converges_fast(self, benchmark_archetypes):
        a = benchmark_archetypes[0]
        bounds = OverlapBounds.from_overlaps(a.max_overlap, a.min_overlap)
        rng = np.random.default_rng(0)
        model = sample_mixture_model(a, rng)  # converged during construction
        assert overlap_loss(model, bounds) <= 1e-12

    def test_constraints_hold_at_convergence(self):
        rng = np.random.default_rng(6)
        a = Archetype(
            name="converge", n_clusters=6, dim=3, n_samples=60,
            aspect_ref=1.5, aspect_maxmin=2.0, radius_maxmin=2.0,
            max_overlap=0.05, min_overlap=0.001,
        )
        model = sample_mixture_model(a, rng)
        centers = model.centers
        covs = model.covariances()
        for i in range(6):
            _, q, _ = separations_of(centers, covs, i)
            assert (q >= BOUNDS.q_min - 1e-9).all()
            assert q.min() <= BOUNDS.q_max + 1e-9

    def test_loss_trace_mostly_decreasing(self):
        decreasing, total = 0, 0
        bounds = OverlapBounds.from_overlaps(0.02, 0.002)
        for seed in range(5):
            init_rng = np.random.default_rng(seed)
            radii = np.ones(8)
            centers = init_centers(8, 2, radii, None, init_rng)
            _, trace = optimize_centers(
                spherical_model(centers), bounds, None, init_rng
            )
            positive = [t for t in trace if t > 0]
            diffs = np.diff(positive)
            decreasing += int((diffs < 0).sum())
            total += diffs.size
        assert total == 0 or decreasing / total >= 0.9

    def test_rng_neither_read_nor_advanced(self):
        bounds = OverlapBounds.from_overlaps(0.02, 0.002)
        centers = init_centers(8, 2, np.ones(8), None, np.random.default_rng(3))
        start = spherical_model(centers)
        rngs = [np.random.default_rng(0), np.random.default_rng(1)]
        states = [r.bit_generator.state for r in rngs]
        (first, first_trace), (second, second_trace) = (
            optimize_centers(start, bounds, None, r) for r in rngs
        )
        assert len(first_trace) > 2
        assert first_trace == second_trace
        np.testing.assert_array_equal(first.centers, second.centers)
        assert [r.bit_generator.state for r in rngs] == states

    def test_translation_invariance(self):
        rng = np.random.default_rng(8)
        model = spherical_model(rng.normal(size=(4, 3)) * 4)
        shifted = spherical_model(model.centers + np.array([10.0, -3.0, 7.0]))
        assert overlap_loss(model, BOUNDS) == pytest.approx(
            overlap_loss(shifted, BOUNDS), rel=1e-9, abs=1e-12
        )

    @pytest.mark.parametrize("scale", [1e-2, 1e2, 1e4])
    def test_default_rate_is_scale_free(self, scale):
        # the same start at another scale takes the same descent, scaled
        a = Archetype(
            name="scaled", n_clusters=10, dim=5, n_samples=100,
            aspect_ref=2.0, aspect_maxmin=2.0, radius_maxmin=2.0,
        )
        unit = start_model(a, np.random.default_rng(0))
        scaled = replace(unit, clusters=[
            replace(c, center=c.center * scale, axis_lengths=c.axis_lengths * scale)
            for c in unit.clusters
        ])
        placed, trace = optimize_centers(unit, BOUNDS)
        placed_scaled, scaled_trace = optimize_centers(scaled, BOUNDS)
        assert len(scaled_trace) == len(trace)
        atol = 1e-12 * np.abs(placed.centers).max()
        np.testing.assert_allclose(placed_scaled.centers / scale, placed.centers, rtol=0, atol=atol)

    def test_too_large_rate_halves_after_a_stall(self):
        # every step of this rate hits the step cap, so the pair jumps across
        # the band and back; only the halving after _STALL_EPOCHS epochs
        # without a new best loss brings the step down to the band's width
        model = model_at_separation(BOUNDS.q_min - 1.0)
        _, trace = optimize_centers(model, BOUNDS, 100.0)
        assert trace[-1] <= 1e-12
        best, stalled, longest = np.inf, 0, 0
        for loss in trace:
            best, stalled = (loss, 0) if loss < best else (best, stalled + 1)
            longest = max(longest, stalled)
        assert longest >= placement._STALL_EPOCHS

    def test_nonconvergence_carries_trace(self, monkeypatch):
        monkeypatch.setattr(placement, "MAX_EPOCHS", 1)
        model = model_at_separation(BOUNDS.q_min - 1.0)
        with pytest.raises(NonConvergenceError) as excinfo:
            optimize_centers(model, BOUNDS, 1e-9, np.random.default_rng(0))
        assert excinfo.value.final_loss > 0
        assert len(excinfo.value.trace) == 2  # initial epoch + final evaluation

    @pytest.mark.parametrize("rate", [0.0, -1.0, np.nan, np.inf])
    def test_rate_not_positive_and_finite_rejected(self, rate):
        model = model_at_separation(BOUNDS.q_min - 1.0)
        with pytest.raises(ValueError, match="learning_rate must be positive and finite"):
            optimize_centers(model, BOUNDS, rate, np.random.default_rng(0))

    def test_nonfinite_loss_fails_at_first_epoch(self):
        model = spherical_model([[0.0, 0.0], [np.nan, 1.0], [3.0, 0.0]])
        with pytest.raises(NonConvergenceError) as excinfo:
            optimize_centers(model, BOUNDS, None, np.random.default_rng(0))
        assert len(excinfo.value.trace) == 1
        assert not np.isfinite(excinfo.value.final_loss)

    def test_axes_and_lengths_untouched(self):
        model = model_at_separation(BOUNDS.q_min - 0.4)
        converged, _ = optimize_centers(
            model, BOUNDS, None, np.random.default_rng(0)
        )
        for before, after in zip(model.clusters, converged.clusters):
            np.testing.assert_array_equal(before.axes, after.axes)
            np.testing.assert_array_equal(before.axis_lengths, after.axis_lengths)
        assert not np.array_equal(model.centers, converged.centers)

    def test_high_dim_epoch_count_comparable_to_2d(self):
        # dimensionality raises the epoch count only mildly
        def epochs_for(dim, seed):
            k = 12
            a = Archetype(
                name="wide", n_clusters=k, dim=dim, n_samples=100 * k,
                aspect_ref=1.5, aspect_maxmin=2.0, radius_maxmin=3.0,
                max_overlap=0.05, min_overlap=0.001,
            )
            bounds = OverlapBounds.from_overlaps(a.max_overlap, a.min_overlap)
            _, trace = optimize_centers(start_model(a, np.random.default_rng(seed)), bounds)
            assert trace[-1] <= 1e-12
            return len(trace)

        low = np.mean([epochs_for(2, s) for s in range(3)])
        high = np.mean([epochs_for(100, s) for s in range(3)])
        assert high <= 5 * low + 10


class TestNarrowBands:
    # drawn like `placement_sweep.py`'s narrow stratum (min_overlap /
    # max_overlap 0.8-0.98), rounded; at seed 0 a rate that never halves
    # overshoots each band on all four attempts
    ARCHETYPES = [
        {"name": "narrow5_15", "n_clusters": 2, "dim": 11, "aspect_ref": 2.48,
         "aspect_maxmin": 3.16, "radius_maxmin": 2.69, "scale": 0.121,
         "max_overlap": 0.0611, "min_overlap": 0.0589},
        {"name": "narrow5_21", "n_clusters": 9, "dim": 3, "aspect_ref": 2.43,
         "aspect_maxmin": 4.7, "radius_maxmin": 3.11, "scale": 1.08,
         "max_overlap": 0.000318, "min_overlap": 0.00031},
        {"name": "narrow5_66", "n_clusters": 7, "dim": 6, "aspect_ref": 1.44,
         "aspect_maxmin": 1.48, "radius_maxmin": 4.79, "scale": 0.0127,
         "max_overlap": 1.24e-06, "min_overlap": 1.19e-06},
        {"name": "narrow20_36", "n_clusters": 19, "dim": 15, "aspect_ref": 16.9,
         "aspect_maxmin": 12.1, "radius_maxmin": 11.0, "scale": 1.3,
         "max_overlap": 0.404, "min_overlap": 0.395},
    ]

    @pytest.mark.parametrize("spec", ARCHETYPES, ids=[a["name"] for a in ARCHETYPES])
    def test_converges_in_band(self, spec):
        a = Archetype.from_dict(spec)
        model = sample_mixture_model(a, np.random.default_rng(0))
        alphas = np.full((a.n_clusters, a.n_clusters), np.nan)
        for r in pairwise_overlaps(model):
            alphas[r.i, r.j] = alphas[r.j, r.i] = r.alpha_lda
        assert np.nanmax(alphas) <= a.max_overlap * (1 + 1e-6)
        assert np.nanmax(alphas, axis=1).min() >= a.min_overlap * (1 - 1e-6)


class TestEpochCounts:
    # Copies of the placement-heavy benchmark shapes.  The loss-trace length
    # of every optimize_centers attempt is pinned, so a kernel change that
    # moves output bits can show it leaves the placement path itself unchanged.
    SHAPES = [
        ("place_k50_d5", 50, 5, 1000, {0: [14], 1: [10]}),
        ("place_k30_d20", 30, 20, 600, {0: [2], 1: [2]}),
        ("place_k5_d200", 5, 200, 100, {0: [3], 1: [3]}),
    ]

    @pytest.mark.parametrize("name,k,dim,n,expected", SHAPES, ids=[s[0] for s in SHAPES])
    def test_trace_lengths_pinned(self, monkeypatch, name, k, dim, n, expected):
        import clustergen.placement as placement_mod

        original = placement_mod.optimize_centers
        lengths = []

        def recording(*args, **kwargs):
            try:
                placed, trace = original(*args, **kwargs)
            except NonConvergenceError as exc:
                lengths.append(len(exc.trace))
                raise
            lengths.append(len(trace))
            return placed, trace

        monkeypatch.setattr(placement_mod, "optimize_centers", recording)
        a = Archetype(
            name=name, n_clusters=k, dim=dim, n_samples=n,
            aspect_ref=2, aspect_maxmin=2, radius_maxmin=2,
        )
        for seed, want in expected.items():
            lengths.clear()
            sample_mixture_model(a, np.random.default_rng(seed))
            assert lengths == want
