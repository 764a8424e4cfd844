from dataclasses import replace

import numpy as np
import pytest

from clustergen.archetype import Archetype
from clustergen.mixture import (
    MixtureModel,
    covariance_of,
    sample_mixture_model,
    sample_orientation,
)
from clustergen.overlap import pairwise_overlaps


class TestSampleOrientation:
    @pytest.mark.parametrize("dim", [2, 10, 100])
    def test_columns_orthonormal(self, dim):
        u = sample_orientation(dim, np.random.default_rng(0), 1)[0]
        np.testing.assert_allclose(u.T @ u, np.eye(dim), atol=1e-8)

    def test_different_seeds_differ(self):
        a = sample_orientation(3, np.random.default_rng(0), 1)
        b = sample_orientation(3, np.random.default_rng(1), 1)
        assert not np.allclose(a, b)

    def test_dim_floor(self):
        with pytest.raises(ValueError):
            sample_orientation(1, np.random.default_rng(0), 1)

    @pytest.mark.parametrize("k, dim", [(50, 5), (30, 20), (5, 200), (12, 2), (1, 7)])
    def test_stack_equals_draws_in_turn(self, k, dim):
        # one QR per matrix, as the orientations were first drawn
        def one_at_a_time(rng):
            q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
            signs = np.sign(np.diag(r))
            signs[signs == 0] = 1.0
            return q * signs

        stacked_rng, rng = np.random.default_rng(k * dim), np.random.default_rng(k * dim)
        stack = sample_orientation(dim, stacked_rng, k)
        assert stack.shape == (k, dim, dim)
        np.testing.assert_array_equal(stack, [one_at_a_time(rng) for _ in range(k)])
        assert stacked_rng.bit_generator.state == rng.bit_generator.state


class TestCovarianceOf:
    def _cluster(self, axes, lengths):
        from clustergen.distributions import RadialDistribution
        from clustergen.mixture import Cluster

        return Cluster(
            center=np.zeros(axes.shape[0]),
            axes=axes,
            axis_lengths=np.asarray(lengths, dtype=float),
            radial_distribution=RadialDistribution("normal"),
        )

    def test_axis_aligned(self):
        cov = covariance_of(self._cluster(np.eye(2), [2.0, 1.0]))
        np.testing.assert_allclose(cov, np.diag([4.0, 1.0]))

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(3)
        u = sample_orientation(5, rng, 1)[0]
        cov = covariance_of(self._cluster(u, rng.uniform(0.5, 2.0, 5)))
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.linalg.eigvalsh(cov).min() > 0

    def test_rotated_matches_direct_product(self):
        theta = np.pi / 4
        u = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        lengths = np.array([np.sqrt(3), 1 / np.sqrt(3)])
        cov = covariance_of(self._cluster(u, lengths))
        expected = u @ np.diag(lengths**2) @ u.T
        np.testing.assert_allclose(cov, expected, rtol=1e-12)

    def test_eigenvalues_match_lengths(self):
        rng = np.random.default_rng(4)
        lengths = np.sort(rng.uniform(0.5, 3.0, 6))[::-1]
        cov = covariance_of(self._cluster(sample_orientation(6, rng, 1)[0], lengths))
        eigs = np.sort(np.linalg.eigvalsh(cov))[::-1]
        np.testing.assert_allclose(eigs, lengths**2, rtol=1e-8)


class TestSampleMixtureModel:
    def test_single_cluster_sits_at_origin(self):
        a = Archetype(name="solo", n_clusters=1, dim=3, n_samples=50)
        model = sample_mixture_model(a, np.random.default_rng(0))
        np.testing.assert_array_equal(model.clusters[0].center, np.zeros(3))

    def test_seven_clusters_10d_respect_max_overlap(self, benchmark_archetypes):
        highly_separated = benchmark_archetypes[2]
        model = sample_mixture_model(highly_separated, np.random.default_rng(0))
        assert model.n_clusters == 7 and model.dim == 10
        max_alpha = max(r.alpha_lda for r in pairwise_overlaps(model))
        assert max_alpha <= 1e-4 + 1e-9

    def test_fixed_seed_reproduces_bit_for_bit(self):
        a = Archetype(
            name="repro", n_clusters=4, dim=3, n_samples=200,
            aspect_ref=1.5, aspect_maxmin=2.0, radius_maxmin=2.0,
        )
        m1 = sample_mixture_model(a, np.random.default_rng(123))
        m2 = sample_mixture_model(a, np.random.default_rng(123))
        for c1, c2 in zip(m1.clusters, m2.clusters):
            np.testing.assert_array_equal(c1.center, c2.center)
            np.testing.assert_array_equal(c1.axes, c2.axes)
            np.testing.assert_array_equal(c1.axis_lengths, c2.axis_lengths)
            assert c1.radial_distribution == c2.radial_distribution
        np.testing.assert_array_equal(m1.group_sizes, m2.group_sizes)

    def test_invalid_archetype_rejected(self):
        a = Archetype(name="bad", n_clusters=3, min_overlap=0.5, max_overlap=0.1)
        with pytest.raises(Exception, match="min_overlap"):
            sample_mixture_model(a, np.random.default_rng(0))

    def test_geometry_invariants(self):
        a = Archetype(
            name="geom", n_clusters=5, dim=4, n_samples=100,
            aspect_ref=2.0, aspect_maxmin=2.0, radius_maxmin=2.0, scale=1.5,
        )
        model = sample_mixture_model(a, np.random.default_rng(9))
        aspects, radii = [], []
        for c in model.clusters:
            eigs = np.linalg.eigvalsh(covariance_of(c))
            aspects.append(np.sqrt(eigs.max() / eigs.min()))
            radii.append(np.exp(np.mean(np.log(c.axis_lengths))))
            # covariance aspect equals the sampled lengths' ratio
            assert abs(aspects[-1] - c.axis_lengths.max() / c.axis_lengths.min()) <= 1e-6
        aspects, radii = np.asarray(aspects), np.asarray(radii)
        assert abs(np.exp(np.mean(np.log(aspects))) - 2.0) <= 1e-6
        volumes = radii**a.dim
        assert abs(volumes.mean() - 1.5**a.dim) <= 1e-9 * 1.5**a.dim

    def test_group_sizes_match_cluster_count(self):
        a = Archetype(name="sizes", n_clusters=6, n_samples=660, imbalance_ratio=3.0)
        model = sample_mixture_model(a, np.random.default_rng(2))
        assert len(model.group_sizes) == 6
        assert model.group_sizes.sum() == 660

    def test_placement_restarts_on_nonconvergence(self, monkeypatch):
        from clustergen import placement
        from clustergen.errors import NonConvergenceError

        real = placement.optimize_centers
        attempts = []

        def flaky(model, bounds, config, rng):
            attempts.append(1)
            if len(attempts) < 3:
                raise NonConvergenceError(1.0, [1.0])
            return real(model, bounds, config, rng)

        monkeypatch.setattr(placement, "optimize_centers", flaky)
        a = Archetype(name="retry", n_clusters=3, n_samples=90)
        model = sample_mixture_model(a, np.random.default_rng(0))
        assert len(attempts) == 3
        assert model.n_clusters == 3

    def test_placement_restart_budget_exhausts(self, monkeypatch):
        from clustergen import placement
        from clustergen.errors import NonConvergenceError

        calls = []

        def always_fails(*args, **kwargs):
            calls.append(1)
            raise NonConvergenceError(2.0, [2.0])

        monkeypatch.setattr(placement, "optimize_centers", always_fails)
        a = Archetype(name="retry", n_clusters=3, n_samples=90)
        with pytest.raises(NonConvergenceError):
            sample_mixture_model(a, np.random.default_rng(0))
        assert len(calls) == 4  # initial try plus three restarts

    def test_centers_replay_from_last_init(self, monkeypatch):
        """Centers equal optimize_centers rerun from the last init_centers draw."""
        from clustergen import placement

        real = placement.init_centers
        draws = []

        def recording(k, dim, radii, config, rng):
            centers = real(k, dim, radii, config, rng)
            draws.append((centers.copy(), rng.bit_generator.state, config))
            return centers

        monkeypatch.setattr(placement, "init_centers", recording)
        a = Archetype(
            name="replay", n_clusters=5, dim=3, n_samples=100,
            aspect_ref=2.0, aspect_maxmin=2.0, radius_maxmin=2.0,
        )
        model = sample_mixture_model(a, np.random.default_rng(4))
        init, state, config = draws[-1]
        rng = np.random.default_rng()
        rng.bit_generator.state = state
        start = replace(
            model, clusters=[replace(c, center=init[j]) for j, c in enumerate(model.clusters)]
        )
        bounds = placement.OverlapBounds.from_overlaps(a.max_overlap, a.min_overlap)
        replayed, _ = placement.optimize_centers(start, bounds, config, rng)
        np.testing.assert_array_equal(replayed.centers, model.centers)

    @pytest.mark.parametrize("scale", [1e-3, 1e-2, 10.0, 1e3])
    def test_placement_is_scale_equivariant(self, scale):
        # the default learning rate grows as scale^2, so the placement run at any
        # scale is the unit-scale run scaled; a rate linear in scale diverged
        # below scale 0.1 and needed hundreds of epochs at scale 100
        base = dict(
            name="scaled", n_clusters=6, dim=3, n_samples=60,
            aspect_ref=2.0, aspect_maxmin=2.0, radius_maxmin=2.0,
        )
        unit = sample_mixture_model(Archetype(**base), np.random.default_rng(2))
        scaled = sample_mixture_model(Archetype(**base, scale=scale), np.random.default_rng(2))
        atol = 1e-12 * np.abs(unit.centers).max()
        np.testing.assert_allclose(scaled.centers / scale, unit.centers, rtol=0, atol=atol)


class TestSerialization:
    def test_json_round_trip(self):
        a = Archetype(
            name="serial", n_clusters=3, dim=2, n_samples=90,
            aspect_ref=1.5, aspect_maxmin=1.5, distributions=("beta", "normal"),
        )
        model = sample_mixture_model(a, np.random.default_rng(5))
        again = MixtureModel.from_json(model.to_json())
        assert again.archetype_name == model.archetype_name
        np.testing.assert_array_equal(again.group_sizes, model.group_sizes)
        for c1, c2 in zip(model.clusters, again.clusters):
            np.testing.assert_allclose(c1.center, c2.center, rtol=0, atol=0)
            np.testing.assert_allclose(c1.axes, c2.axes, rtol=0, atol=0)
            np.testing.assert_allclose(c1.axis_lengths, c2.axis_lengths, rtol=0, atol=0)
            assert c1.radial_distribution.name == c2.radial_distribution.name
