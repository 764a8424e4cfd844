import math
import re

import numpy as np
import pytest

from clustergen.archetype import (
    Archetype,
    assign_distributions,
    sample_aspect_ratios,
    sample_axis_lengths,
    sample_cluster_radii,
    sample_group_sizes,
    sample_hyperparams,
    validate_archetype,
)
from clustergen.errors import ArchetypeValidationError

def make_archetype(**overrides):
    base = dict(
        name="twelve_clusters_different_distributions",
        n_clusters=12,
        dim=2,
        n_samples=1200,
        aspect_ref=1.5,
        aspect_maxmin=2,
        radius_maxmin=3,
        imbalance_ratio=2,
        max_overlap=0.05,
        min_overlap=0.001,
        distributions=("normal", "exponential", "gamma", "weibull", "lognormal"),
    )
    base.update(overrides)
    return Archetype(**base)


class TestValidateArchetype:
    def test_benchmark_archetype_is_valid(self):
        assert validate_archetype(make_archetype()) == []

    def test_equal_overlaps_violate_strict_order(self):
        violations = validate_archetype(
            make_archetype(min_overlap=0.05, max_overlap=0.05)
        )
        assert len(violations) == 1
        assert "min_overlap" in violations[0]

    def test_leading_digit_name_rejected(self):
        violations = validate_archetype(make_archetype(name="7clusters"))
        assert len(violations) == 1
        assert "name" in violations[0]

    def test_unsupported_distribution_named(self):
        violations = validate_archetype(make_archetype(distributions=("cauchy",)))
        assert violations and "cauchy" in violations[0]

    def test_proportions_must_sum_to_one(self):
        violations = validate_archetype(
            make_archetype(
                distributions=("normal", "exponential"),
                distribution_proportions=(0.7, 0.4),
            )
        )
        assert violations and "sum" in violations[0]

    def test_fewer_samples_than_clusters_rejected(self):
        violations = validate_archetype(make_archetype(n_clusters=7, n_samples=5))
        assert violations == ["n_samples=5 cannot cover n_clusters=7"]
        assert validate_archetype(make_archetype(n_clusters=7, n_samples=7)) == []
        with pytest.raises(ArchetypeValidationError, match="cannot cover"):
            Archetype.from_dict({"name": "x", "n_clusters": 7, "n_samples": 5})

    @pytest.mark.parametrize(
        "field", ["scale", "aspect_ref", "aspect_maxmin", "radius_maxmin", "imbalance_ratio"]
    )
    def test_infinity_rejected(self, field):
        violations = validate_archetype(make_archetype(**{field: float("inf")}))
        assert len(violations) == 1 and violations[0].startswith(field)
        with pytest.raises(ArchetypeValidationError, match=field):
            Archetype.from_json(f'{{"name": "x", "n_clusters": 3, "{field}": Infinity}}')

    def test_nonfinite_proportion_rejected(self):
        for bad in (float("nan"), float("inf")):
            violations = validate_archetype(
                make_archetype(distributions=("normal", "gamma"), distribution_proportions=(bad, 1.0))
            )
            assert violations == ["distribution_proportions must be a list of finite numbers"]

    @pytest.mark.parametrize("scale,valid", [
        (1e-100, True), (1e100, True), (1e-101, False), (1e101, False), (0.0, False),
    ])
    def test_scale_range(self, scale, valid):
        violations = validate_archetype(make_archetype(scale=scale))
        assert violations == ([] if valid else [f"scale must lie in [1e-100, 1e+100], got {scale!r}"])

    @pytest.mark.parametrize("aspect_ref,aspect_maxmin,valid", [
        (1e6, 1.0, True), (1.0, 1e12, True), (1e3, 1e6, True),
        (1.000001e6, 1.0, False), (1.0, 1.00001e12, False), (1e3, 1.00001e6, False),
        (1e20, 1.0, False),
    ])
    def test_largest_drawn_aspect_bound(self, aspect_ref, aspect_maxmin, valid):
        # aspect² is a covariance's condition number, refused above 1e12
        violations = validate_archetype(
            make_archetype(aspect_ref=aspect_ref, aspect_maxmin=aspect_maxmin)
        )
        largest = aspect_ref * math.sqrt(aspect_maxmin)
        assert violations == ([] if valid else [
            "aspect_ref·√aspect_maxmin, the largest aspect ratio drawn, must be at most "
            f"1e+06, got {largest!r}"
        ])

    @pytest.mark.parametrize("overrides,violation", [
        ({"n_clusters": 2.5}, "n_clusters must be a positive integer, got 2.5"),
        ({"n_clusters": 0}, "n_clusters must be a positive integer, got 0"),
        ({"dim": 2.0}, "dim must be an integer >= 2, got 2.0"),
        ({"dim": 1}, "dim must be an integer >= 2, got 1"),
        ({"n_samples": 1200.0}, "n_samples must be a positive integer, got 1200.0"),
        ({"n_samples": 0}, "n_samples must be a positive integer, got 0"),
        ({"max_overlap": 1.0}, "max_overlap must lie in (0, 1), got 1.0"),
        ({"min_overlap": 0.0}, "min_overlap must lie in (0, 1), got 0.0"),
        ({"distributions": ()}, "distributions must be a nonempty list of family names"),
        ({"distribution_proportions": (0.5, 0.5)},
         "distribution_proportions has 2 entries for 5 distributions"),
        ({"distributions": ("normal", "gamma"), "distribution_proportions": (1.5, -0.5)},
         "distribution_proportions entries must be nonnegative"),
    ])
    def test_refusal_names_the_field(self, overrides, violation):
        assert validate_archetype(make_archetype(**overrides)) == [violation]

    @pytest.mark.parametrize("key", ["n_clusters", "dim", "n_samples"])
    def test_counts_capped_at_2_to_the_53(self, key):
        # every count up to 2**53 is exact in float64
        at_cap = {"n_samples": 2**53, key: 2**53}
        assert validate_archetype(make_archetype(**at_cap)) == []
        violations = validate_archetype(make_archetype(**{**at_cap, key: 2**53 + 1}))
        assert violations == [f"{key} must be at most 2**53 = 9007199254740992, got {2**53 + 1}"]

    @pytest.mark.parametrize("key,count", [
        ("aspect_ref", 1), ("aspect_maxmin", 1), ("radius_maxmin", 1), ("imbalance_ratio", 1),
        ("scale", 1), ("max_overlap", 1), ("min_overlap", 2),  # range and order
    ])
    def test_integer_too_large_for_a_float_is_a_violation(self, key, count):
        violations = validate_archetype(make_archetype(**{key: 10**400}))
        assert len(violations) == count
        assert all(v.startswith(key) for v in violations)
        with pytest.raises(ArchetypeValidationError, match=key):
            Archetype.from_json(f'{{"name": "x", "n_clusters": 3, "{key}": {10**400}}}')

    @pytest.mark.parametrize("key", [
        "n_clusters", "dim", "n_samples", "aspect_ref", "aspect_maxmin", "radius_maxmin",
        "imbalance_ratio", "scale", "max_overlap", "min_overlap", "name",
    ])
    def test_int_too_long_to_print_is_shown_by_its_digits(self, key):
        # str() refuses an int of over 4300 digits; messages show the digit count
        violations = validate_archetype(make_archetype(**{key: -(10**5000)}))
        assert violations and all(key in v and "an int of 5001 digits" in v for v in violations)
        (violation,) = validate_archetype(make_archetype(distributions=(10**5000 - 1,)))
        assert violation == "unsupported distribution an int of 5000 digits"

    def test_long_int_in_a_violation(self):
        assert validate_archetype(make_archetype(n_samples=10**30 - 1, n_clusters=10**30)) == [
            "n_clusters must be at most 2**53 = 9007199254740992, got an int of 31 digits",
            f"n_samples must be at most 2**53 = 9007199254740992, got {10**30 - 1}",
        ]

    def test_proportion_too_large_for_a_float_is_a_violation(self):
        violations = validate_archetype(
            make_archetype(distributions=("normal", "gamma"), distribution_proportions=(10**400, 0))
        )
        assert violations == ["distribution_proportions must be a list of finite numbers"]

    def test_n_samples_defaults_to_100_per_cluster(self):
        a = Archetype(name="defaulted", n_clusters=7)
        assert a.n_samples == 700
        assert validate_archetype(a) == []


def unit_spread_archetype(**overrides):
    return make_archetype(aspect_maxmin=1, radius_maxmin=1, imbalance_ratio=1, **overrides)


class TestMaxMinSample:
    """The max-min draw contract, through the four public samplers.

    Aspect ratios and axis lengths keep a geometric mean, group sizes and
    cluster volumes a sum; values come in conjugate pairs, one triangular
    draw per pair, and an odd count ends with the reference.
    """

    def test_unit_ratio_forces_constant(self):
        a = unit_spread_archetype(n_clusters=5, n_samples=500, aspect_ref=2.0, scale=3.0)
        rng = np.random.default_rng(0)
        np.testing.assert_array_equal(sample_aspect_ratios(a, rng), np.full(5, 2.0))
        np.testing.assert_array_equal(sample_cluster_radii(a, rng), np.full(5, 3.0))
        np.testing.assert_array_equal(sample_group_sizes(a, rng), np.full(5, 100))
        np.testing.assert_array_equal(sample_axis_lengths(1.0, 2.0, 5, rng), np.full(5, 2.0))

    def test_unit_ratio_draws_nothing(self):
        # the golden hashes rely on unit spreads leaving the stream untouched
        for k, dim in ((1, 2), (2, 3), (7, 10), (12, 2)):
            a = unit_spread_archetype(n_clusters=k, dim=dim, n_samples=100 * k, aspect_ref=1.7)
            rng = np.random.default_rng(5)
            before = rng.bit_generator.state
            sample_aspect_ratios(a, rng)
            sample_cluster_radii(a, rng)
            sample_group_sizes(a, rng)
            sample_axis_lengths(1.0, 1.5, dim, rng)
            assert rng.bit_generator.state == before

    def test_geometric_mean_and_ratio_bound_over_many_draws(self):
        a = make_archetype(n_clusters=4, aspect_ref=1.5, aspect_maxmin=3.0)
        rng = np.random.default_rng(42)
        for _ in range(2000):
            for values in (
                sample_aspect_ratios(a, rng),
                sample_axis_lengths(3.0, 1.5, 6, rng),
            ):
                gm = np.exp(np.mean(np.log(values)))
                assert abs(gm - 1.5) <= 1e-9 * 1.5
                assert values.max() / values.min() <= 3.0 * (1 + 1e-12)

    def test_sum_pair_endpoints(self):
        # s_max/s_min = 2 with s_max + s_min = 200 solves to [200/3, 400/3];
        # the sizes are those values floored and rounded to total 200
        a = make_archetype(n_clusters=2, n_samples=200, imbalance_ratio=2.0)
        rng = np.random.default_rng(7)
        for _ in range(2000):
            s, partner = sample_group_sizes(a, rng)
            assert 200 // 3 <= s <= 400 // 3 + 1
            assert s + partner == 200
        # volumes s and 2 - s lie in [2/(1+M), 2M/(1+M)] with M = 3**dim
        b = make_archetype(n_clusters=2, dim=2, radius_maxmin=3.0)
        for _ in range(2000):
            volumes = sample_cluster_radii(b, rng) ** 2
            assert volumes.min() >= 2.0 / 10.0 * (1 - 1e-12)
            assert volumes.max() <= 18.0 / 10.0 * (1 + 1e-12)
            assert volumes.sum() == pytest.approx(2.0, rel=1e-15)

    def test_conjugate_pairs_hold_exactly(self):
        rng = np.random.default_rng(3)
        a = make_archetype(n_clusters=6, dim=2, aspect_ref=2.5, aspect_maxmin=4.0, radius_maxmin=5.0)
        values = sample_aspect_ratios(a, rng)
        for p in range(3):
            assert values[2 * p] * values[2 * p + 1] == pytest.approx(2.5**2, rel=1e-15)
        volumes = sample_cluster_radii(a, rng) ** 2
        for p in range(3):
            assert volumes[2 * p] + volumes[2 * p + 1] == pytest.approx(2.0, rel=1e-15)

    def test_odd_count_appends_reference(self):
        rng = np.random.default_rng(1)
        a = make_archetype(n_clusters=5, aspect_ref=3.0, aspect_maxmin=2.0, scale=2.0)
        assert sample_aspect_ratios(a, rng)[-1] == 3.0
        assert sample_cluster_radii(a, rng)[-1] == 2.0
        # the five axes between the two extremes end with the radius
        lengths = sample_axis_lengths(2.0, 1.5, 7, rng)
        assert 1.5 in lengths

    @pytest.mark.parametrize("aspect,radius,message", [
        (0.5, 1.0, "aspect must be >= 1, got 0.5"),
        (2.0, 0.0, "radius must be positive, got 0.0"),
        (2.0, -1.0, "radius must be positive, got -1.0"),
    ])
    def test_axis_lengths_refuse_bad_aspect_or_radius(self, aspect, radius, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sample_axis_lengths(aspect, radius, 3, np.random.default_rng(0))

    def test_random_specs_property_sweep(self):
        # location constraint to 1e-9 relative and ratio bound, all four samplers
        rng = np.random.default_rng(2024)
        for _ in range(2000):
            k = int(rng.integers(1, 9))
            dim = int(rng.integers(2, 9))
            ref = float(rng.uniform(1.0, 50.0))
            ratio = float(rng.uniform(1.0, 10.0))
            scale = float(rng.uniform(0.1, 50.0))
            a = make_archetype(
                n_clusters=k, dim=dim, n_samples=1000 * k, aspect_ref=ref, aspect_maxmin=ratio,
                radius_maxmin=ratio, imbalance_ratio=ratio, scale=scale,
            )
            aspects = sample_aspect_ratios(a, rng)
            assert (aspects >= 1.0).all()
            assert abs(np.exp(np.mean(np.log(aspects))) - ref) <= 1e-9 * ref
            assert aspects.max() / aspects.min() <= ratio * (1 + 1e-12)
            lengths = sample_axis_lengths(ratio, scale, dim, rng)
            assert abs(np.exp(np.mean(np.log(lengths))) - scale) <= 1e-9 * scale
            assert lengths.max() / lengths.min() <= ratio * (1 + 1e-12)
            radii = sample_cluster_radii(a, rng)
            relative_volumes = (radii / scale) ** dim
            assert abs(relative_volumes.mean() - 1.0) <= 1e-9
            assert radii.max() / radii.min() <= ratio * (1 + 1e-12)
            sizes = sample_group_sizes(a, rng)
            assert sizes.sum() == 1000 * k
            # each size is within one count of its real-valued draw
            assert sizes.max() <= ratio * (sizes.min() + 1) + 1


class TestGroupSizes:
    def test_perfect_balance(self):
        a = make_archetype(n_clusters=2, n_samples=100, imbalance_ratio=1)
        np.testing.assert_array_equal(
            sample_group_sizes(a, np.random.default_rng(0)), [50, 50]
        )

    def test_benchmark_sizes_sum_and_ratio(self):
        a = make_archetype()
        rng = np.random.default_rng(5)
        for _ in range(200):
            sizes = sample_group_sizes(a, rng)
            assert sizes.sum() == 1200
            assert sizes.min() >= 1
            assert sizes.max() <= 2 * sizes.min() + 1  # ratio with 1-count slack

    def test_infeasible_rejected(self):
        a = make_archetype(n_clusters=6, n_samples=5)
        with pytest.raises(ValueError):
            sample_group_sizes(a, np.random.default_rng(0))

    @pytest.mark.parametrize("k,imbalance", [
        (1, 1.0), (2, 1.0), (3, 7.5), (7, 1e3), (50, 1e8), (4999, 2.0),
    ])
    def test_sum_is_exact_at_the_count_cap(self, k, imbalance):
        a = make_archetype(n_clusters=k, n_samples=2**53, imbalance_ratio=imbalance)
        sizes = sample_group_sizes(a, np.random.default_rng(k))
        assert int(sizes.sum()) == 2**53
        assert sizes.min() >= 1

    def test_same_seed_same_multiset(self):
        a = make_archetype(imbalance_ratio=3)
        first = sample_group_sizes(a, np.random.default_rng(99))
        second = sample_group_sizes(a, np.random.default_rng(99))
        assert sorted(first) == sorted(second)


class TestAspectRatios:
    def test_spherical_archetype(self):
        a = make_archetype(aspect_ref=1, aspect_maxmin=1)
        values = sample_aspect_ratios(a, np.random.default_rng(0))
        np.testing.assert_array_equal(values, np.ones(12))

    def test_constant_elongation(self):
        a = make_archetype(aspect_ref=5, aspect_maxmin=1.0)
        values = sample_aspect_ratios(a, np.random.default_rng(0))
        np.testing.assert_array_equal(values, np.full(12, 5.0))

    def test_postconditions_incl_clamp_regime(self):
        # maxmin > ref^2 lets raw pairs dip below 1, exercising the clamp
        a = make_archetype(n_clusters=9, aspect_ref=1.1, aspect_maxmin=3.0)
        rng = np.random.default_rng(11)
        for _ in range(2000):
            values = sample_aspect_ratios(a, rng)
            assert (values >= 1.0).all()
            gm = np.exp(np.mean(np.log(values)))
            assert abs(gm - 1.1) <= 1e-9 * 1.1
            assert values.max() / values.min() <= 3.0 + 1e-12


    def test_unit_reference_never_rounds_below_one(self):
        # the clamped pair's product 1 * 1 once rounded to 1 - 2**-53 on
        # about one seed in eight, and sample_axis_lengths refused it
        a = make_archetype(n_clusters=2, aspect_ref=1.0, aspect_maxmin=11.277017836090344)
        for seed in range(200):
            assert (sample_aspect_ratios(a, np.random.default_rng(seed)) >= 1.0).all()


class TestClusterRadii:
    def test_unit_ratio_gives_scale(self):
        a = make_archetype(radius_maxmin=1, scale=1.0)
        np.testing.assert_allclose(
            sample_cluster_radii(a, np.random.default_rng(0)), np.ones(12)
        )

    def test_single_cluster_equals_scale(self):
        a = make_archetype(n_clusters=1, n_samples=100, scale=2.5)
        values = sample_cluster_radii(a, np.random.default_rng(0))
        np.testing.assert_allclose(values, [2.5])

    def test_volume_average_and_radius_ratio(self):
        a = make_archetype(scale=1.5)
        rng = np.random.default_rng(8)
        for _ in range(2000):
            radii = sample_cluster_radii(a, rng)
            volumes = radii**a.dim
            assert abs(volumes.mean() - 1.5**a.dim) <= 1e-9 * 1.5**a.dim
            assert radii.max() / radii.min() <= 3.0 * (1 + 1e-12)

    @pytest.mark.parametrize(
        "dim,scale,ratio", [(400, 10.0, 1.0), (1000, 1.0, 3.0), (200, 1e-3, 1.0), (1000, 1e-3, 3.0)]
    )
    def test_extreme_dim_scale_and_ratio(self, dim, scale, ratio):
        # scale**dim and ratio**dim overflow or underflow here; the radii must not
        a = make_archetype(n_clusters=6, dim=dim, n_samples=600, scale=scale, radius_maxmin=ratio)
        radii = sample_cluster_radii(a, np.random.default_rng(0))
        assert np.isfinite(radii).all() and (radii > 0).all()
        assert radii.max() / radii.min() <= ratio * (1 + 1e-12)
        relative_volumes = np.exp(dim * np.log(radii / scale))
        assert abs(relative_volumes.mean() - 1.0) <= 1e-9

    def test_high_dimension_does_not_overflow(self):
        a = make_archetype(n_clusters=4, dim=100, n_samples=400)
        radii = sample_cluster_radii(a, np.random.default_rng(0))
        assert np.isfinite(radii).all()
        assert radii.max() / radii.min() <= 3.0 * (1 + 1e-9)


class TestAxisLengths:
    def test_spherical(self):
        lengths = sample_axis_lengths(1.0, 2.0, 4, np.random.default_rng(0))
        np.testing.assert_array_equal(lengths, np.full(4, 2.0))

    def test_two_dim_solution(self):
        lengths = sample_axis_lengths(3.0, 1.0, 2, np.random.default_rng(0))
        np.testing.assert_allclose(lengths, [np.sqrt(3), 1 / np.sqrt(3)], rtol=1e-12)

    def test_high_dim_postconditions(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            lengths = sample_axis_lengths(2.0, 1.5, 10, rng)
            assert (np.diff(lengths) <= 0).all()  # sorted descending
            gm = np.exp(np.mean(np.log(lengths)))
            assert abs(gm - 1.5) <= 1e-9 * 1.5
            assert abs(lengths.max() / lengths.min() - 2.0) <= 1e-6


class TestAssignDistributions:
    def test_single_family(self):
        a = make_archetype(n_clusters=5, n_samples=500, distributions=("normal",))
        assert assign_distributions(a, np.random.default_rng(0)) == ["normal"] * 5

    def test_largest_fraction_rounding(self):
        a = make_archetype(
            n_clusters=8,
            n_samples=800,
            distributions=("exponential", "normal"),
            distribution_proportions=(0.7, 0.3),
        )
        assigned = assign_distributions(a, np.random.default_rng(0))
        assert assigned.count("exponential") == 6  # round(5.6)
        assert assigned.count("normal") == 2

    def test_even_split(self):
        a = make_archetype(
            n_clusters=8,
            n_samples=800,
            distributions=("exponential", "normal"),
            distribution_proportions=(0.5, 0.5),
        )
        assigned = assign_distributions(a, np.random.default_rng(1))
        assert assigned.count("exponential") == 4
        assert assigned.count("normal") == 4

    def test_counts_stable_across_seeds(self):
        a = make_archetype()
        reference = sorted(assign_distributions(a, np.random.default_rng(0)))
        for seed in range(1, 30):
            assert sorted(assign_distributions(a, np.random.default_rng(seed))) == reference


class TestSampleHyperparams:
    def test_pinned_bounds_reproduce_center(self):
        a = make_archetype()
        bounds = {"n_clusters": (12, 12), "dim": (2, 2), "n_samples": (1200, 1200)}
        variants = sample_hyperparams(a, 5, bounds, np.random.default_rng(0))
        assert len(variants) == 5
        for v in variants:
            assert (v.n_clusters, v.dim, v.n_samples) == (12, 2, 1200)

    def test_bounds_respected(self):
        a = make_archetype(n_clusters=7, n_samples=700)
        bounds = {"n_clusters": (2, 20)}
        rng = np.random.default_rng(1)
        variants = sample_hyperparams(a, 1000, bounds, rng)
        ks = [v.n_clusters for v in variants]
        assert min(ks) >= 2 and max(ks) <= 20
        assert len(set(ks)) > 1  # actually resamples

    def test_structural_floors(self):
        a = make_archetype(n_clusters=1, n_samples=100)
        variants = sample_hyperparams(a, 500, None, np.random.default_rng(2))
        assert min(v.n_clusters for v in variants) >= 1
        assert min(v.dim for v in variants) >= 2

    def test_variants_cover_their_clusters(self):
        a = make_archetype(n_clusters=5, n_samples=5)
        variants = sample_hyperparams(a, 500, None, np.random.default_rng(0))
        assert all(v.n_samples >= v.n_clusters for v in variants)
        assert all(validate_archetype(v) == [] for v in variants)
        assert len({v.n_clusters for v in variants}) > 1

    def test_valid_variants_unchanged_by_the_floor(self):
        # the floor only redraws n_samples, the last draw of a variant, so
        # variants that already covered their clusters match draws floored
        # at the structural minimums alone
        a = make_archetype(n_clusters=4, n_samples=400)
        rng = np.random.default_rng(3)

        def draw(center, floor):
            while (value := int(rng.poisson(center))) < floor:
                pass
            return value

        for v in sample_hyperparams(a, 50, None, np.random.default_rng(3)):
            assert [v.n_clusters, v.dim, v.n_samples] == [draw(4, 1), draw(2, 2), draw(400, 1)]

    def test_n_clusters_capped_at_n_samples_maximum(self):
        # uncapped, a drawn n_clusters above 6 leaves n_samples no value in [k, 6]
        a = make_archetype(n_clusters=5, n_samples=5)
        variants = sample_hyperparams(a, 200, {"n_samples": (5, 6)}, np.random.default_rng(0))
        assert all(v.n_clusters <= v.n_samples <= 6 for v in variants)
        assert all(validate_archetype(v) == [] for v in variants)
        assert {v.n_clusters for v in variants} >= {5, 6}

    def test_draws_capped_at_2_to_the_53(self):
        # half of the Poisson draws around 2**53 land above it
        a = make_archetype(n_samples=2**53)
        variants = sample_hyperparams(a, 20, None, np.random.default_rng(0))
        assert all(v.n_samples <= 2**53 for v in variants)
        assert all(validate_archetype(v) == [] for v in variants)

    def test_inverted_bounds_rejected(self):
        a = make_archetype()
        with pytest.raises(ValueError, match="inverted"):
            sample_hyperparams(a, 1, {"n_samples": (100, 50)}, np.random.default_rng(0))

    def test_bounds_excluding_center_rejected(self):
        a = make_archetype()
        with pytest.raises(ValueError, match="center"):
            sample_hyperparams(a, 1, {"dim": (50, 60)}, np.random.default_rng(0))


class TestJsonRoundTrip:
    def test_round_trip_idempotent(self):
        a = make_archetype(distribution_proportions=(0.4, 0.3, 0.1, 0.1, 0.1))
        text = a.to_json()
        again = Archetype.from_json(text)
        assert again == a
        assert again.to_json() == text

    def test_unknown_keys_rejected(self):
        with pytest.raises(ArchetypeValidationError, match="unknown"):
            Archetype.from_dict({"name": "x", "n_clusters": 2, "volume": 3})

    def test_jsonl_save_load_round_trip(self, tmp_path):
        from clustergen.archetype import load_archetypes_jsonl

        originals = [
            make_archetype(),
            make_archetype(name="second", n_clusters=3, n_samples=120),
        ]
        path = tmp_path / "collection.jsonl"
        path.write_text("".join(a.to_json() + "\n" for a in originals), encoding="utf-8")
        assert load_archetypes_jsonl(path) == originals

    def test_jsonl_repeated_name_names_both_lines(self, tmp_path):
        # two archetypes of one name would write the same CSV files
        from clustergen.archetype import load_archetypes_jsonl

        path = tmp_path / "dup.jsonl"
        path.write_text('{"name":"dup","n_clusters":3}\n\n{"name":"dup","n_clusters":4}\n')
        taken = ":3: name 'dup' is already taken by line 1"
        with pytest.raises(ArchetypeValidationError, match=taken):
            load_archetypes_jsonl(path)
