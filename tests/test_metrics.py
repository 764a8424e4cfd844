"""Metric tests, anchored by independent brute-force oracles.

The AMI oracle computes the expected mutual information with exact
rational hypergeometric probabilities; the ARI oracle enumerates all
point pairs.  Both are deliberately different code paths from the package
implementations.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from clustergen import metrics
from clustergen.metrics import ami, ari, evaluate_dataset, kmeans, silhouette
from clustergen.mixture import sample_mixture_model
from clustergen.sampling import sample_dataset


def contingency(a, b):
    table = np.zeros((a.max() + 1, b.max() + 1), dtype=int)
    for x, y in zip(a, b):
        table[x, y] += 1
    return table


def emi_bruteforce(row_sums, col_sums, n):
    """Expected MI over the hypergeometric null, exact rationals."""
    emi = 0.0
    for ai in row_sums:
        for bj in col_sums:
            lo, hi = max(1, ai + bj - n), min(ai, bj)
            for nij in range(lo, hi + 1):
                prob = Fraction(
                    math.factorial(ai)
                    * math.factorial(bj)
                    * math.factorial(n - ai)
                    * math.factorial(n - bj),
                    math.factorial(n)
                    * math.factorial(nij)
                    * math.factorial(ai - nij)
                    * math.factorial(bj - nij)
                    * math.factorial(n - ai - bj + nij),
                )
                emi += float(prob) * (nij / n) * math.log(n * nij / (ai * bj))
    return emi


def ami_bruteforce(a, b):
    table = contingency(a, b)
    n = len(a)
    row_sums = table.sum(axis=1)
    col_sums = table.sum(axis=0)
    mi = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            nij = table[i, j]
            if nij:
                mi += (nij / n) * math.log(n * nij / (row_sums[i] * col_sums[j]))
    h_a = -sum(c / n * math.log(c / n) for c in row_sums if c)
    h_b = -sum(c / n * math.log(c / n) for c in col_sums if c)
    emi = emi_bruteforce(row_sums, col_sums, n)
    denominator = 0.5 * (h_a + h_b) - emi
    return (mi - emi) / denominator


def ari_bruteforce(a, b):
    n = len(a)
    n11 = n00 = n10 = n01 = 0
    for i in range(n):
        for j in range(i + 1, n):
            same_a = a[i] == a[j]
            same_b = b[i] == b[j]
            if same_a and same_b:
                n11 += 1
            elif same_a:
                n10 += 1
            elif same_b:
                n01 += 1
            else:
                n00 += 1
    numer = 2.0 * (n11 * n00 - n10 * n01)
    denom = (n11 + n10) * (n10 + n00) + (n11 + n01) * (n01 + n00)
    return numer / denom


def silhouette_bruteforce(X, labels):
    """Mean silhouette from explicit per-pair norms, one point at a time."""
    n = len(labels)
    classes = sorted(set(labels.tolist()))
    total = 0.0
    for i in range(n):
        own = [j for j in range(n) if labels[j] == labels[i] and j != i]
        if not own:
            continue  # singleton scores 0
        a = sum(np.linalg.norm(X[i] - X[j]) for j in own) / len(own)
        b = min(
            np.mean([np.linalg.norm(X[i] - X[j]) for j in range(n) if labels[j] == c])
            for c in classes
            if c != labels[i]
        )
        total += (b - a) / max(a, b)
    return total / n


def random_silhouette_cases(rng, count):
    """(X, labels) with unequal classes, some singletons and k up to 12."""
    for _ in range(count):
        k = int(rng.integers(2, 13))
        sizes = rng.integers(1, 9, size=k)
        sizes[rng.random(k) < 0.3] = 1
        labels = np.repeat(np.arange(k), sizes)
        rng.shuffle(labels)
        dim = int(rng.integers(1, 6))
        X = rng.normal(size=(labels.size, dim)) + 3.0 * rng.normal(size=(k, dim))[labels]
        yield X, labels


def random_nondegenerate_labels(rng, n, k):
    while True:
        labels = rng.integers(0, k, size=n)
        if np.unique(labels).size >= 2:
            _, compact = np.unique(labels, return_inverse=True)
            return compact


def lloyd_reference(X, centers, max_iter=300, rel_tol=1e-6):
    """Lloyd iterations as first written: n×k×d distances and masked means."""

    def wcss():
        return float(np.sum((X - centers[assignment]) ** 2))

    previous = np.inf
    for _ in range(max_iter):
        distances = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assignment = np.argmin(distances, axis=1)
        for j in range(centers.shape[0]):
            mask = assignment == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:
                centers[j] = X[np.argmax(distances.min(axis=1))]
        current = wcss()
        if previous - current <= rel_tol * max(previous, 1e-300):
            break
        previous = current
    return assignment, wcss()


def kmeans_reference(X, k, rng, n_init=10):
    """Best of n_init reference Lloyd runs from k-means++ seeds."""

    def seed():
        n = X.shape[0]
        centers = np.empty((k, X.shape[1]))
        centers[0] = X[rng.integers(n)]
        closest = np.sum((X - centers[0]) ** 2, axis=1)
        for j in range(1, k):
            total = closest.sum()
            if total <= 0:
                centers[j:] = X[rng.integers(n, size=k - j)]
                break
            centers[j] = X[rng.choice(n, p=closest / total)]
            closest = np.minimum(closest, np.sum((X - centers[j]) ** 2, axis=1))
        return centers

    best_assignment, best_score = None, np.inf
    for _ in range(n_init):
        assignment, score = lloyd_reference(X, seed())
        if score < best_score:
            best_assignment, best_score = assignment, score
    return np.unique(best_assignment, return_inverse=True)[1]


def same_partition(a, b) -> bool:
    """Whether two labelings group the points alike, whatever their label ids."""
    pairs = np.unique(np.stack([a, b]), axis=1)
    return pairs.shape[1] == np.unique(a).size == np.unique(b).size


def assert_kmeans_matches_reference(X, k, seed):
    """Same partition and the same draws as the reference.

    AMI, ARI and `bench` read only the partition.  `kmeans` takes its
    distances from row norms and one matrix-vector product, rounded
    otherwise than the reference's, so at a tie a restart may pick another
    row and its labels come out renamed.
    """
    rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert same_partition(kmeans(X, k, rng=rng), kmeans_reference(X, k, reference_rng))
    assert rng.bit_generator.state == reference_rng.bit_generator.state


class TestKmeans:
    def test_recovers_separated_blobs(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(60, 2)) + [0, 0]
        b = rng.normal(size=(40, 2)) + [20, 0]  # 20 sigma apart
        X = np.vstack([a, b])
        truth = np.array([0] * 60 + [1] * 40)
        result = kmeans(X, 2, rng=np.random.default_rng(1))
        assert ami(truth, result) == pytest.approx(1.0)

    def test_single_cluster(self):
        X = np.random.default_rng(2).normal(size=(30, 3))
        result = kmeans(X, 1, rng=np.random.default_rng(0))
        assert np.unique(result).size == 1

    def test_k_equals_n_zero_wcss(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 2)) * 5
        result = kmeans(X, 8, rng=np.random.default_rng(0))
        assert np.unique(result).size == 8
        centers = np.stack([X[result == j].mean(axis=0) for j in range(8)])
        assert np.sum((X - centers[result]) ** 2) == pytest.approx(0.0, abs=1e-20)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(np.zeros((3, 2)), 4, rng=np.random.default_rng(0))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        r1 = kmeans(X, 3, rng=np.random.default_rng(11))
        r2 = kmeans(X, 3, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(r1, r2)

    def test_labels_cover_range_without_empty_class(self):
        # duplicate points force empty clusters, whose ids are compacted away
        rng = np.random.default_rng(6)
        for X, k in (
            (rng.normal(size=(200, 3)), 7),
            (np.repeat(rng.normal(size=(3, 2)), 10, axis=0), 6),
            (np.zeros((5, 2)), 4),
        ):
            labels = kmeans(X, k, rng=rng)
            assert labels.shape == (X.shape[0],) and labels.dtype.kind == "i"
            assert np.array_equal(np.unique(labels), np.arange(labels.max() + 1))
            assert labels.max() < k

    def test_benchmark_archetypes_match_reference(self, benchmark_archetypes):
        for a in benchmark_archetypes:
            for seed in range(3):
                rng = np.random.default_rng(seed)
                dataset = sample_dataset(sample_mixture_model(a, rng), rng)
                assert_kmeans_matches_reference(dataset.points, a.n_clusters, seed)

    def test_empty_cluster_reseed_matches_reference(self):
        # a centre far from every point owns none of them and is reseeded
        # at the point farthest from its nearest centre
        X = np.random.default_rng(18).normal(size=(40, 2))
        start = np.vstack([X[:2], [[1e3, 1e3]]])
        mean = X.mean(axis=0)
        centred = X - mean
        centers = start - mean
        assignment, score = metrics._lloyd(centred, np.sum(centred**2, axis=1), centers)
        reference_centers = start.copy()
        reference_assignment, reference_score = lloyd_reference(X, reference_centers)
        np.testing.assert_array_equal(assignment, reference_assignment)
        # the centroid sums and the WCSS are summed in another order
        np.testing.assert_allclose(centers + mean, reference_centers, rtol=1e-12, atol=1e-12)
        assert score == pytest.approx(reference_score, rel=1e-12)
        # three distinct points and k=5: duplicate seeds leave clusters empty
        X = np.repeat([[0.0, 0.0], [1.0, 2.0], [-3.0, 1.0]], [4, 3, 5], axis=0)
        for seed in range(5):
            assert_kmeans_matches_reference(X, 5, seed)

    @pytest.mark.xfail(
        strict=True,
        reason="_lloyd stops after one step: its first stop test, previous = inf, is inf <= inf",
    )
    def test_lloyd_iterates_to_the_two_blob_partition(self):
        # seeded with two rows of one blob, the first step splits that blob
        rng = np.random.default_rng(0)
        X = np.vstack([rng.normal(size=(50, 2)), rng.normal(size=(50, 2)) + [20, 0]])
        centred = X - X.mean(axis=0)
        centers = centred[[0, 1]].copy()
        assignment, _ = metrics._lloyd(centred, np.sum(centred**2, axis=1), centers)
        assert same_partition(assignment, np.repeat([0, 1], 50))

    def test_draws_integers_then_randoms_per_restart(self):
        # with m distinct rows, a restart draws integers(n) and random(min(m, k) − 1),
        # then integers(n, size=k − m) once every row coincides with a centre
        rng = np.random.default_rng(9)
        for X, k in (
            (rng.normal(size=(50, 3)), 4),
            (np.repeat([[0.0, 0.0], [1.0, 2.0]], [3, 4], axis=0), 5),
            (np.repeat([[0.5, 0.0], [1.0, 2.0], [-3.0, 1.0]], [4, 3, 5], axis=0), 3),
            (np.zeros((6, 2)), 3),
            (rng.normal(size=(10, 2)), 1),
        ):
            n, distinct = X.shape[0], np.unique(X, axis=0).shape[0]
            generator, expected = np.random.default_rng(2), np.random.default_rng(2)
            kmeans(X, k, rng=generator)
            for _ in range(metrics._N_INIT):
                expected.integers(n)
                expected.random(min(distinct, k) - 1)
                if distinct < k:
                    expected.integers(n, size=k - distinct)
            assert generator.bit_generator.state == expected.bit_generator.state

    def test_no_n_by_d_array_beyond_the_centred_copy(self):
        # d far above k, so one more n×d array would double the peak
        rng = np.random.default_rng(10)
        X = rng.normal(size=(2000, 200))
        tracemalloc.start()
        try:
            kmeans(X, 3, rng=rng)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * X.nbytes

    def test_far_from_origin_matches_reference(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(300, 3)) + 4.0 * rng.normal(size=(4, 3))[rng.integers(0, 4, 300)]
        for offset in (0.0, 1e4, 1e10):
            assert_kmeans_matches_reference(X + offset, 4, 0)


class TestAmi:
    def test_identical_labelings(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert ami(labels, labels) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        permuted = np.array([2, 2, 0, 0, 1, 1])
        assert ami(labels, permuted) == pytest.approx(1.0)

    def test_fixed_contingency_against_bruteforce(self):
        a = np.array([0, 0, 0, 1, 1, 1])
        b = np.array([0, 0, 1, 1, 2, 2])
        assert ami(a, b) == pytest.approx(ami_bruteforce(a, b), abs=1e-10)

    def test_random_cases_against_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 13))
            a = random_nondegenerate_labels(rng, n, int(rng.integers(2, 5)))
            b = random_nondegenerate_labels(rng, n, int(rng.integers(2, 5)))
            assert ami(a, b) == pytest.approx(ami_bruteforce(a, b), abs=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            ami(np.array([0, 1]), np.array([0, 1, 0]))


class TestAri:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"^labelings differ in length: \(2,\) vs \(3,\)$"):
            ari(np.array([0, 1]), np.array([0, 1, 0]))

    def test_identical_labelings(self):
        labels = np.array([0, 1, 0, 1, 2])
        assert ari(labels, labels) == pytest.approx(1.0)

    def test_independent_labelings_near_zero(self):
        rng = np.random.default_rng(6)
        a = rng.integers(0, 4, size=10_000)
        b = rng.integers(0, 4, size=10_000)
        assert abs(ari(a, b)) <= 0.02

    def test_small_cases_against_pair_counting(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(4, 13))
            a = random_nondegenerate_labels(rng, n, int(rng.integers(2, 5)))
            b = random_nondegenerate_labels(rng, n, int(rng.integers(2, 5)))
            assert ari(a, b) == pytest.approx(ari_bruteforce(a, b), abs=1e-10)

    def test_accepts_labeling_objects(self):
        # kmeans labelings and plain lists go in without conversion
        X = np.array([[0.0, 0.0], [0.1, 0.0], [9.0, 0.0], [9.1, 0.0]])
        predicted = kmeans(X, 2, rng=np.random.default_rng(0))
        assert ari(predicted, [0, 0, 1, 1]) == pytest.approx(1.0)
        assert ari([0, 0, 1, 1], predicted) == pytest.approx(1.0)

    def test_single_point_agrees_with_ami(self):
        # one point has no pairs to count; like ami, the labelings agree
        assert ari([0], [0]) == 1.0
        assert ami([0], [0]) == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        a = random_nondegenerate_labels(rng, 40, 4)
        b = random_nondegenerate_labels(rng, 40, 3)
        permuted = (b + 1) % 3
        assert ari(a, b) == pytest.approx(ari(a, permuted), abs=1e-12)
        assert ami(a, b) == pytest.approx(ami(a, permuted), abs=1e-12)


class TestSilhouette:
    def test_far_blobs_score_high(self):
        rng = np.random.default_rng(8)
        X = np.vstack(
            [rng.normal(size=(50, 2)), rng.normal(size=(50, 2)) + [100, 0]]
        )
        labels = np.array([0] * 50 + [1] * 50)
        assert silhouette(X, labels) > 0.9

    def test_random_split_scores_near_zero(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(200, 2))
        labels = rng.integers(0, 2, size=200)
        assert abs(silhouette(X, labels)) < 0.1

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="two"):
            silhouette(np.zeros((5, 2)), np.zeros(5, dtype=int))

    def test_single_class_dataset_scores_nan(self):
        # evaluate_dataset reports the undefined silhouette as NaN; K-Means
        # with k=1 matches the single true class exactly
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 2))
        scores = evaluate_dataset(X, np.zeros(30, dtype=int), 1, rng)
        assert scores["ami"] == 1.0
        assert scores["ari"] == 1.0
        assert math.isnan(scores["silhouette"])

    def test_singleton_cluster_scores_zero(self):
        X = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0]])
        labels = np.array([0, 0, 1])
        # the singleton contributes 0; the pair scores near 1
        value = silhouette(X, labels)
        pair_scores = []
        for idx in (0, 1):
            a = np.linalg.norm(X[idx] - X[1 - idx])
            b = np.linalg.norm(X[idx] - X[2])
            pair_scores.append((b - a) / max(a, b))
        assert value == pytest.approx(np.mean(pair_scores + [0.0]))

    def test_coincident_points_score_zero(self):
        # a = b = 0 for every point: 0, as for singletons, not 0/0
        assert silhouette(np.zeros((4, 2)), np.array([0, 0, 1, 1])) == 0.0

    def test_decreases_as_blobs_approach(self):
        rng = np.random.default_rng(10)
        base = rng.normal(size=(80, 2))
        labels = np.array([0] * 40 + [1] * 40)
        scores = []
        for distance in [20, 10, 5, 2.5, 1.0]:
            X = base.copy()
            X[40:] += [distance, 0.0]
            scores.append(silhouette(X, labels))
        assert all(s1 > s2 for s1, s2 in zip(scores, scores[1:]))

    def test_random_cases_against_bruteforce(self):
        rng = np.random.default_rng(12)
        for X, labels in random_silhouette_cases(rng, 40):
            assert silhouette(X, labels) == pytest.approx(
                silhouette_bruteforce(X, labels), abs=1e-10
            )

    def test_small_blocks_against_bruteforce(self, monkeypatch):
        # 7-row tiles at n=50: seven full tiles and a ragged one-row tile per side
        monkeypatch.setattr(metrics, "_TILE", 7)
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 3))
        labels = np.repeat(np.arange(6), [1, 4, 20, 10, 14, 1])
        assert silhouette(X, labels) == pytest.approx(
            silhouette_bruteforce(X, labels), abs=1e-10
        )
        monkeypatch.setattr(metrics, "_TILE", 2)
        for X, labels in random_silhouette_cases(rng, 10):
            assert silhouette(X, labels) == pytest.approx(
                silhouette_bruteforce(X, labels), abs=1e-10
            )

    @pytest.mark.parametrize("offset", [-1, 0, 1, metrics._TILE + 1],
                             ids=["tile-1", "tile", "tile+1", "2tile+1"])
    def test_tile_edges_against_bruteforce(self, offset):
        # n just below, at and just above one tile, and one past two tiles
        n = metrics._TILE + offset
        rng = np.random.default_rng(17 + offset)
        k = 12
        labels = np.concatenate([np.arange(k), rng.integers(2, k, size=n - k)])
        rng.shuffle(labels)  # classes 0 and 1 are singletons
        X = rng.normal(size=(n, 3)) + 3.0 * rng.normal(size=(k, 3))[labels]
        assert silhouette(X, labels) == pytest.approx(
            silhouette_bruteforce(X, labels), abs=1e-10
        )

    def test_far_from_origin_against_bruteforce(self):
        rng = np.random.default_rng(15)
        X = rng.normal(size=(200, 3))
        labels = rng.integers(0, 3, size=200)
        for offset in (0.0, 1e4, 1e6):
            assert silhouette(X + offset, labels) == pytest.approx(
                silhouette_bruteforce(X + offset, labels), abs=1e-10
            )

    def test_memory_stays_blockwise(self):
        # the 10 000 × 10 000 distance matrix alone would be 763 MiB
        rng = np.random.default_rng(14)
        X = rng.normal(size=(10_000, 2))
        labels = rng.integers(0, 3, size=10_000)
        tracemalloc.start()
        try:
            silhouette(X, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
