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
from clustergen.metrics import Labeling, ami, ari, kmeans, silhouette


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
        assert np.unique(result.labels).size == 1

    def test_k_equals_n_zero_wcss(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(8, 2)) * 5
        result = kmeans(X, 8, rng=np.random.default_rng(0))
        assert np.unique(result.labels).size == 8
        centers = np.stack([X[result.labels == j].mean(axis=0) for j in range(8)])
        assert np.sum((X - centers[result.labels]) ** 2) == pytest.approx(0.0, abs=1e-20)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(np.zeros((3, 2)), 4)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(100, 2))
        r1 = kmeans(X, 3, rng=np.random.default_rng(11))
        r2 = kmeans(X, 3, rng=np.random.default_rng(11))
        np.testing.assert_array_equal(r1.labels, r2.labels)


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
        a = Labeling(np.array([0, 0, 1, 1]))
        assert ari(a, a) == pytest.approx(1.0)

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
        # 7 rows per block at n=50: seven full blocks and a ragged one-row block
        monkeypatch.setattr(metrics, "_BLOCK_FLOATS", 7 * 50)
        rng = np.random.default_rng(13)
        X = rng.normal(size=(50, 3))
        labels = np.repeat(np.arange(6), [1, 4, 20, 10, 14, 1])
        assert silhouette(X, labels) == pytest.approx(
            silhouette_bruteforce(X, labels), abs=1e-10
        )
        monkeypatch.setattr(metrics, "_BLOCK_FLOATS", 100)
        for X, labels in random_silhouette_cases(rng, 10):
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


class TestLabeling:
    def test_gap_in_labels_rejected(self):
        with pytest.raises(ValueError):
            Labeling(np.array([0, 2, 2]))

    def test_k_property(self):
        assert Labeling(np.array([0, 1, 1, 2])).k == 3
