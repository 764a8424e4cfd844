"""Clustering evaluation: K-Means plus AMI, ARI, and silhouette.

Together these reproduce the overlap-predicts-difficulty relationship at
desk scale: K-Means recovers labels, the adjusted indices score agreement
against ground truth, and the silhouette quantifies geometric separation.
No metric builds an n×n array: silhouette computes distances a block of
rows at a time, O(n·block + n·k) memory, so `bench` scores 100k-point
datasets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

# Distance-matrix entries silhouette holds at once: rows per block = this // n.
_BLOCK_FLOATS = 2**21


@dataclass(frozen=True)
class Labeling:
    """Integer labels in [0, k) with every class nonempty."""

    labels: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "labels", labels)
        if labels.size and (labels.min() < 0 or np.unique(labels).size != labels.max() + 1):
            raise ValueError("labels must cover [0, k) with every class nonempty")

    @property
    def k(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def __len__(self) -> int:
        return self.labels.size


def _as_labels(x) -> np.ndarray:
    return np.asarray(getattr(x, "labels", x), dtype=int)


def _wcss(X, centers, assignment) -> float:
    return float(np.sum((X - centers[assignment]) ** 2))


def _kmeans_pp_seed(X, k, rng) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        probs = closest / total
        centers[j] = X[rng.choice(n, p=probs)]
        closest = np.minimum(closest, np.sum((X - centers[j]) ** 2, axis=1))
    return centers


def _lloyd(X, centers, max_iter=300, rel_tol=1e-6):
    previous = np.inf
    assignment = None
    for _ in range(max_iter):
        distances = np.sum((X[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        assignment = np.argmin(distances, axis=1)
        for j in range(centers.shape[0]):
            mask = assignment == j
            if mask.any():
                centers[j] = X[mask].mean(axis=0)
            else:  # reseed empty cluster at the farthest point
                centers[j] = X[np.argmax(distances.min(axis=1))]
        current = _wcss(X, centers, assignment)
        if previous - current <= rel_tol * max(previous, 1e-300):
            break
        previous = current
    return centers, assignment, _wcss(X, centers, assignment)


def kmeans(X, k: int, n_init: int = 10, rng: np.random.Generator | None = None) -> Labeling:
    """Best-of-n_init Lloyd iterations with k-means++ seeding."""
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points n={n}")
    if rng is None:
        rng = np.random.default_rng()
    best_assignment, best_score = None, np.inf
    for _ in range(n_init):
        centers = _kmeans_pp_seed(X, k, rng)
        _, assignment, score = _lloyd(X, centers)
        if score < best_score:
            best_assignment, best_score = assignment, score
    # compact label ids in case a cluster emptied out
    _, compact = np.unique(best_assignment, return_inverse=True)
    return Labeling(compact)


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table


def _entropy(counts: np.ndarray, n: int) -> float:
    p = counts[counts > 0] / n
    return float(-np.sum(p * np.log(p)))


def _mutual_information(table: np.ndarray, n: int) -> float:
    a = table.sum(axis=1, keepdims=True)
    b = table.sum(axis=0, keepdims=True)
    nz = table > 0
    t = table[nz]
    outer = (a @ b)[nz]
    return float(np.sum(t / n * (np.log(t * n) - np.log(outer))))


def _expected_mutual_information(table: np.ndarray, n: int) -> float:
    """E[MI] under the hypergeometric model of random labelings.

    Vinh, Epps & Bailey (2010), eq. 24a.  One pass per row sum a_i, over all
    column sums b_j and n_ij at once: memory is O(k·max class size).
    """
    a = table.sum(axis=1)
    b = table.sum(axis=0)
    log_fact = gammaln(np.arange(n + 1) + 1)
    emi = 0.0
    for ai in a:
        grid_nij = np.arange(1, min(ai, b.max()) + 1)
        valid = (grid_nij <= b[:, None]) & (grid_nij >= ai + b[:, None] - n)
        bj = np.broadcast_to(b[:, None], valid.shape)[valid]
        nij = np.broadcast_to(grid_nij, valid.shape)[valid]
        log_term = (
            log_fact[ai]
            + log_fact[bj]
            + log_fact[n - ai]
            + log_fact[n - bj]
            - log_fact[n]
            - log_fact[nij]
            - log_fact[ai - nij]
            - log_fact[bj - nij]
            - log_fact[n - ai - bj + nij]
        )
        emi += np.sum(np.exp(log_term) * (nij / n) * np.log(n * nij / (ai * bj)))
    return float(emi)


def ami(a, b) -> float:
    """Adjusted mutual information, arithmetic-mean normalization."""
    a, b = _as_labels(a), _as_labels(b)
    if a.shape != b.shape:
        raise ValueError(f"labelings differ in length: {a.shape} vs {b.shape}")
    n = a.size
    table = _contingency(a, b)
    h_a = _entropy(table.sum(axis=1), n)
    h_b = _entropy(table.sum(axis=0), n)
    if h_a == 0.0 and h_b == 0.0:  # both trivial partitions
        return 1.0
    mi = _mutual_information(table, n)
    emi = _expected_mutual_information(table, n)
    denominator = 0.5 * (h_a + h_b) - emi
    if abs(denominator) < 1e-15:
        return 0.0
    return (mi - emi) / denominator


def ari(a, b) -> float:
    """Adjusted Rand index via the pair-counting formula."""
    a, b = _as_labels(a), _as_labels(b)
    if a.shape != b.shape:
        raise ValueError(f"labelings differ in length: {a.shape} vs {b.shape}")
    table = _contingency(a, b)
    n = a.size

    def comb2(x):
        return x * (x - 1) / 2.0

    sum_cells = comb2(table).sum()
    sum_a = comb2(table.sum(axis=1)).sum()
    sum_b = comb2(table.sum(axis=0)).sum()
    total = comb2(n)
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:  # both partitions trivial
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))


def silhouette(X, labels) -> float:
    """Mean silhouette score (Rousseeuw 1987).

    A point in a singleton class, or whose mean distances a (own class) and
    b (nearest other class) are both 0, scores 0.

    Distances are computed a block of rows at a time and summed per class
    at once, so memory is O(n·block + n·k), never n×n.
    """
    X = np.asarray(X, dtype=float)
    labels = _as_labels(labels)
    classes, inverse = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise ValueError("silhouette requires at least two label classes")
    # centring keeps ‖x‖²+‖y‖²−2x·y from cancelling far from the origin
    X = X - X.mean(axis=0)
    n = X.shape[0]
    onehot = np.zeros((n, classes.size))
    onehot[np.arange(n), inverse] = 1.0
    sq = np.sum(X**2, axis=1)
    # per-point sum of distances to each class
    class_sums = np.empty((n, classes.size))
    rows = max(1, _BLOCK_FLOATS // n)
    block = np.empty((min(rows, n), n))
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        d = np.matmul(X[start:stop], X.T, out=block[: stop - start])
        d *= -2.0
        d += sq[start:stop, None]
        d += sq
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        d[np.arange(stop - start), np.arange(start, stop)] = 0.0
        np.matmul(d, onehot, out=class_sums[start:stop])
    counts = np.bincount(inverse)
    own = counts[inverse]
    point = np.arange(n)
    a = class_sums[point, inverse] / np.maximum(own - 1, 1)
    means = class_sums / counts
    means[point, inverse] = np.inf
    b = means.min(axis=1)
    # singletons, and points whose a and b are both 0, score 0
    larger = np.maximum(a, b)
    scores = np.divide(b - a, larger, out=np.zeros(n), where=(own > 1) & (larger > 0))
    return float(scores.mean())


def evaluate_dataset(X, y_true, k: int, rng: np.random.Generator) -> dict:
    """K-Means against ground truth: ami/ari/silhouette in one record."""
    predicted = kmeans(X, k, rng=rng)
    return {
        "ami": ami(y_true, predicted),
        "ari": ari(y_true, predicted),
        "silhouette": silhouette(X, y_true),
    }
