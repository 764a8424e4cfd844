"""Clustering evaluation: K-Means plus AMI, ARI, and silhouette.

Together these reproduce the overlap-predicts-difficulty relationship at
desk scale: K-Means recovers labels, the adjusted indices score agreement
against ground truth, and the silhouette quantifies geometric separation.
No metric builds an n×n array.  Silhouette computes distances in square
tiles over the upper triangle only, adding each tile and its mirror to
per-class sums, in O(tile² + n·k) memory, so `bench` scores 100k-point
datasets.  K-Means assigns points with one n×k matmul per Lloyd step and
reuses one n×d buffer for seeding, centroids and the WCSS.
"""

from __future__ import annotations

import math

import numpy as np

# Side of the square distance tiles silhouette computes: 256² floats is 512 KiB.
_TILE = 256
# K-Means restarts; the best WCSS of these wins.
_N_INIT = 10
# Lloyd stops after this many iterations, or once the WCSS falls by no
# more than this fraction of itself.
_MAX_ITER = 300
_REL_TOL = 1e-6


def _squared_distances(X, center, work) -> np.ndarray:
    """‖x − center‖² per row of X, using the n×d `work` buffer."""
    np.subtract(X, center, out=work)
    np.square(work, out=work)
    return work.sum(axis=1)


def _kmeans_pp_seed(X, k, rng, work) -> np.ndarray:
    n = X.shape[0]
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    closest = _squared_distances(X, centers[0], work)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            centers[j:] = X[rng.integers(n, size=k - j)]
            break
        probs = closest / total
        centers[j] = X[rng.choice(n, p=probs)]
        np.minimum(closest, _squared_distances(X, centers[j], work), out=closest)
    return centers


def _lloyd(X, centred, mean, centers, work):
    """Lloyd iterations on X, where `centred` is X − `mean`.

    The assignment is the argmin of ‖c‖² − 2·x·c over the centred data, so
    no n×k×d array is built.  Centroids are means over runs of the rows
    sorted by cluster, summed in the order X[mask].mean() sums them; the
    sorted rows and the WCSS terms share the n×d `work` buffer.
    """
    k = centers.shape[0]
    previous = np.inf
    for _ in range(_MAX_ITER):
        shifted = centers - mean
        partial = centred @ shifted.T
        partial *= -2.0
        partial += np.sum(shifted**2, axis=1)
        assignment = np.argmin(partial, axis=1)
        counts = np.bincount(assignment, minlength=k)
        order = np.argsort(assignment, kind="stable")
        # the indices are in range; mode "raise" would copy through a temporary
        np.take(X, order, axis=0, out=work, mode="clip")
        stop = 0
        for j, count in enumerate(counts):
            start, stop = stop, stop + count
            if count:
                centers[j] = work[start:stop].mean(axis=0)
            else:  # reseed empty cluster at the farthest point
                farthest = partial.min(axis=1) + np.sum(centred**2, axis=1)
                centers[j] = X[np.argmax(farthest)]
        np.take(centers, assignment, axis=0, out=work, mode="clip")
        np.subtract(X, work, out=work)
        np.square(work, out=work)
        current = float(work.sum())
        if previous - current <= _REL_TOL * max(previous, 1e-300):
            break
        previous = current
    return centers, assignment, current


def kmeans(X, k: int, rng: np.random.Generator) -> np.ndarray:
    """Best of _N_INIT Lloyd runs, each from a k-means++ seeding.

    Returns integer labels covering [0, k') with no empty class; k' < k
    only when a cluster emptied out.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the number of points n={n}")
    # one n×d buffer serves every seeding pass, Lloyd step and restart
    work = np.empty_like(X)
    mean = X.mean(axis=0)
    centred = X - mean  # ‖c‖² − 2·x·c cancels less near the origin
    best_assignment, best_score = None, np.inf
    for _ in range(_N_INIT):
        centers = _kmeans_pp_seed(X, k, rng, work)
        _, assignment, score = _lloyd(X, centred, mean, centers, work)
        if score < best_score:
            best_assignment, best_score = assignment, score
    # compact label ids in case a cluster emptied out
    return np.unique(best_assignment, return_inverse=True)[1]


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
    log_fact = np.fromiter(map(math.lgamma, range(1, n + 2)), dtype=float, count=n + 1)
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
    a, b = np.asarray(a, dtype=int), np.asarray(b, dtype=int)
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
    a, b = np.asarray(a, dtype=int), np.asarray(b, dtype=int)
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
    if total == 0:  # one point has no pairs: the labelings agree, as ami says
        return 1.0
    expected = sum_a * sum_b / total
    maximum = 0.5 * (sum_a + sum_b)
    if maximum == expected:  # both partitions trivial
        return 1.0
    return float((sum_cells - expected) / (maximum - expected))


def silhouette(X, labels) -> float:
    """Mean silhouette score (Rousseeuw 1987).

    A point in a singleton class, or whose mean distances a (own class) and
    b (nearest other class) are both 0, scores 0.

    Distances are computed in square tiles of side `_TILE`, each from one
    matmul.  Only tiles on or above the diagonal are computed: a tile adds
    its rows' per-class sums, and its transpose adds those of its columns.
    Memory is O(tile² + n·k), never n×n.
    """
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels, dtype=int)
    classes, inverse = np.unique(labels, return_inverse=True)
    if classes.size < 2:
        raise ValueError("silhouette requires at least two label classes")
    # centring keeps ‖x‖²+‖y‖²−2x·y from cancelling far from the origin
    X = X - X.mean(axis=0)
    n, k = X.shape[0], classes.size
    onehot = np.zeros((n, k))
    onehot[np.arange(n), inverse] = 1.0
    sq = np.sum(X**2, axis=1)[:, None]
    ones = np.ones((n, 1))
    # one matmul per tile gives ‖x‖² + ‖y‖² − 2x·y
    left = np.hstack([X, sq, ones])
    right = np.hstack([-2.0 * X, ones, sq])
    # per-point sum of distances to each class
    class_sums = np.zeros((n, k))
    tile = np.empty(_TILE * _TILE)
    tile_sums = np.empty((_TILE, k))
    for i in range(0, n, _TILE):
        rows = slice(i, min(i + _TILE, n))
        for j in range(i, n, _TILE):
            cols = slice(j, min(j + _TILE, n))
            height, width = rows.stop - i, cols.stop - j
            d = tile[: height * width].reshape(height, width)  # contiguous
            np.matmul(left[rows], right[cols].T, out=d)
            np.maximum(d, 0.0, out=d)
            np.sqrt(d, out=d)
            if i == j:
                np.fill_diagonal(d, 0.0)
            class_sums[rows] += np.matmul(d, onehot[cols], out=tile_sums[:height])
            if i != j:  # the mirrored tile (J, I) is dᵀ
                class_sums[cols] += np.matmul(d.T, onehot[rows], out=tile_sums[:width])
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
