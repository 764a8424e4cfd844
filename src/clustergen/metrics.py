"""Clustering evaluation: K-Means plus AMI, ARI, and silhouette.

Together these reproduce the overlap-predicts-difficulty relationship at
desk scale: K-Means recovers labels, the adjusted indices score agreement
against ground truth, and the silhouette quantifies geometric separation.
No metric builds an n×n array.  Silhouette computes distances in square
tiles over the upper triangle only, on the process's threads (see
`postprocess._threads`), and adds each tile and its mirror to per-class
sums in one fixed order, in O(threads·tile² + n·k) memory, so `bench`
scores 100k-point datasets with the same bits at any thread count.
K-Means takes each k-means++ step as one matrix-vector product from row
norms computed once, and each Lloyd step as two matmuls (the assignment
and the centroid sums), with no other pass over the n×d data; beyond X
and its centred copy (`postprocess._points`) it holds O(n·k) floats.
"""

from __future__ import annotations

import math
import numbers
import threading

import numpy as np

from . import postprocess

# Side of the square distance tiles silhouette computes: 256² floats is 512 KiB.
_TILE = 256
# Silhouette runs its tiles on threads from this many tile rows on (n > 1792
# at 256-row tiles); a smaller triangle does not repay a thread's start.
_THREADED_TILE_ROWS = 8
# K-Means restarts; the best WCSS of these wins.
_N_INIT = 10
# Lloyd stops after this many iterations, or once the WCSS falls by no
# more than this fraction of itself.
_MAX_ITER = 300
_REL_TOL = 1e-6


def _distances_to_row(centred, sq, row) -> np.ndarray:
    """‖x − x_row‖² from every row x of the centred data, one matrix-vector product.

    ‖x‖² + ‖x_row‖² − 2·x·x_row is off by less than (d + 2)·ε·(‖x‖² +
    ‖x_row‖²), so a distance within that is exactly 0: the row itself and
    its duplicates never get k-means++ weight, as with exact distances.
    """
    norms = sq + sq[row]
    distances = centred @ (-2.0 * centred[row])
    distances += norms
    norms *= (centred.shape[1] + 2) * np.finfo(float).eps
    np.copyto(distances, 0.0, where=distances <= norms)
    return distances


def _kmeans_pp_seed(centred, sq, k, rng) -> np.ndarray:
    """Row indices of one k-means++ seeding.

    Step j searches the CDF that `rng.choice(n, p=closest / total)` builds
    for one rng.random(), so the draws are those of a `rng.choice` loop.
    Once every row coincides with a centre (fewer than k distinct rows),
    the rest are rng.integers(n, size=k − j).
    """
    n = centred.shape[0]
    rows = np.empty(k, dtype=np.intp)
    rows[0] = rng.integers(n)
    closest = _distances_to_row(centred, sq, rows[0])
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            rows[j:] = rng.integers(n, size=k - j)
            break
        cdf = np.cumsum(closest / total)
        cdf /= cdf[-1]
        rows[j] = cdf.searchsorted(rng.random(), side="right")
        np.minimum(closest, _distances_to_row(centred, sq, rows[j]), out=closest)
    return rows


def _lloyd(centred, sq, centers):
    """Lloyd iterations on centred data with row norms `sq`, from `centers` (updated in place).

    The assignment is the argmin of ‖c‖² − 2·x·c, one n×k matmul.  The
    centroid sums are one matmul with the n×k one-hot assignment, and the
    WCSS is Σ‖x‖² − Σⱼ nⱼ‖cⱼ‖² over the updated centres, so no step makes
    an n×d pass.  Returns the last assignment and its WCSS.
    """
    n, k = centred.shape[0], centers.shape[0]
    rows = np.arange(n)
    onehot = np.zeros((n, k))
    total = sq.sum()
    previous = np.inf
    for _ in range(_MAX_ITER):
        partial = centred @ centers.T
        partial *= -2.0
        partial += np.sum(centers**2, axis=1)
        assignment = np.argmin(partial, axis=1)
        counts = np.bincount(assignment, minlength=k)
        onehot[rows, assignment] = 1.0
        sums = onehot.T @ centred
        onehot[rows, assignment] = 0.0
        full = counts > 0
        centers[full] = sums[full] / counts[full, None]
        if not full.all():  # reseed empty clusters at the farthest point
            centers[~full] = centred[np.argmax(partial.min(axis=1) + sq)]
        current = float(total - counts @ np.sum(centers**2, axis=1))
        if previous - current <= _REL_TOL * max(previous, 1e-300):
            break
        previous = current
    return assignment, current


def kmeans(X, k: int, rng: np.random.Generator) -> np.ndarray:
    """Best of _N_INIT Lloyd runs, each from a k-means++ seeding.

    Restarts run in turn on the centred X.  Each draws as a k-means++ loop
    over `rng.choice` does: rng.integers(n), then one rng.random() per
    further centre, or rng.integers(n, size=k − j) for the rest once every
    row coincides with a centre.  The first strictly lowest WCSS wins.
    Beyond X and its centred copy, which `postprocess._points` rescales so
    that any finite X gets its scale-1 labels, memory is O(n·k).

    Returns integer labels covering [0, k') with no empty class; k' < k
    only when a cluster emptied out.  A k that is not a positive integer,
    or exceeds n, is a ValueError.
    """
    centred, _ = postprocess._points(X)
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if k > len(centred):
        raise ValueError(f"k={k} exceeds the number of points n={len(centred)}")
    centred -= centred.mean(axis=0)  # ‖c‖² − 2·x·c cancels less near the origin
    sq = np.einsum("ij,ij->i", centred, centred)
    best_assignment, best_score = None, np.inf
    for _ in range(_N_INIT):
        centers = centred[_kmeans_pp_seed(centred, sq, k, rng)]
        assignment, score = _lloyd(centred, sq, centers)
        if score < best_score:
            best_assignment, best_score = assignment, score
    # compact label ids in case a cluster emptied out
    return np.unique(best_assignment, return_inverse=True)[1]


def _labels(labels, n: int | None = None) -> np.ndarray:
    """`labels` as n integers (any n when None), one per point; any other shape,
    or a label that is not a whole number, such as 0.7 or NaN, is a ValueError."""
    labels = np.asarray(labels)
    n = labels.size if n is None else n
    if labels.shape != (n,):
        raise ValueError(f"expected {n} labels, one per point, got shape {labels.shape}")
    with np.errstate(invalid="ignore"):  # a NaN or inf casts to garbage, which differs
        whole = labels.astype(int)
    if not np.array_equal(whole, labels):
        raise ValueError("labels must be whole numbers")
    return whole


def _contingency(a, b) -> tuple[np.ndarray, int]:
    """The counts of each (a label, b label) pair of two labelings, and their length.

    Labelings of different lengths, or of none, are a ValueError."""
    a, b = _labels(a), _labels(b)
    if a.shape != b.shape:
        raise ValueError(f"labelings differ in length: {a.shape} vs {b.shape}")
    if not a.size:
        raise ValueError("labelings must hold at least one label")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1), dtype=np.int64)
    np.add.at(table, (ai, bi), 1)
    return table, a.size


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
    """Adjusted mutual information, arithmetic-mean normalization; 0.0 where the
    expected mutual information reaches the mean entropy, as on two all-singleton
    labelings (which `ari` scores 1.0)."""
    table, n = _contingency(a, b)
    h_a = _entropy(table.sum(axis=1), n)
    h_b = _entropy(table.sum(axis=0), n)
    if h_a == 0.0 and h_b == 0.0:  # both trivial partitions
        return 1.0
    mi = _mutual_information(table, n)
    emi = _expected_mutual_information(table, n)
    denominator = 0.5 * (h_a + h_b) - emi
    if abs(denominator) <= 1e-12 * (h_a + h_b):  # rounding of 0, relative to the entropies
        return 0.0
    return (mi - emi) / denominator


def ari(a, b) -> float:
    """Adjusted Rand index via the pair-counting formula."""
    table, n = _contingency(a, b)

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
    b (nearest other class) are both 0, scores 0.  X is rescaled by
    `postprocess._points`, so any finite X gets its scale-1 score; labels
    that are not n whole numbers are refused with a ValueError.

    Distances are computed in square tiles of side `_TILE`, each from one
    matmul.  Only tiles on or above the diagonal are computed: a tile adds
    its rows' per-class sums, and its transpose adds those of its columns.
    From `_THREADED_TILE_ROWS` tile rows on, the tiles run on the process's
    threads (`postprocess._threads`), each in its own tile buffer, and their
    sums are added in the serial order, so no bit depends on the thread
    count.  Memory is O(threads·tile² + n·k), never n×n.
    """
    X, _ = postprocess._points(X)
    classes, inverse = np.unique(_labels(labels, X.shape[0]), return_inverse=True)
    if classes.size < 2:
        raise ValueError("silhouette requires at least two label classes")
    # centring keeps ‖x‖²+‖y‖²−2x·y from cancelling far from the origin
    X -= X.mean(axis=0)
    n, k = X.shape[0], classes.size
    onehot = np.zeros((n, k))
    onehot[np.arange(n), inverse] = 1.0
    sq = np.sum(X**2, axis=1)[:, None]
    ones = np.ones((n, 1))
    # one matmul per tile gives ‖x‖² + ‖y‖² − 2x·y
    left = np.hstack([X, sq, ones])
    right = np.hstack([-2.0 * X, ones, sq])
    blocks = [slice(i, min(i + _TILE, n)) for i in range(0, n, _TILE)]
    tiles = [(rows, cols) for i, rows in enumerate(blocks) for cols in blocks[i:]]
    local = threading.local()

    def tile_sums(tile):
        """The per-class distance sums of a tile's rows, and of its columns
        off the diagonal (None on it)."""
        rows, cols = tile
        buffer = getattr(local, "tile", None)
        if buffer is None:
            buffer = local.tile = np.empty(_TILE * _TILE)
        height, width = rows.stop - rows.start, cols.stop - cols.start
        d = buffer[: height * width].reshape(height, width)  # contiguous
        np.matmul(left[rows], right[cols].T, out=d)
        np.maximum(d, 0.0, out=d)
        np.sqrt(d, out=d)
        if rows == cols:
            np.fill_diagonal(d, 0.0)
            return d @ onehot[cols], None
        # the mirrored tile (J, I) is dᵀ
        return d @ onehot[cols], d.T @ onehot[rows]

    threads = postprocess._threads() if len(blocks) >= _THREADED_TILE_ROWS else 1
    # per-point sum of distances to each class
    class_sums = np.zeros((n, k))
    sums = postprocess._ordered(tile_sums, tiles, threads)
    for (rows, cols), (row_sums, col_sums) in zip(tiles, sums):
        class_sums[rows] += row_sums
        if col_sums is not None:
            class_sums[cols] += col_sums
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
    """K-Means against ground truth: ami/ari/silhouette in one record.

    The silhouette is NaN when `y_true` has a single class, where it is undefined.
    """
    predicted = kmeans(X, k, rng=rng)
    return {
        "ami": ami(y_true, predicted),
        "ari": ari(y_true, predicted),
        "silhouette": silhouette(X, y_true) if np.unique(y_true).size > 1 else float("nan"),
    }
