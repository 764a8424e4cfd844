"""Pairwise cluster separation and overlap measures.

Overlap between two clusters is twice the minimax error rate of the best
linear classifier separating them.  Along a classification axis `a` the
separation quantile is

    q(a) = a'(mu2 - mu1) / (sqrt(a'S1 a) + sqrt(a'S2 a))

and the induced overlap is 2*(1 - Phi(q)).  Three estimators are provided.
The LDA approximation (axis ((S1+S2)/2)^{-1} (mu2 - mu1)) and the cheaper
center-to-center approximation (axis mu2 - mu1) evaluate one batched pair
kernel along their own axes (`_table_separations`).  The exact oracle for
Gaussian pairs maximizes q over the one-parameter axis family
a(t) = (t*S1 + (1-t)*S2)^{-1} (mu2 - mu1), t in (0, 1): with the LDA's
factor of each pair it finds a basis that diagonalizes both covariances,
and there every q(t) of its search is a sum of d terms.  One factor per
pair, W = L^{-1} for (S1+S2)/2 = LL', serves LDA, placement and the oracle;
no inverse of a pair average is formed.  All three run over every pair at
once, the single-pair functions being the k = 2 case, and all refuse the
same inputs (`_checked`, `_finite`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import normal_sf

_MAX_CONDITION = 1e12
_BATCH_FLOATS = 1 << 17  # floats of a pair stack formed at once, unless k-1 pairs take more
_LEAF_DIM = 16  # diagonal blocks of a triangular inverse this small: forward substitution
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_EXACT_GRID = 1.0 / (1.0 + np.exp(-np.linspace(-12.0, 12.0, 64)))  # log-symmetric in t-odds
_EXACT_TOL = 1e-6


@dataclass(frozen=True)
class PairInverses:
    """Inverse Cholesky factors of the averaged covariances of every cluster pair.

    whitening[p] = L^{-1} with (S_i + S_j)/2 = LL' for the pair (i, j) =
    (iu[p], ju[p]), i < j: k(k-1)/2 lower-triangular d x d matrices, exact
    zeros above the diagonal, packed row by row (k(k-1)/2 * d^2 floats; see
    `pair_inverses`).  pairs[i] lists the entries of whitening that hold
    cluster i, in increasing order of the other cluster (k x (k-1)).
    """

    whitening: np.ndarray
    iu: np.ndarray
    ju: np.ndarray
    pairs: np.ndarray


def _pair_batches(k, dim):
    """Yield (rows, i, j) over the pairs i < j in `np.triu_indices` order, a batch at a time.

    rows slices the batch out of the packed pairs.  A batch holds at most
    max(k-1, 2^17 / d^2) pairs, so no stack of d x d matrices formed per
    batch is larger than one row of pairs (i, j > i) or 2^17 floats (1 MiB).
    """
    iu, ju = np.triu_indices(k, 1)
    step = max(1, k - 1, _BATCH_FLOATS // max(dim, 1) ** 2)
    for start in range(0, iu.size, step):
        rows = slice(start, start + step)
        yield rows, iu[rows], ju[rows]


def _pair_averages(covs):
    """Yield (rows, i, j, A) per `_pair_batches`: A[m] = (S_i[m] + S_j[m])/2, formed only here."""
    for rows, i, j in _pair_batches(covs.shape[0], covs.shape[-1]):
        mean = covs[i]
        mean += covs[j]
        mean *= 0.5
        yield rows, i, j, mean


def _invert_lower(low):
    """Overwrite a stack (any leading axes) of lower-triangular matrices with their inverses.

    inv([[L11, 0], [L21, L22]]) = [[X11, 0], [-X22 L21 X11, X22]] with
    X11 = L11^{-1} and X22 = L22^{-1}.  Halves of equal size are inverted
    as one stack, a view with one more leading axis, so a level of the
    recursion costs one call.  Blocks of at most _LEAF_DIM rows are
    inverted by forward substitution, a row of the whole stack at a time:
    X[r, :r] = -(L[r, :r] X[:r, :r]) / L[r, r] and X[r, r] = 1/L[r, r].
    Nothing above the diagonal is written, so its zeros stay exact, and
    each matrix's inverse is the same in a stack of any size.
    """
    n = low.shape[-1]
    if n <= _LEAF_DIM:
        for r in range(n):
            row = low[..., r, None, :r] @ low[..., :r, :r]
            low[..., r, :r] = -row[..., 0, :] / low[..., r, r, None]
            low[..., r, r] = 1.0 / low[..., r, r]
        return
    h = n // 2
    if n == 2 * h:
        *lead, down, right = low.strides
        shape, strides = (*low.shape[:-2], 2, h, h), (*lead, h * (down + right), down, right)
        _invert_lower(np.lib.stride_tricks.as_strided(low, shape, strides))
    else:
        _invert_lower(low[..., :h, :h])
        _invert_lower(low[..., h:, h:])
    t = low[..., h:, :h] @ low[..., :h, :h]
    np.negative(t, out=t)
    np.matmul(low[..., h:, h:], t, out=low[..., h:, :h])


def pair_inverses(covs) -> PairInverses:
    """Factor every averaged covariance once; covariances are not checked.

    Each average is factored as A = LL' (`np.linalg.cholesky`) and L is
    inverted in place to W (`_invert_lower`), at every d: the only pair
    factorization in the package.  So every averaged covariance A must be
    positive definite, or LinAlgError (a ValueError) is raised; callers
    meet this, as `_checked` refuses a condition number above 1e12 and
    validated geometry (aspect ratios at most 1e6) keeps every pair below
    it.  The pairs go a batch of `_pair_averages` at a time, and a pair's
    factor does not depend on the batch it lands in.
    """
    covs = np.asarray(covs, dtype=float)
    k, dim = covs.shape[0], covs.shape[-1]
    iu, ju = np.triu_indices(k, 1)
    index = np.zeros((k, k), dtype=np.intp)
    index[iu, ju] = index[ju, iu] = np.arange(iu.size)
    pairs = index[~np.eye(k, dtype=bool)].reshape(k, k - 1)
    whitening = np.empty((iu.size, dim, dim))
    for rows, _, _, mean in _pair_averages(covs):
        whitening[rows] = np.linalg.cholesky(mean)
        _invert_lower(whitening[rows])
    return PairInverses(whitening, iu, ju, pairs)


def _rowdot(x, y):
    return np.einsum("mp,mp->m", x, y)


def _table_separations(delta, covs, iu, ju, axes):
    """Separations of every pair (iu[p], ju[p]) along axes[p]; delta[p] = mu_j - mu_i.

    The variances a'S_i a and a'S_j a come from two batched products of
    each covariance with a k x k x d table of axes, so no covariance is
    copied per pair.
    """
    table = np.zeros((len(covs), len(covs), delta.shape[1]))
    table[iu, ju] = axes  # table[i, j] @ covs[i] is a_ij' S_i
    var_i = _rowdot((table @ covs)[iu, ju], axes)
    var_j = _rowdot((table.transpose(1, 0, 2) @ covs)[ju, iu], axes)
    denom = np.sqrt(var_i) + np.sqrt(var_j)
    margin = _rowdot(axes, delta)
    return np.abs(margin) / denom, axes * np.copysign(1.0 / denom, margin)[:, None]


def pairwise_separations(centers, covs, inverses: PairInverses):
    """LDA separations of every pair i < j at once, packed like `inverses.whitening`.

    Returns (q, axes): q[p] >= 0 is the separation quantile of (iu[p],
    ju[p]) along their LDA axis W'(W delta), W = inverses.whitening[p], and
    axes[p] is that axis oriented from iu[p] toward ju[p] and pre-divided
    by the quantile denominator, so q[p] = axes[p] @ (mu_ju - mu_iu),
    grad_{mu_ju} q[p] = axes[p] and grad_{mu_iu} q[p] = -axes[p] with the
    axis held fixed.  Inputs are not checked; the estimators below check
    theirs in `_checked`.
    """
    iu, ju, w = inverses.iu, inverses.ju, inverses.whitening
    delta = centers[ju] - centers[iu]
    axes = (w.transpose(0, 2, 1) @ (w @ delta[:, :, None]))[:, :, 0]
    return _table_separations(delta, covs, iu, ju, axes)


def _checked(centers, covs):
    """centers and covs as k x d and k x d x d float arrays, refusing inseparable pairs.

    Raises ValueError when a center is not finite, when two centers
    coincide, or when some pair's averaged covariance has a condition
    number above 1e12 (or NaN).
    """
    centers = np.asarray(centers, dtype=float).reshape(len(centers), -1)
    covs = np.asarray(covs, dtype=float).reshape(-1, centers.shape[1], centers.shape[1])
    if not np.all(np.isfinite(centers)):
        raise ValueError("cluster centers must be finite")
    for _, i, j, mean in _pair_averages(covs):
        if not np.all(np.any(centers[j] - centers[i], axis=1)):
            raise ValueError("cluster centers coincide; no separating axis exists")
        eig = np.linalg.eigvalsh(mean)  # ascending
        if not np.all(eig[:, 0] * _MAX_CONDITION >= eig[:, -1]):
            raise ValueError("averaged covariance is numerically singular")
    return centers, covs


def _finite(q):
    """q, unless some variance along an axis was not positive."""
    if not np.all(np.isfinite(q)):
        raise ValueError("covariance matrices must be symmetric positive definite")
    return q


@np.errstate(invalid="ignore", divide="ignore")
def _lda(centers, covs):
    """(q, pair factors): q along the LDA axis of every checked pair i < j, and the W it used."""
    inverses = pair_inverses(covs)
    return _finite(pairwise_separations(centers, covs, inverses)[0]), inverses


@np.errstate(invalid="ignore", divide="ignore")
def _c2c(centers, covs):
    """q along the center-difference axis of every checked pair i < j."""
    iu, ju = np.triu_indices(centers.shape[0], 1)
    delta = centers[ju] - centers[iu]
    return _finite(_table_separations(delta, covs, iu, ju, delta)[0])


@np.errstate(invalid="ignore", divide="ignore")
def _exact(centers, covs, q_lda, inverses):
    """Largest q over the axis family a(t) of every checked pair i < j.

    No pair is factored again: a batch of `_pair_batches` at a time, with
    the LDA's factor W = L^{-1} of (S_i + S_j)/2 = LL', W S_i W' = V diag(m) V',
    so W S_j W' = V diag(2 - m) V' as W (S_i + S_j) W' = 2I.  Then, with
    g = V'W(mu_j - mu_i) and D = t*m + (1-t)*(2 - m), a(t)'delta = sum g^2/D,
    a(t)'S_i a(t) = sum m g^2/D^2 and a(t)'S_j a(t) = sum (2 - m) g^2/D^2, so
    each q(t) is a sum of d terms.  All pairs are searched in lockstep, on 2d
    floats per pair: the 64-point grid brackets each pair's maximum (keeping
    only the best point so far), and golden-section search narrows every
    bracket to _EXACT_TOL, evaluating again only the pairs whose bracket is
    still wider.  The LDA axis is the t = 1/2 member, so no q falls below q_lda.
    """
    bases = [np.empty((2, 0, centers.shape[1]))]  # an empty batch keeps k = 1 concatenable
    for rows, i, j in _pair_batches(*centers.shape):
        w = inverses.whitening[rows]
        m, v = np.linalg.eigh(w @ covs[i] @ w.transpose(0, 2, 1))
        g = (centers[j] - centers[i])[:, None, :] @ w.transpose(0, 2, 1) @ v
        bases.append(np.stack([m, g[:, 0] ** 2]))
    m, g2 = np.concatenate(bases, axis=1)

    def q_at(t, rows=slice(None)):
        mi, mj = m[rows], 2.0 - m[rows]
        d = t[:, None] * mi + (1.0 - t)[:, None] * mj
        h = g2[rows] / d
        return h.sum(axis=1) / (np.sqrt(_rowdot(h, mi / d)) + np.sqrt(_rowdot(h, mj / d)))

    best, at = np.full(q_lda.size, -np.inf), np.zeros(q_lda.size, dtype=np.intp)
    for step, t in enumerate(_EXACT_GRID):
        value = _finite(q_at(np.full(q_lda.size, t)))
        at[value > best] = step  # the first of equal values, as argmax picks
        best = np.maximum(best, value)
    a, b = _EXACT_GRID[np.clip([at - 1, at + 1], 0, _EXACT_GRID.size - 1)]
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = q_at(x1), q_at(x2)
    while (rows := np.flatnonzero(b - a > _EXACT_TOL)).size:
        up = f1[rows] < f2[rows]  # the maximum lies above x1
        lo, hi = rows[up], rows[~up]
        a[lo], x1[lo], f1[lo] = x1[lo], x2[lo], f2[lo]
        b[hi], x2[hi], f2[hi] = x2[hi], x1[hi], f1[hi]
        x2[lo] = a[lo] + _GOLDEN * (b[lo] - a[lo])
        x1[hi] = b[hi] - _GOLDEN * (b[hi] - a[hi])
        f = q_at(np.where(up, x2[rows], x1[rows]), rows)
        f2[lo], f1[hi] = f[up], f[~up]
    return _finite(np.maximum.reduce([f1, f2, best, q_lda]))


def lda_overlap(mu1, mu2, S1, S2) -> float:
    """Overlap along the LDA axis: 2*(1 - Phi(q))."""
    return float(2.0 * normal_sf(_lda(*_checked([mu1, mu2], [S1, S2]))[0][0]))


def c2c_overlap(mu1, mu2, S1, S2) -> float:
    """Overlap along the center-difference axis."""
    return float(2.0 * normal_sf(_c2c(*_checked([mu1, mu2], [S1, S2]))[0]))


def exact_overlap_oracle(mu1, mu2, S1, S2) -> float:
    """Exact overlap for a Gaussian pair.

    The minimax axis lies in the family a(t) = (t*S1 + (1-t)*S2)^{-1} delta
    for some t in (0,1), where it maximizes the separation quantile.  A
    64-point grid (log-symmetric in t-odds) brackets the maximum and
    golden-section search refines t to within 1e-6.  The LDA axis is the
    t = 1/2 member, so the result never falls below the LDA quantile.
    """
    centers, covs = _checked([mu1, mu2], [S1, S2])
    return float(2.0 * normal_sf(_exact(centers, covs, *_lda(centers, covs))[0]))


@dataclass(frozen=True)
class OverlapReport:
    """Separation and overlap measures for one cluster pair."""

    i: int
    j: int
    q_lda: float
    alpha_lda: float
    alpha_c2c: float
    alpha_exact: float | None = None


def pairwise_overlaps(model, include_exact: bool = False) -> list[OverlapReport]:
    """All pairwise overlap reports for a mixture model, from one pass of each estimator."""
    centers, covs = _checked(model.centers, model.covariances())
    q_lda, inverses = _lda(centers, covs)
    exact = [None] * q_lda.size
    if include_exact:
        exact = (2.0 * normal_sf(_exact(centers, covs, q_lda, inverses))).tolist()
    iu, ju = inverses.iu, inverses.ju
    columns = (iu, ju, q_lda, 2.0 * normal_sf(q_lda), 2.0 * normal_sf(_c2c(centers, covs)))
    return [OverlapReport(*row) for row in zip(*(c.tolist() for c in columns), exact)]


def overlap_report_rows(reports) -> list[str]:
    """CSV rows (with header) for a list of OverlapReport records."""
    rows = ["i,j,q_lda,alpha_lda,alpha_c2c,alpha_exact"]
    for r in reports:
        exact = "" if r.alpha_exact is None else f"{r.alpha_exact:.17g}"
        rows.append(
            f"{r.i},{r.j},{r.q_lda:.17g},{r.alpha_lda:.17g},{r.alpha_c2c:.17g},{exact}"
        )
    return rows
