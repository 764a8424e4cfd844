"""Pairwise cluster separation and overlap measures.

Overlap between two clusters is twice the minimax error rate of the best
linear classifier separating them.  Along a classification axis `a` the
separation quantile is

    q(a) = a'(mu2 - mu1) / (sqrt(a'S1 a) + sqrt(a'S2 a))

and the induced overlap is 2*(1 - Phi(q)).  Three estimators are provided.
The LDA approximation (axis ((S1+S2)/2)^{-1} (mu2 - mu1)) and the cheaper
center-to-center approximation (axis mu2 - mu1) evaluate one batched pair
kernel along their own axes (`_table_separations`).  The exact oracle for
Gaussian pairs takes the member of the axis family
a(t) = (t*S1 + (1-t)*S2)^{-1} (mu2 - mu1) at which q is stationary,
t*s1 = (1-t)*s2 with s = sqrt(a'S a): a unique root in t, found by
bisection, which reaches an end of (0, 1) only when a covariance is
singular.  With the LDA's factor of each pair it works in a basis that
diagonalizes both covariances, where s1, s2 and q are sums of d terms.
One factor per pair, W = L^{-1} for (S1+S2)/2 = LL', serves LDA,
placement and the oracle; no inverse of a pair average is formed.  Every
estimator is one checked pass over every pair at once (`_reports`), the
single-pair functions being its k = 2 case, so all refuse the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .stats import normal_sf

_MAX_CONDITION = 1e12
_BATCH_FLOATS = 1 << 17  # floats of a pair stack formed at once, unless k-1 pairs take more
_LEAF_DIM = 16  # diagonal blocks of a triangular inverse this small: forward substitution
# halvings of (0, 1) in the oracle: t ends within 2^-41 (4.5e-13) of the root,
# where q is stationary, so its error there is below rounding; a supremum at an
# end of (0, 1), which a singular covariance allows, is met to about 2^-41 relative
_BISECTIONS = 40


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
    coincide, or when some pair's averaged covariance is zero or has a
    condition number above 1e12 (or NaN).
    """
    centers = np.asarray(centers, dtype=float).reshape(len(centers), -1)
    covs = np.asarray(covs, dtype=float).reshape(-1, centers.shape[1], centers.shape[1])
    if not np.all(np.isfinite(centers)):
        raise ValueError("cluster centers must be finite")
    for _, i, j, mean in _pair_averages(covs):
        if not np.all(np.any(centers[j] - centers[i], axis=1)):
            raise ValueError("cluster centers coincide; no separating axis exists")
        eig = np.linalg.eigvalsh(mean)  # ascending
        # a zero matrix passes the ratio (0 >= 0), and no other matrix with eig[:, 0] <= 0 does
        if not np.all((eig[:, 0] > 0) & (eig[:, 0] * _MAX_CONDITION >= eig[:, -1])):
            raise ValueError("averaged covariance is numerically singular")
    return centers, covs


def _exact(centers, covs, q_lda, inverses):
    """Largest q over the axis family a(t) of every checked pair i < j.

    No pair is factored again: a batch of `_pair_batches` at a time, with
    the LDA's factor W = L^{-1} of (S_i + S_j)/2 = LL', W S_i W' = V diag(m) V',
    so W S_j W' = V diag(2 - m) V' as W (S_i + S_j) W' = 2I.  Then, with
    g = V'W(mu_j - mu_i) and D = t*m + (1-t)*(2 - m), a(t)'delta = sum g^2/D,
    s_i^2 = a(t)'S_i a(t) = sum m g^2/D^2 and s_j^2 = sum (2 - m) g^2/D^2, each a
    sum of d terms.  The maximum is the member with t*s_i = (1-t)*s_j (see
    `exact_overlap_oracle`), below which t*s_i - (1-t)*s_j is negative and
    above which positive: every pair's root is bisected on that sign in
    lockstep, _BISECTIONS halvings of (0, 1) on 3d floats per pair, and q is
    evaluated once, in the middle of each final interval.  The LDA axis is
    the t = 1/2 member, so no q falls below q_lda.  With m clipped to [0, 2]
    every D is positive and every q finite, so the oracle refuses nothing.
    """
    m, g2 = np.empty((2, q_lda.size, centers.shape[1]))
    for rows, i, j in _pair_batches(*centers.shape):
        w = inverses.whitening[rows]
        m[rows], v = np.linalg.eigh(w @ covs[i] @ w.transpose(0, 2, 1))
        g2[rows] = ((centers[j] - centers[i])[:, None, :] @ w.transpose(0, 2, 1) @ v)[:, 0] ** 2
    m.clip(0.0, 2.0, out=m)  # W S_i W' and 2I - W S_i W' are positive semidefinite
    mj = 2.0 - m

    def deviations(t):
        """(g^2/D, s_i, s_j) of every pair's a(t)."""
        d = t[:, None] * m + (1.0 - t)[:, None] * mj
        h = g2 / d
        return h, np.sqrt(_rowdot(h, m / d)), np.sqrt(_rowdot(h, mj / d))

    t = np.full(q_lda.size, 0.5)  # the middle of each pair's interval, all of width 2^-step
    for step in range(_BISECTIONS):
        _, s_i, s_j = deviations(t)
        t += np.copysign(0.5 ** (step + 2), (1.0 - t) * s_j - t * s_i)
    h, s_i, s_j = deviations(t)
    return np.maximum(h.sum(axis=1) / (s_i + s_j), q_lda)


@dataclass(frozen=True)
class OverlapReport:
    """Separation and overlap measures for one cluster pair."""

    i: int
    j: int
    q_lda: float
    alpha_lda: float
    alpha_c2c: float
    alpha_exact: float | None = None


@np.errstate(invalid="ignore", divide="ignore")
def _reports(centers, covs, include_exact=False) -> list[OverlapReport]:
    """One report per pair i < j, in `np.triu_indices` order: every estimator's one path.

    The inputs are checked (`_checked`), divided by a power of two near
    the largest axis length and its square, and every pair factored once
    (`pair_inverses`); one kernel evaluates the LDA and center-difference
    axes (`_table_separations`), and the exact oracle, if asked, reads the
    LDA's factors and quantiles.  A variance along either axis that is not
    positive (a q that is not finite) refuses the whole input.
    """
    centers, covs = _checked(centers, covs)
    # q is scale-free, and this division is exact: it moves no bit at
    # ordinary scales and keeps delta'S delta off underflow and overflow at any
    e = np.frexp(np.sqrt(np.abs(covs).max()))[1]
    centers, covs = np.ldexp(centers, -e), np.ldexp(covs, -2 * e)
    inverses = pair_inverses(covs)
    iu, ju = inverses.iu, inverses.ju
    delta = centers[ju] - centers[iu]
    q_lda = pairwise_separations(centers, covs, inverses)[0]
    q_c2c = _table_separations(delta, covs, iu, ju, delta)[0]
    if not np.all(np.isfinite([q_lda, q_c2c])):
        raise ValueError("covariance matrices must be symmetric positive definite")
    exact = [None] * q_lda.size
    if include_exact:
        exact = (2.0 * normal_sf(_exact(centers, covs, q_lda, inverses))).tolist()
    columns = (iu, ju, q_lda, 2.0 * normal_sf(q_lda), 2.0 * normal_sf(q_c2c))
    return [OverlapReport(*row) for row in zip(*(c.tolist() for c in columns), exact)]


def lda_overlap(mu1, mu2, S1, S2) -> float:
    """Overlap along the LDA axis: 2*(1 - Phi(q))."""
    return _reports([mu1, mu2], [S1, S2])[0].alpha_lda


def c2c_overlap(mu1, mu2, S1, S2) -> float:
    """Overlap along the center-difference axis."""
    return _reports([mu1, mu2], [S1, S2])[0].alpha_c2c


def exact_overlap_oracle(mu1, mu2, S1, S2) -> float:
    """Exact overlap for a Gaussian pair.

    The minimax axis maximizes q(a), a linear function over the norm
    s_1 + s_2, s = sqrt(a'S a).  There grad q = 0 gives
    (S1/s_1 + S2/s_2) a proportional to delta = mu2 - mu1: the member of the
    family a(t) = (t*S1 + (1-t)*S2)^{-1} delta with t*s_1(t) = (1-t)*s_2(t)
    (Anderson & Bahadur, 1962).  That root is unique: at any root a(t) is a
    stationary point of q, so a maximum (on the plane a'delta = 1, 1/q is the
    convex s_1 + s_2), the maximizing direction is unique when S1 or S2 is
    positive definite, and it fixes t/(1-t) = s_2/s_1.  Bisection finds t to
    within 2^-41.  When a covariance is singular, the supremum can lie at an
    end of (0, 1), approached but not attained, and the bisection ends
    there.  The LDA axis is the t = 1/2 member, so the result never falls
    below the LDA quantile.
    """
    return _reports([mu1, mu2], [S1, S2], include_exact=True)[0].alpha_exact


def pairwise_overlaps(model, include_exact: bool = False) -> list[OverlapReport]:
    """All pairwise overlap reports for a mixture model, from one pass of each estimator."""
    return _reports(model.centers, model.covariances(), include_exact)


def overlap_report_rows(reports) -> list[str]:
    """CSV rows (with header) for a list of OverlapReport records."""
    rows = ["i,j,q_lda,alpha_lda,alpha_c2c,alpha_exact"]
    for r in reports:
        exact = "" if r.alpha_exact is None else f"{r.alpha_exact:.17g}"
        rows.append(
            f"{r.i},{r.j},{r.q_lda:.17g},{r.alpha_lda:.17g},{r.alpha_c2c:.17g},{exact}"
        )
    return rows
