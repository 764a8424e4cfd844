"""Drawing labeled datasets from mixture models, and their CSV files.

Points follow the direction-times-radius scheme: a uniform direction on
the unit sphere is stretched by the cluster's axes and scaled by a draw
from the normalized radial distribution.  The normal family is the one
exception: there the radius follows chi(dim) / 0.99858, the family's 68.2%
constant, so the sampled cluster is a multivariate normal whose covariance
is 1/0.99858² ≈ 1.00285 times the cluster's (ROADMAP item 10).

`dataset_to_csv` writes the bytes of `"%.17g" % v` for every float, but
formats blocks of values with NumPy instead of CPython.  A value with
1e-4 <= |x| < 1e17 prints in fixed notation with decimal exponent k in
[-4, 16], so its 17 digits are D = round-half-even(|x| * 10**(16-k)).
There 10**(16-k) is an exact double, Dekker's TwoProduct gives the product
exactly as hi + lo, and hi >= 1e16 > 2**53 is an even integer, so
D = hi + rint(lo) in int64 is correctly rounded; comparing (hi, lo) with
the exact doubles 1e16 and 1e17 catches the k that `log10` misses next to
a power of ten.  Tables of the 10,000 four-digit groups turn D into text.
Every other value (zeros, |x| < 1e-4, |x| >= 1e17) and every label outside
0..9999 goes through Python's own `%.17g` and `%d`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .mixture import Cluster, MixtureModel

# values per block in `dataset_to_csv`: about 1,500 rows at dim 10
_CSV_BLOCK_VALUES = 1 << 14


def _digit_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per four-digit group g = 0..9999: its ASCII digits, zero-padded, as one
    uint32; its number of trailing zeros (4 for 0); and its label cell, the
    digits without leading zeros and then '\\r\\n', padded with zero bytes to
    one uint64."""
    group = np.arange(10_000)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    chars = (digits + ord("0")).astype(np.uint8)
    trailing = sum((group % 10**i == 0).astype(np.int64) for i in range(1, 5))
    label = np.zeros((group.size, 8), dtype=np.uint8)
    label[:, :4] = chars
    for i in range(3):  # zeros ahead of the first nonzero digit, but never the last digit
        label[group < 10 ** (3 - i), i] = 0
    label[:, 4:6] = [ord("\r"), ord("\n")]
    return chars.view(np.uint32).ravel(), trailing, label.view(np.uint64).ravel()


_DIGIT_GROUPS, _TRAILING_ZEROS, _LABEL_CELLS = _digit_tables()
# 10**s for s = 0..20, each an exact double (5**20 < 2**53)
_POW10 = np.array([float(10**s) for s in range(21)])


def _float_cell_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Byte masks and characters of a fast-path float cell (see `_float_cells`).

    Row ((k + 4) * 2 + negative) * 17 + z is for decimal exponent k, the
    sign and z trailing zeros in D, as four uint64 of 32 bytes: 0xff where
    the cell takes the unshifted text, 0xff where it takes the text one byte
    right, and the '-', '.' and ',' it adds, all else zero.
    """
    k = np.arange(-4, 17)[:, None, None, None]
    negative = np.arange(2)[:, None, None]
    zeros = np.arange(17)[:, None]
    byte = np.arange(32)
    point = 8 + k
    fraction = 16 - np.maximum(k, -1)  # digits after the point
    strip = np.minimum(zeros, fraction)
    start = 7 + np.minimum(k, 0)  # D's first digit, or the '0' before the point
    end = np.where(strip == fraction, point, 25 - strip)
    left = (byte >= start) & (byte < point)
    right = (byte > point) & (byte < end)
    chars = (
        np.where((byte == start - 1) & (negative == 1), ord("-"), 0)
        + np.where((byte == point) & (end > point), ord("."), 0)
        + np.where(byte == end, ord(","), 0)
    )
    shape = (21, 2, 17, 32)
    return tuple(
        np.broadcast_to(table, shape).astype(np.uint8).reshape(-1, 32).view(np.uint64)
        for table in (left * 0xFF, right * 0xFF, chars)
    )


_TAKE_LEFT, _TAKE_RIGHT, _CHARS = _float_cell_tables()


@dataclass(frozen=True)
class Dataset:
    """Point matrix, integer labels, and the generating archetype's name."""

    points: np.ndarray
    labels: np.ndarray
    archetype_name: str

    @property
    def n_samples(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample_cluster_points(cluster: Cluster, n: int, rng: np.random.Generator) -> np.ndarray:
    """n i.i.d. points from one cluster (n x dim)."""
    dim = cluster.dim
    if n == 0:
        return np.empty((0, dim))
    dist = cluster.radial_distribution
    if dist.name == "normal":
        scaled = rng.standard_normal((n, dim)) / dist.norm_constant * cluster.axis_lengths
    else:
        directions = rng.standard_normal((n, dim))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = dist.draw(rng, n)
        scaled = radii[:, None] * directions * cluster.axis_lengths
    return cluster.center + scaled @ cluster.axes.T


def sample_dataset(model: MixtureModel, rng: np.random.Generator) -> Dataset:
    """One labeled dataset: group_sizes[j] points per cluster, rows shuffled.

    The clusters fill one preallocated array in turn, so the peak holds the
    points twice (before and after the shuffle) plus one cluster's draw.
    """
    sizes = np.asarray(model.group_sizes, dtype=int)
    points = np.empty((int(sizes.sum()), model.dim))
    start = 0
    for cluster, size in zip(model.clusters, sizes.tolist()):
        points[start : start + size] = sample_cluster_points(cluster, size, rng)
        start += size
    labels = np.repeat(np.arange(len(sizes)), sizes)
    order = rng.permutation(points.shape[0])
    return Dataset(points[order], labels[order], model.archetype_name)


def dataset_to_csv(dataset: Dataset, path) -> None:
    """Write x1..x{dim},label rows with round-trip-stable float formatting.

    The bytes are those of `csv.writer` with its default dialect: `%.17g`
    floats, an integer label, no quoting (no field can hold a comma or a
    quote) and `\r\n` line ends.  Rows go out in blocks of about
    `_CSV_BLOCK_VALUES` values, so memory stays bounded at any size; see
    `_csv_block` for how a block is formatted.
    """
    dim = dataset.dim
    header = ",".join([f"x{i + 1}" for i in range(dim)] + ["label"]) + "\r\n"
    points = np.asarray(dataset.points, dtype=np.float64)
    rows = max(1, _CSV_BLOCK_VALUES // (dim + 1))
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, dataset.n_samples, rows):
            fh.write(_csv_block(points[start : start + rows], dataset.labels[start : start + rows]))


def _csv_block(points: np.ndarray, labels: np.ndarray) -> bytes:
    """The CSV rows of an n x dim float64 block and its n labels.

    Each row is laid out as a 32-byte cell per value and a 24-byte cell for
    the label.  A cell holds its field's text followed by its separator,
    with zero bytes around them; deleting the zero bytes leaves the rows
    (no text holds one).
    """
    n, dim = points.shape
    rows = np.empty((n, 4 * dim + 3), dtype=np.uint64)
    rows[:, : 4 * dim] = _float_cells(points.ravel()).reshape(n, 4 * dim)

    labels = np.asarray(labels)
    fast = (labels >= 0) & (labels < 10_000) if labels.dtype.kind in "iu" else np.zeros(n, bool)
    rows[:, 4 * dim] = _LABEL_CELLS.take(np.where(fast, labels, 0).astype(np.intp))
    rows[:, 4 * dim + 1 :] = 0
    slow = np.flatnonzero(~fast)
    _write_texts(rows[:, 4 * dim :].view(np.uint8), slow, ["%d\r\n" % v for v in labels[slow].tolist()])
    return rows.tobytes().translate(None, b"\0")


def _write_texts(cells: np.ndarray, index: np.ndarray, texts: list[str]) -> None:
    """Overwrite the byte rows cells[index] with `texts`, padded with zero bytes."""
    if not texts:
        return
    encoded = [t.encode() for t in texts]
    width = cells.shape[1]
    if max(map(len, encoded)) > width:
        raise ValueError(f"a CSV field does not fit in {width} bytes")
    cells[index] = np.array(encoded, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


def _float_cells(x: np.ndarray) -> np.ndarray:
    """The 32-byte cells of float64 values: `%.17g` and ',', as n x 4 uint64.

    A value with 1e-4 <= |x| < 1e17 prints in fixed notation, as the 17
    digits of D = round-half-even(|x| * 10**(16-k)) with a point after
    digit k (see `_significand`).  Its text is seven '0's and D's digits,
    so D's first digit is byte 7, and the point goes in at byte 8+k: bytes
    before it come from the text, bytes after it from the text shifted one
    byte right.  The cell keeps the '0' before the point (k < 0) or D's
    first digit on, and drops trailing zeros of the fraction (and the point
    when none is left); one table row per (k, sign, trailing zeros) gives
    the byte masks and the added '-', '.' and ','.  Every other value goes
    through `"%.17g" % v`.
    """
    magnitude = np.abs(x)
    fast = (magnitude >= 1e-4) & (magnitude < 1e17)
    D, k = _significand(np.where(fast, magnitude, 1.0))
    fast &= D < 10**17  # never false: no double rounds up to a power of ten

    lead = D // 10**8
    rest = D - lead * 10**8
    top = lead // 10**8
    upper = lead - top * 10**8
    g1 = upper // 10**4
    g3 = rest // 10**4
    groups = (top, g1, upper - g1 * 10**4, g3, rest - g3 * 10**4)
    digits = np.empty((x.size, 8), dtype=np.uint32)  # columns 6 and 7 are masked out
    digits[:, 0] = _DIGIT_GROUPS[0]
    for column, group in enumerate(groups, start=1):
        digits[:, column] = _DIGIT_GROUPS.take(group)
    text = digits.view(np.uint64)
    shifted = np.empty_like(text)
    shifted.view(np.uint8).reshape(-1)[1:] = text.view(np.uint8).reshape(-1)[:-1]

    trailing = _TRAILING_ZEROS.take(groups[4])
    zero = np.flatnonzero(groups[4] == 0)
    for group in groups[3:0:-1]:
        trailing[zero] += _TRAILING_ZEROS.take(group[zero])
        zero = zero[group[zero] == 0]
    row = ((k + 4) * 2 + np.signbit(x)) * 17 + trailing
    cells = text & _TAKE_LEFT.take(row, axis=0)
    cells |= shifted & _TAKE_RIGHT.take(row, axis=0)
    cells |= _CHARS.take(row, axis=0)
    slow = np.flatnonzero(~fast)
    _write_texts(cells.view(np.uint8), slow, ["%.17g," % v for v in x[slow].tolist()])
    return cells


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a into two 26-bit halves, a = high + low exactly."""
    c = 134217729.0 * a  # 2**27 + 1
    high = c - (c - a)
    return high, a - high


_POW10_HIGH, _POW10_LOW = _veltkamp(_POW10)


def _scaled(magnitude: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """magnitude * 10**(16-k) as an unevaluated sum hi + lo (Dekker's TwoProduct)."""
    s = 16 - k
    high, low = _veltkamp(magnitude)
    p_high, p_low = _POW10_HIGH.take(s), _POW10_LOW.take(s)
    hi = magnitude * _POW10.take(s)
    lo = ((high * p_high - hi) + high * p_low + low * p_high) + low * p_low
    return hi, lo


def _significand(magnitude: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits D and decimal exponent k of `%.17g` for 1e-4 <= magnitude < 1e17.

    k is the exponent with 10**16 <= magnitude * 10**(16-k) < 10**17, so
    k is in [-4, 16] and 10**(16-k) is an exact double.  The product is
    exact as hi + lo (Dekker's TwoProduct), and hi >= 10**16 > 2**53 is an
    even integer, so D = round-half-even(hi + lo) = hi + rint(lo) exactly:
    a tie in lo rounds to the even integer, and so does hi + lo.  `log10` can
    miss k by one next to a power of ten; comparing (hi, lo) with the
    exact doubles 1e16 and 1e17 finds those misses, which are redone.  D
    stays below 10**17: the largest double below each power of ten from
    1e-3 to 1e17 is at least 8.7 units of its 17th digit away from it.
    """
    k = np.clip(np.floor(np.log10(magnitude)), -4, 16).astype(np.int64)
    hi, lo = _scaled(magnitude, k)
    while True:
        near = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
        high, low = hi[near], lo[near]
        step = ((high > 1e17) | ((high == 1e17) & (low >= 0))).astype(np.int64)
        step -= (high < 1e16) | ((high == 1e16) & (low < 0))
        near, step = near[step != 0], step[step != 0]
        if not near.size:
            break
        k[near] += step
        hi[near], lo[near] = _scaled(magnitude[near], k[near])
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), k


def dataset_from_csv(path) -> Dataset:
    """Read the x1..x{dim},label rows `dataset_to_csv` writes, every float bit-exact.

    A NaN or infinite field raises ValueError naming its column; the
    dataset carries no archetype name."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        header = fh.readline().rstrip("\r\n").split(",")
        if header[-1] != "label":
            raise ValueError(f"{path}: expected trailing 'label' column, got {header[-1]!r}")
        if fh.tell() == os.fstat(fh.fileno()).st_size:  # header only: no rows
            body = np.empty((0, len(header)))
        else:
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
    if body.shape[1] != len(header):
        raise ValueError(f"{path}: rows have {body.shape[1]} fields, the header {len(header)}")
    finite = np.isfinite(body).all(axis=0)
    if not finite.all():
        column = header[np.flatnonzero(~finite)[0]]
        raise ValueError(f"{path}: column {column!r} has a non-finite value")
    labels = body[:, -1]
    if not np.all((labels == np.floor(labels)) & (labels >= -(2.0**63)) & (labels < 2.0**63)):
        raise ValueError(f"{path}: labels must be integers within the int64 range")
    return Dataset(np.ascontiguousarray(body[:, :-1]), labels.astype(int), "")
