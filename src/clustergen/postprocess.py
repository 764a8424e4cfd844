"""Non-convexity transforms: random-network distortion and sphere wrapping.

The distortion network is a fixed random map, so it runs in float32: its
weights are float64 normal draws rounded to float32, and every matmul,
layer norm and tanh runs on float32 arrays, which halves the memory traffic
and doubles the SIMD width against float64.  Its output is cast back to
float64, and `distort` standardizes and unstandardizes in float64.

Each block's layer norm is folded into its weights.  The row mean of
`h @ W + b` is `h @ W.mean(axis=1) + b.mean()`, so the block runs its matmul
with `W - W.mean(axis=1, keepdims=True)` and adds `b - b.mean()`: the rows
come out centred in exact arithmetic, and the layer norm only divides each
row by the root of its mean square plus eps.  That saves the mean pass, the
subtraction and the square buffer of every block.  The stored weights stay
the raw float32 draws; `forward` centres them on each call.  The result
lies within 2.45e-5 of each input column's standard deviation of the
unfolded network run in float64, on inputs up to 6000 x 200 (1e-4 is
tested).

`DistortNetwork.forward` runs its blocks in two reused n x width buffers
instead of a new array per operation, and matches the folded arithmetic
written as plain NumPy bit for bit.

`forward` splits its rows into chunks that run on the usable cores.  Every
step but the matmuls works row by row (the layer norm included), so a row's
path does not depend on the other rows, and the one question is whether
sgemm gives a chunk's rows the bits it gives them in the whole matrix.  With
one BLAS thread, chunks of at least 1024 rows that start at multiples of 64
rows do: 288 splits into 2-4 chunks as `forward` makes them (dim 1-200, n
2048-20000) and 60 random such splits matched the unsplit pass bit for bit.
Smaller chunks need not: chunks of 16 rows moved bits in 9 of 24 shapes and
of 64 rows in 1 of 24, and a short last chunk (n's remainder after chunks of
16-1024 rows) in 1-9 of 12.  Inputs of fewer than 2048 rows run whole.  Each
process keeps its own pool of threads, made on first use; a forked child
makes a new one, since its parent's threads do not exist in it.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass

import numpy as np

_LAYER_NORM_EPS = 1e-5
_WIDTH = 128
_BLOCKS = 16
_PROJECTION_COLUMNS = 16
# The fewest rows in a chunk of `forward`, whose chunks also start at
# multiples of 64 rows; smaller chunks can move bits (see above).
_CHUNK_ROWS = 1024

# Each process's (threads, pool of threads - 1 workers), by process id.  A
# forked child finds no entry under its own id, so it never submits work to
# its parent's pool, whose threads it does not have.
_POOLS: dict[int, tuple[int, concurrent.futures.Executor]] = {}


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_threads(threads: int) -> None:
    """Run this process's `forward` chunks on `threads` threads: the caller's
    and `threads - 1` pool workers.  By default every usable core is used."""
    # the executor starts no thread before its first task
    pool = concurrent.futures.ThreadPoolExecutor(max(1, threads - 1), "clustergen-distort")
    _POOLS[os.getpid()] = threads, pool


def _threads_and_pool() -> tuple[int, concurrent.futures.Executor]:
    if os.getpid() not in _POOLS:
        _set_threads(_usable_cores())
    return _POOLS[os.getpid()]


def _row_chunks(n: int, threads: int) -> list[int]:
    """Bounds of `min(threads, n // _CHUNK_ROWS)` chunks of n rows (at least
    one), each at least `_CHUNK_ROWS` rows and starting at a multiple of 64."""
    chunks = max(1, min(threads, n // _CHUNK_ROWS))
    return [i * n // (64 * chunks) * 64 for i in range(chunks)] + [n]


@dataclass(frozen=True)
class _Block:
    weight: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class DistortNetwork:
    """Randomly initialized tied-weight feed-forward network.

    Linear embedding (dim -> width 128), 16 blocks of linear + layer norm +
    tanh at constant width, and a linear projection back to dim whose
    weight is the transpose of the embedding weight (shared storage).
    Every weight and bias is float32.
    """

    embedding_weight: np.ndarray  # (dim, width)
    embedding_bias: np.ndarray
    blocks: tuple[_Block, ...]
    projection_bias: np.ndarray

    @property
    def hidden_width(self) -> int:
        return self.embedding_weight.shape[1]

    @property
    def projection_weight(self) -> np.ndarray:
        return self.embedding_weight.T

    @classmethod
    def create(cls, dim: int, seed: int) -> "DistortNetwork":
        rng = np.random.default_rng(seed)

        def linear(fan_in, shape):
            return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape).astype(np.float32)

        embedding_weight = linear(dim, (dim, _WIDTH))
        embedding_bias = linear(dim, _WIDTH)
        blocks = tuple(
            _Block(weight=linear(_WIDTH, (_WIDTH, _WIDTH)), bias=linear(_WIDTH, _WIDTH))
            for _ in range(_BLOCKS)
        )
        projection_bias = linear(_WIDTH, dim)
        return cls(embedding_weight, embedding_bias, blocks, projection_bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on an n x dim matrix; returns n x dim float64.

        The input is cast to float32 once, and the network runs in float32
        from the embedding to the projection.  The rows are split into
        chunks of at least 1024 rows, one per thread (see the module
        docstring); the calling thread runs the first chunk and this
        process's pool the others, and the result has the bits of one pass
        over all rows.
        """
        x = np.asarray(x, dtype=np.float32)
        y = np.empty((x.shape[0], self.projection_bias.shape[0]))
        threads, pool = _threads_and_pool()
        bounds = _row_chunks(x.shape[0], threads)
        rest = [
            pool.submit(self._rows, x[a:b], y[a:b]) for a, b in zip(bounds[1:], bounds[2:])
        ]
        try:
            self._rows(x[: bounds[1]], y[: bounds[1]])
        finally:
            concurrent.futures.wait(rest)
        for future in rest:
            future.result()
        return y

    def _rows(self, x: np.ndarray, y: np.ndarray) -> None:
        """Run the network on the float32 rows `x` in one pass, into `y`.

        Each block runs its matmul with its centred weight and bias, from
        one n x width buffer into the other, so the layer norm only divides
        by `sqrt(mean square + eps)`.  Each block is bit-identical to
        `tanh(h / sqrt(einsum("ij,ij->i", h, h) / width + eps))` with
        `h = h @ weight + bias` on the centred pair.
        """
        width = self.hidden_width
        h = x @ self.embedding_weight
        h += self.embedding_bias
        out = np.empty_like(h)
        row = np.empty(h.shape[0], dtype=np.float32)
        for block in self.blocks:
            # centred over the output units: the rows of `out` have mean zero
            np.matmul(h, block.weight - block.weight.mean(axis=1, keepdims=True), out=out)
            out += block.bias - block.bias.mean()
            np.einsum("ij,ij->i", out, out, out=row)
            row /= width
            row += _LAYER_NORM_EPS
            np.sqrt(row, out=row)
            out /= row[:, None]
            np.tanh(out, out=out)
            h, out = out, h
        # At an output width that is not a multiple of its kernel's, sgemm
        # can round the last rows apart from identical earlier rows; zero
        # columns up to a multiple of 16 keep identical rows identical.
        dim = self.projection_bias.shape[0]
        padded = np.pad(self.projection_weight, ((0, 0), (0, -dim % _PROJECTION_COLUMNS)))
        projected = (h @ padded)[:, :dim]
        projected += self.projection_bias
        y[...] = projected

def distort(X: np.ndarray, seed: int = 0) -> np.ndarray:
    """Pass a dataset through a randomly initialized network.

    Columns are standardized before the embedding and the standardization
    is inverted afterwards, so distortion strength does not depend on the
    dataset's absolute scale.  The standardization and its inversion run
    in float64 and the network in float32 (see `DistortNetwork.forward`);
    the output is float64 with the input's shape, empty for no rows.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"expected an n x p matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite values")
    if X.shape[0] == 0:
        return np.empty(X.shape)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    net = DistortNetwork.create(X.shape[1], seed)
    out = net.forward((X - mean) / std)
    return out * std + mean


def wrap_around_sphere(X: np.ndarray) -> np.ndarray:
    """Inverse stereographic embedding onto the unit sphere in dim+1.

    Rows are centered and divided by their median norm (1 when that is 0 or
    there are no rows) so the data sits mid-sphere, then mapped by
    s(x) = (2x, |x|^2 - 1) / (|x|^2 + 1).  Every output row has unit norm.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an n x p matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite values")
    centered = X - X.mean(axis=0) if X.shape[0] else X
    prescale = float(np.median(np.linalg.norm(centered, axis=1))) if X.shape[0] else 1.0
    if prescale <= 0:
        prescale = 1.0
    y = centered / prescale
    sq = np.sum(y * y, axis=1, keepdims=True)
    return np.hstack([2.0 * y, sq - 1.0]) / (sq + 1.0)
