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
16-1024 rows) in 1-9 of 12.  Inputs of fewer than 2048 rows run whole.

This module owns a process's core budget and allocator policy.
`_set_up_process(processes)` pins the bundled OpenBLAS to one thread and
records how many processes share the usable cores; `_threads` is then
`cores // (processes * BLAS threads)`: every core in a CLI process,
`cores // N` in each worker of `generate --jobs N`, and the cores over its
BLAS threads for a library caller that never runs the set-up.  Both
threaded steps, `forward`'s row chunks and the distance tiles of
`metrics.silhouette`, run on that many threads through `_ordered`, which
yields each item's result in item order from a pool that lives only for
the call.

Under glibc the same call fixes malloc's mmap threshold at 4 MiB and its
trim threshold at 32 MiB (`mallopt`).  A block below 4 MiB then comes from
an arena (the main heap, or the arena of a pool thread), and each arena
keeps up to 32 MiB of free memory at its top instead of handing it back to
the OS, so the next dataset reuses the temporaries of the last one in
place rather than page-faulting them in again.  Larger blocks are still
mapped and unmapped on their own.  Elsewhere, and for a library caller
that never runs the set-up, malloc keeps its defaults.
"""

from __future__ import annotations

import concurrent.futures
import ctypes
import functools
import os
from dataclasses import dataclass

import numpy as np

_LAYER_NORM_EPS = 1e-5
_WIDTH = 128
_BLOCKS = 16
_PROJECTION_COLUMNS = 16
# How many items each of `_ordered`'s threads may run ahead of the one it yields.
_AHEAD = 4
# The fewest rows in a chunk of `forward`, whose chunks also start at
# multiples of 64 rows; smaller chunks can move bits (see above).
_CHUNK_ROWS = 1024

# How many processes share the usable cores, as `_set_up_process` last recorded.
_PROCESSES = 1

# glibc's mallopt parameters (malloc.h) and the values `_set_up_process`
# gives them.  Blocks below the mmap threshold come from an arena; an arena
# hands free memory at its top back to the OS only past the trim threshold.
# These are the smallest powers of two at which a warm call of every
# perfbench workload takes about 0 minor page faults: at a 2 MiB mmap
# threshold the n=4000 `bench` call still maps its 3 MiB n x d arrays anew
# (~31,600 faults a call), at a 16 MiB trim threshold it still hands back
# what it freed (~40,700), and at 8 MiB so does k=5/dim 200 placement
# (~1,900).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 4 << 20
_TRIM_THRESHOLD = 32 << 20


@functools.cache
def _openblas():
    """The bundled OpenBLAS's thread-count (setter, getter), or None where
    NumPy has no such pair.

    Looked up on first use, so importing this module costs nothing more.
    """
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        setter = lib.scipy_openblas_set_num_threads64_
        getter = lib.scipy_openblas_get_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    setter.argtypes, setter.restype = [ctypes.c_int], None
    getter.argtypes, getter.restype = [], ctypes.c_int
    return setter, getter


@functools.cache
def _mallopt():
    """glibc's `mallopt`, or None where the C library is not glibc.

    Looked up on first use, so importing this module costs nothing more.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return None
        mallopt = ctypes.CDLL(None).mallopt
    except (ValueError, OSError, AttributeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _set_up_process(processes: int = 1) -> None:
    """Run the bundled OpenBLAS on one thread, in one of `processes` processes
    that share the usable cores, and under glibc keep freed blocks below
    `_MMAP_THRESHOLD` in the process (see the module docstring).

    OpenBLAS's threaded paths round differently from its one-thread paths
    (Cholesky from dim ~128, matmul, QR and eigh from dim ~500), so one seed
    gives the same bytes on every machine only at a fixed thread count.
    """
    global _PROCESSES
    _PROCESSES = processes
    blas = _openblas()
    if blas is not None:
        blas[0](1)
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _threads() -> int:
    """The threads of `forward` and `metrics.silhouette`: this process's
    share of the usable cores (see `_set_up_process`) over the BLAS threads
    of each item's matmuls, so that no two items, here or in another
    process, share a core."""
    blas = _openblas()
    return max(1, _usable_cores() // (_PROCESSES * (blas[1]() if blas else 1)))


def _points(X) -> tuple[np.ndarray, int]:
    """A fresh float copy of X divided by 2**e, and e, the `np.frexp` exponent
    of its largest |x|: the copy's largest |x| lies in [1/2, 1), so no square
    of it overflows or underflows, and the division is exact, so a scale-free
    step gets on it X's bits wherever X's squares stay in range.  Anything
    but a finite n x d matrix with d >= 1 is refused with a ValueError."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"expected an n x d matrix, got shape {X.shape}")
    # both reductions carry a NaN through, with no temporary the size of X
    largest = np.maximum(X.max(initial=0.0), -X.min(initial=0.0))
    if not np.isfinite(largest):
        raise ValueError("input contains non-finite values")
    e = int(np.frexp(largest)[1])
    return np.ldexp(X, -e), e


def _ordered(work, items, threads: int):
    """Yield `work(item)` for each of the sequence `items`, in order, on `threads` threads.

    The calling thread runs every `threads`-th item itself, the first among
    them; a pool of `threads - 1` that lives only for this generator runs
    the others, at most `_AHEAD * threads` items ahead of the one yielded.
    An item's error is raised as its result is due, and no pool thread
    outlives the generator.  One thread, or one item, starts no pool.
    """
    if threads < 2 or len(items) < 2:
        yield from map(work, items)
        return
    pool = concurrent.futures.ThreadPoolExecutor(threads - 1)
    try:
        futures, submitted = {}, 0
        for index, item in enumerate(items):
            while submitted < min(len(items), index + 1 + _AHEAD * threads):
                if submitted % threads:
                    futures[submitted] = pool.submit(work, items[submitted])
                submitted += 1
            yield futures.pop(index).result() if index % threads else work(item)
    finally:
        pool.shutdown(cancel_futures=True)


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
        docstring); the calling thread runs the first chunk and `_ordered`'s
        pool the others, and the result has the bits of one pass over all
        rows.
        """
        x = np.asarray(x, dtype=np.float32)
        y = np.empty((x.shape[0], self.projection_bias.shape[0]))
        bounds = _row_chunks(x.shape[0], _threads())
        chunks = [slice(a, b) for a, b in zip(bounds, bounds[1:])]
        for _ in _ordered(lambda rows: self._rows(x[rows], y[rows]), chunks, len(chunks)):
            pass
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
    dataset's absolute scale: `distort(2**k * X) == 2**k * distort(X)` for
    any finite X (see `_points`) whose columns all vary; a constant column
    is divided by 1 in X's units.  The standardization and its inversion run
    in float64 and the network in float32 (see `DistortNetwork.forward`);
    the output is float64 with the input's shape, empty for no rows.
    """
    X, e = _points(X)
    if X.shape[0] == 0:
        return X
    mean, std = X.mean(axis=0), X.std(axis=0)
    std[std == 0] = np.ldexp(1.0, -e)  # 1 in X's units
    X -= mean
    X /= std
    X = X.astype(np.float32)  # the network's input, in place of the float64 copy
    out = DistortNetwork.create(X.shape[1], seed).forward(X)
    out *= std
    out += mean
    return np.ldexp(out, e, out=out)


def wrap_around_sphere(X: np.ndarray) -> np.ndarray:
    """Inverse stereographic embedding onto the unit sphere in dim+1.

    Rows are centered and divided by their median norm (1 in X's units when
    that is 0) so the data sits mid-sphere, then mapped by s(x) = (2x,
    |x|^2 - 1) / (|x|^2 + 1).  Every output row has unit norm.  Any finite X
    maps as 2**k * X does (see `_points`), unless its median norm is 0.
    """
    y, e = _points(X)
    if y.shape[0]:
        y -= y.mean(axis=0)
        y /= float(np.median(np.linalg.norm(y, axis=1))) or np.ldexp(1.0, -e)
    sq = np.sum(y * y, axis=1, keepdims=True)
    return np.hstack([2.0 * y, sq - 1.0]) / (sq + 1.0)
