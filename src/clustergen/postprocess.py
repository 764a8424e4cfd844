"""Non-convexity transforms: random-network distortion and sphere wrapping.

`DistortNetwork.forward` runs its blocks in two reused n x width buffers
instead of a new array per operation, and takes each layer norm in place
in the order `ndarray.mean` and `ndarray.var` use, so its output matches
the plain NumPy layer norm bit for bit.  The matmuls stay whole: OpenBLAS
results depend on the row count, so splitting rows into chunks moves bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_LAYER_NORM_EPS = 1e-5
_WIDTH = 128
_BLOCKS = 16


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
            return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)

        embedding_weight = linear(dim, (dim, _WIDTH))
        embedding_bias = linear(dim, _WIDTH)
        blocks = tuple(
            _Block(weight=linear(_WIDTH, (_WIDTH, _WIDTH)), bias=linear(_WIDTH, _WIDTH))
            for _ in range(_BLOCKS)
        )
        projection_bias = linear(_WIDTH, dim)
        return cls(embedding_weight, embedding_bias, blocks, projection_bias)

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Run the network on an n x dim matrix.

        Each block's matmul reads one n x width buffer and writes the other;
        the layer norm then squares into the one just read.  The result is
        bit-identical to `tanh((h - h.mean(1)) / sqrt(h.var(1) + eps))`.
        """
        width = self.hidden_width
        h = x @ self.embedding_weight
        h += self.embedding_bias
        out = np.empty_like(h)
        row = np.empty((h.shape[0], 1))
        for block in self.blocks:
            np.matmul(h, block.weight, out=out)
            out += block.bias
            np.sum(out, axis=1, keepdims=True, out=row)
            row /= width  # mean
            out -= row
            np.square(out, out=h)  # h is free once the matmul has read it
            np.sum(h, axis=1, keepdims=True, out=row)
            row /= width  # var
            row += _LAYER_NORM_EPS
            np.sqrt(row, out=row)
            out /= row
            np.tanh(out, out=out)
            h, out = out, h
        return h @ self.projection_weight + self.projection_bias


def distort(X: np.ndarray, seed: int = 0) -> np.ndarray:
    """Pass a dataset through a randomly initialized network.

    Columns are standardized before the embedding and the standardization
    is inverted afterwards, so distortion strength does not depend on the
    dataset's absolute scale.  Output shape equals input shape.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] < 1:
        raise ValueError(f"expected an n x p matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite values")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    net = DistortNetwork.create(X.shape[1], seed)
    out = net.forward((X - mean) / std)
    return out * std + mean


def wrap_around_sphere(X: np.ndarray, prescale: float | None = None) -> np.ndarray:
    """Inverse stereographic embedding onto the unit sphere in dim+1.

    Rows are centered and divided by `prescale` (median row norm when not
    given) so the data sits mid-sphere, then mapped by
    s(x) = (2x, |x|^2 - 1) / (|x|^2 + 1).  Every output row has unit norm.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected an n x p matrix, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("input contains non-finite values")
    centered = X - X.mean(axis=0) if X.shape[0] else X
    if prescale is None:
        norms = np.linalg.norm(centered, axis=1)
        prescale = float(np.median(norms)) if X.shape[0] else 1.0
        if prescale <= 0:
            prescale = 1.0
    elif prescale <= 0:
        raise ValueError(f"prescale must be positive, got {prescale}")
    y = centered / prescale
    sq = np.sum(y * y, axis=1, keepdims=True)
    return np.hstack([2.0 * y, sq - 1.0]) / (sq + 1.0)
