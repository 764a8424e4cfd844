import os
import sys
import threading

import numpy as np
import pytest

from clustergen import postprocess
from clustergen.archetype import Archetype
from clustergen.mixture import sample_mixture_model
from clustergen.postprocess import (
    _BLOCKS,
    _CHUNK_ROWS,
    _LAYER_NORM_EPS,
    _PROJECTION_COLUMNS,
    _WIDTH,
    DistortNetwork,
    _Block,
    _row_chunks,
    distort,
    wrap_around_sphere,
)
from clustergen.sampling import sample_dataset


def reference_forward(net, x):
    """The folded forward pass as plain NumPy expressions, one new array per op,
    in the dtype of the network's weights (float32 for `DistortNetwork.create`).

    Each block's weight and bias are centred over the output units, so its
    pre-activation has row mean zero and the layer norm divides by the root
    of the row's mean square."""
    h = x.astype(net.embedding_weight.dtype) @ net.embedding_weight + net.embedding_bias
    for block in net.blocks:
        weight = block.weight - block.weight.mean(axis=1, keepdims=True)
        bias = block.bias - block.bias.mean()
        h = h @ weight + bias
        var = np.einsum("ij,ij->i", h, h) / net.hidden_width
        h = np.tanh(h / np.sqrt(var + _LAYER_NORM_EPS)[:, None])
    return project(net, h, x.shape[1])


def layer_norm_forward(net, x):
    """The network with its layer norms written out: each block subtracts the
    row mean of `h @ weight + bias` and divides by the row's std."""
    h = x.astype(net.embedding_weight.dtype) @ net.embedding_weight + net.embedding_bias
    for block in net.blocks:
        h = h @ block.weight + block.bias
        mean = h.mean(axis=1, keepdims=True)
        var = h.var(axis=1, keepdims=True)
        h = np.tanh((h - mean) / np.sqrt(var + _LAYER_NORM_EPS))
    return project(net, h, x.shape[1])


def project(net, h, dim):
    padded = np.pad(net.projection_weight, ((0, 0), (0, -dim % _PROJECTION_COLUMNS)))
    return ((h @ padded)[:, :dim] + net.projection_bias).astype(np.float64)


def reference_distort(X, net, forward=reference_forward):
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    return forward(net, (X - mean) / std) * std + mean


def float64_network(dim, seed):
    """The normal draws of `DistortNetwork.create`, in its order, kept in float64."""
    rng = np.random.default_rng(seed)

    def linear(fan_in, shape):
        return rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=shape)

    embedding_weight = linear(dim, (dim, _WIDTH))
    embedding_bias = linear(dim, _WIDTH)
    blocks = tuple(
        _Block(weight=linear(_WIDTH, (_WIDTH, _WIDTH)), bias=linear(_WIDTH, _WIDTH))
        for _ in range(_BLOCKS)
    )
    return DistortNetwork(embedding_weight, embedding_bias, blocks, linear(_WIDTH, dim))


def network_arrays(net):
    return [net.embedding_weight, net.embedding_bias, net.projection_bias] + [
        a for block in net.blocks for a in (block.weight, block.bias)
    ]


class TestDistort:
    def test_identical_rows_map_identically(self):
        # sgemm runs the rows past its last full panel through other kernels,
        # so copies of one row sit first, in the middle and last
        for n in (37, 6001):
            for p in (3, 10):
                X = np.random.default_rng(n + p).normal(size=(n, p))
                copies = [0, n // 2, n - 1]
                X[copies] = X[7]
                out = distort(X, seed=1)
                for i in copies:
                    np.testing.assert_array_equal(out[i], out[7], err_msg=f"row {i} of {n}x{p}")

    def test_output_shape_matches_input(self):
        rng = np.random.default_rng(1)
        for n, p in [(50, 2), (10, 7), (3, 1), (0, 3)]:
            out = distort(rng.normal(size=(n, p)), seed=0)
            assert out.shape == (n, p)
            assert out.dtype == np.float64

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(30, 4))
        np.testing.assert_array_equal(distort(X, seed=5), distort(X, seed=5))
        assert not np.allclose(distort(X, seed=5), distort(X, seed=6))

    def test_weights_are_float32_roundings_of_float64_draws(self):
        net = DistortNetwork.create(dim=6, seed=4)
        for stored, drawn in zip(network_arrays(net), network_arrays(float64_network(6, 4))):
            assert stored.dtype == np.float32
            assert np.array_equal(stored, drawn.astype(np.float32))

    def test_weight_tying_is_exact(self):
        net = DistortNetwork.create(dim=3, seed=0)
        assert np.shares_memory(net.projection_weight, net.embedding_weight)
        assert np.abs(net.projection_weight - net.embedding_weight.T).max() == 0.0

    def test_sixteen_blocks_at_width_128(self):
        net = DistortNetwork.create(dim=5, seed=0)
        assert len(net.blocks) == 16
        assert net.hidden_width == 128
        assert net.embedding_weight.shape == (5, 128)
        for block in net.blocks:
            assert block.weight.shape == (128, 128)

    def test_finite_on_large_inputs(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1e3, 1e3, size=(100, 5))
        assert np.isfinite(distort(X, seed=2)).all()

    def test_nonfinite_inputs_rejected(self):
        X = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            distort(X, seed=0)

    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"^expected an n x p matrix, got shape \(3,\)$"):
            distort(np.zeros(3), seed=0)

    def test_separated_clusters_stay_separable(self):
        # nearest-centroid accuracy on distorted well-separated data
        a = Archetype(
            name="sep", n_clusters=2, dim=2, n_samples=400,
            max_overlap=1e-4, min_overlap=1e-5,
        )
        rng = np.random.default_rng(4)
        model = sample_mixture_model(a, rng)
        dataset = sample_dataset(model, rng)
        distorted = distort(dataset.points, seed=7)
        centroids = np.stack(
            [distorted[dataset.labels == j].mean(axis=0) for j in range(2)]
        )
        distances = np.linalg.norm(distorted[:, None, :] - centroids[None], axis=2)
        accuracy = (np.argmin(distances, axis=1) == dataset.labels).mean()
        assert accuracy > 0.75


class TestDistortPrecision:
    """The folded float32 network stays within 1e-4 of each column's std of the
    float64 network with its layer norms written out."""

    SHAPES = [(1, 1), (50, 2), (700, 5), (6000, 10), (3000, 57), (6000, 200)]

    @pytest.mark.parametrize("n,p", SHAPES, ids=[f"{n}x{p}" for n, p in SHAPES])
    def test_close_to_float64_network(self, n, p):
        rng = np.random.default_rng(n + p)
        scale = 10.0 ** rng.uniform(-3.0, 3.0, size=p)
        offset = rng.uniform(-1e3, 1e3, size=p)
        X = rng.standard_normal((n, p)) * scale + offset
        out = distort(X, seed=n)
        assert out.dtype == np.float64
        std = X.std(axis=0)
        std[std == 0] = 1.0
        expected = reference_distort(X, float64_network(p, n), layer_norm_forward)
        deviation = np.abs(out - expected) / std
        assert deviation.max() <= 1e-4


class TestDistortBitIdentity:
    """The buffer-reusing forward pass moves no bit against the folded arithmetic
    in plain float32 NumPy."""

    # from 2048 rows up, forward runs in row chunks on a machine of 2 or more cores
    SHAPES = [
        (1, 1), (120, 3), (4000, 2), (6000, 10),
        (2048, 1), (2048, 2), (6000, 2), (20000, 3), (6000, 200),
    ]

    @pytest.mark.parametrize("n,p", SHAPES, ids=[f"{n}x{p}" for n, p in SHAPES])
    def test_forward_matches_reference(self, n, p):
        x = np.random.default_rng(n + p).standard_normal((n, p))
        net = DistortNetwork.create(p, seed=3)
        assert np.array_equal(net.forward(x), reference_forward(net, x))

    @pytest.mark.parametrize("n,p", SHAPES, ids=[f"{n}x{p}" for n, p in SHAPES])
    def test_distort_matches_reference(self, n, p):
        X = np.random.default_rng(n * p).uniform(-50.0, 50.0, size=(n, p))
        net = DistortNetwork.create(p, seed=11)
        assert np.array_equal(distort(X, seed=11), reference_distort(X, net))


def one_pass(net, x):
    """The network over all rows of `x` in one pass, with no row chunks."""
    y = np.empty(x.shape)
    net._rows(np.asarray(x, dtype=np.float32), y)
    return y


@pytest.fixture()
def set_threads():
    """`postprocess._set_threads`, with this process's default pool restored afterwards."""
    pid = os.getpid()
    saved = postprocess._POOLS.pop(pid, None)
    yield postprocess._set_threads
    made = postprocess._POOLS.pop(pid, None)
    if made is not None:
        made[1].shutdown()
    if saved is not None:
        postprocess._POOLS[pid] = saved


class TestDistortChunks:
    """`forward` splits its rows into chunks of at least 1024 rows at multiples
    of 64, and the result has the bits of one pass over all rows."""

    @pytest.mark.parametrize("seed", range(8))
    def test_any_split_of_large_chunks_concatenates_to_one_pass(self, seed):
        rng = np.random.default_rng(seed)
        for p in (1, 2, 3, 7, 16, 57, 128, 200)[seed % 4::4]:
            chunks = int(rng.integers(2, 5))
            n = int(rng.integers(chunks * _CHUNK_ROWS, 10_001))
            # chunks of 1024 rows, plus a random share of the other whole 64-row blocks
            blocks = 16 + rng.multinomial(n // 64 - 16 * chunks, [1 / chunks] * chunks)
            bounds = [0, *(np.cumsum(blocks[:-1]) * 64).tolist(), n]
            net = DistortNetwork.create(p, seed=seed)
            x = rng.standard_normal((n, p))
            parts = [one_pass(net, x[a:b]) for a, b in zip(bounds, bounds[1:])]
            assert np.array_equal(np.concatenate(parts), one_pass(net, x)), (n, p, bounds)

    @pytest.mark.parametrize("n", [0, 1, 1000, 2047, 2048, 2111, 3090, 3120, 6000, 20001])
    @pytest.mark.parametrize("threads", [1, 2, 3, 4, 8])
    def test_chunk_bounds(self, n, threads):
        bounds = _row_chunks(n, threads)
        assert bounds[0] == 0 and bounds[-1] == n
        assert len(bounds) - 1 == max(1, min(threads, n // _CHUNK_ROWS))
        assert all(a % 64 == 0 for a in bounds[:-1])
        if len(bounds) > 2:
            assert min(np.diff(bounds)) >= _CHUNK_ROWS

    @pytest.mark.parametrize("n,p", [(2048, 2), (6000, 10), (9000, 57)])
    def test_bytes_do_not_depend_on_the_thread_count(self, set_threads, n, p):
        x = np.random.default_rng(n).standard_normal((n, p))
        net = DistortNetwork.create(p, seed=5)
        expected = one_pass(net, x)
        for threads in (1, 2, 3, 4):
            set_threads(threads)
            assert np.array_equal(net.forward(x), expected), threads

    def test_concurrent_callers_get_their_own_bytes(self, set_threads):
        # more callers and pool threads than cores, switching threads often
        set_threads(3)
        inputs = [np.random.default_rng(i).standard_normal((4096, 3)) for i in range(6)]
        expected = [distort(x, seed=i) for i, x in enumerate(inputs)]
        results = [None] * len(inputs)

        def run(i):
            results[i] = distort(inputs[i], seed=i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=run, args=(i,)) for i in range(len(inputs))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)


class TestWrapAroundSphere:
    def test_one_dimensional_input_rejected(self):
        with pytest.raises(ValueError, match=r"^expected an n x p matrix, got shape \(3,\)$"):
            wrap_around_sphere(np.zeros(3))

    def test_nan_input_rejected(self):
        with pytest.raises(ValueError, match="^input contains non-finite values$"):
            wrap_around_sphere(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_origin_maps_to_pole(self):
        # symmetric data keeps the zero row at the origin after centering
        X = np.array([[0.0, 0.0], [1.0, 2.0], [-1.0, -2.0]])
        wrapped = wrap_around_sphere(X)
        np.testing.assert_allclose(wrapped[0], [0.0, 0.0, -1.0], atol=1e-15)

    def test_unit_norm_row_lands_on_equator(self):
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        wrapped = wrap_around_sphere(X)
        assert wrapped[0][-1] == pytest.approx(0.0, abs=1e-15)
        assert np.linalg.norm(wrapped[0]) == pytest.approx(1.0, abs=1e-12)

    def test_all_rows_unit_norm(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(500, 5)) * 10
        wrapped = wrap_around_sphere(X)
        assert wrapped.shape == (500, 6)
        np.testing.assert_allclose(np.linalg.norm(wrapped, axis=1), 1.0, atol=1e-12)

    def test_round_trip_recovers_prescaled_input(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(200, 3)) * 4
        wrapped = wrap_around_sphere(X)
        u, v = wrapped[:, :-1], wrapped[:, -1:]
        recovered = u / (1.0 - v)  # forward stereographic projection
        centered = X - X.mean(axis=0)
        expected = centered / np.median(np.linalg.norm(centered, axis=1))
        np.testing.assert_allclose(recovered, expected, atol=1e-9)

    def test_injective_on_distinct_rows(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(100, 4))
        wrapped = wrap_around_sphere(X)
        diffs = np.linalg.norm(wrapped[:, None] - wrapped[None, :], axis=2)
        np.fill_diagonal(diffs, np.inf)
        assert diffs.min() > 0

    def test_all_zero_rows_map_to_pole(self):
        # the median norm is 0 here, so the rows are divided by 1 instead
        wrapped = wrap_around_sphere(np.zeros((3, 2)))
        np.testing.assert_array_equal(wrapped, np.tile([0.0, 0.0, -1.0], (3, 1)))
