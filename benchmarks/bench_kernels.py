"""Microbenchmarks of the computational kernels underneath every experiment.

These use pytest-benchmark's statistical timing (multiple rounds) — the
numbers to watch when optimizing the NumPy engine.
"""

import sys
import time
from pathlib import Path

import numpy as np

import repro.nn as nn
import repro.nn.functional as F
from repro.compression import (
    CompressionPipeline,
    pack_levels,
    rle_decode,
    rle_encode,
    unpack,
)
from repro.models import vgg_mini
from repro.nn import Tensor
from repro.nn.fused import fused_clip_quantize, try_compile
from repro.partition import TileGrid, fdsp_forward
from repro.partition.geometry import split_array
from repro.runtime import allocate_tiles

# The test-only reference kernels live next to the conformance tests.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conv_oracle import conv2d_im2col, max_pool2d_reshape  # noqa: E402

RNG = np.random.default_rng(0)


def _timed(fn, repeats=50):
    """Best-of-3 mean lap: robust against scheduler noise on shared CI."""
    fn()  # warm caches / BLAS threads
    laps = []
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        laps.append((time.perf_counter() - t0) / repeats)
    return min(laps)


def test_conv2d_forward(benchmark):
    x = Tensor(RNG.normal(size=(4, 16, 32, 32)).astype(np.float32))
    w = Tensor(RNG.normal(size=(32, 16, 3, 3)).astype(np.float32))
    benchmark(lambda: F.conv2d(x, w, padding=1))


def test_conv2d_backward(benchmark):
    x = RNG.normal(size=(4, 16, 32, 32)).astype(np.float32)
    w = Tensor(RNG.normal(size=(32, 16, 3, 3)).astype(np.float32), requires_grad=True)

    def fwd_bwd():
        t = Tensor(x, requires_grad=True)
        F.conv2d(t, w, padding=1).sum().backward()
        w.zero_grad()

    benchmark(fwd_bwd)


def test_max_pool2d(benchmark):
    x = Tensor(RNG.normal(size=(8, 32, 32, 32)).astype(np.float32))
    benchmark(lambda: F.max_pool2d(x, 2))


def test_batch_norm_training(benchmark):
    x = Tensor(RNG.normal(size=(16, 32, 16, 16)).astype(np.float32))
    gamma, beta = Tensor(np.ones(32)), Tensor(np.zeros(32))
    rm, rv = np.zeros(32), np.ones(32)
    benchmark(lambda: F.batch_norm(x, gamma, beta, rm, rv, training=True))


def test_rle_encode_sparse(benchmark):
    levels = np.zeros(200_000, dtype=np.int64)
    levels[RNG.choice(200_000, 5000, replace=False)] = RNG.integers(1, 16, 5000)
    benchmark(lambda: rle_encode(levels))


def test_rle_roundtrip(benchmark):
    levels = np.zeros(50_000, dtype=np.int64)
    levels[RNG.choice(50_000, 2500, replace=False)] = RNG.integers(1, 16, 2500)
    benchmark(lambda: rle_decode(rle_encode(levels)))


def test_packed_encode_sparse(benchmark):
    """Levels -> one contiguous wire buffer (the worker result hot path)."""
    levels = np.zeros(200_000, dtype=np.int64)
    levels[RNG.choice(200_000, 5000, replace=False)] = RNG.integers(1, 16, 5000)
    benchmark(lambda: pack_levels(levels))


def test_packed_roundtrip(benchmark):
    levels = np.zeros(50_000, dtype=np.int64)
    levels[RNG.choice(50_000, 2500, replace=False)] = RNG.integers(1, 16, 2500)
    benchmark(lambda: unpack(pack_levels(levels)))


def test_compression_pipeline_packed(benchmark):
    pipe = CompressionPipeline(lower=0.2, upper=2.0, bits=4)
    x = np.maximum(RNG.normal(loc=-1.0, size=(64, 24, 24)), 0).astype(np.float32)
    benchmark(lambda: pipe.decompress(pipe.compress_packed(x)))


def test_compression_pipeline(benchmark):
    pipe = CompressionPipeline(lower=0.2, upper=2.0, bits=4)
    x = np.maximum(RNG.normal(loc=-1.0, size=(64, 24, 24)), 0).astype(np.float32)
    benchmark(lambda: pipe.apply(x))


def test_tile_allocation(benchmark):
    rates = RNG.uniform(0.5, 8.0, size=8)
    benchmark(lambda: allocate_tiles(64, rates))


def test_fdsp_tile_forward(benchmark):
    model = vgg_mini(input_size=48, base_width=8).eval()
    stack = model.separable_part()
    x = RNG.normal(size=(1, 3, 48, 48)).astype(np.float32)
    benchmark(lambda: fdsp_forward(stack, x, TileGrid(4, 4)))


# ------------------------------------------------- batched/fused hot path
def test_batched_tile_forward_speedup(benchmark):
    """CI gate (DESIGN.md §5i): the worker's batched+fused grid forward
    must be >= 2x the seed per-tile loop on a 2x2-grid vgg_mini.

    The looped lap is the seed worker hot path (one Tensor graph + one
    GEMM sequence per tile); the batched lap is the shipped one (stack the
    grid, one fused no-grad pass, slice) including the concatenate cost.
    """
    model = vgg_mini(input_size=24, base_width=6).eval()
    stack = model.separable_part()
    fused = try_compile(stack)
    assert fused is not None
    grid = TileGrid(2, 2)
    x = RNG.normal(size=(1, 3, 24, 24)).astype(np.float32)
    tiles = split_array(x, grid)

    def looped():
        with nn.no_grad():
            return [stack(Tensor(t)).data for t in tiles]

    def batched():
        out = fused(np.concatenate(tiles, axis=0))
        return [out[i : i + 1] for i in range(grid.num_tiles)]

    np.testing.assert_array_equal(np.concatenate(batched(), axis=0), np.concatenate(looped(), axis=0))
    t_looped = _timed(looped)
    t_batched = _timed(batched)
    speedup = t_looped / t_batched
    assert speedup >= 2.0, (
        f"batched grid forward only {speedup:.2f}x the per-tile loop "
        f"(looped {t_looped * 1e3:.3f} ms, batched {t_batched * 1e3:.3f} ms)"
    )
    benchmark(batched)


def test_looped_tile_forward_baseline(benchmark):
    """The seed per-tile path, kept as the trend baseline for the gate above."""
    model = vgg_mini(input_size=24, base_width=6).eval()
    stack = model.separable_part()
    tiles = split_array(RNG.normal(size=(1, 3, 24, 24)).astype(np.float32), TileGrid(2, 2))

    def looped():
        with nn.no_grad():
            return [stack(Tensor(t)).data for t in tiles]

    benchmark(looped)


def test_fused_clip_quantize_speedup(benchmark):
    """CI gate: the single-pass clip+quantize must beat the two-stage
    composition at feature-map scale (in-place ops drop ~4 temporaries)."""
    pipe = CompressionPipeline(lower=0.0, upper=6.0, bits=4)
    x = np.maximum(RNG.normal(loc=-1.0, size=(128, 48, 48)), 0).astype(np.float32)

    def unfused():
        return pipe.quantizer.quantize(pipe.clip(x))

    def fused():
        return fused_clip_quantize(
            x, pipe.lower, pipe.upper, pipe.quantizer.step,
            pipe.quantizer.num_levels, pipe.quantizer.level_dtype,
        )

    np.testing.assert_array_equal(fused(), unfused())
    t_unfused = _timed(unfused, repeats=100)
    t_fused = _timed(fused, repeats=100)
    speedup = t_unfused / t_fused
    assert speedup >= 1.2, (
        f"fused clip+quantize only {speedup:.2f}x the composition "
        f"(unfused {t_unfused * 1e6:.0f} us, fused {t_fused * 1e6:.0f} us)"
    )
    benchmark(fused)


# ------------------------------------------ conv / pool kernels, fused tail
def test_conv2d_chunk_gather_speedup(benchmark):
    """CI gate (DESIGN.md §5i): the chunk-gather conv must be >= 1.6x the
    full-im2col reference on a worker's 8-tile block-1 batch of large_q4
    (8x12x56x56 -> 12, 3x3, pad 1), with bitwise-equal output."""
    x = RNG.normal(size=(8, 12, 56, 56)).astype(np.float32)
    x *= x > 0
    w = RNG.normal(size=(12, 12, 3, 3)).astype(np.float32)

    def oracle():
        return conv2d_im2col(x, w, (1, 1), (1, 1))

    def gather():
        return F._conv2d_raw(x, w, (1, 1), (1, 1))

    np.testing.assert_array_equal(gather().view(np.uint32), oracle().view(np.uint32))
    t_oracle = _timed(oracle, repeats=10)
    t_gather = _timed(gather, repeats=10)
    speedup = t_oracle / t_gather
    assert speedup >= 1.6, (
        f"chunk-gather conv only {speedup:.2f}x the im2col reference "
        f"(im2col {t_oracle * 1e3:.2f} ms, gather {t_gather * 1e3:.2f} ms)"
    )
    benchmark(gather)


def test_max_pool2d_strided_speedup(benchmark):
    """CI gate: the strided-maximum pool must be >= 5x the reshape /
    transpose / reduce reference on the same block-1 batch."""
    x = RNG.normal(size=(8, 12, 56, 56)).astype(np.float32)
    x *= x > 0
    stack = nn.Sequential(nn.MaxPool2d(2))
    fused = try_compile(stack)

    def reference():
        return max_pool2d_reshape(x, 2)

    def strided():
        return fused(x)

    np.testing.assert_array_equal(strided(), reference())
    t_reference = _timed(reference, repeats=20)
    t_strided = _timed(strided, repeats=20)
    speedup = t_reference / t_strided
    assert speedup >= 5.0, (
        f"strided max pool only {speedup:.2f}x the reshape reference "
        f"(reshape {t_reference * 1e3:.3f} ms, strided {t_strided * 1e3:.3f} ms)"
    )
    benchmark(strided)


def test_fused_tail_beats_autograd_tail(benchmark):
    """CI gate: on large_q4's merged map (vgg_mini at 224 px, 4 separable
    blocks: a 1x24x112x112 map), the compiled rest layers must be faster
    than the autograd rest layers under no_grad, with equal output.  Laps
    alternate between the two so host noise hits both alike."""
    model = vgg_mini(num_classes=4, input_size=224, base_width=12, separable_prefix=4).eval()
    rest = model.rest_part()
    fused = try_compile(rest)
    assert fused is not None
    fm = RNG.normal(size=(1, 24, 112, 112)).astype(np.float32)
    fm *= fm > 0

    def autograd():
        with nn.no_grad():
            return rest(Tensor(fm)).data

    def compiled():
        return fused(fm)

    np.testing.assert_array_equal(compiled().view(np.uint32), autograd().view(np.uint32))
    laps: dict[str, list[float]] = {"autograd": [], "compiled": []}
    for _ in range(5):
        for name, fn in (("autograd", autograd), ("compiled", compiled)):
            t0 = time.perf_counter()
            for _ in range(5):
                fn()
            laps[name].append((time.perf_counter() - t0) / 5)
    t_autograd, t_compiled = min(laps["autograd"]), min(laps["compiled"])
    assert t_compiled < t_autograd, (
        f"fused tail {t_compiled * 1e3:.2f} ms not faster than autograd tail {t_autograd * 1e3:.2f} ms"
    )
    benchmark(compiled)
