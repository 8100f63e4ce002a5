"""Wire codec benchmarks: packed byte-level codec vs the tuple codec.

Both comparisons are asserted (so CI's perf-smoke job fails on regression)
and also timed with pytest-benchmark for trend tracking:

- **encode speed**: packed byte-level encode (``pack_levels``) vs the
  tuple-based ``rle_encode`` on the same quantized activations — the
  packed codec must not be slower;
- **message size**: a tile result carrying packed bytes inline, pickled
  as it rides the worker's result queue, must be >= 5x smaller than one
  carrying the pickled :class:`RLEStream`.

End-to-end latency is gated by the ``perfbench`` workloads, not here.
"""

import pickle
import time

import numpy as np

from repro.compression import CompressionPipeline, pack_levels, rle_encode, unpack
from repro.runtime import TileResult

RNG = np.random.default_rng(7)


def activations():
    """A realistic separable-stack output: post-ReLU, ~70% sparse."""
    return np.maximum(RNG.normal(loc=-1.0, size=(64, 24, 24)), 0).astype(np.float32)


def quantized_levels():
    pipe = CompressionPipeline(bits=4)
    return pipe.quantizer.quantize(pipe.clip(activations()))


# ------------------------------------------------------------------- codec
def test_packed_encode_not_slower_than_tuple(benchmark):
    """CI gate: the packed codec must beat (or match) the tuple codec."""
    levels = quantized_levels()

    def timed(fn, repeats=20):
        fn()
        t0 = time.perf_counter()
        for _ in range(repeats):
            fn()
        return (time.perf_counter() - t0) / repeats

    t_tuple = timed(lambda: rle_encode(levels))
    t_packed = timed(lambda: pack_levels(levels))
    assert t_packed <= t_tuple * 1.10, (
        f"packed encode ({t_packed * 1e3:.3f} ms) slower than "
        f"tuple encode ({t_tuple * 1e3:.3f} ms)"
    )
    benchmark(lambda: pack_levels(levels))


def test_tuple_encode_baseline(benchmark):
    levels = quantized_levels()
    benchmark(lambda: rle_encode(levels))


def test_packed_decode(benchmark):
    packed = pack_levels(quantized_levels())
    benchmark(lambda: unpack(packed))


def test_result_ipc_bytes_reduction():
    """Acceptance: >= 5x fewer per-tile-result IPC bytes than the pickled
    RLEStream payload — for the packed buffer alone AND for the whole
    inline result message that actually rides the queue."""
    pipe = CompressionPipeline(bits=4)
    x = activations()
    pickled_tuple = len(pickle.dumps(TileResult(0, 0, pipe.compress(x), 0)))
    pt = pipe.compress_packed(x)
    assert pickled_tuple >= 5 * pt.packed.nbytes, (
        f"packed buffer {pt.packed.nbytes} B vs pickled stream {pickled_tuple} B"
    )
    pickled_packed = len(pickle.dumps(TileResult(0, 0, pt, 0)))
    assert pickled_tuple >= 5 * pickled_packed, (
        f"inline packed message {pickled_packed} B vs pickled stream {pickled_tuple} B"
    )
