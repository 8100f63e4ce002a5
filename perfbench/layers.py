"""Per-module replays on the workload's own image and feature map.

Each public function the serving path calls per image is timed on its own,
outside any cluster, with the median of repeated calls: ``split_array`` and
``reassemble_array`` (``partition``), each layer block and the two model
parts (``nn``), and the §4 wire pipeline (``compression``).  The raw
workloads do not compress on the wire; there the pipeline is replayed with
the same settings as ``large_q4`` to show what it would cost.
"""

from __future__ import annotations

import time
from collections.abc import Callable

import numpy as np
from workloads import BITS, CLIP, Workload

import repro.nn as nn
from repro.compression import CompressionPipeline
from repro.partition import reassemble_array, split_array

#: Each replay is repeated until it has run this long and this often.
MIN_SECONDS = 0.15
MIN_REPEATS = 5
MAX_REPEATS = 5000


def median_seconds(fn: Callable[[], object]) -> float:
    times: list[float] = []
    spent = 0.0
    while len(times) < MAX_REPEATS and (len(times) < MIN_REPEATS or spent < MIN_SECONDS):
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        times.append(dt)
        spent += dt
    return float(np.median(times))


def replay(w: Workload, model, grid, image: np.ndarray) -> tuple[dict[str, float], dict[str, str]]:
    """Returns ``(metrics, block_labels)``; labels say prefix or tail."""
    image = image[None] if image.ndim == 3 else image
    pipeline = CompressionPipeline(*CLIP, bits=BITS)
    metrics: dict[str, float] = {}
    labels: dict[str, str] = {}

    tiles = split_array(image, grid)
    metrics["partition.split_us"] = 1e6 * median_seconds(lambda: split_array(image, grid))
    stacked = np.concatenate(tiles, axis=0)

    prefix = nn.try_compile(model.separable_part())
    if prefix is None:
        raise SystemExit(f"{w.name}: the separable prefix does not compile")
    metrics["nn.prefix_ms"] = 1e3 * median_seconds(lambda: prefix(stacked))
    out = prefix(stacked)
    out_tiles = [out[i : i + 1] for i in range(len(tiles))]

    packed = [pipeline.compress_packed(t) for t in out_tiles]
    metrics["compression.compress_ms"] = 1e3 * median_seconds(
        lambda: [pipeline.compress_packed(t) for t in out_tiles]
    )
    metrics["compression.decompress_ms"] = 1e3 * median_seconds(
        lambda: [pipeline.decompress(p) for p in packed]
    )
    wire_bits = sum(p.wire_bits for p in packed)
    metrics["compression.wire_ratio"] = wire_bits / sum(p.raw_bits for p in packed)
    metrics["compression.wire_kb_per_image"] = wire_bits / 8 / 1024

    # The Central node merges what it received: dequantized levels on the
    # compressed path, raw floats otherwise.
    merged_tiles = [pipeline.decompress(p) for p in packed] if w.compressed else out_tiles
    metrics["partition.reassemble_us"] = 1e6 * median_seconds(
        lambda: reassemble_array(merged_tiles, grid)
    )
    feature_map = reassemble_array(merged_tiles, grid)
    rest = model.rest_part()
    with nn.no_grad():
        metrics["nn.tail_ms"] = 1e3 * median_seconds(lambda: rest(nn.Tensor(feature_map)))

        # Block by block, each where the deployment runs it: fused on the
        # stacked tiles for the prefix, autograd modules under no_grad on
        # the merged map for the tail.
        x = stacked
        for i, block in enumerate(model.blocks):
            name = f"nn.block{i}_ms"
            if i < model.separable_prefix:
                fused = nn.try_compile(block)
                arg = x
                metrics[name] = 1e3 * median_seconds(lambda f=fused, a=arg: f(a))
                x = fused(x)
                labels[name] = "prefix"
                if i == model.separable_prefix - 1:
                    x = feature_map
            else:
                arg = nn.Tensor(x)
                metrics[name] = 1e3 * median_seconds(lambda b=block, a=arg: b(a))
                x = block(arg).data
                labels[name] = "tail"
        head_in = nn.Tensor(x)
        metrics["nn.head_ms"] = 1e3 * median_seconds(lambda: model.head(head_in))
    labels["nn.head_ms"] = "tail"
    return metrics, labels
