"""The benchmark's workloads: model, grid, wire path, topology and load.

Rates are absolute and fixed here (and quoted in each workload's ``why`` in
``BENCHMARK.json``); they are never re-derived from a run.  Each was set
from the overload-phase ``capacity_hz`` measured on a 2-core host, taking
the low end of its run-to-run range: light is about 25% of it, heavy about
60%, and overload about 2x, so the admission queue stays full for the whole
overload phase.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.nn as nn
from repro.compression import CompressionPipeline
from repro.data import make_classification
from repro.models import vgg_mini
from repro.partition import FDSPModel, TileGrid

#: Independent cameras per workload.  Each sends one frame every
#: ``CAMERAS / rate`` seconds with a seeded phase offset.
CAMERAS = 8


@dataclass(frozen=True)
class Shard:
    """One cluster of the deployment: worker count and emulated slowness."""

    workers: int
    delay_per_tile: float = 0.0


@dataclass(frozen=True)
class Workload:
    name: str
    input_size: int
    base_width: int
    separable_prefix: int
    grid: tuple[int, int]
    compressed: bool
    #: One entry: a single cluster behind ``make_cluster_handle``.  Several:
    #: a ``ClusterRouter`` over one cluster each.
    shards: tuple[Shard, ...]
    window: int
    light_hz: float
    heavy_hz: float
    overload_hz: float
    pool_size: int

    @property
    def sharded(self) -> bool:
        return len(self.shards) > 1

    @property
    def num_workers(self) -> int:
        return sum(s.workers for s in self.shards)

    @property
    def atol(self) -> float:
        """Tolerance the tier-1 tests use for this wire path."""
        return 1e-4 if self.compressed else 1e-5


#: §4 wire pipeline of ``large_q4``: clip [0, 6], 4-bit, packed RLE.
CLIP = (0.0, 6.0)
BITS = 4

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="large_q4",
            input_size=224,
            base_width=12,
            separable_prefix=4,
            grid=(4, 4),
            compressed=True,
            shards=(Shard(workers=2),),
            window=2,
            light_hz=2.75,
            heavy_hz=6.5,
            overload_hz=30.0,
            pool_size=16,
        ),
        Workload(
            name="shards_skewed",
            input_size=24,
            base_width=6,
            separable_prefix=2,
            grid=(2, 2),
            compressed=False,
            # shard1's emulated delay makes its per-image service time
            # about 3x shard0's.
            shards=(Shard(workers=1), Shard(workers=1, delay_per_tile=0.0014)),
            window=2,
            light_hz=45.0,
            heavy_hz=100.0,
            overload_hz=500.0,
            pool_size=32,
        ),
    )
}


def build_model(w: Workload):
    return vgg_mini(
        num_classes=4,
        input_size=w.input_size,
        base_width=w.base_width,
        separable_prefix=w.separable_prefix,
    ).eval()


def build_grid(w: Workload):
    return TileGrid(*w.grid)


def build_pipeline(w: Workload):
    """The program's wire pipeline, or ``None`` for raw float payloads."""
    return CompressionPipeline(*CLIP, bits=BITS) if w.compressed else None


def build_pool(w: Workload, seed: int) -> np.ndarray:
    """Seeded structured images, shape ``(pool_size, 3, H, W)``."""
    return make_classification(
        num_samples=w.pool_size, num_classes=4, image_size=w.input_size, seed=seed
    ).images


def build_references(w: Workload, model, grid, pool: np.ndarray) -> list[np.ndarray]:
    """Single-process FDSP outputs, one per pool image (Figure 7b graph)."""
    if w.compressed:
        reference = FDSPModel(
            model,
            grid,
            clipped_relu=nn.ClippedReLU(*CLIP),
            quantizer=nn.QuantizeSTE(bits=BITS, max_value=CLIP[1] - CLIP[0]),
        )
    else:
        reference = FDSPModel(model, grid)
    reference.eval()
    with nn.no_grad():
        return [reference(nn.Tensor(pool[i : i + 1])).data for i in range(len(pool))]
