"""Wire messages between the Central node and Conv nodes (Figure 8).

Every tile carries an ``(image_id, tile_id)`` pair so the Central node can
route results to the right image slot regardless of arrival order, and
results echo the pair back plus the worker that produced them.

Fault tolerance adds a drain/re-queue protocol on top: when the Central
node detects a dead Conv node it *drains* the undelivered :class:`TileTask`
messages still sitting in that node's task queue (so a restarted process
never replays stale work) and re-queues every tile the node owned but never
answered onto surviving nodes, reconstructed from the Central node's own
assignment map.  ``probe`` tiles are ordinary tasks flagged so a recovered
node can be given one unit of work to re-earn scheduling share.

These are the *transport* messages (what crosses an mp queue).  The
*decision* protocol — which batches to send, when the deadline fires, what
gets re-dispatched — is the event/command vocabulary of
:mod:`repro.runtime.controller`; drivers translate controller commands into
these wire messages.
"""

from __future__ import annotations

import queue as queue_mod
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from multiprocessing.queues import Queue

import numpy as np

from repro.telemetry.trace import TraceContext

__all__ = ["TileTask", "TileResult", "Shutdown", "LOCAL_WORKER", "drain_queue"]

#: Sentinel worker id for tiles the Central node computed itself (graceful
#: degradation when no Conv node can accept work).
LOCAL_WORKER = -1


@dataclass(frozen=True, slots=True)
class TileTask:
    """An input tile dispatched to a Conv node.

    ``tile`` is the input ndarray itself, pickled inline with the message.

    ``probe`` marks a recovery-probe tile: a single tile handed to a node
    whose ``s_k`` statistic has decayed to zero so it can demonstrate it is
    healthy again.  Workers treat probes exactly like normal tasks.

    ``trace`` is the request's frozen :class:`TraceContext` (DESIGN.md
    §5h): minted once at admission, carried across the IPC boundary here,
    and echoed back verbatim on the :class:`TileResult` so every worker
    span joins the request's span tree.  ``None`` when tracing is off —
    the field costs nothing on the NullRecorder path.
    """

    image_id: int
    tile_id: int
    tile: np.ndarray
    probe: bool = False
    trace: TraceContext | None = None

    def __post_init__(self) -> None:
        if self.image_id < 0 or self.tile_id < 0:
            raise ValueError("ids must be non-negative")


def drain_queue(q: Queue[Any], retries: int = 2, retry_delay: float = 0.01) -> list[TileTask]:
    """Drain undelivered messages from a dead worker's task queue.

    Returns the :class:`TileTask` messages recovered (other message types
    are discarded).  A couple of short retries absorb the multiprocessing
    feeder-thread race where a just-put item is not yet readable.  The
    authoritative re-dispatch set is the Central node's assignment map —
    draining exists so a *restarted* worker on the same queue never sees
    stale tasks.
    """
    drained: list[TileTask] = []
    misses = 0
    while misses <= retries:
        try:
            msg = q.get_nowait()
        except queue_mod.Empty:
            misses += 1
            if misses <= retries:
                time.sleep(retry_delay)
            continue
        misses = 0
        if isinstance(msg, TileTask):
            drained.append(msg)
    return drained


@dataclass(frozen=True, slots=True)
class TileResult:
    """A Conv node's intermediate result for one tile.

    ``payload`` is a ``PackedTensor | ndarray``: the packed §4 wire bytes
    (:class:`repro.compression.PackedTensor`) when the pipeline is enabled,
    otherwise the raw ndarray.

    Timing fields are measured worker-side and survive into the run result
    (``InferenceOutcome``) and telemetry spans instead of being dropped:
    ``compute_seconds`` covers dequeue → result built (delay + forward +
    compress, the quantity Algorithm 2's rate credits use),
    ``compress_seconds`` isolates the §4 pipeline, and
    ``t_start``/``t_end`` are ``time.perf_counter()`` stamps
    (CLOCK_MONOTONIC — comparable across forked processes on Linux, so the
    Central node can place worker spans on a shared timeline).  All default
    to 0 for results synthesized centrally (zero-fill / local fallback).
    """

    image_id: int
    tile_id: int
    payload: Any
    worker: int
    compute_seconds: float = 0.0
    compress_seconds: float = 0.0
    t_start: float = 0.0
    t_end: float = 0.0
    #: Echo of the dispatching task's trace context (``None`` for results
    #: synthesized centrally or when tracing is off).
    trace: TraceContext | None = None


@dataclass(frozen=True, slots=True)
class Shutdown:
    """Sentinel telling a Conv-node worker to exit."""
