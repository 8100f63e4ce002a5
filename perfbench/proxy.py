"""A timing proxy of the ``ClusterHandle`` protocol.

The front-end (or the router) drives the proxy exactly as it would drive the
wrapped handle; the proxy only times ``dispatch`` and ``pump`` and, in a
traced pass, keeps one benchmark-side span per call in memory.  Nothing
inside the program is instrumented.
"""

from __future__ import annotations

import time
from typing import Any

from repro.sharding import ClusterHandle


class TimedHandle:
    """Delegates every ``ClusterHandle`` member to ``inner``; times two of them."""

    def __init__(self, inner: ClusterHandle, *, trace_spans: list[dict[str, Any]] | None = None) -> None:
        self._inner = inner
        self.name = inner.name
        self._spans = trace_spans
        #: Seconds spent in each ``dispatch`` call.
        self.dispatch_s: list[float] = []
        #: Number of ``pump`` calls and of images they returned.
        self.pump_calls = 0
        self.pumped = 0
        #: ``wall_seconds`` of every outcome this handle returned.
        self.service_s: list[float] = []
        #: Trace id of the latest ``mint_trace`` (the front-end mints inside
        #: ``submit``, on the generator thread).
        self.last_trace_id: int | None = None
        self._trace_of: dict[int, int] = {}

    def __getattr__(self, name: str) -> Any:
        # Everything not timed here: lifecycle, properties, health, and the
        # router's extras (``result_readers``, ``restart``, ``terminal``).
        return getattr(self._inner, name)

    def mint_trace(self, start: float):
        ctx = self._inner.mint_trace(start)
        self.last_trace_id = ctx.trace_id
        return ctx

    def dispatch(self, image, trace=None) -> int:
        t0 = time.perf_counter()
        image_id = self._inner.dispatch(image, trace=trace)
        t1 = time.perf_counter()
        self.dispatch_s.append(t1 - t0)
        if self._spans is not None and trace is not None:
            self._trace_of[image_id] = trace.trace_id
            self._spans.append(_span("bench.dispatch", t0, t1, trace.trace_id, self.name))
        return image_id

    def pump(self, block: bool = True):
        t0 = time.perf_counter()
        done = self._inner.pump(block)
        t1 = time.perf_counter()
        self.pump_calls += 1
        self.pumped += len(done)
        for image_id, outcome in done:
            wall = getattr(outcome, "wall_seconds", None)
            if wall is not None:
                self.service_s.append(wall)
            if self._spans is not None:
                trace_id = self._trace_of.pop(image_id, None)
                if trace_id is not None:
                    self._spans.append(_span("bench.pump", t0, t1, trace_id, self.name))
        return done


def _span(kind: str, t0: float, t1: float, trace_id: int, node: str) -> dict[str, Any]:
    return {
        "time": t0,
        "kind": kind,
        "duration": t1 - t0,
        "node": f"bench:{node}",
        "bench_trace_id": trace_id,
    }
