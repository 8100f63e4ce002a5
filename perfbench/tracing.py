"""Traced-pass analysis: stage means, critical paths and per-boundary self time.

Program spans come from the ``TelemetryRecorder`` passed through the public
``telemetry=`` argument and keep the stage names the program gives them.
Benchmark spans (``bench.*``) are recorded in memory by the generator and the
handle proxies around ``submit``, ``dispatch``, ``pump`` and the request's
future, and carry the image's trace id as ``bench_trace_id``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from pathlib import Path
from typing import Any

from repro.telemetry import (
    STAGE_CENTRAL,
    STAGE_COMPRESS,
    STAGE_CONV_COMPUTE,
    STAGE_MERGE,
    STAGE_PARTITION,
    STAGE_QUEUE_WAIT,
    STAGE_REQUEST,
    STAGE_RESULT_TRANSFER,
    STAGE_TRANSFER,
    assemble_traces,
    critical_path,
    write_chrome_trace,
)
from repro.telemetry.trace import WAIT_BUCKET

#: Program stages reported as ``trace.<stage>_ms``.
TRACE_STAGES = (
    STAGE_REQUEST,
    STAGE_QUEUE_WAIT,
    STAGE_PARTITION,
    STAGE_COMPRESS,
    STAGE_TRANSFER,
    STAGE_CONV_COMPUTE,
    STAGE_RESULT_TRANSFER,
    STAGE_MERGE,
    STAGE_CENTRAL,
)
#: Buckets a request's ``critical_path()`` can be dominated by.
CRITICAL_STAGES = TRACE_STAGES[1:] + (WAIT_BUCKET,)
#: Benchmark boundaries reported as ``trace.self_<boundary>_us``.
BOUNDARIES = ("request", "submit", "dispatch", "pump")


def request_spans(records) -> list[dict[str, Any]]:
    """One ``bench.request`` span per served image: submit to future done."""
    return [
        {
            "time": r.submit_t0,
            "kind": "bench.request",
            "duration": r.done - r.submit_t0,
            "node": "bench:client",
            "bench_trace_id": r.trace_id,
        }
        for r in records
        if r.trace_id is not None and not math.isnan(r.done) and r.future.exception(timeout=0) is None
    ]


def renumber(events: list[dict[str, Any]], bench: list[dict[str, Any]], offset: int) -> None:
    """Shift one deployment's trace ids by ``offset``, in place, so that the
    traces of several deployments can be analysed together."""
    for ev in events:
        if "trace_id" in ev:
            ev["trace_id"] += offset
    for ev in bench:
        if ev["bench_trace_id"] is not None:
            ev["bench_trace_id"] += offset


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, end = 0.0, lo
    for a, b in clipped:
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(program: list[dict[str, Any]], bench: list[dict[str, Any]]) -> dict[str, float]:
    """Mean self time per benchmark boundary, in microseconds.

    A boundary's children are the other spans of the same image that lie
    wholly inside it: benchmark spans, and program spans other than the
    program's own ``request`` root.  For ``dispatch`` and ``pump`` only the
    program's driver-side (``central``) spans count, because worker spans
    inside a blocking ``pump`` run concurrently in another process.
    Self time is the span minus the part its children cover.
    """
    spans: dict[int, list[tuple[float, float, bool, int]]] = defaultdict(list)
    for ev in program:
        if "duration" in ev and "trace_id" in ev and ev["kind"] != STAGE_REQUEST:
            central = str(ev.get("node", "")).endswith("central")
            spans[ev["trace_id"]].append((ev["time"], ev["time"] + ev["duration"], central, -1))
    for i, ev in enumerate(bench):
        if ev["bench_trace_id"] is not None:
            spans[ev["bench_trace_id"]].append((ev["time"], ev["time"] + ev["duration"], True, i))
    samples: dict[str, list[float]] = defaultdict(list)
    for i, ev in enumerate(bench):
        tid = ev["bench_trace_id"]
        if tid is None:
            continue
        boundary = ev["kind"].removeprefix("bench.")
        lo, hi = ev["time"], ev["time"] + ev["duration"]
        children = [
            (a, b)
            for a, b, central, j in spans[tid]
            if j != i and lo <= a and b <= hi and (central or boundary == "request")
        ]
        samples[boundary].append(ev["duration"] - _covered(lo, hi, children))
    return {b: 1e6 * sum(samples[b]) / len(samples[b]) if samples[b] else 0.0 for b in BOUNDARIES}


def analyse(events: list[dict[str, Any]], bench: list[dict[str, Any]], completed: int) -> dict[str, float]:
    metrics: dict[str, float] = {}
    durations: dict[str, list[float]] = defaultdict(list)
    for ev in events:
        if "duration" in ev:
            durations[ev["kind"]].append(ev["duration"])
    for stage in TRACE_STAGES:
        xs = durations[stage]
        metrics[f"trace.{stage}_ms"] = 1e3 * sum(xs) / len(xs) if xs else 0.0

    dominant: dict[str, int] = defaultdict(int)
    trees = [t for t in assemble_traces(events).values() if t.complete]
    for tree in trees:
        dominant[critical_path(tree).dominant] += 1
    for stage in CRITICAL_STAGES:
        metrics[f"trace.critical_{stage}_frac"] = dominant[stage] / len(trees) if trees else 0.0

    for boundary, value in self_times(events, bench).items():
        metrics[f"trace.self_{boundary}_us"] = value
    metrics["telemetry.events_per_image"] = len(events) / max(completed, 1)
    return metrics


def write_trace(events: list[dict[str, Any]], bench: list[dict[str, Any]], path: Path) -> None:
    """Program and benchmark spans on one timeline (Chrome trace-event JSON)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    write_chrome_trace(events + bench, path)
