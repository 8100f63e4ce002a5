"""One serving pass: build the deployment, set it up, drive open-loop load.

The public serving path is used as a client would use it: a
``ServingFrontEnd`` over a ``ClusterHandle`` from ``make_cluster_handle``
(one cluster) or a ``ClusterRouter`` over such handles (sharded).  The only
additions are the benchmark's timing proxies around each handle.
"""

from __future__ import annotations

import math
import resource
import time
from dataclasses import dataclass
from typing import Any

import numpy as np
from proxy import TimedHandle
from stats import beyond, percentile
from workloads import CAMERAS, Workload

from repro.runtime import ProcessClusterConfig
from repro.serving import ClusterFailed, Overloaded, ServingConfig, ServingFrontEnd
from repro.sharding import ClusterRouter, ShardedDeploymentSpec, ShardSpec, make_cluster_handle

#: Generous ``T_L`` so that only a real fault, never load, zero-fills a tile.
T_LIMIT = 30.0
#: Share of each phase, in order, of the measured seconds.
PHASE_SHARES = (("light", 0.45), ("heavy", 0.40), ("overload", 0.15))
#: Warm-up length as a share of the measured seconds (not measured).
WARMUP_SHARE = 0.10
#: Leading share of the overload phase left out of ``capacity_hz`` while
#: the admission queue fills.
OVERLOAD_SETTLE = 0.2
#: A pass is invalid when the generator's p99 lateness over the light and
#: heavy phases exceeds this: it then did not keep its schedule.  Shorter
#: lateness is the generator waiting for the GIL behind the front-end's
#: driver thread (a switch interval is 5 ms, longer while the host takes
#: the CPU away); that wait is the program's and is inside every latency,
#: which runs from the due time.
LATE_BOUND_MS = 100.0
RESULT_TIMEOUT_S = 120.0
#: Admission-queue capacity (the front-end's default is 8).  At the heavy
#: rate of ``shards_skewed``, 8 requests arrive in 80 ms, and a shared host
#: can stall the driver that long; the queue absorbs such a stall instead of
#: shedding.  In the overload phase it stays non-empty, which is all
#: ``capacity_hz`` needs; on ``shards_skewed`` it also fills and sheds.
QUEUE_CAPACITY = 32


@dataclass
class Deployment:
    frontend: ServingFrontEnd
    #: The proxy handed to the front-end (the router's, when sharded).
    outer: TimedHandle
    #: One proxy per cluster (the same object as ``outer`` when unsharded).
    clusters: list[TimedHandle]


def _cluster_config(shard) -> ProcessClusterConfig:
    delays = (shard.delay_per_tile,) * shard.workers if shard.delay_per_tile else ()
    return ProcessClusterConfig(num_workers=shard.workers, t_limit=T_LIMIT, delay_per_tile=delays)


def deploy(w: Workload, model, grid, pipeline, telemetry=None, spans=None) -> Deployment:
    """Build (but do not start) the front-end over the workload's topology."""
    if not w.sharded:
        handle = make_cluster_handle(
            model, grid, pipeline=pipeline, config=_cluster_config(w.shards[0]),
            telemetry=telemetry, window=w.window,
        )
        outer = TimedHandle(handle, trace_spans=spans)
        clusters = [outer]
    else:
        # The body of ``build_router``, with a proxy around each shard's
        # handle so cluster-level dispatch and pump are timed too.
        spec = ShardedDeploymentSpec(
            shards=tuple(
                ShardSpec(f"shard{i}", num_workers=s.workers, window=w.window, config=_cluster_config(s))
                for i, s in enumerate(w.shards)
            ),
            t_limit=T_LIMIT,
        )
        clusters = [
            TimedHandle(
                make_cluster_handle(
                    model, grid, pipeline=pipeline, config=shard.cluster_config(spec.t_limit),
                    telemetry=telemetry, name=shard.name, window=shard.window,
                ),
                trace_spans=spans,
            )
            for shard in spec.shards
        ]
        router = ClusterRouter(clusters, spec.router_config(), telemetry, weights=spec.weights)
        outer = TimedHandle(router, trace_spans=spans)
    return Deployment(ServingFrontEnd(outer, ServingConfig(window=w.window, queue_capacity=QUEUE_CAPACITY)), outer, clusters)


def check_output(w: Workload, output: np.ndarray, reference: np.ndarray) -> bool:
    return output.shape == reference.shape and bool(
        np.allclose(output, reference, rtol=1e-7, atol=w.atol)
    )


def start_and_warm(dep: Deployment, w: Workload, pool: np.ndarray, refs: list[np.ndarray]) -> float:
    """Start the front-end; seconds until the first correct result."""
    t0 = time.perf_counter()
    dep.frontend.start()
    served = dep.frontend.submit(pool[0], client="setup").result(timeout=RESULT_TIMEOUT_S)
    t1 = time.perf_counter()
    if not check_output(w, served.outcome.output, refs[0]):
        raise SystemExit(f"{w.name}: first warm-up result differs from the reference")
    return t1 - t0


# --------------------------------------------------------------- load


@dataclass(slots=True)
class Request:
    due: float
    phase: str
    pool_index: int
    submit_t0: float = math.nan
    submit_t1: float = math.nan
    done: float = math.nan
    trace_id: int | None = None
    future: Any = None
    shed_at_submit: bool = False

    def on_done(self, _future) -> None:
        self.done = time.perf_counter()


def schedule(w: Workload, seed: int, seconds: float) -> tuple[list[tuple[float, str, int, int]], dict[str, tuple[float, float]]]:
    """Due offsets for every camera frame, merged in time order.

    Returns ``[(offset_s, phase, camera, pool_index)]`` and each phase's
    ``(start, end)`` offsets.
    """
    rng = np.random.default_rng(seed)
    rates = {"warmup": w.light_hz, "light": w.light_hz, "heavy": w.heavy_hz, "overload": w.overload_hz}
    phases = [("warmup", WARMUP_SHARE * seconds)] + [(p, s * seconds) for p, s in PHASE_SHARES]
    out: list[tuple[float, str, int]] = []
    bounds: dict[str, tuple[float, float]] = {}
    t = 0.0
    for phase, length in phases:
        interval = CAMERAS / rates[phase]
        # Camera c's offset is drawn within its own slot of the interval:
        # the pattern repeats every interval, so unstratified offsets would
        # give each seed its own amount of bunching for the whole phase.
        slots = rng.permutation(CAMERAS)
        offsets = (slots + rng.uniform(0.0, 1.0, size=CAMERAS)) * (interval / CAMERAS)
        for cam in range(CAMERAS):
            k = 0
            while (due := t + offsets[cam] + k * interval) < t + length:
                out.append((due, phase, cam))
                k += 1
        bounds[phase] = (t, t + length)
        t += length
    out.sort()
    picks = rng.integers(0, w.pool_size, size=len(out))
    return [(d, p, c, int(i)) for (d, p, c), i in zip(out, picks)], bounds


def generate(dep: Deployment, pool: np.ndarray, plan, bench_spans: list | None) -> tuple[list[Request], float]:
    """Open-loop generator on the calling thread; returns records and t=0."""
    fe = dep.frontend
    clients = [f"cam{c}" for c in range(CAMERAS)]
    base = time.perf_counter() + 0.02
    records: list[Request] = []
    for offset, phase, cam, idx in plan:
        due = base + offset
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        rec = Request(due, phase, idx)
        rec.submit_t0 = time.perf_counter()
        try:
            rec.future = fe.submit(pool[idx], client=clients[cam])
        except Overloaded:
            rec.shed_at_submit = True
        rec.submit_t1 = time.perf_counter()
        if rec.future is not None:
            rec.future.add_done_callback(rec.on_done)
        if bench_spans is not None:
            rec.trace_id = dep.outer.last_trace_id
            bench_spans.append({
                "time": rec.submit_t0, "kind": "bench.submit",
                "duration": rec.submit_t1 - rec.submit_t0, "node": "bench:generator",
                "bench_trace_id": rec.trace_id,
            })
        records.append(rec)
    return records, base


# ------------------------------------------------------------ pass


@dataclass
class PassResult:
    metrics: dict[str, float]
    counts: dict[str, Any]
    correct: bool
    valid: bool
    completed: int = 0
    transport: str = ""


@dataclass
class Round:
    """One measured deployment: its requests and what was read from it."""

    records: list[Request]
    base: float
    bounds: dict[str, tuple[float, float]]
    dep: Deployment
    health: Any
    status: Any
    setup_s: float
    #: Benchmark-process CPU seconds while the load ran.
    driver_cpu_s: float
    #: CPU seconds of this deployment's workers (``RUSAGE_CHILDREN`` delta).
    worker_cpu_s: float


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def serve_round(
    w: Workload, model, grid, pipeline, pool: np.ndarray, refs: list[np.ndarray],
    seed: int, seconds: float, telemetry=None, bench_spans=None,
) -> Round:
    """One fresh deployment: set it up, then run every load phase over
    ``seconds``."""
    plan, bounds = schedule(w, seed, seconds)
    children0 = _children_cpu()
    dep = deploy(w, model, grid, pipeline, telemetry=telemetry, spans=bench_spans)
    try:
        setup_s = start_and_warm(dep, w, pool, refs)
        cpu0 = time.process_time()
        records, base = generate(dep, pool, plan, bench_spans)
        health = dep.frontend.health()
        cpu = time.process_time() - cpu0
    finally:
        dep.frontend.stop()
    return Round(
        records, base, bounds, dep, health, dep.frontend.status(), setup_s, cpu,
        _children_cpu() - children0,
    )


def measure_setup(w: Workload, model, grid, pipeline, pool: np.ndarray, refs: list[np.ndarray]) -> float:
    """Set up one more deployment, without load, and stop it."""
    dep = deploy(w, model, grid, pipeline)
    try:
        return start_and_warm(dep, w, pool, refs)
    finally:
        dep.frontend.stop()


def run_pass(
    w: Workload, model, grid, pipeline, pool: np.ndarray, refs: list[np.ndarray],
    seed: int, seconds: float, rounds: int, setups_per_round: int,
) -> PassResult:
    """``rounds`` fresh deployments that each run the load phases for
    ``seconds / rounds``.  Each is followed by set-up-only deployments, up
    to ``setups_per_round`` set-ups per round: spread over the whole run,
    the set-ups average over the host's slow and fast moments."""
    done: list[Round] = []
    extra: list[float] = []
    for k in range(rounds):
        done.append(serve_round(w, model, grid, pipeline, pool, refs, seed * 1000 + k, seconds / rounds))
        extra += [measure_setup(w, model, grid, pipeline, pool, refs) for _ in range(setups_per_round - 1)]
    return summarise(w, done, refs, extra)


def summarise(w: Workload, done_rounds: list[Round], refs: list[np.ndarray], extra_setups=()) -> PassResult:
    """Every metric of a pass, pooled over its rounds."""
    setup_s = [rd.setup_s for rd in done_rounds] + list(extra_setups)
    cpu = sum(rd.driver_cpu_s for rd in done_rounds)
    worker_cpu = sum(rd.worker_cpu_s for rd in done_rounds)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    own = resource.getrusage(resource.RUSAGE_SELF)
    rounds = len(done_rounds)

    records = [r for rd in done_rounds for r in rd.records]

    # ---- outcomes and correctness
    results: dict[int, Any] = {}
    failed_typed = shed_late = wrong = degraded = 0
    for i, rec in enumerate(records):
        if rec.future is None:
            continue
        try:
            served = rec.future.result(timeout=0)
        except ClusterFailed:
            failed_typed += 1
            rec.done = math.nan
            continue
        except Overloaded:
            shed_late += 1
            rec.done = math.nan
            continue
        results[i] = served
        outcome = served.outcome
        if outcome.zero_filled_tiles or outcome.locally_computed_tiles:
            degraded += 1
        elif not check_output(w, outcome.output, refs[rec.pool_index]):
            wrong += 1
            results[i] = None
    completed = [i for i, r in results.items() if r is not None]

    def phase_of(name: str) -> list[int]:
        return [i for i, rec in enumerate(records) if rec.phase == name]

    def latencies(idx: list[int]) -> list[float]:
        return [records[i].done - records[i].due for i in idx if results.get(i) is not None]

    light, heavy, overload = phase_of("light"), phase_of("heavy"), phase_of("overload")
    lat_light, lat_heavy = latencies(light), latencies(heavy)

    # Per round: the overload completions once the admission queue is
    # full, and (recorded, not reported) the light and heavy sample counts
    # and medians.  Every reported figure pools the rounds.
    per_round: list[dict[str, float]] = []
    window_done: list[int] = []
    window_s = cap_n = cap_t = 0.0
    start = 0
    for rd in done_rounds:
        idx = range(start, start + len(rd.records))
        start += len(rd.records)
        ov0, ov1 = rd.bounds["overload"]
        win0 = rd.base + ov0 + OVERLOAD_SETTLE * (ov1 - ov0)
        win1 = rd.base + ov1
        in_window = [i for i in idx if results.get(i) is not None and win0 <= records[i].done <= win1]
        done_t = sorted(records[i].done for i in in_window)
        window_done += in_window
        window_s += win1 - win0
        if len(done_t) > 1:
            cap_n += len(done_t) - 1
            cap_t += done_t[-1] - done_t[0]
        lat_l = latencies([i for i in idx if records[i].phase == "light"])
        lat_h = latencies([i for i in idx if records[i].phase == "heavy"])
        per_round.append({
            "light_samples": len(lat_l),
            "heavy_samples": len(lat_h),
            "latency_p50_ms": 1e3 * percentile(lat_l, 50),
            "loaded_latency_p50_ms": 1e3 * percentile(lat_h, 50),
        })
    capacity = cap_n / cap_t if cap_t > 0 else 0.0

    sent_lh = len(light) + len(heavy)
    errors_lh = sum(
        1 for i in light + heavy if records[i].shed_at_submit or results.get(i) is None
    )
    outcomes = [results[i].outcome for i in completed]
    late_ms = [1e3 * (records[i].submit_t0 - records[i].due) for i in light + heavy]
    late_p99 = percentile(late_ms, 99)

    # ---- external per-layer numbers
    received: dict[int, np.ndarray] = {}
    for o in outcomes:
        n = len(o.received_per_worker)
        received[n] = received.get(n, np.zeros(n)) + o.received_per_worker
    alloc_share = max(float(r.max() / r.sum()) for r in received.values() if r.sum())
    busy = [float(np.sum(o.compute_seconds_per_worker)) for o in outcomes]
    window_busy = sum(float(np.sum(results[i].outcome.compute_seconds_per_worker)) for i in window_done)
    clusters = [c for rd in done_rounds for c in rd.dep.clusters]
    cluster_dispatch = [s for c in clusters for s in c.dispatch_s]
    outer_dispatch = [s for rd in done_rounds for s in rd.dep.outer.dispatch_s]
    pump_calls = sum(c.pump_calls for c in clusters)
    pumped = sum(c.pumped for c in clusters)

    transports: set[str] = set()
    if w.sharded:
        dispatched = np.zeros(len(w.shards))
        rerouted = 0
        for rd in done_rounds:
            for i, s in enumerate(rd.health.shards):
                if s.cluster is not None:
                    dispatched[i] += s.cluster.images_dispatched
                    transports.add(s.cluster.transport)
            rerouted += rd.health.rerouted
        slow = [i for i, s in enumerate(w.shards) if s.delay_per_tile > 0]
        slow_share = float(dispatched[slow].sum() / max(dispatched.sum(), 1))
    else:
        slow_share, rerouted = 0.0, 0
        transports.update(rd.health.transport for rd in done_rounds)

    heavy_done = [i for i in heavy if results.get(i) is not None]
    lh_done = [i for i in light + heavy if results.get(i) is not None]
    n_done = len(completed)
    metrics = {
        "setup_s": float(np.median(setup_s)),
        "latency_p50_ms": 1e3 * percentile(lat_light, 50),
        "loaded_latency_p50_ms": 1e3 * percentile(lat_heavy, 50),
        "capacity_hz": capacity,
        "served_frac": 1.0 - errors_lh / max(sent_lh, 1),
        "intact_frac": 1.0 - degraded / max(n_done, 1),
        "peak_rss_mb": (own.ru_maxrss + children.ru_maxrss) / 1024.0,
        "loadgen.late_p99_ms": late_p99,
        "loadgen.sent": float(len(light) + len(heavy) + len(overload)),
        "serving.latency_p95_ms": 1e3 * percentile(lat_light, 95),
        "serving.loaded_latency_p95_ms": 1e3 * percentile(lat_heavy, 95),
        "serving.submit_us": 1e6 * percentile(
            [records[i].submit_t1 - records[i].submit_t0 for i in light + heavy], 50
        ),
        "serving.handoff_ms": 1e3 * percentile(
            [results[i].latency_s - results[i].queue_wait_s - results[i].outcome.wall_seconds for i in lh_done], 50
        ),
        "serving.queue_wait_p50_ms": 1e3 * percentile([results[i].queue_wait_s for i in heavy_done], 50),
        "serving.queue_wait_p95_ms": 1e3 * percentile([results[i].queue_wait_s for i in heavy_done], 95),
        "serving.shed": float(sum(rd.status.shed for rd in done_rounds)),
        "serving.failed": float(sum(rd.status.failed for rd in done_rounds)),
        "serving.error_frac": errors_lh / max(sent_lh, 1),
        "runtime.dispatch_us": 1e6 * percentile(cluster_dispatch, 50),
        "runtime.pump_calls_per_image": pump_calls / max(pumped, 1),
        "runtime.driver_cpu_ms_per_image": 1e3 * cpu / max(n_done, 1),
        "runtime.service_p50_ms": 1e3 * percentile(
            [results[i].outcome.wall_seconds for i in light if results.get(i) is not None], 50
        ),
        "runtime.worker_busy_ms_per_image": 1e3 * float(np.mean(busy)) if busy else 0.0,
        "runtime.worker_cpu_ms_per_image": 1e3 * worker_cpu / max(n_done, 1),
        "runtime.worker_util": window_busy / (window_s * w.num_workers),
        "runtime.alloc_share_max": alloc_share,
        "runtime.zero_filled_tiles": float(sum(len(o.zero_filled_tiles) for o in outcomes)),
        "runtime.local_tiles": float(sum(len(o.locally_computed_tiles) for o in outcomes)),
        "runtime.degraded_frac": degraded / max(n_done, 1),
        "sharding.dispatch_us": 1e6 * percentile(outer_dispatch, 50),
        "sharding.slow_share": slow_share,
        "sharding.rerouted": float(rerouted),
    }
    counts = {
        "rounds": rounds,
        "per_round": per_round,
        "sent": {p: len(phase_of(p)) for p in ("warmup", "light", "heavy", "overload")},
        "latency_samples": {"light": len(lat_light), "heavy": len(lat_heavy)},
        "beyond_p95": {
            "light": beyond(lat_light, percentile(lat_light, 95)),
            "heavy": beyond(lat_heavy, percentile(lat_heavy, 95)),
        },
        "overload_completions": len(window_done),
        "shed_at_submit": sum(1 for r in records if r.shed_at_submit),
        "shed_at_shutdown": shed_late,
        "failed": failed_typed,
        "wrong": wrong,
        "degraded": degraded,
        #: Light/heavy requests shed, failed or wrong, plus any other
        #: typed failure or wrong output (overload sheds are not failures).
        "failures": errors_lh + sum(
            1 for i, r in enumerate(records)
            if r.phase not in ("light", "heavy") and r.future is not None and results.get(i) is None
            and not isinstance(r.future.exception(timeout=0), Overloaded)
        ),
        "setup_s": setup_s,
        "peak_rss_mb": {"driver": own.ru_maxrss / 1024.0, "largest_worker": children.ru_maxrss / 1024.0},
        "service_p50_ms_per_cluster": {
            name: 1e3 * percentile([s for c in clusters if c.name == name for s in c.service_s], 50)
            for name in dict.fromkeys(c.name for c in clusters)
        },
    }
    return PassResult(
        metrics=metrics,
        counts=counts,
        correct=wrong == 0,
        valid=late_p99 <= LATE_BOUND_MS,
        completed=n_done,
        transport=",".join(sorted(transports)),
    )
