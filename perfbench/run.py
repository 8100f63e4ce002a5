"""The serving benchmark: one workload, open-loop load, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload shards_skewed --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics: it replays each module on the
workload's own data, then serves the same rounds as ``--trace 0``, half of
them untraced (timings taken from outside the program) and half traced
(with a ``TelemetryRecorder``), in the order of ``TRACED``, and writes a
Chrome trace under ``perfbench/out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong output, or a
load generator that fell behind, makes the exit code non-zero.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import sys
import time
from pathlib import Path

# Three processes (the driver and two workers) share the host's cores; left
# alone, OpenBLAS starts one thread per core in each.  This has to be set
# before NumPy loads, and forked workers inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

#: Fresh deployments per run (see ``serve.run_pass``), each serving every
#: load phase for ``--seconds / ROUNDS``.  Each deployment settles into its
#: own allocation split (Algorithm 2) and its own worker batch sizes, which
#: move light-load latency and peak memory by 10-30% on a 2-core host.
ROUNDS = 8
#: Set-ups per round of an end-to-end run: the round's own, and the rest in
#: deployments started and stopped without load right after it.
#: ``setup_s`` is the median of all ``ROUNDS * SETUPS_PER_ROUND``.
SETUPS_PER_ROUND = 3
#: Which rounds of a traced run (``--trace 1``) carry a ``TelemetryRecorder``.
#: Traced and untraced rounds alternate in pairs (ABBA), so that drift of
#: the host over the run falls on both sides of ``telemetry.overhead_frac``.
TRACED = (False, True, True, False, False, True, True, False)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = HERE / "out"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def environment(seed: int, transport: str) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": int(BLAS_THREADS),
        "transport": transport,
        "seed": seed,
    }


def reap(timeout: float = 10.0) -> None:
    """Stop every process this run started and wait until each has ended.

    The front-ends join their workers on ``stop()``; any worker still alive
    here (a path out that skipped it) is terminated.  The POSIX shared-memory
    tracker that ``multiprocessing`` spawns on first use is meant to outlive
    its parent: it is stopped by closing its pipe, then waited for.
    """
    import multiprocessing as mp
    from multiprocessing import resource_tracker

    for proc in mp.active_children():
        proc.terminate()
        proc.join(timeout)
        if proc.is_alive():
            proc.kill()
            proc.join()
    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def main(argv: list[str] | None = None) -> int:
    try:
        return run(argv)
    finally:
        reap()


def run(argv: list[str] | None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print("run from the root of a checkout that holds src/repro and BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import serve
    import tracing
    from layers import replay
    from workloads import WORKLOADS, build_grid, build_model, build_pipeline, build_pool, build_references

    from repro.telemetry import TelemetryRecorder

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("--seconds must be positive and --seed not negative", file=sys.stderr)
        return 2
    spec = load_spec()
    w = WORKLOADS[args.workload]
    model, grid, pipeline = build_model(w), build_grid(w), build_pipeline(w)
    pool = build_pool(w, args.seed)
    refs = build_references(w, model, grid, pool)
    detail: dict = {"workload": w.name, "seconds": args.seconds, "trace": args.trace}

    if args.trace == 0:
        result = serve.run_pass(
            w, model, grid, pipeline, pool, refs, args.seed, args.seconds, ROUNDS, SETUPS_PER_ROUND
        )
        wanted = spec["end_to_end"]
        metrics = dict(result.metrics)
        passes = [result]
    else:
        metrics, labels = replay(w, model, grid, pool[0])
        rounds: dict[bool, list[serve.Round]] = {False: [], True: []}
        events: list[dict] = []
        bench_spans: list[dict] = []
        for k, traced_round in enumerate(TRACED):
            telemetry = TelemetryRecorder() if traced_round else None
            spans: list[dict] | None = [] if traced_round else None
            rd = serve.serve_round(
                w, model, grid, pipeline, pool, refs, args.seed * 1000 + k,
                args.seconds / len(TRACED), telemetry=telemetry, bench_spans=spans,
            )
            rounds[traced_round].append(rd)
            if telemetry is not None and spans is not None:
                spans += tracing.request_spans(rd.records)
                # Every deployment numbers its traces from 0.
                tracing.renumber(telemetry.events, spans, offset=k << 32)
                events += telemetry.events
                bench_spans += spans
        untraced = serve.summarise(w, rounds[False], refs)
        traced = serve.summarise(w, rounds[True], refs)
        metrics.update(untraced.metrics)
        metrics.update(tracing.analyse(events, bench_spans, traced.completed))
        metrics["telemetry.overhead_frac"] = (
            traced.metrics["latency_p50_ms"] / untraced.metrics["latency_p50_ms"] - 1.0
        )
        trace_path = OUT / f"{w.name}-seed{args.seed}.trace.json"
        tracing.write_trace(events, bench_spans, trace_path)
        detail["block_labels"] = labels
        detail["chrome_trace"] = str(trace_path.relative_to(ROOT))
        wanted = spec["per_layer"]
        result = untraced
        passes = [untraced, traced]

    env = environment(args.seed, result.transport)
    correct = all(p.correct for p in passes)
    valid = all(p.valid for p in passes)
    attempted = sum(sum(p.counts["sent"].values()) for p in passes)
    failed = sum(p.counts["failures"] for p in passes)
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    detail.update(env=env, counts=[p.counts for p in passes], valid=valid, all_metrics=metrics)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(detail, indent=2))

    print("env " + json.dumps(env))
    for p in passes:
        print("counts " + json.dumps(p.counts))
    if args.trace:
        print("blocks " + json.dumps(detail["block_labels"]))
    if not correct:
        print(json.dumps(out))
        print(f"{w.name}: outputs differ from the single-process reference", file=sys.stderr)
        return 1
    missing = [n for n, m in out["metrics"].items() if not math.isfinite(m["value"])]
    if missing:
        print(f"{w.name}: no samples for {missing}; run longer", file=sys.stderr)
        return 4
    print(json.dumps(out))
    if not valid:
        print(
            f"{w.name}: run invalid, the load generator fell behind by more than "
            f"{serve.LATE_BOUND_MS} ms at p99",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
