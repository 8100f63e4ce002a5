"""Steadiness tool: repeat the benchmark and judge its spread and shifts.

Run a workload N times, each with another seed and for ``BENCHMARK.json``'s
``run_seconds``, and print every metric's median, quartiles and spread
(inter-quartile distance over the median)::

    python3 perfbench/steady.py run --workload shards_skewed --runs 10 --out a.json

Judge a set against the benchmark's own bounds (each end-to-end metric's
spread must stay within its bound)::

    python3 perfbench/steady.py check a.json

Compare two sets, e.g. a parent commit and a change, metric by metric: a
median worse than the first set's by more than the bound fails.  Both sets
must be of the same workload, length and trace mode::

    python3 perfbench/steady.py compare parent.json change.json

``run`` also takes ``--trace 1`` for the per-layer metrics (reported, never
judged: they have no bound).  Run it from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from stats import quartiles, spread

RUN = Path(__file__).resolve().parent / "run.py"


def load_spec() -> dict:
    return json.loads(Path("BENCHMARK.json").read_text())


def run_set(workload: str, runs: int, seed0: int, seconds: float, trace: int) -> dict:
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for k in range(runs):
        seed = seed0 + k
        cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-4000:])
            raise SystemExit(f"run with seed {seed} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"run with seed {seed} reported wrong outputs")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4g}" for n, v in values.items()), flush=True)
    return {"workload": workload, "seconds": seconds, "trace": trace, "values": values, "units": units}


def summary(data: dict) -> None:
    print(f"{data['workload']} ({len(next(iter(data['values'].values())))} runs, {data['seconds']} s, trace {data['trace']})")
    print(f"{'metric':40s} {'q1':>12s} {'median':>12s} {'q3':>12s} {'spread':>8s}  unit")
    for name, xs in data["values"].items():
        q1, med, q3 = quartiles(xs)
        print(f"{name:40s} {q1:12.5g} {med:12.5g} {q3:12.5g} {spread(xs):8.3f}  {data['units'][name]}")


def check(data: dict, spec: dict) -> bool:
    ok = True
    for m in spec["end_to_end"]:
        xs = data["values"].get(m["name"])
        if xs is None:
            continue
        s = spread(xs)
        verdict = "ok" if s <= m["bound"] else "TOO WIDE"
        if s > m["bound"] / 3 and s <= m["bound"]:
            verdict = "ok (over a third of the bound)"
        ok &= s <= m["bound"]
        print(f"{data['workload']:14s} {m['name']:24s} spread {s:6.3f} bound {m['bound']:.3f}  {verdict}")
    return ok


def compare(base: dict, new: dict, spec: dict) -> bool:
    for key in ("workload", "seconds", "trace"):
        if base[key] != new[key]:
            raise SystemExit(f"the sets differ in {key}: {base[key]!r} and {new[key]!r}")
    ok = True
    for m in spec["end_to_end"]:
        if m["name"] not in base["values"] or m["name"] not in new["values"]:
            continue
        b = quartiles(base["values"][m["name"]])[1]
        n = quartiles(new["values"][m["name"]])[1]
        change = (n - b) / abs(b) if b else float("inf")
        worse = change if m["better"] == "lower" else -change
        verdict = "ok" if worse <= m["bound"] else "WORSE"
        ok &= worse <= m["bound"]
        print(f"{base['workload']:14s} {m['name']:24s} {b:12.5g} -> {n:12.5g} ({change:+.3f}, bound {m['bound']:.3f})  {verdict}")
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Repeat the benchmark and judge its spread.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--seed", type=int, default=1, help="first seed; run k uses seed + k")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    c = sub.add_parser("check")
    c.add_argument("sets", nargs="+")
    p = sub.add_parser("compare")
    p.add_argument("base")
    p.add_argument("new")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.cmd == "run":
        data = run_set(args.workload, args.runs, args.seed, spec["run_seconds"], args.trace)
        Path(args.out).write_text(json.dumps(data, indent=2))
        summary(data)
        return 0 if args.trace or check(data, spec) else 1
    if args.cmd == "check":
        ok = True
        for path in args.sets:
            data = json.loads(Path(path).read_text())
            summary(data)
            ok &= check(data, spec)
        return 0 if ok else 1
    base = json.loads(Path(args.base).read_text())
    new = json.loads(Path(args.new).read_text())
    return 0 if compare(base, new, spec) else 1


if __name__ == "__main__":
    raise SystemExit(main())
