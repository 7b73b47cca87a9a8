"""Reference-speed benchmark of tamagawa: end-to-end metrics or a per-layer trace.

    python3 bench/run.py --workload check-mixed --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` it measures set-up, then repeats whole
rounds of the workload, each in a fresh interpreter, for about
``--seconds``, and prints every end-to-end metric.  With ``--trace 1`` it
runs one round untraced and one traced, and prints every per-layer metric,
the per-layer table and the tracing overhead.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  The
exit code is 0 only if every check of the program's outputs passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import PER_LAYER_METRICS
from workloads import FIXTURES, ROOT, SRC, WORKLOADS

WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 9
# a percentile is a tail only with this many samples beyond it
TAIL_BEYOND = 10
CHILD_TIMEOUT_S = 150


class ChildError(RuntimeError):
    pass


def child(*args: str) -> dict:
    """Run worker.py with args in a fresh interpreter and read its result."""
    # bytecode caches are written, as an installed package has them, so that
    # set-up time does not depend on the caller's environment
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildError(f"worker {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_index(n: int) -> int:
    """Index in sorted order of the highest percentile with TAIL_BEYOND samples beyond it.

    With too few samples for that, the slowest one.
    """
    return n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1


def round_latencies(latencies: list[float]) -> tuple[float, float]:
    ordered = sorted(latencies)
    return statistics.median(ordered), ordered[tail_index(len(ordered))]


def end_to_end(setups: list[dict], rounds: list[dict], key: str = "latency_s") -> dict:
    """The end-to-end metrics from set-up runs and rounds, on the given clock."""
    busy = sum(sum(r[key]) for r in rounds)
    per_round = [round_latencies(r[key]) for r in rounds]
    setup_key = "reference_s" if key == "latency_s" else "raw_s"
    return {
        "curves_per_s": sum(r["curves"] for r in rounds) / busy,
        "latency_p50_ms": 1e3 * statistics.median(p50 for p50, _ in per_round),
        "latency_tail_ms": 1e3 * statistics.median(tail for _, tail in per_round),
        "setup_s": statistics.median(s[setup_key] for s in setups),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in rounds),
    }


UNITS = {
    "curves_per_s": "curves/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def report_checks(rounds: list[dict]) -> bool:
    correct = True
    for i, r in enumerate(rounds):
        for failure in r["failures"]:
            print(f"round {i}: failed operation: {failure}")
        if r["error_count"]:
            correct = False
            print(f"round {i}: {r['error_count']} check(s) failed, first ones:")
            for e in r["errors"]:
                print(f"  {e}")
    return correct


def measure(workload: str, seed: int, seconds: float) -> tuple[list[dict], list[dict]]:
    """Set-up runs, then whole rounds until the next one would pass the deadline."""
    child("setup")  # writes the bytecode caches; not counted
    setups = [child("setup") for _ in range(SETUP_RUNS)]
    rounds: list[dict] = []
    start = time.monotonic()
    last = 0.0
    while not rounds or time.monotonic() - start + last <= seconds:
        t0 = time.monotonic()
        rounds.append(child("round", workload, str(seed), "0"))
        last = time.monotonic() - t0
    return setups, rounds


def print_end_to_end(workload: str, metrics: dict, raw: dict, rounds: list[dict]) -> None:
    n = rounds[0]["operations"]
    k = tail_index(n)
    level = 100.0 * (k + 1) / n
    print(f"workload {workload}: {len(rounds)} round(s) of {n} operations, {rounds[0]['curves']} curves each")
    print(f"  tail = sorted latency #{k + 1} of {n} in each round (p{level:.1f}, {n - 1 - k} beyond), median over rounds")
    slowdowns = ", ".join(f"{r['slowdown']:.3f}" for r in rounds)
    print(f"  machine slowdown against the probe, per round: {slowdowns}")
    print(f"  {'metric':18s} {'reference':>12s} {'raw wall':>12s} unit")
    for name, value in metrics.items():
        print(f"  {name:18s} {value:12.4f} {raw[name]:12.4f} {UNITS[name]}")


def print_trace(workload: str, plain: dict, traced: dict) -> None:
    t = traced["trace"]
    base = sum(plain["latency_s"])
    print(f"workload {workload}: traced round of {traced['operations']} operations, {t['spans']} spans")
    print(f"  spans file: {t['spans_file']}")
    print(
        f"  tracing overhead: traced {t['traced_s']:.3f} s, untraced {base:.3f} s, "
        f"difference {t['traced_s'] - base:+.3f} s ({100 * (t['traced_s'] / base - 1):+.1f}%) at reference speed; "
        f"raw wall {sum(traced['raw_latency_s']):.3f} s against {sum(plain['raw_latency_s']):.3f} s"
    )
    print(f"  self times sum to {sum(t['self_s'].values()):.6f} s of {t['traced_s']:.6f} s traced")
    if t["factor_bits"]:
        print(f"  factor argument bits min/p10/p50/p90/max: {'/'.join(map(str, t['factor_bits']))}")
    if t["missing"]:
        print(f"  layer functions not found: {', '.join(t['missing'])}")
    print(f"  {'layer':26s} {'calls':>9s} {'self_s':>10s} {'share':>7s}")
    for layer, self_s in sorted(t["self_s"].items(), key=lambda kv: -kv[1]):
        share = 100 * self_s / t["traced_s"]
        print(f"  {layer:26s} {t['calls'][layer]:9d} {self_s:10.4f} {share:6.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "tamagawa" / "__init__.py", FIXTURES) if not p.exists()]
    if missing:
        print(f"cannot benchmark: missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            plain = child("round", args.workload, str(args.seed), "0")
            traced = child("round", args.workload, str(args.seed), "1")
            rounds = [plain, traced]
            print_trace(args.workload, plain, traced)
            values = traced["trace"]["metrics"]
            metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER_METRICS}
        else:
            setups, rounds = measure(args.workload, args.seed, args.seconds)
            values = end_to_end(setups, rounds)
            print_end_to_end(args.workload, values, end_to_end(setups, rounds, key="raw_latency_s"), rounds)
            metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    except (ChildError, subprocess.TimeoutExpired) as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 3
    correct = report_checks(rounds)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["operations"] for r in rounds),
                "failed": sum(r["failed"] for r in rounds),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
