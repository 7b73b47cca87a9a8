"""One child process of the benchmark: a set-up measurement or one round.

    python3 bench/worker.py setup
    python3 bench/worker.py round <workload> <seed> <trace 0|1>

Prints one JSON object on its last line of standard output.  Set-up is
timed before anything else is imported, so the interpreter is as fresh as
a user's; that is why this file imports only sys, os and time at the top.
"""

import os
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SETUP_PROBES = 15


def setup() -> dict:
    """Time ``import tamagawa`` plus ``ingest_fixtures`` in this fresh interpreter."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    t0 = time.perf_counter()
    import tamagawa  # noqa: F401
    from tamagawa.verify import ingest_fixtures

    ingest_fixtures(os.path.join(ROOT, "data", "fixtures.json"))
    raw = time.perf_counter() - t0

    import statistics

    from refclock import REFERENCE_PROBE_S, probe_loop

    durations = []
    for _ in range(SETUP_PROBES):
        p0 = time.perf_counter()
        probe_loop()
        durations.append(time.perf_counter() - p0)
    return {"raw_s": raw, "reference_s": raw * REFERENCE_PROBE_S / statistics.median(durations)}


def run_round(workload: str, seed: int, traced: bool) -> dict:
    """Run every operation of one round under the reference clock, then check them."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import resource
    import traceback
    from pathlib import Path

    import tamagawa.cli
    import tamagawa.verify

    import layertrace
    import workloads
    from refclock import ReferenceClock

    ops = workloads.operations(workload, seed, tamagawa)
    tracer = layertrace.Tracer(time.perf_counter) if traced else None
    if tracer:
        tracer.install()
    outputs, stamps, failures = [], [], []
    try:
        with ReferenceClock() as clock:
            for op in ops:
                a = clock.now()
                try:
                    out = tracer.call(0, op.run) if tracer else op.run()
                except Exception:  # one failed operation must not end the round
                    out = None
                    failures.append(f"{op.kind} {op.params}: {traceback.format_exc(limit=3)}")
                b = clock.now()
                outputs.append(out)
                stamps.append((a, b))
    finally:
        if tracer:
            tracer.uninstall()

    curves, errors = [], []
    for op, out in zip(ops, outputs):
        n, errs = workloads.curves_and_errors(workload, op, out) if out is not None else (0, [])
        curves.append(n)
        errors.extend(errs)
    result = {
        "operations": len(ops),
        "failed": len(failures),
        "failures": failures[:5],
        "errors": errors[:20],
        "error_count": len(errors),
        "curves": sum(curves),
        "latency_s": [clock.reference_seconds(a, b) for a, b in stamps],
        "raw_latency_s": [b - a - clock.probe_time(a, b) for a, b in stamps],
        "slowdown": clock.slowdown(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        spans_path = Path(BENCH) / "out" / f"spans-{workload}-seed{seed}.json"
        tracer.write(spans_path, stamps[0][0])
        bits = sorted(tracer.factor_bits)
        result["trace"] = {
            "metrics": tracer.metrics(clock.reference_seconds),
            "calls": tracer.calls(),
            "self_s": tracer.self_times(clock.reference_seconds),
            "traced_s": sum(clock.reference_seconds(a, b) for _, a, b, parent in tracer.spans if parent < 0),
            "spans": len(tracer.spans),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "factor_bits": [bits[int(q * (len(bits) - 1))] for q in (0, 0.1, 0.5, 0.9, 1)] if bits else [],
            "missing": tracer.missing,
        }
    return result


def main(argv: list[str]) -> int:
    import json

    if argv[:1] == ["setup"]:
        result = setup()
    elif argv[:1] == ["round"] and len(argv) == 4:
        result = run_round(argv[1], int(argv[2]), argv[3] == "1")
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
