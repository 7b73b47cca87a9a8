"""Figures the README records that no gated run measures.

    python3 bench/reference_figures.py --seed 1

Prints the make-up of each workload's inputs (square-divisor counts of
6^12 * disc_min on check-mixed) and raw wall-clock times of ``--jobs 1``
against ``--jobs 2`` on preset-sweep and four-torsion-wide.  A pool of two
processes on a shared 2-core machine measures the neighbours as much as
the program, so these figures are for reference only.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import io
import math
import statistics
import sys
import time

import workloads
from workloads import FIXTURES, SRC

sys.path.insert(0, str(SRC))

import tamagawa.cli  # noqa: E402
import tamagawa.verify  # noqa: E402
from tamagawa.arith import factor  # noqa: E402


def square_divisor_count(n: int) -> int:
    """Square divisors of 6^12 * n, the candidates the Lutz-Nagell loop tries."""
    return math.prod(e // 2 + 1 for _, e in (factor(6**12) * factor(n)).factors)


def input_makeup(seed: int) -> None:
    pairs = workloads.four_torsion_pairs(seed)
    sizes = sorted(max(abs(s), abs(t)) for s, t in pairs)
    print(f"four-torsion-wide seed {seed}: {len(pairs)} pairs, max(|s|, |t|) p10/p50/p90 = "
          f"{sizes[len(sizes) // 10]}/{sizes[len(sizes) // 2]}/{sizes[9 * len(sizes) // 10]}")
    ops = workloads.operations("check-mixed", seed, tamagawa)
    kinds = collections.Counter(op.kind for op in ops)
    print(f"check-mixed seed {seed}: {len(ops)} curves, {dict(kinds)}")
    counts = collections.defaultdict(list)
    for op in ops:
        report = op.run()
        m = tamagawa.verify.WeierstrassCurve(*report.minimal_ai)
        counts[op.kind].append(square_divisor_count(m.disc))
    for kind, values in counts.items():
        values.sort()
        print(f"  {kind:14s} square divisors of 6^12 disc_min: min {values[0]}, "
              f"median {statistics.median(values)}, max {values[-1]}")


def wall(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def jobs_figures(seed: int) -> None:
    def sweep(jobs: int) -> None:
        for name in workloads.PRESET_ORDER:
            with contextlib.redirect_stdout(io.StringIO()):
                tamagawa.cli.main(["scan", "--preset", name, "--jobs", str(jobs), "--fixtures", str(FIXTURES)])

    pairs = workloads.four_torsion_pairs(seed)
    fixtures = tamagawa.verify.ingest_fixtures(FIXTURES)
    for jobs in (1, 2, 1, 2):
        t_sweep = wall(lambda: sweep(jobs))
        t_pairs = wall(lambda: tamagawa.verify.scan_four_torsion(pairs, fixtures, jobs=jobs))
        print(f"--jobs {jobs}: preset-sweep {t_sweep:.2f} s, four-torsion-wide "
              f"{len(pairs)} pairs {t_pairs:.2f} s ({len(pairs) / t_pairs:.0f} curves/s)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    input_makeup(args.seed)
    jobs_figures(args.seed)


if __name__ == "__main__":
    main()
