"""The three workloads: seeded inputs, the operations of one round, their checks.

A round is a fixed list of operations made from the seed alone.  Every
round of a run repeats the same list, in a fresh interpreter, so a run of
any length attempts whole rounds and the per-round counts repeat exactly.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "data" / "fixtures.json"

WORKLOADS = ("four-torsion-wide", "preset-sweep", "check-mixed")

FOUR_TORSION_PAIRS = 2000
# pairs per scan_four_torsion call: one curve's time is as heavy-tailed as
# its cofactors, so a tail over single curves would change with the seed
FOUR_TORSION_BLOCK = 10
FOUR_TORSION_LIMIT = 10**6
PRESET_ORDER = (
    "prop2.1-negative-t",
    "prop2.1-random",
    "prop2.2",
    "prop2.4",
    "three-torsion-nonunit-b",
    "kozuma-table",
    "dual-ledger",
)
# check-mixed: each seed draws half of each family's grid of small parameters;
# drawing without replacement keeps the round's cost from swinging with the seed
MIXED_BOUND = {"three-torsion": 12, "two-torsion": 10, "four-torsion": 10}
# every t = a/b with |a|, b <= this bound; the heavy tail, the same on every seed
TWO_SIX_BOUND = 5


@dataclass
class Operation:
    """One user-facing call, timed on its own, with what its checks need."""

    kind: str
    params: object
    run: Callable[[], object]


def four_torsion_pairs(seed: int) -> list[tuple[int, int]]:
    """Coprime (s, t), 0 < s <= 10^6, |t| <= 10^6, off the singular lines."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < FOUR_TORSION_PAIRS:
        s = rng.randint(1, FOUR_TORSION_LIMIT)
        t = rng.randint(-FOUR_TORSION_LIMIT, FOUR_TORSION_LIMIT)
        if t != 0 and 16 * s + t != 0 and math.gcd(s, t) == 1:
            pairs.append((s, t))
    return pairs


def family_grid(family: str, bound: int) -> list[tuple[int, int]]:
    """Every valid parameter pair of a family with entries bounded by bound."""
    if family == "three-torsion":
        # normalized: b > 0, nonsingular, no prime q with q | a and q^3 | b
        return [
            (a, b)
            for a in range(-bound, bound + 1)
            for b in range(1, bound + 1)
            if a**3 != 27 * b and all(b % q**3 for q in checks.trial_primes(math.gcd(a, b)))
        ]
    if family == "two-torsion":
        return [
            (a, b)
            for a in range(-bound, bound + 1)
            for b in range(-bound, bound + 1)
            if b != 0 and math.gcd(a, b) == 1 and a * a != 4 * b
        ]
    return [
        (s, t)
        for s in range(1, bound + 1)
        for t in range(-bound, bound + 1)
        if t != 0 and 16 * s + t != 0 and math.gcd(s, t) == 1
    ]


def mixed_parameters(seed: int) -> list[tuple[str, tuple[int, int]]]:
    """(family, parameters) of the check-mixed curves other than the fixtures."""
    rng = random.Random(seed)
    out = []
    for family, bound in MIXED_BOUND.items():
        grid = family_grid(family, bound)
        out.extend((family, p) for p in rng.sample(grid, len(grid) // 2))
    for b in range(1, TWO_SIX_BOUND + 1):
        for a in range(-TWO_SIX_BOUND, TWO_SIX_BOUND + 1):
            if math.gcd(a, b) == 1 and a not in (0, b, -b) and 3 * a not in (b, -b):
                out.append(("two-six", (a, b)))
    rng.shuffle(out)
    return out


def operations(workload: str, seed: int, tamagawa) -> list[Operation]:
    """The operations of one round; curves for check-mixed are built here, untimed."""
    verify, cli, families = tamagawa.verify, tamagawa.cli, tamagawa.families
    fixtures = verify.ingest_fixtures(FIXTURES)
    if workload == "four-torsion-wide":
        pairs = four_torsion_pairs(seed)
        blocks = [pairs[i : i + FOUR_TORSION_BLOCK] for i in range(0, len(pairs), FOUR_TORSION_BLOCK)]
        return [
            Operation("four-torsion", block, lambda b=block: verify.scan_four_torsion(b, fixtures))
            for block in blocks
        ]
    if workload == "preset-sweep":

        def scan(name):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["scan", "--preset", name, "--jobs", "1", "--fixtures", str(FIXTURES)])
            return code, out.getvalue()

        return [Operation("preset", name, lambda n=name: scan(n)) for name in PRESET_ORDER]
    if workload == "check-mixed":
        build = {
            "three-torsion": lambda a, b: families.ThreeTorsionNormalForm(a, b).curve,
            "two-torsion": families.two_torsion_curve,
            "four-torsion": families.four_torsion_curve,
            "two-six": lambda a, b: families.two_six_curve(Fraction(a, b)),
        }
        items = [("fixture", rec.label, rec.curve) for rec in fixtures.records]
        items += [(fam, p, build[fam](*p)) for fam, p in mixed_parameters(seed)]
        return [
            Operation(kind, params, lambda c=curve: verify.check_divisibility(c, fixtures=fixtures))
            for kind, params, curve in items
        ]
    raise ValueError(f"unknown workload {workload!r}")


def curves_and_errors(workload: str, op: Operation, output) -> tuple[int, list[str]]:
    """Curves fully checked by one operation, and what the benchmark's checks found."""
    if workload == "four-torsion-wide":
        if len(output.reports) != len(op.params):
            return 0, [f"{len(output.reports)} reports for {len(op.params)} pairs"]
        errors = checks.check_four_torsion_exceptions(output.summary()["exception_classes"])
        for (s, t), report in zip(op.params, output.reports):
            errors.extend(checks.check_four_torsion(s, t, report.to_json()))
        return len(op.params), errors
    if workload == "preset-sweep":
        code, text = output
        errors = checks.check_preset(op.params, code, text)
        if errors:
            return 0, errors
        return checks.parse_scan_output(text)[1]["curves"], []
    fixture = database()[op.params] if op.kind == "fixture" else None
    return 1, checks.check_mixed(op.kind, output.to_json(), fixture)


@functools.cache
def database() -> dict[str, dict]:
    """The exported database records of data/fixtures.json, by label."""
    return {rec["label"]: rec for rec in json.loads(FIXTURES.read_text())}
