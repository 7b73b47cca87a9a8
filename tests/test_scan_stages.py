"""Scans run each check stage by stage over chunks of CHUNK curves.

A chunk boundary never changes a report, a curve whose factoring budget runs
out is the only incomplete one of its chunk and is factored once, no stage
repeats a fact, and the three-torsion table is read without ord_p(0).
"""

import collections
import contextlib
import io
import math
import random
import sys
from pathlib import Path

import pytest

from tamagawa import arith, cli, curves, reduction, verify
from tamagawa.reduction import ADDITIVE, SPLIT
from tamagawa.verify import (
    CHUNK,
    PRESETS,
    ScanReport,
    VerdictReport,
    _cross_check,
    _normalized_three_torsion_range,
    _scan,
    reduction_table_cross_check,
    scan_dual_curves,
    scan_four_torsion,
)

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures.json"

# small coprime (s, t): s = 1, t < 0 gives the exception classes of prop2.1-negative-t
PAIRS = [
    (s, t)
    for s in range(1, 4)
    for t in range(-20, 20)
    if t != 0 and 16 * s + t != 0 and math.gcd(s, t) == 1
]
SIZES = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]


def _concatenated(name: str, scans: list[ScanReport]) -> ScanReport:
    """One report of the scans in order: their reports, mismatches and exception witnesses."""
    reports, exceptions, mismatches = [], {}, []
    for scan in scans:
        reports += scan.reports
        mismatches += scan.mismatches
        for key, cls in scan.exceptions.items():
            if key in exceptions:
                exceptions[key].witnesses.extend(cls.witnesses)
            else:
                exceptions[key] = cls
    return ScanReport(name, reports, exceptions, mismatches)


def _same_as_one_at_a_time(run, items: list) -> None:
    whole = run(items)
    alone = _concatenated(whole.name, [run([item]) for item in items])
    assert [r.to_json() for r in whole.reports] == [r.to_json() for r in alone.reports]
    assert whole.summary() == alone.summary()


@pytest.mark.parametrize("n", SIZES)
def test_chunk_boundaries_never_change_a_report(n, monkeypatch):
    assert len(PAIRS) >= 2 * CHUNK + 1
    _same_as_one_at_a_time(scan_four_torsion, PAIRS[:n])
    if n == 2 * CHUNK + 1:
        assert scan_four_torsion(PAIRS[:n]).exceptions

    # falsified so that every curve has mismatches to concatenate
    monkeypatch.setattr(verify, "quotient_split_prime", lambda pair: None)
    _same_as_one_at_a_time(scan_dual_curves, list(range(-40, 40))[:n])

    real = verify._three_torsion_local

    def falsified(chunk):
        return [(disc, [d._replace(tamagawa=0) for d in data]) for disc, data in real(chunk)]

    monkeypatch.setattr(verify, "_three_torsion_local", falsified)
    params = [{"a": a, "b": b} for a, b in _normalized_three_torsion_range(8)][:n]
    _same_as_one_at_a_time(lambda ps: _scan("reduction-table", _cross_check, ps, 1), params)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_run_out_mid_chunk_is_the_only_incomplete_report(jobs, cap_rho, monkeypatch, tmp_path):
    # 16 * 6260003 + 15 = 10007 * 10009 lies past trial division, and one
    # rho iteration cannot split it; the other pairs never reach rho
    stuck, cofactor = (6260003, 15), 10007 * 10009
    pairs = PAIRS[:CHUNK]
    pairs.insert(CHUNK // 2, stuck)
    cap_rho(1)
    capped = arith._brent_rho
    # a file, so that the workers of a pool add to the same count
    log = tmp_path / "rho"

    def counted(n, left):
        with log.open("a") as out:
            out.write(f"{n}\n")
        return capped(n, left)

    monkeypatch.setattr(arith, "_brent_rho", counted)
    rep = scan_four_torsion(pairs, jobs=jobs)
    assert [r.incomplete for r in rep.reports] == [p == stuck for p in pairs]
    assert rep.reports[CHUNK // 2] == VerdictReport(params={"s": 6260003, "t": 15}, incomplete=True)
    others = [r.to_json() for r in rep.reports[: CHUNK // 2] + rep.reports[CHUNK // 2 + 1 :]]
    assert others == [r.to_json() for r in scan_four_torsion(PAIRS[:CHUNK]).reports]
    assert log.read_text().split().count(str(cofactor)) == 1


def _count_calls(monkeypatch) -> collections.Counter:
    """Count factor, tate and minimal_model calls at every module binding of
    each in the package, the bindings the benchmark's layer tracer wraps."""
    counts = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tamagawa"]
    for fn in (arith.factor, reduction.tate, curves.minimal_model):

        def wrapper(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, wrapper)
    return counts


def _wide_pairs(seed: int) -> list[tuple[int, int]]:
    """The benchmark's 2,000 four-torsion-wide pairs (bench/workloads.py, four_torsion_pairs)."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < 2000:
        s = rng.randint(1, 10**6)
        t = rng.randint(-(10**6), 10**6)
        if t != 0 and 16 * s + t != 0 and math.gcd(s, t) == 1:
            pairs.append((s, t))
    return pairs


def test_no_stage_repeats_a_fact(monkeypatch):
    """The stages make the calls one curve at a time made, and no more: the
    counts the layer tracer read at seed 1 before scans were chunked."""
    fixtures = verify.ingest_fixtures(FIXTURES)
    pairs = _wide_pairs(1)
    counts = _count_calls(monkeypatch)
    scan_four_torsion(pairs, fixtures)
    assert (counts["factor"], counts["tate"], counts["minimal_model"]) == (6000, 15168, 2000)

    counts.clear()
    for name in PRESETS:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["scan", "--preset", name, "--jobs", "1", "--fixtures", str(FIXTURES)])
        assert code == cli.EXIT_OK, name
    assert (counts["factor"], counts["tate"], counts["minimal_model"]) == (26642, 34196, 2312)


def _table_row(a: int, b: int, p: int):
    """The table's row at p read off the valuations themselves, ord_p(0) infinite."""

    def ord_(n: int, q: int):
        if n == 0:
            return math.inf
        v = 0
        while n % q == 0:
            n //= q
            v += 1
        return v

    va, vb, vD = ord_(a, p), ord_(b, p), ord_(a**3 - 27 * b, p)
    if 3 * va < vb:
        return ("split-I3vb", f"I{3 * vb}", 3 * vb, SPLIT)
    if 3 * va == vb:
        return ("I-vD", f"I{vD}", None, None)
    if vb == 0:
        rows = {3: ("three-ambiguous", ("II", "III")), 4: ("three-II", "II"), 5: ("three-IV", "IV")}
        kind, symbol = rows.get(vD, ("three-Istar", f"I{vD - 6}*"))
        return (kind, symbol, None, ADDITIVE)
    if vb == 1:
        return ("IV", "IV", 3, ADDITIVE)
    return ("IVstar", "IV*", 3, ADDITIVE)


def test_the_table_rows_take_no_valuation_of_zero(monkeypatch):
    rows = []
    real_row = verify._expected_row

    def recorded(a, b, p, e):
        rows.append(((a, b, p), real_row(a, b, p, e)))
        return rows[-1][1]

    valuation = arith._int_valuation

    def refuse_zero(n, p):
        if n == 0:
            raise AssertionError(f"ord_{p}(0) was taken")
        return valuation(n, p)

    monkeypatch.setattr(verify, "_expected_row", recorded)
    for module in (arith, curves, reduction, verify):
        monkeypatch.setattr(module, "_int_valuation", refuse_zero)
    rep = reduction_table_cross_check(40)
    assert rep.mismatches == [] and not rep.incomplete
    assert len(rep.reports) == len(list(_normalized_three_torsion_range(40)))
    assert any(a == 0 for (a, _, _), _ in rows)
    assert all(row == _table_row(a, b, p) for (a, b, p), row in rows)
