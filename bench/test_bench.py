"""Tests of the benchmark's own code: checks, reference clock, tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import statistics
import sys

import pytest

import checks
import refclock
import run
from layertrace import PER_LAYER_METRICS, Tracer
from workloads import FIXTURES, SRC, database

sys.path.insert(0, str(SRC))

import tamagawa.cli  # noqa: E402
import tamagawa.verify  # noqa: E402
from tamagawa.families import four_torsion_curve  # noqa: E402

FIXTURE_TABLE = tamagawa.verify.ingest_fixtures(FIXTURES)


def four_torsion_report(s, t):
    scan = tamagawa.verify.scan_four_torsion([(s, t)], FIXTURE_TABLE)
    return scan.reports[0].to_json(), scan.summary()["exception_classes"]


def scan_text(name, *extra):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tamagawa.cli.main(["scan", "--preset", name, "--jobs", "1", "--fixtures", str(FIXTURES), *extra])
    return code, out.getvalue()


def with_minimal(line, ai):
    """line with its minimal model replaced by ai, invariants kept consistent."""
    c4, c6, disc = checks.invariants(ai)
    return {**line, "minimal_ai": list(ai), "c4": c4, "c6": c6, "c_inf": 2 if disc > 0 else 1}


# --- four-torsion-wide -------------------------------------------------------

# (s, t) = (1, -1) is 15a8, an exception; 16s + t = 142 = 2 * 71 for (7, 30)
@pytest.mark.parametrize("s, t", [(1, -1), (7, 30), (999983, 1000003 - 2 * 999983)])
def test_four_torsion_checks_pass_on_program_output(s, t):
    line, exceptions = four_torsion_report(s, t)
    assert checks.check_four_torsion(s, t, line) == []
    assert checks.check_four_torsion_exceptions(exceptions) == []


def test_four_torsion_twelfth_power_rejects_another_curve():
    line, _ = four_torsion_report(7, 30)
    bad = with_minimal(line, checks.CREMONA_AI["15a8"])
    assert any("12th power" in e for e in checks.check_four_torsion(7, 30, bad))


def test_four_torsion_rejects_unreduced_model():
    line, _ = four_torsion_report(7, 30)
    a1, a2, a3, a4, a6 = line["minimal_ai"]
    # y -> y + x: the same curve, a1 raised by 2
    bad = with_minimal(line, (a1 + 2, a2 - a1 - 1, a3, a4 - a3, a6))
    assert any("not reduced" in e for e in checks.check_four_torsion(7, 30, bad))


def test_four_torsion_rejects_inconsistent_invariants():
    line, _ = four_torsion_report(7, 30)
    bad = {**line, "c4": line["c4"] + 1}
    assert any("(c4, c6)" in e for e in checks.check_four_torsion(7, 30, bad))


def test_four_torsion_rejects_wrong_c_inf():
    line, _ = four_torsion_report(7, 30)
    bad = {**line, "c_inf": 3 - line["c_inf"]}
    assert any("c_inf" in e for e in checks.check_four_torsion(7, 30, bad))


def test_four_torsion_rejects_missing_multiplicative_factor():
    line, _ = four_torsion_report(7, 30)
    assert line["c"] > 1
    bad = {**line, "c": 1}
    assert any("multiplicative" in e for e in checks.check_four_torsion(7, 30, bad))


def test_four_torsion_rejects_unknown_exception_class():
    _, exceptions = four_torsion_report(1, -1)
    assert exceptions
    bad = exceptions + [{"minimal_ai": list(checks.CREMONA_AI["39a4"])}]
    assert any("Prop. 2.1" in e for e in checks.check_four_torsion_exceptions(bad))


# --- preset-sweep ------------------------------------------------------------


@pytest.fixture(scope="module")
def negative_t():
    return scan_text("prop2.1-negative-t")


def test_preset_checks_pass_on_program_output(negative_t):
    assert checks.check_preset("prop2.1-negative-t", *negative_t) == []


def test_preset_rejects_nonzero_exit(negative_t):
    assert checks.check_preset("prop2.1-negative-t", 1, negative_t[1])


def test_preset_rejects_wrong_exception_set(negative_t):
    lines, summary = checks.parse_scan_output(negative_t[1])
    summary = copy.deepcopy(summary)
    summary["exception_classes"] = summary["exception_classes"][1:]
    text = "\n".join(map(json.dumps, [*lines, summary]))
    assert any("exception classes" in e for e in checks.check_preset("prop2.1-negative-t", 0, text))


def test_preset_rejects_line_count_mismatch(negative_t):
    text = negative_t[1].split("\n", 1)[1]  # drop the first curve line
    assert any("summary counts" in e for e in checks.check_preset("prop2.1-negative-t", 0, text))


def test_preset_rejects_bad_minimal_line(negative_t):
    lines, summary = checks.parse_scan_output(negative_t[1])
    lines[0] = {**lines[0], "c_inf": 3 - lines[0]["c_inf"]}
    text = "\n".join(map(json.dumps, [*lines, summary]))
    assert any("c_inf" in e for e in checks.check_preset("prop2.1-negative-t", 0, text))


@pytest.mark.parametrize("name, modulus", [("prop2.2", 12), ("three-torsion-nonunit-b", 3)])
def test_preset_rejects_c_not_divisible(name, modulus):
    code, text = scan_text(name, "--bound", "3")
    assert checks.check_preset(name, code, text) == []
    lines, summary = checks.parse_scan_output(text)
    lines[0] = {**lines[0], "c": lines[0]["c"] + 1}
    bad = "\n".join(map(json.dumps, [*lines, summary]))
    assert any(f"{modulus} does not divide" in e for e in checks.check_preset(name, 0, bad))


# --- check-mixed -------------------------------------------------------------


def mixed_line(curve):
    return tamagawa.verify.check_divisibility(curve, fixtures=FIXTURE_TABLE).to_json()


@pytest.fixture(scope="module")
def fixture_case():
    record = database()["14a4"]
    return record, mixed_line(tamagawa.verify.WeierstrassCurve(*record["ai"]))


def test_mixed_checks_pass_on_program_output(fixture_case):
    record, line = fixture_case
    assert checks.check_mixed("fixture", line, record) == []
    assert checks.check_mixed("four-torsion", mixed_line(four_torsion_curve(2, 3)), None) == []


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("torsion", "Z/5", "torsion"),
        ("c", 7, "c ="),
        ("c_inf", None, "c_inf"),
    ],
)
def test_mixed_rejects_database_mismatch(fixture_case, field, value, message):
    record, line = fixture_case
    bad = {**line, field: value if value is not None else 3 - line["c_inf"]}
    bad["divides"] = (bad["c_inf"] * bad["c"]) % bad["torsion_order"] == 0
    assert any(message in e for e in checks.check_mixed("fixture", bad, record))


def test_mixed_rejects_family_torsion_missing():
    line = mixed_line(four_torsion_curve(2, 3))
    bad = {**line, "torsion_order": 2, "divides": True}
    assert any("not a multiple of 4" in e for e in checks.check_mixed("four-torsion", bad, None))


def test_mixed_rejects_torsion_not_dividing_point_counts():
    line = mixed_line(four_torsion_curve(2, 3))
    bad = {**line, "torsion_order": 7 * line["torsion_order"]}
    bad["divides"] = (bad["c_inf"] * bad["c"]) % bad["torsion_order"] == 0
    errors = checks.check_mixed("four-torsion", bad, None)
    assert any("#E(F_" in e for e in errors)


def test_mixed_rejects_wrong_verdict_and_incomplete(fixture_case):
    record, line = fixture_case
    assert any("divides" in e for e in checks.check_mixed("fixture", {**line, "divides": not line["divides"]}, record))
    assert checks.check_mixed("fixture", {**line, "incomplete": True}, record) == ["fixture: report is incomplete"]


def test_point_count_matches_known_curve():
    # 11a3, y^2 + y = x^3 - x^2, has 5 points over F_3 and over F_5
    assert checks.count_points((0, -1, 1, 0, 0), 3) == 5
    assert checks.count_points((0, -1, 1, 0, 0), 5) == 5


def test_exact_root():
    assert checks.exact_root(3**12 * 5**24, 12) == 75
    assert checks.exact_root(3**12 + 1, 12) is None
    assert checks.exact_root(1, 12) == 1


# --- reference clock -----------------------------------------------------------


def fake_clock(probes):
    clock = refclock.ReferenceClock()
    clock.probes = probes
    clock._build()
    return clock


def test_reference_seconds_scales_by_probe_and_skips_probe_time():
    ref = refclock.REFERENCE_PROBE_S
    # probes twice as slow as the reference: 1 s of work counts 0.5 s
    probes = [(k * 1.0, k * 1.0 + 2 * ref) for k in range(10)]
    clock = fake_clock(probes)
    assert clock.reference_seconds(2 * ref, 1.0) == pytest.approx(0.5 * (1.0 - 2 * ref))
    # an interval across a probe leaves the probe out
    assert clock.reference_seconds(0.5, 1.5) == pytest.approx(0.5 * (1.0 - 2 * ref))
    assert clock.probe_time(0.5, 1.5) == pytest.approx(2 * ref)


def busy_chunk():
    x = 0
    for i in range(30_000):
        x = (x * 31 + i) % 1_000_003
    return x


def reference_rate(interval):
    stamps = []
    with refclock.ReferenceClock(interval=interval) as clock:
        for _ in range(60):
            a = clock.now()
            busy_chunk()
            stamps.append((a, clock.now()))
    return 1 / statistics.median(clock.reference_seconds(a, b) for a, b in stamps)


def test_busy_loop_rate_does_not_depend_on_probe_interval():
    rates = {interval: [] for interval in (0.02, 0.1)}
    for _ in range(3):  # alternate, so drift in machine speed hits both alike
        for interval in rates:
            rates[interval].append(reference_rate(interval))
    fast, slow = (statistics.median(v) for v in rates.values())
    assert fast == pytest.approx(slow, rel=0.1)


# --- tracer and run ------------------------------------------------------------


def test_tracer_self_times_add_up_and_uninstall_restores():
    original = tamagawa.verify.factor
    tracer = Tracer(refclock.ReferenceClock.now)
    tracer.install()
    try:
        assert tamagawa.verify.factor is not original
        curve = four_torsion_curve(5, -7)
        tracer.call(0, tamagawa.verify.check_divisibility, curve, fixtures=FIXTURE_TABLE)
        tracer.call(0, tamagawa.verify.check_divisibility, curve, fixtures=FIXTURE_TABLE)
    finally:
        tracer.uninstall()
    assert tamagawa.verify.factor is original and tamagawa.curves.factor is tamagawa.arith.factor
    assert tracer.missing == []

    def duration(a, b):
        return b - a

    roots = sum(e - s for layer, s, e, parent in tracer.spans if parent < 0)
    assert sum(tracer.self_times(duration).values()) == pytest.approx(roots, rel=1e-9)
    metrics = tracer.metrics(duration)
    assert set(metrics) == {name for name, _, _ in PER_LAYER_METRICS}
    assert metrics["curves.minimal_model.calls"] == 6  # three per check_divisibility call
    # the second call repeats every argument of the first
    assert metrics["arith.factor.repeat_calls"] >= metrics["arith.factor.calls"] / 2
    assert metrics["torsion.torsion_subgroup.calls"] == 2 and metrics["cli.main.self_s"] == 0


def test_tail_index():
    assert run.tail_index(402) == 391  # ten samples beyond it
    assert run.tail_index(11) == 0
    assert run.tail_index(7) == 6  # too few for a tail: the slowest
