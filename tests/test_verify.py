import json
import math
from pathlib import Path

import pytest

from tamagawa.curves import WeierstrassCurve
from tamagawa.verify import (
    EXCEPTION_A,
    EXCEPTION_B,
    DIVISIBLE,
    SHA_IMPLIED,
    KEY_15A8,
    KEY_21A4,
    KEY_24A4,
    NEGATIVE_T_EXPECTED,
    TWO_TORSION_EXCEPTIONS,
    FixtureValidationError,
    PRESETS,
    check_divisibility,
    classify_three_torsion,
    ingest_fixtures,
    reduction_table_cross_check,
    scan_dual_curves,
    scan_four_torsion,
    scan_three_torsion_nonunits,
    scan_two_six,
    scan_two_torsion,
    three_torsion_form_of,
)

FIXTURES = Path(__file__).resolve().parent.parent / "data" / "fixtures.json"


@pytest.fixture(scope="module")
def fixtures():
    return ingest_fixtures(FIXTURES)


def test_ingest_fixtures(fixtures):
    assert len(fixtures) >= 20
    assert "19a1" in fixtures.by_label
    rec = fixtures.by_label["19a1"]
    assert rec.ai == (0, 1, 1, -9, -15)
    assert fixtures.match(WeierstrassCurve(0, 1, 1, -9, -15)).label == "19a1"
    # matching is by minimal invariants, not literal coefficients
    assert fixtures.match(WeierstrassCurve(2, 0, 1, 0, 0)).label == "19a3"


def test_ingest_rejects_bad_torsion(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"label": "x", "ai": [0, 0, 1, 0, 0], "torsion": "Z/11"}]))
    with pytest.raises(FixtureValidationError, match="Z/11"):
        ingest_fixtures(bad)


def test_ingest_rejects_singular(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"label": "x", "ai": [0, 0, 0, 0, 0]}]))
    with pytest.raises(FixtureValidationError, match="singular"):
        ingest_fixtures(bad)


def test_ingest_rejects_noncanonical_kodaira(tmp_path):
    bad = tmp_path / "bad.json"
    local = [{"p": 19, "kodaira": "I01", "cp": 1, "class": "split"}]
    bad.write_text(json.dumps([{"label": "x", "ai": [0, 1, 1, -9, -15], "local": local}]))
    with pytest.raises(FixtureValidationError, match="I01"):
        ingest_fixtures(bad)


def test_ingest_rejects_non_object_record(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1]")
    with pytest.raises(FixtureValidationError, match="record 0 must be a JSON object"):
        ingest_fixtures(bad)


def test_ingest_rejects_non_list_local(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"label": "x", "ai": [0, 1, 1, -9, -15], "local": 5}]))
    with pytest.raises(FixtureValidationError, match="'x': 'local' must be a list"):
        ingest_fixtures(bad)


def test_ingest_rejects_isomorphic_records(tmp_path):
    # 19a1 written twice: as itself and moved by (r, s, t) = (1, 0, 0)
    bad = tmp_path / "bad.json"
    records = [{"label": "x", "ai": [0, 1, 1, -9, -15]}, {"label": "y", "ai": [0, 4, 1, -4, -22]}]
    bad.write_text(json.dumps(records))
    with pytest.raises(FixtureValidationError, match="'y': isomorphic to fixture 'x'"):
        ingest_fixtures(bad)


def test_ingest_rejects_repeated_label(tmp_path):
    bad = tmp_path / "bad.json"
    records = [{"label": "x", "ai": [0, 1, 1, -9, -15]}, {"label": "x", "ai": [1, 0, 1, -19, 26]}]
    bad.write_text(json.dumps(records))
    with pytest.raises(FixtureValidationError, match="'x': label appears twice"):
        ingest_fixtures(bad)


def test_ingest_rejects_boolean_coefficient(tmp_path):
    # JSON true is not an integer, although Python's bool is an int
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"label": "x", "ai": [0, 1, 1, True, -15]}]))
    with pytest.raises(FixtureValidationError, match="'x': 'ai' must be a list of 5 integers"):
        ingest_fixtures(bad)


@pytest.mark.parametrize(
    "field, value, match",
    [
        ("label", None, "'label' must be a non-empty string"),
        ("torsion", [1], "torsion shape"),
        ("local", [{"p": -5, "kodaira": "I1", "cp": 1}], "non-prime p = -5"),
        ("local", [{"p": 19, "kodaira": 5, "cp": 1}], "bad Kodaira symbol 5"),
        ("c_inf", True, "'c_inf' must be 1 or 2"),
        ("w3", True, "'w3' must be"),
        ("optimal", "yes", "'optimal' must be true or false"),
        ("analytic_rank", -7, "'analytic_rank' must be a non-negative integer"),
    ],
)
def test_ingest_rejects_ill_typed_field(tmp_path, field, value, match):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"label": "x", "ai": [0, 1, 1, -9, -15], field: value}]))
    with pytest.raises(FixtureValidationError, match=match):
        ingest_fixtures(bad)


def test_ingest_names_a_fixture_it_cannot_factor(tmp_path, monkeypatch):
    # with a zero rho budget the semiprime cofactor 12437 * 139177 stays unsplit
    from tamagawa import arith, curves

    monkeypatch.setattr(curves, "factor", lambda n, budget: arith.factor(n, budget=0))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"label": "x", "ai": [0, -1, 1, -300, 19]}]))
    with pytest.raises(FixtureValidationError, match="'x': factorization incomplete"):
        ingest_fixtures(bad)


def test_ingest_keeps_one_record_per_label_and_key():
    raw = json.loads(FIXTURES.read_text())
    table = ingest_fixtures(FIXTURES)
    assert len(raw) == len(table) == len(table.by_label) == len(table.by_key)


def test_ingest_empty_file(tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    table = ingest_fixtures(empty)
    assert len(table) == 0
    assert table.match(WeierstrassCurve(0, 1, 1, -9, -15)) is None


def test_check_divisibility_two_six(fixtures):
    from tamagawa.families import two_six_curve

    r = check_divisibility(two_six_curve(2), fixtures=fixtures)
    assert r.divides
    assert r.torsion_order == 12
    assert r.tamagawa % 12 == 0
    assert r.classification == DIVISIBLE


def test_check_divisibility_48a4(fixtures):
    r = check_divisibility(WeierstrassCurve(0, 1, 0, 1, 0), fixtures=fixtures)
    assert r.label == "48a4"
    assert not r.divides
    assert r.c_inf * r.tamagawa == 1
    assert r.manin == 2 and r.optimal is False and r.sha == 1


def test_check_divisibility_27a3(fixtures):
    r = check_divisibility(WeierstrassCurve(0, 0, 1, 0, 0), fixtures=fixtures)
    assert r.label == "27a3"
    assert not r.divides
    assert r.manin == 3


def test_classify_exception_families(fixtures):
    assert check_divisibility(WeierstrassCurve(0, 1, 1, 1, 0), fixtures=fixtures).classification == EXCEPTION_A
    assert check_divisibility(WeierstrassCurve(0, 0, 1, -30, 63), fixtures=fixtures).classification == EXCEPTION_B
    assert check_divisibility(WeierstrassCurve(1, -1, 0, -3, 3), fixtures=fixtures).classification == EXCEPTION_B
    r = classify_three_torsion(WeierstrassCurve(0, 1, 1, -9, -15), fixtures=fixtures)
    assert r.classification == DIVISIBLE
    # two split places away from 3 push the quotient ratio to 2
    from tamagawa.families import ThreeTorsionNormalForm

    r2 = classify_three_torsion(ThreeTorsionNormalForm(-4, 1).curve)
    assert r2.classification == SHA_IMPLIED


def test_check_divisibility_incomplete_budget():
    # disc has a semiprime cofactor (12437 * 139177) that a zero budget cannot split
    E = WeierstrassCurve(0, -1, 1, -300, 19)
    r = check_divisibility(E, budget=0)
    assert r.incomplete and r.divides is None
    r2 = check_divisibility(E)
    assert not r2.incomplete and r2.divides is not None


def test_classify_requires_three_torsion():
    with pytest.raises(ValueError):
        classify_three_torsion(WeierstrassCurve(0, 0, 0, -1, 0))


def test_three_torsion_form_of_roundtrip():
    from fractions import Fraction

    form = three_torsion_form_of(WeierstrassCurve(0, 1, 0, 4, 4), (Fraction(0), Fraction(2)))
    assert (form.a, form.b) == (2, 4)
    with pytest.raises(ValueError):
        # (0, 0) on this curve has order 2
        three_torsion_form_of(WeierstrassCurve(0, 1, 0, -1, 0), (Fraction(0), Fraction(0)))


def test_scan_negative_t(fixtures):
    rep = scan_four_torsion(((1, t) for t in range(-15, 0)), fixtures=fixtures)
    assert set(rep.exceptions) == set(NEGATIVE_T_EXPECTED)
    labels = {cls.label for cls in rep.exceptions.values()}
    assert labels == {"15a8", "21a4", "24a4"}
    new = set(rep.exceptions) - {KEY_15A8}
    assert new == {KEY_21A4, KEY_24A4}
    # without a fixture table the same classes are found but unmatched
    bare = scan_four_torsion(((1, t) for t in range(-15, 0)))
    assert set(bare.exceptions) == set(rep.exceptions)
    assert all(cls.label is None for cls in bare.exceptions.values())


def test_scan_two_torsion(fixtures):
    rep = scan_two_torsion(fixtures=fixtures, random_samples=50)
    assert not rep.mismatches
    assert set(rep.exceptions) == set(TWO_TORSION_EXCEPTIONS)
    assert {cls.label for cls in rep.exceptions.values()} == {"15a8", "39a4", "55a4"}
    assert len(rep.reports) == 23  # the enumerated region


def test_scan_two_six_small():
    rep = scan_two_six(6)
    assert not rep.exceptions
    assert all(r.divides for r in rep.reports)


def test_scan_three_torsion_nonunits_small():
    rep = scan_three_torsion_nonunits(12, 12)
    assert not rep.mismatches


def test_reduction_table_cross_check_small():
    rep = reduction_table_cross_check(12, 12)
    assert rep.mismatches == []


def test_scan_dual_small():
    rep = scan_dual_curves(range(-20, 21))
    assert rep.mismatches == []


def test_fixture_divisibility_table(fixtures):
    # which named curves fail |torsion| dividing c_inf * c(E): some entries
    # fail only the stronger statement without c_inf (15a3, 17a2, 20a2, 32a2)
    expected_divides = {
        "11a3": False, "14a4": False, "14a6": False, "15a3": True,
        "15a7": False, "15a8": False, "17a2": True, "17a4": False,
        "19a1": True, "19a3": False, "20a2": True, "21a4": False,
        "24a4": False, "27a3": False, "27a4": False, "30a2": True,
        "32a2": True, "37b1": True, "37b3": False, "39a4": False,
        "48a4": False, "54a3": False, "55a4": False, "90c6": True,
    }
    for label, want in expected_divides.items():
        rec = fixtures.by_label[label]
        r = check_divisibility(rec.curve, fixtures=fixtures)
        assert r.divides is want, (label, r.divides)
        assert r.label == label


def test_rank_zero_semistable_split_parity(fixtures):
    # rank-zero semi-stable curves have global root number +1, which with
    # w_inf = -1 forces an odd number of split multiplicative places
    from tamagawa.reduction import ADDITIVE, SPLIT, global_root_number_semistable, local_data

    checked = 0
    for rec in fixtures.records:
        if rec.analytic_rank != 0:
            continue
        data = local_data(rec.curve)
        if any(d.reduction_class == ADDITIVE for d in data):
            continue
        splits = sum(1 for d in data if d.reduction_class == SPLIT)
        assert splits % 2 == 1, rec.label
        assert global_root_number_semistable(rec.curve) == 1, rec.label
        checked += 1
    assert checked >= 10


def test_two_six_singular_parameters_match_fixtures(fixtures):
    # the nonsingular members among t = +-3, +-5/3 are the two fixture classes
    # with Tamagawa number divisible by 12
    from fractions import Fraction

    from tamagawa.families import two_six_curve

    labels = set()
    for t in (3, -3, Fraction(5, 3), Fraction(-5, 3)):
        rec = fixtures.match(two_six_curve(t))
        assert rec is not None
        labels.add(rec.label)
        c = math.prod(item["cp"] for item in rec.local)
        assert c % 12 == 0
    assert labels == {"30a2", "90c6"}
    for t in (Fraction(1, 3), Fraction(-1, 3)):
        with pytest.raises(Exception):
            two_six_curve(t)


def test_presets_registry():
    for name in ("prop2.1-negative-t", "prop2.1-random", "prop2.2", "prop2.4",
                 "three-torsion-nonunit-b", "kozuma-table", "dual-ledger"):
        assert name in PRESETS
    rep = PRESETS["prop2.2"].run(None, 2_000_000, 1, 4)
    assert PRESETS["prop2.2"].validate(rep)


def test_scan_marks_budget_exhausted_curve_incomplete():
    # 16 * 6260003 + 15 = 10007 * 10009 lies past trial division, and one
    # rho iteration cannot split it
    rep = scan_four_torsion([(1, -3), (6260003, 15)], budget=1)
    assert len(rep.reports) == 2
    done, stuck = rep.reports
    assert not done.incomplete and done.divides is True
    assert stuck.incomplete and stuck.params == {"s": 6260003, "t": 15}
    assert stuck.divides is None and stuck.minimal_ai is None
    assert rep.incomplete and not rep.exceptions
    assert set(rep.summary()) == {"scan", "curves", "exception_classes", "mismatches"}
    # an incomplete scan never validates, even where its exceptions are allowed
    assert PRESETS["prop2.1-random"].expected(rep)
    assert not PRESETS["prop2.1-random"].validate(rep)


def test_incomplete_curve_survives_the_process_pool():
    pairs = [(1, -3), (6260003, 15), (1, -5), (2, 1)]
    pooled = scan_four_torsion(pairs, budget=1, jobs=2)
    serial = scan_four_torsion(pairs, budget=1)
    assert [r.to_json() for r in pooled.reports] == [r.to_json() for r in serial.reports]
    assert [r.incomplete for r in pooled.reports] == [False, True, False, False]
