import collections
import functools
import inspect
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tamagawa import cli, curves, families, verify
from tamagawa.arith import IncompleteFactorizationError
from tamagawa.curves import WeierstrassCurve, change_coordinates, transform_coefficients
from tamagawa.families import ThreeTorsionNormalForm, three_torsion_normalize
from tamagawa.reduction import (
    ADDITIVE,
    NONSPLIT,
    KodairaType,
    global_root_number_semistable,
    local_data,
)
from tamagawa.verify import (
    EXCEPTION_A,
    EXCEPTION_A_CANDIDATE,
    EXCEPTION_B,
    DIVISIBLE,
    RANK_VIOLATED,
    SHA_IMPLIED,
    KEY_15A8,
    KEY_21A4,
    KEY_24A4,
    NEGATIVE_T_EXPECTED,
    TWO_TORSION_EXCEPTIONS,
    FixtureCurve,
    FixtureTable,
    FixtureValidationError,
    VerdictReport,
    PRESETS,
    check_divisibility,
    ingest_fixtures,
    reduction_table_cross_check,
    scan_dual_curves,
    scan_four_torsion,
    scan_three_torsion_nonunits,
    scan_two_six,
    scan_two_torsion,
    three_torsion_form_of,
    _cross_check,
    _family_check,
    _nonunit_check,
    _scan,
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


def test_ingest_rejects_a_file_that_is_not_an_array(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"label": "x", "ai": [0, 0, 1, -1, 0]}')
    with pytest.raises(FixtureValidationError, match="fixture file must contain a JSON array"):
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
        ("local", [{"p": 19, "kodaira": "I3", "cp": 0}], "needs a positive integer 'cp'"),
        ("local", [{"p": 19, "kodaira": "I3", "cp": 3, "class": "bogus"}], "reduction class 'bogus'"),
        ("c_inf", True, "'c_inf' must be 1 or 2"),
        ("sha", 0, "'sha' must be a positive integer"),
        ("manin", True, "'manin' must be a positive integer"),
        ("w3", True, "'w3' must be"),
        ("optimal", "yes", "'optimal' must be true or false"),
        ("analytic_rank", -7, "'analytic_rank' must be a non-negative integer"),
        ("lmfdb", 5, "'lmfdb' must be a string"),
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

    monkeypatch.setattr(curves, "factor", lambda n: arith.factor(n, budget=0))
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
    assert r.torsion.order == 12
    assert r.tamagawa % 12 == 0
    assert r.classification == DIVISIBLE


def test_check_divisibility_48a4(fixtures):
    r = check_divisibility(WeierstrassCurve(0, 1, 0, 1, 0), fixtures=fixtures)
    assert r.label == "48a4"
    assert not r.divides
    assert r.c_inf * r.tamagawa == 1
    assert r.fixture.manin == 2 and r.fixture.optimal is False and r.fixture.sha == 1


def test_check_divisibility_27a3(fixtures):
    r = check_divisibility(WeierstrassCurve(0, 0, 1, 0, 0), fixtures=fixtures)
    assert r.label == "27a3"
    assert not r.divides
    assert r.fixture.manin == 3


def test_classify_exception_families(fixtures):
    assert check_divisibility(WeierstrassCurve(0, 1, 1, 1, 0), fixtures=fixtures).classification == EXCEPTION_A
    assert check_divisibility(WeierstrassCurve(0, 0, 1, -30, 63), fixtures=fixtures).classification == EXCEPTION_B
    assert check_divisibility(WeierstrassCurve(1, -1, 0, -3, 3), fixtures=fixtures).classification == EXCEPTION_B
    r = check_divisibility(WeierstrassCurve(0, 1, 1, -9, -15), fixtures=fixtures)
    assert r.classification == DIVISIBLE
    # two split places away from 3 push the quotient ratio to 2, and give a
    # semistable curve root number -1: outside the rank-0 hypothesis
    from tamagawa.families import ThreeTorsionNormalForm

    r2 = check_divisibility(ThreeTorsionNormalForm(-4, 1).curve)
    assert r2.classification == RANK_VIOLATED


def test_classify_reads_w3_from_the_fixture_at_an_additive_three():
    # I0* at 3 with c_3 = 1, nonsplit I1 at 11, split I1 at 3169: c = 1, and
    # no table gives the local root number at 3, so only a fixture's w3 decides
    from tamagawa.families import ThreeTorsionNormalForm
    from tamagawa.reduction import local_data

    curve = ThreeTorsionNormalForm(-294, 1).curve
    r = check_divisibility(curve)
    data = local_data(WeierstrassCurve(*r.minimal_ai))
    assert [(d.prime, d.kodaira.symbol, d.tamagawa, d.reduction_class) for d in data] == [
        (3, "I0*", 1, "additive"),
        (11, "I1", 1, "nonsplit"),
        (3169, "I1", 1, "split"),
    ]
    assert r.tamagawa == 1 and r.fixture is None
    assert r.classification == EXCEPTION_A_CANDIDATE
    for w3, expected in ((1, EXCEPTION_A), (-1, RANK_VIOLATED)):
        table = FixtureTable([FixtureCurve("x", curve.ai(), w3=w3)])
        r = check_divisibility(curve, fixtures=table)
        assert r.label == "x" and r.fixture.w3 == w3
        assert r.classification == expected


def test_check_divisibility_incomplete_budget(cap_rho, monkeypatch):
    # disc has a semiprime cofactor (12437 * 139177) that a zero budget cannot split
    E = WeierstrassCurve(0, -1, 1, -300, 19)
    cap_rho(0)
    r = check_divisibility(E)
    assert r.incomplete and r.divides is None
    monkeypatch.undo()
    r2 = check_divisibility(E)
    assert not r2.incomplete and r2.divides is not None


def test_classify_requires_three_torsion():
    r = check_divisibility(WeierstrassCurve(0, 0, 0, -1, 0))
    assert r.torsion.order % 3 and r.classification is None


def test_classify_requires_j_not_0_or_1728():
    # 27a3 has torsion Z/3 and j = 0, so check_divisibility leaves it unclassified
    r = check_divisibility(WeierstrassCurve(0, 0, 1, 0, 0))
    assert r.torsion.shape == "Z/3" and r.classification is None


def test_check_reads_j_0_and_1728_off_c4_and_c6(fixtures, monkeypatch):
    # the fixtures hold 27a3, with torsion Z/3 and j = 0, which must stay unclassified
    expected = [check_divisibility(rec.curve, fixtures).to_json() for rec in fixtures.records]
    assert any(r["torsion_order"] % 3 == 0 and r["c4"] == 0 for r in expected)

    def no_j(self):
        raise AssertionError("j was built")

    monkeypatch.setattr(WeierstrassCurve, "j", property(no_j))
    got = [check_divisibility(rec.curve, fixtures).to_json() for rec in fixtures.records]
    assert got == expected


def test_three_torsion_form_of_roundtrip():
    from fractions import Fraction

    form = three_torsion_form_of(WeierstrassCurve(0, 1, 0, 4, 4), (Fraction(0), Fraction(2)))
    assert (form.a, form.b) == (2, 4)
    with pytest.raises(ValueError):
        # (0, 0) on this curve has order 2
        three_torsion_form_of(WeierstrassCurve(0, 1, 0, -1, 0), (Fraction(0), Fraction(0)))


@pytest.mark.parametrize(
    "point, match",
    [((1, 1), "point is not on the curve"), ((0, 0), "point does not have order 3")],
)
def test_three_torsion_form_of_refuses_a_point_off_the_curve_or_not_of_order_3(point, match):
    # on 37a1, (0, 0) generates the Mordell-Weil group: it has infinite order
    with pytest.raises(ValueError, match=match):
        three_torsion_form_of(WeierstrassCurve(0, 0, 1, -1, 0), tuple(map(Fraction, point)))


def test_three_torsion_form_of_refuses_a_non_integral_point():
    # 5 (0, 0) on 37a1, a point of infinite order; no point of order 3 on an
    # integral model has a denominator
    curve, point = WeierstrassCurve(0, 0, 1, -1, 0), (Fraction(1, 4), Fraction(-5, 8))
    assert curve.a3 * point[1] + point[1] ** 2 == point[0] ** 3 - point[0]
    with pytest.raises(ValueError, match="not integral"):
        three_torsion_form_of(curve, point)


def _reference_form_of(curve, point_xy):
    """The normal form by the Fraction shifts of transform_coefficients."""
    x0, y0 = Fraction(point_xy[0]), Fraction(point_xy[1])
    a1, a2, a3, a4, a6 = transform_coefficients(curve.ai(), 1, x0, 0, y0)
    a1, a2, a3, a4, a6 = transform_coefficients((a1, a2, a3, a4, a6), 1, 0, a4 / a3, 0)
    assert a2 == a4 == a6 == 0
    return three_torsion_normalize(a1, a3)


@given(
    st.integers(-30, 30),
    st.integers(1, 30),
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.integers(-20, 20),
)
@settings(max_examples=150, deadline=None)
def test_integer_three_torsion_form_matches_the_fraction_one(a, b, r, s, t):
    """On y^2 + a xy + b y = x^3 moved by x = x' + r, y = y' + s x' + t, both
    points of order 3, +-(0, 0), give the normal form of (a, b) as ints, as
    Fractions and by the Fraction shifts."""
    assume(a**3 != 27 * b)
    curve = WeierstrassCurve(*change_coordinates((a, 0, b, 0, 0), r, s, t))
    expected = three_torsion_normalize(a, b)
    for y in (0, -b):
        # (0, y) in the new coordinates: x' = -r, y' = y + r s - t
        point = (-r, y + r * s - t)
        assert three_torsion_form_of(curve, point) == expected
        assert three_torsion_form_of(curve, tuple(map(Fraction, point))) == expected
        assert _reference_form_of(curve, point) == expected


def test_three_torsion_classification_shifts_in_integers(fixtures, monkeypatch):
    """Every fixture the 3-torsion classification reaches gives an integral
    point of order 3 on its minimal model (Silverman VIII.7.1), and its
    normal form comes, with the same report, without transform_coefficients."""
    expected = [check_divisibility(rec.curve, fixtures=fixtures).to_json() for rec in fixtures.records]
    form_of, points = verify.three_torsion_form_of, []

    def recorded(curve, point_xy):
        points.append(point_xy)
        return form_of(curve, point_xy)

    def refuse(*args):
        raise AssertionError("transform_coefficients was called")

    monkeypatch.setattr(verify, "three_torsion_form_of", recorded)
    monkeypatch.setattr(curves, "transform_coefficients", refuse)
    # a module that imports the name holds its own reference to it
    monkeypatch.setattr(verify, "transform_coefficients", refuse, raising=False)
    reports = [check_divisibility(rec.curve, fixtures=fixtures).to_json() for rec in fixtures.records]
    assert reports == expected
    assert len(points) == sum(1 for r in reports if r["classification"] not in (None, DIVISIBLE)) > 0
    assert all(x.denominator == 1 == y.denominator for x, y in points)


def test_rank_positive_semistable_curves_leave_the_sha_class():
    """Over y^2 + a xy + y = x^3, |a| <= 300: a semistable curve of quotient
    ratio >= 2 with root number -1 is rank-hypothesis-violated, not Sha-implied."""
    counts = collections.Counter()
    for a in range(-300, 301):
        if a == 3:  # singular
            continue
        report = check_divisibility(ThreeTorsionNormalForm(a, 1).curve)
        if report.classification is None:  # a = 0, j = 0
            counts[None] += 1
            continue
        m = WeierstrassCurve(*report.minimal_ai)
        semistable = all(d.reduction_class != ADDITIVE for d in local_data(m))
        if semistable and report.classification in (SHA_IMPLIED, RANK_VIOLATED):
            want = 1 if report.classification == SHA_IMPLIED else -1
            assert global_root_number_semistable(m) == want, a
        counts[report.classification, semistable] += 1
    assert counts == {
        (RANK_VIOLATED, True): 201,
        (SHA_IMPLIED, True): 122,
        (SHA_IMPLIED, False): 153,
        (EXCEPTION_A, True): 75,
        (EXCEPTION_A_CANDIDATE, False): 12,
        (EXCEPTION_B, False): 10,
        (DIVISIBLE, True): 2,
        (DIVISIBLE, False): 24,
        None: 1,
    }


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
    rep = scan_two_torsion(fixtures=fixtures)
    assert not rep.mismatches
    assert set(rep.exceptions) == set(TWO_TORSION_EXCEPTIONS)
    assert {cls.label for cls in rep.exceptions.values()} == {"15a8", "39a4", "55a4"}
    assert len(rep.reports) == 23  # the enumerated region


def test_scan_two_six_small():
    rep = scan_two_six(6)
    assert not rep.exceptions
    assert all(r.divides for r in rep.reports)


def test_scan_three_torsion_nonunits_small():
    rep = scan_three_torsion_nonunits(12)
    assert not rep.mismatches


def test_reduction_table_cross_check_small():
    rep = reduction_table_cross_check(12)
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
    rep = PRESETS["prop2.2"].run(None, 1, 4)
    assert PRESETS["prop2.2"].validate(rep)


def test_scan_marks_budget_exhausted_curve_incomplete(cap_rho):
    # 16 * 6260003 + 15 = 10007 * 10009 lies past trial division, and one
    # rho iteration cannot split it
    cap_rho(1)
    rep = scan_four_torsion([(1, -3), (6260003, 15)])
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


def test_the_factoring_stage_reports_a_run_out_curve_with_its_params_alone(monkeypatch):
    """A check's entry for a curve whose budget runs out is None, its
    neighbours in the chunk keep their entries, and the scan reports that
    curve incomplete with only the params it was given."""
    chunk = [{"a": 1, "b": 2}, {"a": -1, "b": 2}, {"a": 3, "b": 4}]
    expected = _family_check("two-torsion", None, [dict(p) for p in chunk])
    real = families.two_torsion_disc

    def disc(a, b):
        if (a, b) == (-1, 2):
            raise IncompleteFactorizationError(1, [(2, 1)], 10403)
        return real(a, b)

    monkeypatch.setattr(families, "two_torsion_disc", disc)
    assert _family_check("two-torsion", None, [dict(p) for p in chunk]) == [
        expected[0], None, expected[2]
    ]
    check = functools.partial(_family_check, "two-torsion", None)
    rep = _scan("two-torsion", check, chunk, 1)
    assert rep.reports[1] == VerdictReport(params={"a": -1, "b": 2}, incomplete=True)
    assert [r.incomplete for r in rep.reports] == [False, True, False]


def test_incomplete_curve_survives_the_process_pool(cap_rho):
    pairs = [(1, -3), (6260003, 15), (1, -5), (2, 1)]
    cap_rho(1)
    pooled = scan_four_torsion(pairs, jobs=2)
    serial = scan_four_torsion(pairs)
    assert [r.to_json() for r in pooled.reports] == [r.to_json() for r in serial.reports]
    assert [r.incomplete for r in pooled.reports] == [False, True, False, False]


def test_dual_scan_marks_a_curve_incomplete_and_keeps_going(cap_rho):
    # 10010^3 - 27 = 5113 * 10007 * 19603: one rho iteration cannot split 10007 * 19603
    cap_rho(1)
    rep = scan_dual_curves([10010, 2])
    assert [r.incomplete for r in rep.reports] == [True, False]
    assert rep.reports[0] == VerdictReport(params={"a": 10010}, incomplete=True)
    assert rep.mismatches == [] and rep.incomplete


@pytest.mark.parametrize("check", [_nonunit_check, _cross_check], ids=["nonunit", "cross"])
def test_three_torsion_checks_report_a_run_out_as_incomplete(cap_rho, check):
    # a^3 - 27 b = (-553)^3 - 54 = -10753 * 15727, past one rho iteration
    cap_rho(1)
    chunk = [{"a": 1, "b": 2}, {"a": -553, "b": 2}]
    done, stuck = check([dict(p) for p in chunk])
    assert stuck is None and not done[0].incomplete
    rep = _scan("three-torsion", check, chunk, 1)
    assert rep.reports[1] == VerdictReport(params={"a": -553, "b": 2}, incomplete=True)
    assert rep.mismatches == [] and not rep.exceptions


def _guard_fires(preset: str, bound: int, capsys) -> list[dict]:
    """The mismatches of a preset whose data source a test has falsified.

    Requires that the preset does not validate and that `tamagawa scan`
    exits with code 1 on the same data.
    """
    rep = PRESETS[preset].run(None, 1, bound)
    assert rep.mismatches and not PRESETS[preset].validate(rep)
    assert cli.main(["scan", "--preset", preset, "--bound", str(bound), "--summary"]) == 1
    printed = json.loads(capsys.readouterr().out)["mismatches"]
    assert printed == json.loads(json.dumps(rep.mismatches))
    return rep.mismatches


def _falsify_three_torsion_local(monkeypatch, **fields):
    """verify._three_torsion_local with the given fields replaced in every datum of every curve."""
    real = verify._three_torsion_local

    def falsified(chunk):
        return [(disc, [d._replace(**fields) for d in data]) for disc, data in real(chunk)]

    monkeypatch.setattr(verify, "_three_torsion_local", falsified)


def test_nonunit_guard_reports_a_c_that_3_does_not_divide(monkeypatch, capsys):
    _falsify_three_torsion_local(monkeypatch, tamagawa=1)
    mismatches = _guard_fires("three-torsion-nonunit-b", 4, capsys)
    assert {"a": 1, "b": 2, "c": 1, "error": "3 does not divide c"} in mismatches
    assert all(m["c"] == 1 and m["error"] == "3 does not divide c" for m in mismatches)


def test_cross_check_guard_reports_a_row_that_disagrees(monkeypatch, capsys):
    _falsify_three_torsion_local(monkeypatch, kodaira=KodairaType("II*"))  # on no row
    mismatches = _guard_fires("kozuma-table", 4, capsys)
    assert all(m["got"]["kodaira"] == "II*" for m in mismatches)
    assert {m["expected"]["row"] for m in mismatches} >= {"split-I3vb", "I-vD", "IV"}


def _falsify_quotient_data(monkeypatch, src=lambda d: d, quo=lambda d: d):
    """verify.hadano_quotient with its local data at every prime but 3 passed through src and quo."""
    real = verify.hadano_quotient

    def falsified(form):
        pair = real(form)
        local = tuple((s, q) if s.prime == 3 else (src(s), quo(q)) for s, q in pair.local)
        return pair._replace(local=local)

    monkeypatch.setattr(verify, "hadano_quotient", falsified)


def _claim_a_split_prime(monkeypatch):
    real = verify.quotient_split_prime
    monkeypatch.setattr(verify, "quotient_split_prime", lambda pair: real(pair) or 2)


DUAL_GUARDS = {
    "expected no split prime, got 2": _claim_a_split_prime,
    "expected a split prime, got none": lambda mp: mp.setattr(
        verify, "quotient_split_prime", lambda pair: None
    ),
    "quotient not split multiplicative": lambda mp: _falsify_quotient_data(
        mp, quo=lambda d: d._replace(reduction_class=NONSPLIT)
    ),
    "source not split multiplicative": lambda mp: _falsify_quotient_data(
        mp, src=lambda d: d._replace(reduction_class=NONSPLIT)
    ),
    "unexpected class additive away from 3": lambda mp: _falsify_quotient_data(
        mp, src=lambda d: d._replace(reduction_class=ADDITIVE)
    ),
    # c_p(quotient) three times too large moves ord_3 of the ratio by one
    "ledger entry": lambda mp: _falsify_quotient_data(
        mp, quo=lambda d: d._replace(tamagawa=3 * d.tamagawa)
    ),
}


@pytest.mark.parametrize("error", list(DUAL_GUARDS))
def test_dual_guards_report_falsified_quotient_data(error, monkeypatch, capsys):
    DUAL_GUARDS[error](monkeypatch)
    mismatches = _guard_fires("dual-ledger", 10, capsys)
    assert any(m["error"].startswith(error) for m in mismatches), mismatches


def test_budget_is_settable_only_on_factor():
    """The rho budget is factor's alone; no layer above it threads one through."""
    import tamagawa
    from tamagawa import arith, curves, families, verify

    public = [getattr(tamagawa, name) for name in tamagawa.__all__]
    public += [getattr(verify, name) for name in dir(verify) if name.startswith("scan_")]
    public += [verify.check_divisibility]
    public += [verify.reduction_table_cross_check, arith.factor_product]
    public += [getattr(families, name) for name in dir(families) if name.endswith("_disc")]
    public += [families.hadano_quotient, curves.CurveAnalysis.of]
    # exception classes without an __init__ of their own have no signature
    public = [f for f in public if not (isinstance(f, type) and issubclass(f, Exception))]
    with_budget = [f.__qualname__ for f in public if "budget" in inspect.signature(f).parameters]
    assert with_budget == ["factor"]
    for name, family in families.FAMILIES.items():
        assert len(inspect.signature(family.disc).parameters) == 1, name
    for name, preset in PRESETS.items():
        assert list(inspect.signature(preset.run).parameters) == ["fixtures", "jobs", "bound"], name


def test_no_prime_certified_by_factor_is_proved_again(monkeypatch):
    """The scans and check_divisibility hand tate the factored discriminant's (p, e) pairs."""
    from tamagawa import reduction

    fixtures = ingest_fixtures(FIXTURES)

    def run():
        scans = [
            scan_four_torsion([(1, -3), (5, 7), (12, -1), (997, 3)], fixtures),
            scan_three_torsion_nonunits(bound=6),
        ]
        out = [[r.to_json() for r in scan.reports] + [scan.summary()] for scan in scans]
        for label in ("14a4", "27a4", "90c6"):
            out.append(check_divisibility(fixtures.by_label[label].curve, fixtures).to_json())
        return json.dumps(out)

    expected = run()

    def refuse(n):
        raise AssertionError(f"is_prime({n}) called from reduction")

    monkeypatch.setattr(reduction, "is_prime", refuse)
    assert run() == expected
