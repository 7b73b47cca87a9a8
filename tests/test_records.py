"""Every record keeps its repr, equality, hashing, immutability and pickling.

The plain records, the scan records among them, are typing.NamedTuples;
tamagawa.record.Record is only for the records that validate their fields
or derive state.  Every record refuses assignment, and each validating
record refuses a bad field with its own message; the scan records are
unhashable, VerdictReport by declaration and the other two through their
lists.  Each repr below is the text the records printed when they were
dataclasses.
"""

import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import tamagawa
from tamagawa import (
    CurveAnalysis,
    Factorization,
    KodairaType,
    Point,
    ThreeTorsionNormalForm,
    Transformation,
    WeierstrassCurve,
    factor,
    hadano_quotient,
    tate,
    torsion_subgroup,
)
from tamagawa.families import Family
from tamagawa.record import Record
from tamagawa.reduction import RootNumberDatum
from tamagawa.verify import (
    ExceptionClass,
    FixtureCurve,
    Preset,
    ScanReport,
    VerdictReport,
    check_divisibility,
    scan_four_torsion,
)

E = WeierstrassCurve(1, -3, -3, 0, 0)
LOCAL_19A1 = {"p": 19, "kodaira": "I3", "cp": 3, "class": "split"}
UNHASHABLE = (VerdictReport, ExceptionClass, ScanReport)


def _points_read(tors):
    tors.points
    return tors


def _other_curve(tors):
    """The same structure, built from data that is not compared."""
    curve = WeierstrassCurve(0, 0, 1, -1, 0)
    return type(tors)(tors.shape, tors.order, tors.generators, curve, ())


# (build, twin, differ, repr): twin() differs from build() only where comparison
# does not look, differ() in a compared field
RECORDS = {
    "Factorization": (
        lambda: factor(-360),
        lambda: factor(-360),
        lambda: factor(360),
        "Factorization(sign=-1, factors=((2, 3), (3, 2), (5, 1)))",
    ),
    "WeierstrassCurve": (
        lambda: E,
        lambda: WeierstrassCurve(1, -3, -3, 0, 0),
        lambda: WeierstrassCurve(0, 0, 1, -1, 0),
        "WeierstrassCurve(a1=1, a2=-3, a3=-3, a4=0, a6=0)",
    ),
    "Transformation": (
        lambda: Transformation(Fraction(1, 2), 3, -1, 2),
        lambda: Transformation(Fraction(1, 2), Fraction(3), Fraction(-1), Fraction(2)),
        lambda: Transformation(Fraction(1, 2), 3, -1, 3),
        "Transformation(u=Fraction(1, 2), r=3, s=-1, t=2)",
    ),
    "KodairaType": (
        lambda: KodairaType("I4*"),
        lambda: KodairaType.star(4),
        lambda: KodairaType("I4"),
        "KodairaType(symbol='I4*')",
    ),
    "LocalDatum": (
        lambda: tate(E, 3),
        lambda: tate(E, 3, 4),
        lambda: tate(E, 2),
        "LocalDatum(prime=3, kodaira=KodairaType(symbol='I4'), tamagawa=4, "
        "reduction_class='split', v_delta_min=4)",
    ),
    "RootNumberDatum": (
        lambda: RootNumberDatum(2, -1),
        lambda: RootNumberDatum(2, -1),
        lambda: RootNumberDatum(2, 1),
        "RootNumberDatum(place=2, value=-1)",
    ),
    "CurveAnalysis": (
        lambda: CurveAnalysis.of(WeierstrassCurve(0, 0, 0, -64, 0)),
        lambda: CurveAnalysis.of(WeierstrassCurve(0, 0, 0, -64, 0), factor(2**24)),
        lambda: CurveAnalysis.of(WeierstrassCurve(0, 0, 0, -1, 0)),
        "CurveAnalysis(minimal=WeierstrassCurve(a1=0, a2=0, a3=0, a4=-4, a6=0), "
        "disc_min=Factorization(sign=1, factors=((2, 12),)))",
    ),
    "ThreeTorsionNormalForm": (
        lambda: ThreeTorsionNormalForm(2, 1),
        lambda: ThreeTorsionNormalForm(2, 1),
        lambda: ThreeTorsionNormalForm(2, 3),
        "ThreeTorsionNormalForm(a=2, b=1)",
    ),
    "IsogenyPair": (
        lambda: hadano_quotient(ThreeTorsionNormalForm(2, 1)),
        lambda: hadano_quotient(ThreeTorsionNormalForm(2, 1)),
        lambda: hadano_quotient(ThreeTorsionNormalForm(1, 1)),
        "IsogenyPair(source=ThreeTorsionNormalForm(a=2, b=1), "
        "quotient=WeierstrassCurve(a1=8, a2=0, a3=19, a4=0, a6=0), "
        "local=((LocalDatum(prime=19, kodaira=KodairaType(symbol='I1'), tamagawa=1, "
        "reduction_class='split', v_delta_min=1), LocalDatum(prime=19, "
        "kodaira=KodairaType(symbol='I3'), tamagawa=3, reduction_class='split', v_delta_min=3)),))",
    ),
    "Family": (
        lambda: Family(("a", "b"), "curve", "disc", (2, True), semistable_only=True),
        lambda: Family(("a", "b"), "curve", "disc", (2, True), True),
        lambda: Family(("a", "b"), "curve", "disc", (2, True)),
        "Family(params=('a', 'b'), curve='curve', disc='disc', claim=(2, True), "
        "semistable_only=True)",
    ),
    "Preset": (
        lambda: Preset("run", "expected", 30),
        lambda: Preset("run", "expected", 30),
        lambda: Preset("run", "expected"),
        "Preset(run='run', expected='expected', bound=30)",
    ),
    "Point": (
        lambda: Point(Fraction(-1, 4), 2),
        lambda: Point(Fraction(-2, 8), Fraction(2)),
        lambda: Point(Fraction(-1, 4), 3),
        "Point(x=Fraction(-1, 4), y=Fraction(2, 1), infinity=False)",
    ),
    "Point.at_infinity": (
        Point.at_infinity,
        lambda: Point(infinity=True),
        lambda: Point(0, 0),
        "Point(x=None, y=None, infinity=True)",
    ),
    "TorsionStructure": (
        lambda: torsion_subgroup(E),
        lambda: _other_curve(torsion_subgroup(E)),
        lambda: torsion_subgroup(WeierstrassCurve(0, 0, 1, -1, 0)),
        "TorsionStructure(shape='Z/2xZ/4', order=8, generators=(Point(x=Fraction(0, 1), "
        "y=Fraction(0, 1), infinity=False), Point(x=Fraction(-1, 1), y=Fraction(2, 1), "
        "infinity=False)))",
    ),
    "TorsionStructure with points read": (
        lambda: _points_read(torsion_subgroup(E)),
        lambda: torsion_subgroup(E),
        lambda: torsion_subgroup(WeierstrassCurve(0, 0, 1, -1, 0)),
        "TorsionStructure(shape='Z/2xZ/4', order=8, generators=(Point(x=Fraction(0, 1), "
        "y=Fraction(0, 1), infinity=False), Point(x=Fraction(-1, 1), y=Fraction(2, 1), "
        "infinity=False)))",
    ),
    "FixtureCurve": (
        lambda: FixtureCurve("19a1", [0, 1, 1, -9, -15], torsion="Z/3", local=[LOCAL_19A1], sha=1),
        lambda: FixtureCurve("19a1", (0, 1, 1, -9, -15), torsion="Z/3", local=(LOCAL_19A1,), sha=1),
        # differs only in local, which equality compares though the hash leaves it out
        lambda: FixtureCurve(
            "19a1", [0, 1, 1, -9, -15], torsion="Z/3", local=[dict(LOCAL_19A1, cp=1)], sha=1
        ),
        "FixtureCurve(label='19a1', ai=(0, 1, 1, -9, -15), torsion='Z/3', local=({'p': 19, "
        "'kodaira': 'I3', 'cp': 3, 'class': 'split'},), c_inf=None, sha=1, optimal=None, "
        "manin=None, analytic_rank=None, w3=None, lmfdb=None)",
    ),
    "VerdictReport": (
        lambda: VerdictReport(params={"a": 1}, incomplete=True),
        lambda: VerdictReport(params={"a": 1}, incomplete=True),
        lambda: VerdictReport(params={"a": 1}),
        "VerdictReport(minimal_ai=None, key=None, torsion=None, c_inf=None, tamagawa=None, "
        "tamagawa_factors=None, divides=None, label=None, fixture=None, classification=None, "
        "incomplete=True, params={'a': 1})",
    ),
    "ExceptionClass": (
        lambda: ExceptionClass((1, -161), (1, 1, 1, -10, -10), [{"s": 1, "t": -3}], label="15a8"),
        lambda: ExceptionClass((1, -161), (1, 1, 1, -10, -10), [{"s": 1, "t": -3}], "15a8"),
        lambda: ExceptionClass((1, -161), (1, 1, 1, -10, -10), [{"s": 1, "t": -3}]),
        "ExceptionClass(key=(1, -161), minimal_ai=(1, 1, 1, -10, -10), "
        "witnesses=[{'s': 1, 't': -3}], label='15a8')",
    ),
    "ScanReport": (
        lambda: scan_four_torsion([(1, -3)]),
        lambda: scan_four_torsion([(1, -3)]),
        lambda: scan_four_torsion([(1, -5)]),
        "ScanReport(name='four-torsion', reports=[VerdictReport(minimal_ai=(1, -1, 1, 4, 6), "
        "key=(-207, -6345), torsion=None, c_inf=1, tamagawa=4, tamagawa_factors=None, "
        "divides=True, label=None, fixture=None, classification=None, incomplete=False, "
        "params={'s': 1, 't': -3})], exceptions={}, mismatches=[])",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_keeps_repr_equality_hash_immutability_and_pickling(name):
    build, twin, differ, text = RECORDS[name]
    record, other = build(), twin()
    assert repr(record) == text
    assert record == other and not record != other
    assert record != differ() and type(differ()) is type(record)
    if isinstance(record, UNHASHABLE):
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(other)
    for field in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert repr(record) == text
    if isinstance(record, tuple):
        # a NamedTuple record also equals the plain tuple of its fields
        assert record == tuple(record)
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and repr(copy) == text
    # derived state travels too: a curve's invariants, a structure's points once read
    assert getattr(copy, "__dict__", None) == getattr(record, "__dict__", None)


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: WeierstrassCurve(1.5, 0, 0, 0, 1), TypeError, "a1 must be an integer, got 1.5"),
        (lambda: Point(1, 2, infinity=True), ValueError, "the point at infinity has no coordinates"),
        (lambda: Transformation(0, 0, 0, 0), ValueError, "u must be nonzero"),
        (lambda: Factorization(2, ()), ValueError, "sign must be"),
        (lambda: Factorization(1, ((3, 1), (2, 1))), ValueError, "primes increasing"),
    ],
    ids=["curve", "point", "transformation", "factorization-sign", "factorization-order"],
)
def test_a_validating_record_refuses_a_bad_field(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_a_verdict_without_params_is_unhashable():
    # params is None here, so only the declared __hash__ = None refuses the hash
    report = check_divisibility(WeierstrassCurve(0, 0, 1, 0, 0))
    assert report.params is None
    with pytest.raises(TypeError):
        hash(report)


def _package_records():
    """Every Record subclass and tuple class with _fields defined in a tamagawa module."""
    for info in pkgutil.iter_modules(tamagawa.__path__, "tamagawa."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            if (issubclass(cls, Record) and cls is not Record) or (
                issubclass(cls, tuple) and hasattr(cls, "_fields")
            ):
                yield cls


def test_every_record_of_the_package_has_a_case():
    covered = {type(build()) for build, _, _, _ in RECORDS.values()}
    records = set(_package_records())
    assert len(records) >= 17
    assert records <= covered, sorted(cls.__qualname__ for cls in records - covered)
