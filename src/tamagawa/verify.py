"""Mechanical checks of the divisibility statements over finite parameter ranges.

Each scan sweeps one parametrized family, recomputes local data exactly, and
collects the isomorphism classes violating the claimed divisibility.  Known
exception curves are matched by the (c4, c6) of the global minimal model;
labels come from a user-supplied fixture file and are never parsed for
mathematical content.
"""

from __future__ import annotations

import json
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Optional

from .arith import IncompleteFactorizationError, _int_valuation, factor, is_prime
from .curves import (
    CurveAnalysis,
    SingularCurveError,
    WeierstrassCurve,
    transform_coefficients,
)
from .families import (
    FAMILIES,
    ThreeTorsionNormalForm,
    hadano_quotient,
    quotient_split_prime,
    three_torsion_normalize,
    two_torsion_curve,
)
from .reduction import (
    ADDITIVE,
    GOOD,
    NONSPLIT,
    SPLIT,
    KodairaType,
    LocalDatum,
    c_infinity,
    local_data,
    tate,
)
from .torsion import _MAZUR_CYCLIC, _MAZUR_PRODUCT, _integer_order, multiply, torsion_subgroup

_MAZUR_SHAPES = frozenset(
    [f"Z/{n}" for n in _MAZUR_CYCLIC] + [f"Z/2xZ/{2 * n}" for n in _MAZUR_PRODUCT.values()]
)

DIVISIBLE = "divisible"
SHA_IMPLIED = "ratio-ge-2-implies-9-divides-sha"
EXCEPTION_A = "exception-a"
EXCEPTION_B = "exception-b"
EXCEPTION_A_CANDIDATE = "exception-a-candidate-w3-unknown"
RANK_VIOLATED = "rank-hypothesis-violated"


class FixtureValidationError(ValueError):
    pass


@dataclass(frozen=True)
class FixtureCurve:
    """One exported database curve with its expected data."""

    label: str
    ai: tuple[int, int, int, int, int]
    torsion: Optional[str] = None
    local: Optional[tuple[dict, ...]] = None
    c_inf: Optional[int] = None
    sha: Optional[int] = None
    optimal: Optional[bool] = None
    manin: Optional[int] = None
    analytic_rank: Optional[int] = None
    w3: Optional[int] = None
    lmfdb: Optional[str] = None

    @property
    def curve(self) -> WeierstrassCurve:
        return WeierstrassCurve(*self.ai)


class FixtureTable:
    """Fixture curves keyed by the (c4, c6) of their global minimal model.

    Each label and each isomorphism class appears once; a second record of
    either raises FixtureValidationError rather than hiding the first, and
    so does a record whose discriminant cannot be factored.
    """

    def __init__(self, records: Iterable[FixtureCurve]):
        self.records = list(records)
        self.by_key: dict[tuple[int, int], FixtureCurve] = {}
        self.by_label: dict[str, FixtureCurve] = {}
        for rec in self.records:
            if rec.label in self.by_label:
                raise FixtureValidationError(f"fixture {rec.label!r}: label appears twice")
            try:
                key = CurveAnalysis.of(rec.curve).key
            except IncompleteFactorizationError as e:
                raise FixtureValidationError(f"fixture {rec.label!r}: {e}") from e
            other = self.by_key.get(key)
            if other is not None:
                raise FixtureValidationError(
                    f"fixture {rec.label!r}: isomorphic to fixture {other.label!r} "
                    f"(minimal (c4, c6) = {key})"
                )
            self.by_key[key] = rec
            self.by_label[rec.label] = rec

    def match(self, curve: WeierstrassCurve) -> Optional[FixtureCurve]:
        return self.by_key.get(CurveAnalysis.of(curve).key)

    def __len__(self) -> int:
        return len(self.records)


def ingest_fixtures(path) -> FixtureTable:
    """Load and validate a fixture JSON file; bad records fail loudly by label."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, list):
        raise FixtureValidationError("fixture file must contain a JSON array")
    records = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise FixtureValidationError(f"fixture record {index} must be a JSON object: {entry!r}")
        label = entry.get("label")

        def bad(msg: str):
            raise FixtureValidationError(f"fixture {label!r}: {msg}")

        if not (isinstance(label, str) and label):
            bad("'label' must be a non-empty string")
        ai = entry.get("ai")
        if not (isinstance(ai, list) and len(ai) == 5 and all(_is_int(k) for k in ai)):
            bad("'ai' must be a list of 5 integers")
        try:
            WeierstrassCurve(*ai)
        except SingularCurveError:
            bad("coefficients define a singular curve")
        torsion = entry.get("torsion")
        if torsion is not None and not (isinstance(torsion, str) and torsion in _MAZUR_SHAPES):
            bad(f"torsion shape {torsion!r} is not a possible rational torsion group")
        local = entry.get("local")
        if local is not None:
            if not (isinstance(local, list) and all(isinstance(item, dict) for item in local)):
                bad("'local' must be a list of objects")
            for item in local:
                p = item.get("p")
                if not (_is_int(p) and p >= 2 and is_prime(p)):
                    bad(f"local entry has non-prime p = {p!r}")
                try:
                    KodairaType(item.get("kodaira", ""))
                except (TypeError, ValueError):
                    bad(f"bad Kodaira symbol {item.get('kodaira')!r}")
                if not (_is_int(item.get("cp")) and item["cp"] >= 1):
                    bad("local entry needs a positive integer 'cp'")
                if item.get("class") not in (None, GOOD, SPLIT, NONSPLIT, ADDITIVE):
                    bad(f"bad reduction class {item.get('class')!r}")
            local = tuple(dict(item) for item in local)
        c_inf = entry.get("c_inf")
        if c_inf is not None and not (_is_int(c_inf) and c_inf in (1, 2)):
            bad("'c_inf' must be 1 or 2")
        sha = entry.get("sha")
        if sha is not None and not (_is_int(sha) and sha >= 1):
            bad("'sha' must be a positive integer")
        manin = entry.get("manin")
        if manin is not None and not (_is_int(manin) and manin >= 1):
            bad("'manin' must be a positive integer")
        w3 = entry.get("w3")
        if w3 is not None and not (_is_int(w3) and w3 in (1, -1)):
            bad("'w3' must be +1 or -1")
        optimal = entry.get("optimal")
        if optimal is not None and not isinstance(optimal, bool):
            bad("'optimal' must be true or false")
        rank = entry.get("analytic_rank")
        if rank is not None and not (_is_int(rank) and rank >= 0):
            bad("'analytic_rank' must be a non-negative integer")
        records.append(
            FixtureCurve(
                label=label,
                ai=tuple(ai),
                torsion=torsion,
                local=local,
                c_inf=c_inf,
                sha=sha,
                optimal=optimal,
                manin=manin,
                analytic_rank=rank,
                w3=w3,
                lmfdb=entry.get("lmfdb"),
            )
        )
    return FixtureTable(records)


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass
class VerdictReport:
    """Per-curve verdict on |torsion| dividing c_inf * c(E), plus classification."""

    minimal_ai: Optional[tuple] = None
    key: Optional[tuple[int, int]] = None
    torsion_shape: Optional[str] = None
    torsion_order: Optional[int] = None
    c_inf: Optional[int] = None
    tamagawa: Optional[int] = None
    tamagawa_factors: Optional[tuple] = None
    divides: Optional[bool] = None
    label: Optional[str] = None
    sha: Optional[int] = None
    optimal: Optional[bool] = None
    manin: Optional[int] = None
    analytic_rank: Optional[int] = None
    classification: Optional[str] = None
    incomplete: bool = False
    params: Optional[dict] = None

    def to_json(self) -> dict:
        out = {
            "minimal_ai": list(self.minimal_ai) if self.minimal_ai else None,
            "c4": self.key[0] if self.key else None,
            "c6": self.key[1] if self.key else None,
            "torsion": self.torsion_shape,
            "torsion_order": self.torsion_order,
            "c_inf": self.c_inf,
            "c": self.tamagawa,
            "c_factors": [list(f) for f in self.tamagawa_factors]
            if self.tamagawa_factors is not None
            else None,
            "divides": self.divides,
            "label": self.label,
            "sha": self.sha,
            "classification": self.classification,
            "incomplete": self.incomplete,
        }
        if self.optimal is not None:
            out["optimal"] = self.optimal
        if self.manin is not None:
            out["manin"] = self.manin
        if self.analytic_rank is not None:
            out["analytic_rank"] = self.analytic_rank
        if self.params is not None:
            out["params"] = self.params
        return out


def three_torsion_form_of(
    curve: WeierstrassCurve, point_xy: tuple[Fraction, Fraction]
) -> ThreeTorsionNormalForm:
    """Normal form of a curve with the given rational point of order 3."""
    x0, y0 = Fraction(point_xy[0]), Fraction(point_xy[1])
    a1, a2, a3, a4, a6 = transform_coefficients(curve.ai(), 1, x0, 0, y0)
    if a6 != 0:
        raise ValueError("point is not on the curve")
    if a3 == 0:
        raise ValueError("point has order 2, not 3")
    s = a4 / a3
    a1, a2, a3, a4, a6 = transform_coefficients((a1, a2, a3, a4, a6), 1, 0, s, 0)
    if a4 != 0 or a6 != 0 or a2 != 0:
        raise ValueError("point does not have order 3")
    return three_torsion_normalize(a1, a3)


def check_divisibility(
    curve: WeierstrassCurve,
    fixtures: Optional[FixtureTable] = None,
    budget: int = 2_000_000,
) -> VerdictReport:
    """Exact divisibility verdict for one curve, fixture-matched when possible."""
    report = VerdictReport()
    try:
        analysis = CurveAnalysis.of(curve, budget=budget)
        m = analysis.minimal
        data = _fill_local_data(report, analysis)
        c = report.tamagawa
        report.tamagawa_factors = factor(c).factors
        tors = torsion_subgroup(m, budget=budget, analysis=analysis)
    except IncompleteFactorizationError:
        report.incomplete = True
        return report
    report.torsion_shape = tors.shape
    report.torsion_order = tors.order
    report.divides = (report.c_inf * c) % tors.order == 0
    rec = fixtures.by_key.get(report.key) if fixtures else None
    if rec is not None:
        report.label = rec.label
        report.sha = rec.sha
        report.optimal = rec.optimal
        report.manin = rec.manin
        report.analytic_rank = rec.analytic_rank
    if tors.order % 3 == 0 and m.j not in (0, 1728):
        report.classification = _classify_three_torsion(m, tors, data, c, rec, budget)
    return report


def _fill_local_data(report: VerdictReport, analysis: CurveAnalysis) -> list[LocalDatum]:
    """Set the minimal model, key, c and c_inf of report; return the local data."""
    m = analysis.minimal
    data = local_data(m, primes=analysis.bad_primes)
    report.minimal_ai, report.key = m.ai(), analysis.key
    report.tamagawa = math.prod(d.tamagawa for d in data)
    report.c_inf = c_infinity(m)
    return data


def classify_three_torsion(
    curve: WeierstrassCurve,
    fixtures: Optional[FixtureTable] = None,
    budget: int = 2_000_000,
) -> VerdictReport:
    """Divisibility verdict and exception-family classification for a 3-torsion curve."""
    report = check_divisibility(curve, fixtures=fixtures, budget=budget)
    if report.incomplete:
        return report
    if report.torsion_order is None or report.torsion_order % 3 != 0:
        raise ValueError("curve has no rational point of order 3")
    m = WeierstrassCurve(*report.minimal_ai)
    if m.j in (0, 1728):
        raise ValueError("classification requires j not in {0, 1728}")
    return report


def _classify_three_torsion(
    m: WeierstrassCurve,
    tors,
    data: list[LocalDatum],
    c: int,
    fixture: Optional[FixtureCurve],
    budget: int,
) -> str:
    if c % 3 == 0:
        return DIVISIBLE

    # 3 does not divide c(E): the normal form must have b = 1
    gen_orders = ((g, _integer_order(m, g)) for g in tors.generators)
    gen, n = next((g, n) for g, n in gen_orders if n % 3 == 0)
    p3 = multiply(m, n // 3, gen)
    form = three_torsion_form_of(m, (p3.x, p3.y))
    if form.b != 1:
        raise RuntimeError(
            f"b = {form.b} > 1 with 3 not dividing c(E) = {c}: contradicts the "
            "unit-b reduction; arithmetic bug"
        )
    pair = hadano_quotient(form, budget=budget)
    for d in data:
        if d.prime != 3 and d.reduction_class == ADDITIVE:
            raise RuntimeError("unit-b curve additive away from 3; arithmetic bug")
    if pair.ratio_ord3 >= 2:
        return SHA_IMPLIED
    datum3 = next((d for d in data if d.prime == 3), None)
    if datum3 is not None and datum3.kodaira.symbol in ("II", "IV"):
        return EXCEPTION_B
    split_count = sum(1 for d in data if d.reduction_class == SPLIT)
    if datum3 is None or datum3.reduction_class in (GOOD, NONSPLIT):
        w3 = 1
    elif datum3.reduction_class == SPLIT:
        # split multiplicative at 3 with 3-torsion forces 3 | c_3
        raise RuntimeError("split at 3 with 3 not dividing c(E); arithmetic bug")
    else:
        w3 = fixture.w3 if fixture is not None and fixture.w3 is not None else None
    if split_count > 1:
        raise RuntimeError(
            "ratio < 2 with two or more split places; contradicts the ledger rules"
        )
    if w3 == 1:
        return EXCEPTION_A
    if w3 == -1:
        return RANK_VIOLATED
    return EXCEPTION_A_CANDIDATE


@dataclass
class ExceptionClass:
    """One isomorphism class found violating a divisibility statement."""

    key: tuple[int, int]
    minimal_ai: tuple
    witnesses: list = field(default_factory=list)
    label: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "c4": self.key[0],
            "c6": self.key[1],
            "minimal_ai": list(self.minimal_ai),
            "witnesses": self.witnesses,
            "label": self.label,
        }


@dataclass
class ScanReport:
    """Outcome of one scan: per-curve reports plus deduped exception classes."""

    name: str
    reports: list[VerdictReport] = field(default_factory=list)
    exceptions: dict[tuple[int, int], ExceptionClass] = field(default_factory=dict)
    mismatches: list[dict] = field(default_factory=list)

    @property
    def incomplete(self) -> bool:
        """Whether the factoring budget ran out on some curve of the scan."""
        return any(r.incomplete for r in self.reports)

    def summary(self) -> dict:
        return {
            "scan": self.name,
            "curves": len(self.reports),
            "exception_classes": sorted(
                (cls.to_json() for cls in self.exceptions.values()),
                key=lambda c: (c["c4"], c["c6"]),
            ),
            "mismatches": self.mismatches,
        }


def _family_report(args) -> tuple[VerdictReport, bool, list]:
    """Minimal model, c(E), c_inf and the family's claim of one curve, analysed once.

    A curve whose factoring budget runs out comes back marked incomplete
    with only its parameters; it never aborts the scan.  In a family whose
    claim is semistable_only, a curve with additive reduction gets
    params["semistable"] = False; a semi-stable one failing the claim is an exception.
    """
    name, params, budget = args
    family = FAMILIES[name]
    report = VerdictReport(params=dict(params))
    try:
        analysis = CurveAnalysis.of(family.curve(params), family.disc(params, budget))
    except IncompleteFactorizationError:
        report.incomplete = True
        return report, False, []
    data = _fill_local_data(report, analysis)
    n, with_c_inf = family.claim
    report.divides = report.tamagawa * (report.c_inf if with_c_inf else 1) % n == 0
    if family.semistable_only and any(d.reduction_class == ADDITIVE for d in data):
        report.params["semistable"] = False
    return report, report.divides is False and "semistable" not in report.params, []


def _scan(
    name: str,
    check: Callable,
    items: list,
    fixtures: Optional[FixtureTable],
    jobs: int,
) -> ScanReport:
    """The one scan loop: check(item) for every item, on up to jobs processes.

    A check is a top-level function returning (report, exception,
    mismatches) for its item: the curve's report, fixture-labelled here;
    whether the curve joins the exception class of its minimal (c4, c6);
    and the mismatches it found.
    """
    scan = ScanReport(name)
    for r, exception, mismatches in _parallel_map(check, items, jobs):
        rec = fixtures.by_key.get(r.key) if fixtures and r.key else None
        if rec:
            r.label = rec.label
        scan.reports.append(r)
        scan.mismatches.extend(mismatches)
        if exception:
            new = ExceptionClass(r.key, r.minimal_ai, label=r.label)
            scan.exceptions.setdefault(r.key, new).witnesses.append(dict(r.params))
    return scan


def _parallel_map(fn: Callable, items: list, jobs: int) -> list:
    if jobs <= 1 or len(items) < 4:
        return [fn(it) for it in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs))))


def scan_four_torsion(
    pairs: Iterable[tuple[int, int]],
    fixtures: Optional[FixtureTable] = None,
    budget: int = 2_000_000,
    jobs: int = 1,
) -> ScanReport:
    """Check 4 | c(E) * c_inf(E) over the order-4 family at the given (s, t)."""
    items = [
        ("four-torsion", {"s": s, "t": t}, budget)
        for s, t in pairs
        if s > 0 and math.gcd(s, t) == 1 and t != 0 and 16 * s + t != 0
    ]
    return _scan("four-torsion", _family_report, items, fixtures, jobs)


def scan_two_six(
    bound: int,
    fixtures: Optional[FixtureTable] = None,
    budget: int = 2_000_000,
    jobs: int = 1,
) -> ScanReport:
    """Check 12 | c(E) for every nonsingular t = a/b with |a|, b <= bound."""
    items = [
        ("two-six", {"t": str(Fraction(a, b))}, budget)
        for b in range(1, bound + 1)
        for a in range(-bound, bound + 1)
        if math.gcd(a, b) == 1 and a not in (0, b, -b) and 3 * a not in (b, -b)
    ]
    return _scan("two-six", _family_report, items, fixtures, jobs)


def scan_two_torsion(
    fixtures: Optional[FixtureTable] = None,
    budget: int = 2_000_000,
    random_samples: int = 200,
    seed: int = 20260809,
    jobs: int = 1,
) -> ScanReport:
    """Enumerate the bounded semi-stable 2-torsion region; 2 | c(E) c_inf expected.

    The finite region is b in {1,2,4,8,16}, a odd (or (0,1)) with a^2 < 4b.
    Curves with a prime of additive reduction fall outside the statement's
    semi-stability hypothesis and are reported but never counted as
    exceptions.  A seeded sample of coprime pairs with a^2 - 4b > 0
    double-checks c_inf = 2 on the positive-discriminant side.
    """
    items = [
        ("two-torsion", {"a": a, "b": b}, budget)
        for b in (1, 2, 4, 8, 16)
        for a in (0, 1, -1, 3, -3, 5, -5, 7, -7)
        if a * a - 4 * b < 0 and math.gcd(a, b) == 1
    ]
    report = _scan("two-torsion", _family_report, items, fixtures, jobs)
    rng = random.Random(seed)
    checked = 0
    while checked < random_samples:
        a = rng.randint(-60, 60)
        b = rng.randint(-60, 60)
        if b == 0 or math.gcd(a, b) != 1 or a * a - 4 * b <= 0:
            continue
        curve = two_torsion_curve(a, b)
        if c_infinity(curve) != 2:
            report.mismatches.append({"a": a, "b": b, "error": "c_inf != 2 with positive disc"})
        checked += 1
    return report


def scan_three_torsion_nonunits(
    a_bound: int = 40,
    b_bound: int = 40,
    budget: int = 2_000_000,
    jobs: int = 1,
) -> ScanReport:
    """For every normalized (a, b) with b > 1: 3 | c(E). Violations mean bugs."""
    items = [
        (a, b, budget) for a, b in _normalized_three_torsion_range(a_bound, b_bound) if b != 1
    ]
    return _scan("three-torsion-nonunit-b", _nonunit_one, items, None, jobs)


def _nonunit_one(args) -> tuple[VerdictReport, bool, list]:
    """c(E) of one normal form and the family's claim on it; nothing else is reported."""
    a, b, budget = args
    report = VerdictReport(params={"a": a, "b": b})
    try:
        data = _three_torsion_local(a, b, budget)
    except IncompleteFactorizationError:
        report.incomplete = True
        return report, False, []
    report.tamagawa = c = math.prod(d.tamagawa for d in data)
    report.divides = c % FAMILIES["three-torsion"].claim[0] == 0
    mismatch = {"a": a, "b": b, "c": c, "error": "3 does not divide c"}
    return report, False, [] if report.divides else [mismatch]


def _three_torsion_local(a: int, b: int, budget: int) -> list[LocalDatum]:
    """tate on the (a, b) normal form at every prime of its discriminant b^3 (a^3 - 27 b).

    The c_p multiply to c(E): tate minimizes at p itself, and c_p = 1 at a good prime.
    """
    family, params = FAMILIES["three-torsion"], {"a": a, "b": b}
    curve = family.curve(params)
    return [tate(curve, p) for p in family.disc(params, budget).primes()]


def _normalized_three_torsion_range(a_bound: int, b_bound: int):
    for a in range(-a_bound, a_bound + 1):
        for b in range(1, b_bound + 1):
            if a**3 == 27 * b:
                continue
            try:
                ThreeTorsionNormalForm(a, b)
            except (ValueError, SingularCurveError):
                continue
            yield a, b


def reduction_table_cross_check(
    a_bound: int = 40,
    b_bound: int = 40,
    budget: int = 2_000_000,
    jobs: int = 1,
) -> ScanReport:
    """Compare Tate output against the three-torsion reduction-type table.

    For each normalized (a, b) and each bad prime, the expected row follows
    from (ord_p a, ord_p b, ord_p D); the v(D) = 3 row at p = 3 admits both
    II and III and either is accepted.
    """
    items = [(a, b, budget) for a, b in _normalized_three_torsion_range(a_bound, b_bound)]
    return _scan("reduction-table", _cross_check_one, items, None, jobs)


def _cross_check_one(args) -> tuple[VerdictReport, bool, list]:
    """Mismatches against the table at every prime of the discriminant."""
    a, b, budget = args
    report = VerdictReport(params={"a": a, "b": b})
    try:
        data = _three_torsion_local(a, b, budget)
    except IncompleteFactorizationError:
        report.incomplete = True
        return report, False, []
    D = a**3 - 27 * b
    mismatches = []
    for datum in data:
        expected = _expected_row(a, b, D, datum.prime)
        if expected is None:
            continue
        kind, symbol, cp, cls = expected
        symbols = symbol if isinstance(symbol, tuple) else (symbol,)
        ok = (
            (symbol is None or datum.kodaira.symbol in symbols)
            and (cp is None or datum.tamagawa == cp)
            and (cls is None or datum.reduction_class == cls)
        )
        if not ok:
            mismatches.append(
                {
                    "a": a,
                    "b": b,
                    "p": datum.prime,
                    "expected": {"row": kind, "kodaira": symbol, "cp": cp, "class": cls},
                    "got": datum.to_json(),
                }
            )
    return report, False, mismatches


def _expected_row(a: int, b: int, D: int, p: int):
    """(row name, symbol(s), cp or None, class or None) for the table, or None.

    p is a prime factor of the discriminant, so it is not re-proved prime;
    b and D are nonzero on a nonsingular normal form.
    """
    va = _int_valuation(a, p)
    vb = _int_valuation(b, p)
    if 3 * va <= vb:
        if 3 * va < vb:
            return ("split-I3vb", f"I{3 * vb}", 3 * vb, SPLIT)
        vD = _int_valuation(D, p)
        if vD > 0:
            return ("I-vD", f"I{vD}", None, None)
        return ("good", "I0", 1, GOOD)
    if vb == 0:
        if p != 3:
            return ("good", "I0", 1, GOOD)
        vD = _int_valuation(D, 3)
        if vD == 3:
            return ("three-ambiguous", ("II", "III"), None, ADDITIVE)
        if vD == 4:
            return ("three-II", "II", None, ADDITIVE)
        if vD == 5:
            return ("three-IV", "IV", None, ADDITIVE)
        return ("three-Istar", f"I{vD - 6}*", None, ADDITIVE)
    if vb == 1:
        return ("IV", "IV", 3, ADDITIVE)
    if vb == 2:
        return ("IVstar", "IV*", 3, ADDITIVE)
    return None


def scan_dual_curves(
    a_values: Iterable[int],
    budget: int = 2_000_000,
    jobs: int = 1,
) -> ScanReport:
    """Quotient identities, split-prime claim, and ledger rules over a range of a."""
    items = [(a, budget) for a in a_values if a != 3]
    return _scan("three-torsion-dual", _dual_one, items, None, jobs)


def _dual_one(args) -> tuple[VerdictReport, bool, list]:
    """Mismatches of the b = 1 normal form at a against its 3-isogeny quotient."""
    a, budget = args
    report = VerdictReport(params={"a": a})
    try:
        pair = hadano_quotient(ThreeTorsionNormalForm(a, 1), budget=budget)
    except IncompleteFactorizationError:
        report.incomplete = True
        return report, False, []
    mismatches = []
    # identity checks beyond the constructor's own: recompute from invariants
    if pair.quotient.disc != (a**3 - 27) ** 3 or pair.quotient.c4 != a * (a**3 + 216):
        mismatches.append({"a": a, "error": "quotient invariant identity failed"})
    # q divides a^2 + 3a + 9, a factor of a^3 - 27, so pair.local covers it
    local = {src.prime: (src, quo) for src, quo in pair.local}
    q = quotient_split_prime(pair)
    if a in (0, 3, -3, -6):
        if q is not None:
            mismatches.append({"a": a, "error": f"expected no split prime, got {q}"})
    else:
        if q is None:
            mismatches.append({"a": a, "error": "expected a split prime, got none"})
        else:
            src, quo = local[q]
            if quo.reduction_class != SPLIT:
                mismatches.append({"a": a, "p": q, "error": "quotient not split multiplicative"})
            if src.reduction_class != SPLIT:
                mismatches.append({"a": a, "p": q, "error": "source not split multiplicative"})
    for p, e in pair.ledger:
        if p == 3:
            continue
        cls = local[p][0].reduction_class
        if cls not in (SPLIT, NONSPLIT):
            mismatches.append({"a": a, "p": p, "error": f"unexpected class {cls} away from 3"})
        elif e != (1 if cls == SPLIT else 0):
            mismatches.append({"a": a, "p": p, "error": f"ledger entry {e} for class {cls}"})
    return report, False, mismatches


# --- presets -----------------------------------------------------------------

# minimal-model (c4, c6) of the known exception curves; filled from the family
# scans themselves and pinned here so preset verdicts need no fixture file
KEY_15A7 = (3841, -238049)
KEY_15A8 = (1, -161)
KEY_17A4 = (33, -81)
KEY_21A4 = (-47, 71)
KEY_24A4 = (-32, -224)
KEY_39A4 = (-23, 235)
KEY_55A4 = (-39, -189)

FOUR_TORSION_EXCEPTIONS = frozenset({KEY_15A7, KEY_15A8, KEY_17A4, KEY_21A4, KEY_24A4})
TWO_TORSION_EXCEPTIONS = frozenset({KEY_15A8, KEY_39A4, KEY_55A4})
NEGATIVE_T_EXPECTED = frozenset({KEY_15A8, KEY_21A4, KEY_24A4})


@dataclass(frozen=True)
class Preset:
    name: str
    run: Callable
    expected: Callable[[ScanReport], bool]
    description: str

    def validate(self, report: ScanReport) -> bool:
        """Every curve was analysed and the scan found what the statement expects."""
        return not report.incomplete and self.expected(report)


def _random_four_torsion_pairs(count: int = 1000, limit: int = 200, seed: int = 20260809):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        s = rng.randint(1, limit)
        t = rng.randint(-limit, limit)
        if t == 0 or 16 * s + t == 0 or math.gcd(s, t) != 1:
            continue
        pairs.append((s, t))
    return pairs


def _presets() -> dict[str, Preset]:
    def negative_t(fixtures, budget, jobs, bound):
        return scan_four_torsion(((1, t) for t in range(-15, 0)), fixtures, budget, jobs)

    def random_region(fixtures, budget, jobs, bound):
        return scan_four_torsion(_random_four_torsion_pairs(), fixtures, budget, jobs)

    def two_six(fixtures, budget, jobs, bound):
        return scan_two_six(bound or 30, fixtures, budget, jobs)

    def two_tors(fixtures, budget, jobs, bound):
        return scan_two_torsion(fixtures, budget, jobs=jobs)

    def nonunit(fixtures, budget, jobs, bound):
        return scan_three_torsion_nonunits(bound or 40, bound or 40, budget, jobs)

    def table(fixtures, budget, jobs, bound):
        return reduction_table_cross_check(bound or 40, bound or 40, budget, jobs)

    def dual(fixtures, budget, jobs, bound):
        n = bound or 100
        return scan_dual_curves(range(-n, n + 1), budget, jobs)

    return {
        "prop2.1-negative-t": Preset(
            "prop2.1-negative-t",
            negative_t,
            lambda rep: set(rep.exceptions) == set(NEGATIVE_T_EXPECTED),
            "order-4 family at s=1, t in {-15..-1}",
        ),
        "prop2.1-random": Preset(
            "prop2.1-random",
            random_region,
            lambda rep: set(rep.exceptions) <= set(FOUR_TORSION_EXCEPTIONS),
            "order-4 family on 1000 seeded coprime (s,t), |s|,|t| <= 200",
        ),
        "prop2.2": Preset(
            "prop2.2",
            two_six,
            lambda rep: not rep.exceptions,
            "Z/2xZ/6 family, all t = a/b up to the bound",
        ),
        "prop2.4": Preset(
            "prop2.4",
            two_tors,
            lambda rep: set(rep.exceptions) == set(TWO_TORSION_EXCEPTIONS)
            and not rep.mismatches,
            "semi-stable 2-torsion enumeration region",
        ),
        "three-torsion-nonunit-b": Preset(
            "three-torsion-nonunit-b",
            nonunit,
            lambda rep: not rep.mismatches,
            "3 | c(E) whenever the normalized cubic has b > 1",
        ),
        "kozuma-table": Preset(
            "kozuma-table",
            table,
            lambda rep: not rep.mismatches,
            "Tate output versus the three-torsion reduction-type table",
        ),
        "dual-ledger": Preset(
            "dual-ledger",
            dual,
            lambda rep: not rep.mismatches,
            "quotient identities, split primes, and the Tamagawa-ratio ledger",
        ),
    }


PRESETS = _presets()
