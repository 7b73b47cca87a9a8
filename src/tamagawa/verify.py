"""Mechanical checks of the divisibility statements over finite parameter ranges.

Each scan sweeps one parametrized family, recomputes local data exactly, and
collects the isomorphism classes violating the claimed divisibility.  Known
exception curves are matched by the (c4, c6) of the global minimal model;
labels come from a user-supplied fixture file and are never parsed for
mathematical content.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Optional

from .arith import IncompleteFactorizationError, _int_valuation, factor, is_prime
from .curves import (
    CurveAnalysis,
    SingularCurveError,
    WeierstrassCurve,
    change_coordinates,
)
from .families import (
    FAMILIES,
    IsogenyPair,
    ThreeTorsionNormalForm,
    hadano_quotient,
    quotient_split_prime,
    three_torsion_normalize,
)
from .record import Record
from .reduction import (
    ADDITIVE,
    GOOD,
    NONSPLIT,
    SPLIT,
    KodairaType,
    LocalDatum,
    c_infinity,
    local_data,
    semistable_root_number,
    tate,
)
from .torsion import MAZUR_SHAPES, TorsionStructure, _point_of_order, torsion_subgroup

DIVISIBLE = "divisible"
SHA_IMPLIED = "ratio-ge-2-implies-9-divides-sha"
EXCEPTION_A = "exception-a"
EXCEPTION_B = "exception-b"
EXCEPTION_A_CANDIDATE = "exception-a-candidate-w3-unknown"
RANK_VIOLATED = "rank-hypothesis-violated"

# seed of prop2.1-random's sample of (s, t)
SEED = 20260809


class FixtureValidationError(ValueError):
    pass


class FixtureCurve(Record):
    """One exported database curve with its expected data.

    Construction checks every field and raises FixtureValidationError naming
    the label on the first bad one; ai becomes a tuple, local a tuple of dicts.
    """

    _fields = (
        "label", "ai", "torsion", "local", "c_inf", "sha",
        "optimal", "manin", "analytic_rank", "w3", "lmfdb",
    )

    def __init__(
        self,
        label: str,
        ai: tuple[int, int, int, int, int],
        torsion: Optional[str] = None,
        local: Optional[tuple[dict, ...]] = None,
        c_inf: Optional[int] = None,
        sha: Optional[int] = None,
        optimal: Optional[bool] = None,
        manin: Optional[int] = None,
        analytic_rank: Optional[int] = None,
        w3: Optional[int] = None,
        lmfdb: Optional[str] = None,
    ):
        def bad(msg: str):
            raise FixtureValidationError(f"fixture {label!r}: {msg}")

        if not (isinstance(label, str) and label):
            bad("'label' must be a non-empty string")
        if not (isinstance(ai, (list, tuple)) and len(ai) == 5 and all(_is_int(k) for k in ai)):
            bad("'ai' must be a list of 5 integers")
        try:
            curve = WeierstrassCurve(*ai)
        except SingularCurveError:
            bad("coefficients define a singular curve")
        if torsion is not None and not (isinstance(torsion, str) and torsion in MAZUR_SHAPES):
            bad(f"torsion shape {torsion!r} is not a possible rational torsion group")
        if local is not None:
            if not (isinstance(local, (list, tuple)) and all(isinstance(i, dict) for i in local)):
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
        if c_inf is not None and not (_is_int(c_inf) and c_inf in (1, 2)):
            bad("'c_inf' must be 1 or 2")
        if sha is not None and not (_is_int(sha) and sha >= 1):
            bad("'sha' must be a positive integer")
        if manin is not None and not (_is_int(manin) and manin >= 1):
            bad("'manin' must be a positive integer")
        if w3 is not None and not (_is_int(w3) and w3 in (1, -1)):
            bad("'w3' must be +1 or -1")
        if optimal is not None and not isinstance(optimal, bool):
            bad("'optimal' must be true or false")
        if analytic_rank is not None and not (_is_int(analytic_rank) and analytic_rank >= 0):
            bad("'analytic_rank' must be a non-negative integer")
        if lmfdb is not None and not isinstance(lmfdb, str):
            bad("'lmfdb' must be a string")
        values = (
            label, tuple(ai), torsion, local, c_inf, sha, optimal, manin, analytic_rank, w3, lmfdb
        )
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        # the checked curve, kept outside _fields as WeierstrassCurve keeps its invariants
        object.__setattr__(self, "curve", curve)

    def __hash__(self):
        # local holds dicts, which do not hash; records equal on every field
        # are equal on the others too, so the hash still agrees with ==
        return hash(tuple(getattr(self, name) for name in self._fields if name != "local"))


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
    """Load a fixture JSON file; each record validates itself and fails loudly by label.

    Keys that are not FixtureCurve fields are ignored.
    """
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, list):
        raise FixtureValidationError("fixture file must contain a JSON array")
    names = set(FixtureCurve._fields) - {"label", "ai"}
    records = []
    for index, entry in enumerate(raw):
        if not isinstance(entry, dict):
            raise FixtureValidationError(f"fixture record {index} must be a JSON object: {entry!r}")
        optional = {k: v for k, v in entry.items() if k in names}
        records.append(FixtureCurve(label=entry.get("label"), ai=entry.get("ai"), **optional))
    return FixtureTable(records)


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)


class VerdictReport(NamedTuple):
    """Per-curve verdict on |torsion| dividing c_inf * c(E), plus classification.

    Built once per curve by the check that analysed it; a field the check
    does not compute stays None.  Unhashable by declaration: params is a
    dict, but a check_divisibility verdict has params None and would hash.
    """

    minimal_ai: Optional[tuple] = None
    key: Optional[tuple[int, int]] = None
    torsion: Optional[TorsionStructure] = None
    c_inf: Optional[int] = None
    tamagawa: Optional[int] = None
    tamagawa_factors: Optional[tuple] = None
    divides: Optional[bool] = None
    label: Optional[str] = None
    # the matched fixture record, set by check_divisibility only; scans keep the label alone
    fixture: Optional[FixtureCurve] = None
    classification: Optional[str] = None
    incomplete: bool = False
    params: Optional[dict] = None

    __hash__ = None

    def to_json(self) -> dict:
        tors, rec = self.torsion, self.fixture
        out = {
            "minimal_ai": list(self.minimal_ai) if self.minimal_ai else None,
            "c4": self.key[0] if self.key else None,
            "c6": self.key[1] if self.key else None,
            "torsion": tors.shape if tors else None,
            "torsion_order": tors.order if tors else None,
            "c_inf": self.c_inf,
            "c": self.tamagawa,
            "c_factors": [list(f) for f in self.tamagawa_factors]
            if self.tamagawa_factors is not None
            else None,
            "divides": self.divides,
            "label": self.label,
            "sha": rec.sha if rec else None,
            "classification": self.classification,
            "incomplete": self.incomplete,
        }
        for name in ("optimal", "manin", "analytic_rank"):
            if rec and getattr(rec, name) is not None:
                out[name] = getattr(rec, name)
        if self.params is not None:
            out["params"] = self.params
        return out


def three_torsion_form_of(
    curve: WeierstrassCurve, point_xy: tuple[Fraction, Fraction]
) -> ThreeTorsionNormalForm:
    """Normal form of a curve with the given rational point of order 3.

    A point of order 3 on an integral model is integral (Silverman, AEC,
    VIII.7.1), and the second shift s is then an integer root of
    s^2 + a1 s - a2, so both shifts run in integers; a point that is not
    integral raises ValueError at once.
    """
    x0, y0 = Fraction(point_xy[0]), Fraction(point_xy[1])
    if x0.denominator != 1 or y0.denominator != 1:
        raise ValueError("point is not integral, so not of order 3")
    a1, a2, a3, a4, a6 = change_coordinates(curve.ai(), x0.numerator, 0, y0.numerator)
    if a6 != 0:
        raise ValueError("point is not on the curve")
    if a3 == 0:
        raise ValueError("point has order 2, not 3")
    # a3 divides a4 at a point of order 3; otherwise a4 keeps the remainder
    a1, a2, a3, a4, a6 = change_coordinates((a1, a2, a3, a4, a6), 0, a4 // a3, 0)
    if a4 != 0 or a6 != 0 or a2 != 0:
        raise ValueError("point does not have order 3")
    return three_torsion_normalize(a1, a3)


def check_divisibility(
    curve: WeierstrassCurve, fixtures: Optional[FixtureTable] = None
) -> VerdictReport:
    """Exact divisibility verdict for one curve, fixture-matched when possible."""
    try:
        analysis = CurveAnalysis.of(curve)
        m = analysis.minimal
        # disc_min was checked when the analysis built it, so tate trusts each (p, e) as is
        data = [tate(m, p, e) for p, e in analysis.disc_min.factors]
        c = math.prod(d.tamagawa for d in data)
        c_factors = factor(c).factors
    except IncompleteFactorizationError:
        return VerdictReport(incomplete=True)
    rec = fixtures.by_key.get(analysis.key) if fixtures else None
    c_inf = c_infinity(m)
    tors = torsion_subgroup(m)
    classification = None
    # j = c4^3 / disc and c4^3 - c6^2 = 1728 disc: j = 0 iff c4 = 0, j = 1728 iff c6 = 0
    if tors.order % 3 == 0 and m.c4 and m.c6:
        classification = _classify_three_torsion(m, data, c, tors, rec)
    return VerdictReport(
        m.ai(), analysis.key, tors, c_inf, c, c_factors, (c_inf * c) % tors.order == 0,
        rec.label if rec else None, rec, classification,
    )


def _classify_three_torsion(
    m: WeierstrassCurve,
    data: list[LocalDatum],
    c: int,
    tors: TorsionStructure,
    rec: Optional[FixtureCurve],
) -> str:
    """Exception family of minimal m, with local data, c(E) = c, torsion tors and fixture rec.

    3 divides the order of tors.
    """
    if c % 3 == 0:
        return DIVISIBLE

    # 3 does not divide c(E): the normal form must have b = 1.  The first
    # generator has the largest order, which 3 divides; the second, if any, has order 2
    p3 = _point_of_order(m, tors.generators[0], 3)
    form = three_torsion_form_of(m, (p3.x, p3.y))
    if form.b != 1:
        raise RuntimeError(
            f"b = {form.b} > 1 with 3 not dividing c(E) = {c}: contradicts the "
            "unit-b reduction; arithmetic bug"
        )
    pair = hadano_quotient(form)
    for d in data:
        if d.prime != 3 and d.reduction_class == ADDITIVE:
            raise RuntimeError("unit-b curve additive away from 3; arithmetic bug")
    if pair.ratio_ord3 >= 2:
        # 9 | Sha follows from BSD at rank 0, and a semistable curve with
        # root number -1 is outside that hypothesis
        if semistable_root_number(data) == -1:
            return RANK_VIOLATED
        return SHA_IMPLIED
    datum3 = next((d for d in data if d.prime == 3), None)
    if datum3 is not None and datum3.kodaira.symbol in ("II", "IV"):
        return EXCEPTION_B
    if datum3 is None or datum3.reduction_class in (GOOD, NONSPLIT):
        w3 = 1
    elif datum3.reduction_class == SPLIT:
        # split multiplicative at 3 with 3-torsion forces 3 | c_3
        raise RuntimeError("split at 3 with 3 not dividing c(E); arithmetic bug")
    else:
        w3 = rec.w3 if rec else None
    if sum(1 for d in data if d.reduction_class == SPLIT) > 1:
        raise RuntimeError(
            "ratio < 2 with two or more split places; contradicts the ledger rules"
        )
    if w3 == 1:
        return EXCEPTION_A
    if w3 == -1:
        return RANK_VIOLATED
    return EXCEPTION_A_CANDIDATE


class ExceptionClass(NamedTuple):
    """One isomorphism class found violating a divisibility statement.

    Unhashable, since witnesses is a list: the scan appends each witness's params.
    """

    key: tuple[int, int]
    minimal_ai: tuple
    witnesses: list
    label: Optional[str] = None

    def to_json(self) -> dict:
        return {
            "c4": self.key[0],
            "c6": self.key[1],
            "minimal_ai": list(self.minimal_ai),
            "witnesses": self.witnesses,
            "label": self.label,
        }


class ScanReport(NamedTuple):
    """Outcome of one scan: per-curve reports plus deduped exception classes.

    Unhashable, since it holds lists and a dict.
    """

    name: str
    reports: list[VerdictReport]
    exceptions: dict[tuple[int, int], ExceptionClass]
    mismatches: list[dict]

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


# Curves a scan hands each check at once, the unit of its stages and of the
# --jobs pool.  The prop2.1-random, prop2.2, three-torsion-nonunit-b,
# kozuma-table and dual-ledger presets together, in one process on a 2-core
# machine (medians of 9 runs): chunks of 1, 8, 16, 32, 64, 128 and 1,024
# took 233, 196, 189, 182, 183, 183 and 186 ms; 32 is the smallest at the floor.
CHUNK = 32


def _scan(name: str, check: Callable, params: list[dict], jobs: int) -> ScanReport:
    """The one scan loop: check(chunk) on every CHUNK consecutive params, on up to jobs processes.

    A check is a top-level function, bare or bound with functools.partial, so
    that it pickles.  It runs stage by stage over its chunk: it builds every
    curve, factors every discriminant, analyses every curve, runs `tate` at
    every (p, e) of every curve, and then builds the reports.  It returns one
    entry per params, in order: the curve's report, whether the curve joins
    the exception class of its minimal (c4, c6), and the mismatches it
    found; a check may add keys to the params its report carries.

    The factoring stage catches IncompleteFactorizationError curve by curve
    (`_budgeted`), and the entry of a curve whose budget ran out is None:
    that curve is reported incomplete with only its params.  Its neighbours
    in the chunk are untouched, no discriminant is factored twice, and the
    scan never aborts.

    Why stages: they make the same calls with the same arguments as one
    curve at a time, only in another order.  One scan_four_torsion of the
    benchmark's 2,000 seed-1 four-torsion-wide pairs took, in medians of 9
    runs in each of 5 alternating processes on a 2-core machine, 116-134 ms
    one curve at a time and 110-143 ms in chunks whose check still ran each
    curve start to finish, so fewer calls alone gain nothing; stage by stage
    it took 90-100 ms.  The mechanism is not verified; most likely each
    stage's code and caches stay warm in the interpreter.
    """
    chunks = [params[i : i + CHUNK] for i in range(0, len(params), CHUNK)]
    reports, exceptions, found = [], {}, []
    for chunk, results in zip(chunks, _parallel_map(check, chunks, jobs)):
        for given, result in zip(chunk, results):
            if result is None:
                reports.append(VerdictReport(params=given, incomplete=True))
                continue
            r, exception, mismatches = result
            reports.append(r)
            found.extend(mismatches)
            if exception:
                cls = exceptions.get(r.key)
                if cls is None:
                    cls = exceptions[r.key] = ExceptionClass(r.key, r.minimal_ai, [], r.label)
                cls.witnesses.append(dict(r.params))
    return ScanReport(name, reports, exceptions, found)


def _budgeted(fn: Callable, items: list) -> list:
    """[fn(x) for x in items], with None for each x whose factoring budget ran out."""
    out = []
    for x in items:
        try:
            out.append(fn(x))
        except IncompleteFactorizationError:
            out.append(None)
    return out


def _family_check(name: str, fixtures: Optional[FixtureTable], chunk: list[dict]) -> list:
    """Minimal model, c(E), c_inf and the family's claim of every curve of chunk, in stages.

    A report is labelled from fixtures.  In a family whose claim is
    semistable_only, a curve with additive reduction gets params["semistable"]
    = False; a semi-stable one failing the claim is an exception.
    """
    family = FAMILIES[name]
    curves = [family.curve(params) for params in chunk]
    discs = _budgeted(family.disc, chunk)
    analyses = [None if d is None else CurveAnalysis.of(c, d) for c, d in zip(curves, discs)]
    # disc_min was checked when the analysis built it, so tate trusts each (p, e) as is
    local = [
        None if a is None else [tate(a.minimal, p, e) for p, e in a.disc_min.factors]
        for a in analyses
    ]
    n, with_c_inf = family.claim
    by_key = fixtures.by_key if fixtures else {}
    results = []
    for params, analysis, data in zip(chunk, analyses, local):
        if analysis is None:
            results.append(None)
            continue
        m, key = analysis.minimal, analysis.key
        c, c_inf = math.prod(d.tamagawa for d in data), c_infinity(m)
        divides = c * (c_inf if with_c_inf else 1) % n == 0
        if family.semistable_only and any(d.reduction_class == ADDITIVE for d in data):
            params["semistable"] = False
        rec = by_key.get(key)
        report = VerdictReport(
            m.ai(), key, None, c_inf, c, None, divides, rec.label if rec else None, params=params
        )
        results.append((report, not divides and "semistable" not in params, []))
    return results


def _parallel_map(fn: Callable, items: list, jobs: int) -> list:
    """[fn(it) for it in items], over a pool of min(jobs, items, CPUs) workers.

    The pool gets no more workers than there are items (a scan's chunks) or
    CPUs: a pool started by fork launches all its workers at the first
    submit, so --jobs 5000 would otherwise fork 5000.  With fewer than two
    workers the items run in this process, as a lone worker would only add
    a fork: a scan of at most CHUNK curves is one chunk.  The pool module is
    imported only when a pool starts: at import it loads multiprocessing,
    logging, subprocess, socket and pickle, which took about 40% of a fresh
    `import tamagawa` plus fixture load (about 20 ms) while `check`,
    `localdata`, `torsion`, `dual3` and every scan at the default --jobs 1
    never start a pool.
    """
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers < 2:
        return [fn(it) for it in items]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=max(1, len(items) // (4 * workers))))


def scan_four_torsion(
    pairs: Iterable[tuple[int, int]],
    fixtures: Optional[FixtureTable] = None,
    jobs: int = 1,
) -> ScanReport:
    """Check 4 | c(E) * c_inf(E) over the order-4 family at the given (s, t)."""
    params = [
        {"s": s, "t": t}
        for s, t in pairs
        if s > 0 and math.gcd(s, t) == 1 and t != 0 and 16 * s + t != 0
    ]
    check = functools.partial(_family_check, "four-torsion", fixtures)
    return _scan("four-torsion", check, params, jobs)


def scan_two_six(
    bound: int,
    fixtures: Optional[FixtureTable] = None,
    jobs: int = 1,
) -> ScanReport:
    """Check 12 | c(E) for every nonsingular t = a/b with |a|, b <= bound."""
    params = [
        {"t": str(Fraction(a, b))}
        for b in range(1, bound + 1)
        for a in range(-bound, bound + 1)
        if math.gcd(a, b) == 1 and a not in (0, b, -b) and 3 * a not in (b, -b)
    ]
    check = functools.partial(_family_check, "two-six", fixtures)
    return _scan("two-six", check, params, jobs)


def scan_two_torsion(
    fixtures: Optional[FixtureTable] = None,
    jobs: int = 1,
) -> ScanReport:
    """Enumerate the bounded semi-stable 2-torsion region; 2 | c(E) c_inf expected.

    The finite region is b in {1,2,4,8,16}, a odd (or (0,1)) with a^2 < 4b.
    Curves with a prime of additive reduction fall outside the statement's
    semi-stability hypothesis and are reported but never counted as
    exceptions.  Pairs with a^2 - 4b > 0 need no scan: their discriminant
    16 b^2 (a^2 - 4b) is positive, so c_inf = 2 and the claim holds.
    """
    params = [
        {"a": a, "b": b}
        for b in (1, 2, 4, 8, 16)
        for a in (0, 1, -1, 3, -3, 5, -5, 7, -7)
        if a * a - 4 * b < 0 and math.gcd(a, b) == 1
    ]
    check = functools.partial(_family_check, "two-torsion", fixtures)
    return _scan("two-torsion", check, params, jobs)


def scan_three_torsion_nonunits(bound: int = 40, jobs: int = 1) -> ScanReport:
    """3 | c(E) for every normalized (a, b) with 1 < b <= bound, |a| <= bound.

    Violations mean bugs.
    """
    params = [{"a": a, "b": b} for a, b in _normalized_three_torsion_range(bound) if b != 1]
    return _scan("three-torsion-nonunit-b", _nonunit_check, params, jobs)


def _nonunit_check(chunk: list[dict]) -> list:
    """c(E) of every normal form of chunk and the family's claim on it; nothing else is reported."""
    n = FAMILIES["three-torsion"].claim[0]
    results = []
    for params, local in zip(chunk, _three_torsion_local(chunk)):
        if local is None:
            results.append(None)
            continue
        _, data = local
        c = math.prod(d.tamagawa for d in data)
        divides = c % n == 0
        report = VerdictReport(tamagawa=c, divides=divides, params=params)
        if divides:
            results.append((report, False, []))
            continue
        mismatch = {"a": params["a"], "b": params["b"], "c": c, "error": "3 does not divide c"}
        results.append((report, False, [mismatch]))
    return results


def _three_torsion_local(chunk: list[dict]) -> list:
    """(factored discriminant, local data) of every (a, b) normal form of chunk, in stages.

    Every discriminant b^3 (a^3 - 27 b) is factored before any data are
    read at its primes; the entry of a curve whose factoring budget ran out
    is None.  The c_p multiply to c(E): tate minimizes at p itself, and
    c_p = 1 at a good prime.
    """
    family = FAMILIES["three-torsion"]
    curves = [family.curve(params) for params in chunk]
    discs = _budgeted(family.disc, chunk)
    return [None if d is None else (d, local_data(c, disc=d)) for c, d in zip(curves, discs)]


def _normalized_three_torsion_range(bound: int):
    for a in range(-bound, bound + 1):
        for b in range(1, bound + 1):
            try:
                ThreeTorsionNormalForm(a, b)
            except ValueError:
                continue
            yield a, b


def reduction_table_cross_check(bound: int = 40, jobs: int = 1) -> ScanReport:
    """Compare Tate output against the three-torsion reduction-type table.

    For each normalized (a, b) with |a|, b <= bound and each bad prime, the expected row follows
    from (ord_p a, ord_p b, ord_p D); the v(D) = 3 row at p = 3 admits both
    II and III and either is accepted.
    """
    params = [{"a": a, "b": b} for a, b in _normalized_three_torsion_range(bound)]
    return _scan("reduction-table", _cross_check, params, jobs)


def _cross_check(chunk: list[dict]) -> list:
    """Mismatches against the table at every prime of every discriminant of chunk."""
    results = []
    for params, local in zip(chunk, _three_torsion_local(chunk)):
        if local is None:
            results.append(None)
            continue
        a, b = params["a"], params["b"]
        disc, data = local
        mismatches = []
        for (p, e), datum in zip(disc.factors, data):
            kind, symbol, cp, cls = _expected_row(a, b, p, e)
            symbols = symbol if isinstance(symbol, tuple) else (symbol,)
            ok = (
                datum.kodaira.symbol in symbols
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
        results.append((VerdictReport(params=params), False, mismatches))
    return results


def _expected_row(a: int, b: int, p: int, e: int):
    """(row name, symbol(s), cp or None, class or None) of the table at p.

    p is a prime factor of the discriminant b^3 D, D = a^3 - 27 b, with
    exponent e, so it is not re-proved prime and ord_p D = e - 3 ord_p b.
    b and D are nonzero on a nonsingular normal form, and no q has q | a and
    q^3 | b.  3 ord_p a is set against ord_p b by residues of a, so a = 0
    needs no valuation.  Every such p has a row:
    - 3 ord_p a = ord_p b only when both are 0 (else p | a and p^3 | b), and
      then p | D;
    - 3 ord_p a > ord_p b means p | a, so ord_p b <= 2, and ord_p b = 0 forces
      p = 3, since D = -27b (mod p) and p divides b^3 D but not b.
    """
    vb = _int_valuation(b, p)
    # 3 ord_p a < ord_p b iff p^k does not divide a, for k = ceil(ord_p b / 3)
    k = -(-vb // 3)
    if a % p**k:
        return ("split-I3vb", f"I{3 * vb}", 3 * vb, SPLIT)
    vD = e - 3 * vb
    # 3 ord_p a = ord_p b iff 3 | ord_p b and p^(k + 1) does not divide a
    if vb % 3 == 0 and a % p ** (k + 1):
        return ("I-vD", f"I{vD}", None, None)
    if vb == 0:
        if vD == 3:
            return ("three-ambiguous", ("II", "III"), None, ADDITIVE)
        if vD == 4:
            return ("three-II", "II", None, ADDITIVE)
        if vD == 5:
            return ("three-IV", "IV", None, ADDITIVE)
        return ("three-Istar", f"I{vD - 6}*", None, ADDITIVE)
    if vb == 1:
        return ("IV", "IV", 3, ADDITIVE)
    return ("IVstar", "IV*", 3, ADDITIVE)


def scan_dual_curves(a_values: Iterable[int], jobs: int = 1) -> ScanReport:
    """Split-prime claim and ledger rules over a range of a.

    hadano_quotient itself raises if the quotient's invariant identities fail.
    """
    params = [{"a": a} for a in a_values if a != 3]
    return _scan("three-torsion-dual", _dual_check, params, jobs)


def _dual_check(chunk: list[dict]) -> list:
    """Mismatches of every b = 1 normal form of chunk against its 3-isogeny quotient, in stages.

    hadano_quotient factors a^3 - 27 and runs tate on both curves, so it is
    the stage that factors.
    """
    forms = [ThreeTorsionNormalForm(params["a"], 1) for params in chunk]
    pairs = _budgeted(hadano_quotient, forms)
    return [
        None if pair is None else (VerdictReport(params=params), False, _dual_mismatches(pair))
        for params, pair in zip(chunk, pairs)
    ]


def _dual_mismatches(pair: IsogenyPair) -> list[dict]:
    """The split-prime claim and the ledger rules checked on one source and quotient."""
    a = pair.source.a
    mismatches = []
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
    return mismatches


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


class Preset(NamedTuple):
    """One scan of PRESETS: run(fixtures, jobs, bound) and the verdict it must reach.

    bound is the default of `tamagawa scan --bound`; None for a scan of a
    fixed set of curves, which refuses the flag.
    """

    run: Callable
    expected: Callable[[ScanReport], bool]
    bound: Optional[int] = None

    def validate(self, report: ScanReport) -> bool:
        """Every curve was analysed and the scan found what the statement expects."""
        return not report.incomplete and self.expected(report)


RANDOM_PAIRS = 1000
RANDOM_LIMIT = 200


def _random_four_torsion_pairs():
    """RANDOM_PAIRS seeded coprime (s, t) with 0 < s, |t| <= RANDOM_LIMIT."""
    rng = random.Random(SEED)
    pairs = []
    while len(pairs) < RANDOM_PAIRS:
        s = rng.randint(1, RANDOM_LIMIT)
        t = rng.randint(-RANDOM_LIMIT, RANDOM_LIMIT)
        if t == 0 or 16 * s + t == 0 or math.gcd(s, t) != 1:
            continue
        pairs.append((s, t))
    return pairs


PRESETS = {
    # order-4 family at s=1, t in {-15..-1}
    "prop2.1-negative-t": Preset(
        lambda fixtures, jobs, bound: scan_four_torsion(
            ((1, t) for t in range(-15, 0)), fixtures, jobs
        ),
        lambda rep: set(rep.exceptions) == NEGATIVE_T_EXPECTED,
    ),
    # order-4 family on 1000 seeded coprime (s,t), |s|,|t| <= 200
    "prop2.1-random": Preset(
        lambda fixtures, jobs, bound: scan_four_torsion(
            _random_four_torsion_pairs(), fixtures, jobs
        ),
        lambda rep: set(rep.exceptions) <= FOUR_TORSION_EXCEPTIONS,
    ),
    # Z/2xZ/6 family, all t = a/b up to the bound
    "prop2.2": Preset(
        lambda fixtures, jobs, bound: scan_two_six(bound, fixtures, jobs),
        lambda rep: not rep.exceptions,
        30,
    ),
    # semi-stable 2-torsion enumeration region
    "prop2.4": Preset(
        lambda fixtures, jobs, bound: scan_two_torsion(fixtures, jobs),
        lambda rep: set(rep.exceptions) == TWO_TORSION_EXCEPTIONS and not rep.mismatches,
    ),
    # 3 | c(E) whenever the normalized cubic has b > 1
    "three-torsion-nonunit-b": Preset(
        lambda fixtures, jobs, bound: scan_three_torsion_nonunits(bound, jobs),
        lambda rep: not rep.mismatches,
        40,
    ),
    # Tate output versus the three-torsion reduction-type table
    "kozuma-table": Preset(
        lambda fixtures, jobs, bound: reduction_table_cross_check(bound, jobs),
        lambda rep: not rep.mismatches,
        40,
    ),
    # quotient identities, split primes, and the Tamagawa-ratio ledger
    "dual-ledger": Preset(
        lambda fixtures, jobs, bound: scan_dual_curves(range(-bound, bound + 1), jobs),
        lambda rep: not rep.mismatches,
        100,
    ),
}
