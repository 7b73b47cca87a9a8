"""Checks of the program's outputs that do not use the program's own logic.

Every invariant here is recomputed from the Weierstrass coefficients with
this file's own formulas, or comes from data the benchmark carries itself
(Cremona coefficients) or from the exported database table
``data/fixtures.json``.  Each check returns a list of error strings; an
empty list means the output passed.
"""

from __future__ import annotations

import json
import math

# Reduced minimal models from Cremona's tables of elliptic curves.
CREMONA_AI = {
    "15a7": (1, 1, 1, -80, 242),
    "15a8": (1, 1, 1, 0, 0),
    "17a4": (1, -1, 1, -1, 0),
    "21a4": (1, 0, 0, 1, 0),
    "24a4": (0, -1, 0, 1, 0),
    "39a4": (1, 1, 0, 1, 0),
    "55a4": (1, -1, 0, 1, 0),
}
PROP_2_1_CLASSES = {"15a7", "15a8", "17a4", "21a4", "24a4"}
EXPECTED_EXCEPTIONS = {
    "prop2.1-negative-t": {"15a8", "21a4", "24a4"},
    "prop2.4": {"15a8", "39a4", "55a4"},
}
# rational torsion every curve of a family carries by construction
FAMILY_TORSION = {"four-torsion": 4, "two-six": 12, "three-torsion": 3, "two-torsion": 2}
GOOD_PRIMES_CHECKED = 4


def invariants(ai) -> tuple[int, int, int]:
    """(c4, c6, discriminant) of y^2 + a1xy + a3y = x^3 + a2x^2 + a4x + a6."""
    a1, a2, a3, a4, a6 = ai
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    disc = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
    return c4, c6, disc


def label_of(ai) -> str | None:
    """Cremona label of a reduced minimal model, among those carried here."""
    for label, coeffs in CREMONA_AI.items():
        if tuple(ai) == coeffs:
            return label
    return None


def exact_root(n: int, k: int) -> int | None:
    """The positive integer r with r^k == n, or None."""
    if n <= 0:
        return None
    r = 1 << -(-n.bit_length() // k)
    while True:  # integer Newton iteration, from above to the floor root
        nxt = ((k - 1) * r + n // r ** (k - 1)) // k
        if nxt >= r:
            break
        r = nxt
    return r if r**k == n else None


def trial_primes(n: int) -> list[int]:
    """Distinct primes of |n| by trial division; for the small parameters only."""
    n = abs(n)
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        primes.append(n)
    return primes


def vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def count_points(ai, p: int) -> int:
    """#E(F_p) for odd p of good reduction, by running over every x."""
    a1, a2, a3, a4, a6 = ai
    total = 1  # the point at infinity
    for x in range(p):
        # y^2 + (a1 x + a3) y - f(x) = 0 has 1 + legendre(disc) roots
        d = (a1 * x + a3) ** 2 + 4 * (x**3 + a2 * x * x + a4 * x + a6)
        total += 1 + legendre(d, p)
    return total


def check_minimal_line(line: dict) -> list[str]:
    """A reported minimal model is reduced, consistent and has the right c_inf."""
    ai = line.get("minimal_ai")
    if ai is None:
        return []
    errors = []
    a1, a2, a3 = ai[0], ai[1], ai[2]
    if a1 not in (0, 1) or a3 not in (0, 1) or a2 not in (-1, 0, 1):
        errors.append(f"minimal_ai {ai} is not reduced")
    c4, c6, disc = invariants(ai)
    if (line.get("c4"), line.get("c6")) != (c4, c6):
        errors.append(f"(c4, c6) = ({line.get('c4')}, {line.get('c6')}) but minimal_ai gives ({c4}, {c6})")
    if disc == 0 or c4**3 - c6 * c6 != 1728 * disc:
        errors.append(f"c4^3 - c6^2 != 1728 disc for {ai}")
    if line.get("c_inf") != (2 if disc > 0 else 1):
        errors.append(f"c_inf = {line.get('c_inf')} but the minimal discriminant is {disc}")
    return errors


def check_four_torsion(s: int, t: int, line: dict) -> list[str]:
    """One curve of the order-4 family y^2 + txy - st^2y = x^3 - stx^2."""
    errors = check_minimal_line(line)
    ai = line.get("minimal_ai")
    if ai is None:
        return errors + [f"(s={s}, t={t}): no minimal model reported"]
    c4, c6, disc = invariants(ai)
    model_disc = s**4 * t**7 * (16 * s + t)
    if disc == 0 or model_disc % disc != 0 or exact_root(model_disc // disc, 12) is None:
        errors.append(f"(s={s}, t={t}): disc(model)/disc_min = {model_disc}/{disc} is no 12th power")
        return errors
    c = line.get("c")
    if not isinstance(c, int) or c < 1:
        return errors + [f"(s={s}, t={t}): c = {c!r}"]
    # multiplicative primes p >= 5: c_p = v if -c6 is a square mod p (split),
    # gcd(2, v) otherwise
    expected = 1
    for p in sorted({q for n in (s, t, 16 * s + t) for q in trial_primes(n)}):
        if p < 5 or c4 % p == 0 or disc % p != 0:
            continue
        v = vp(disc, p)
        expected *= v if legendre(-c6, p) == 1 else math.gcd(2, v)
    if c % expected != 0:
        errors.append(f"(s={s}, t={t}): multiplicative c_p product {expected} does not divide c = {c}")
    return errors


def check_four_torsion_exceptions(exception_classes: list[dict]) -> list[str]:
    """Every exception class of an order-4 scan is one of the five of Prop. 2.1."""
    return [
        f"exception class {cls.get('minimal_ai')} is not a Prop. 2.1 class"
        for cls in exception_classes
        if label_of(cls.get("minimal_ai", ())) not in PROP_2_1_CLASSES
    ]


def parse_scan_output(text: str) -> tuple[list[dict], dict]:
    """Per-curve lines and the summary of one ``tamagawa scan`` run."""
    rows = [json.loads(line) for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("scan printed nothing")
    return rows[:-1], rows[-1]


def check_preset(name: str, exit_code: int, text: str) -> list[str]:
    """One ``tamagawa scan --preset`` run, from its exit code and stdout."""
    if exit_code != 0:
        return [f"{name}: exit code {exit_code}"]
    try:
        lines, summary = parse_scan_output(text)
    except ValueError as e:
        return [f"{name}: unreadable output ({e})"]
    errors = []
    if summary.get("curves") != len(lines):
        errors.append(f"{name}: summary counts {summary.get('curves')} curves, {len(lines)} lines printed")
    modulus = {"prop2.2": 12, "three-torsion-nonunit-b": 3}.get(name)
    for line in lines:
        if modulus and (not isinstance(line.get("c"), int) or line["c"] % modulus):
            errors.append(f"{name}: {modulus} does not divide c = {line.get('c')} at {line.get('params')}")
        errors.extend(f"{name}: {e}" for e in check_minimal_line(line))
    if name in EXPECTED_EXCEPTIONS:
        found = {label_of(cls["minimal_ai"]) for cls in summary.get("exception_classes", [])}
        count = len(summary.get("exception_classes", []))
        if found != EXPECTED_EXCEPTIONS[name] or count != len(found):
            errors.append(f"{name}: exception classes {found} (of {count}), expected {EXPECTED_EXCEPTIONS[name]}")
    return errors


def check_mixed(kind: str, line: dict, fixture: dict | None) -> list[str]:
    """One check_divisibility report; kind is a family name or 'fixture'."""
    if line.get("incomplete"):
        return [f"{kind}: report is incomplete"]
    errors = []
    order = line.get("torsion_order")
    c, c_inf = line.get("c"), line.get("c_inf")
    if not all(isinstance(x, int) and x >= 1 for x in (order, c, c_inf)):
        return [f"{kind}: torsion_order, c, c_inf = {order!r}, {c!r}, {c_inf!r}"]
    if line.get("divides") != ((c_inf * c) % order == 0):
        errors.append(f"{kind}: divides = {line.get('divides')} with c_inf c = {c_inf * c}, |tors| = {order}")
    if kind in FAMILY_TORSION and order % FAMILY_TORSION[kind]:
        errors.append(f"{kind}: torsion order {order} is not a multiple of {FAMILY_TORSION[kind]}")
    if fixture is not None:
        if "torsion" in fixture and line.get("torsion") != fixture["torsion"]:
            errors.append(f"{fixture['label']}: torsion {line.get('torsion')}, database {fixture['torsion']}")
        if "c_inf" in fixture and c_inf != fixture["c_inf"]:
            errors.append(f"{fixture['label']}: c_inf {c_inf}, database {fixture['c_inf']}")
        if "local" in fixture and c != math.prod(item["cp"] for item in fixture["local"]):
            errors.append(f"{fixture['label']}: c = {c}, database {math.prod(i['cp'] for i in fixture['local'])}")
    ai = line.get("minimal_ai")
    disc = invariants(ai)[2] if ai else 0
    if not disc:
        return errors + [f"{kind}: no usable minimal model {ai}"]
    p, checked = 3, 0
    while checked < GOOD_PRIMES_CHECKED:
        if disc % p and all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            n = count_points(ai, p)
            if n % order:
                errors.append(f"{kind}: |tors| = {order} does not divide #E(F_{p}) = {n}")
            checked += 1
        p += 2
    return errors
