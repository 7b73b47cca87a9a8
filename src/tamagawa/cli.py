"""Command-line surface: JSON in, JSON out, deterministic byte-for-byte.

Exit codes: 0 success, 1 a scan found violations outside the expected
exception set, 2 usage or input error, 3 factorization budget exhausted.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import IncompleteFactorizationError
from .curves import CurveAnalysis, SingularCurveError, WeierstrassCurve, minimal_model
from .families import FAMILIES, ThreeTorsionNormalForm, hadano_quotient, quotient_split_prime
from .reduction import c_infinity, local_data
from .torsion import torsion_subgroup
from .verify import PRESETS, FixtureValidationError, check_divisibility, ingest_fixtures

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


def _emit(payload, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))


def _parse_ai(text: str) -> WeierstrassCurve:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("--ai needs 5 comma-separated integers a1,a2,a3,a4,a6")
    return WeierstrassCurve(*(int(p.strip()) for p in parts))


def _join_ai(argv: list[str]) -> list[str]:
    """Join "--ai X" into "--ai=X": argparse reads an X with a negative a1 as a flag."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--ai" and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"--ai={arg}"
        else:
            out.append(arg)
    return out


def _curve_from_args(args) -> WeierstrassCurve:
    if args.ai is not None:
        return _parse_ai(args.ai)
    if args.family is None:
        raise ValueError("provide --ai or --family")
    family = FAMILIES[args.family]
    params = {name: getattr(args, name) for name in family.params}
    if None in params.values():
        flags = " and ".join(f"--{name}" for name in family.params)
        raise ValueError(f"--family {args.family} needs {flags}")
    return family.curve(params)


def _fixtures_from_args(args):
    path = args.fixtures or os.environ.get("TAMAGAWA_FIXTURES")
    if not path:
        return None
    return ingest_fixtures(path)


def _add_curve_args(sub):
    sub.add_argument("--ai", help="a1,a2,a3,a4,a6")
    sub.add_argument("--family", choices=list(FAMILIES))
    sub.add_argument("--s", type=int)
    sub.add_argument("--t", help="integer or rational like 7/3")
    sub.add_argument("--a", type=int)
    sub.add_argument("--b", type=int)


def main(argv=None) -> int:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indent JSON output")
    common.add_argument("--fixtures", help="fixture JSON path (default: $TAMAGAWA_FIXTURES)")

    parser = argparse.ArgumentParser(
        prog="tamagawa",
        description="Exact local data of elliptic curves over Q and family scans",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_local = sub.add_parser(
        "localdata", parents=[common], help="Kodaira types and Tamagawa numbers"
    )
    _add_curve_args(p_local)
    p_local.add_argument("--p", type=int, action="append", help="prime (repeatable)")

    p_tors = sub.add_parser("torsion", parents=[common], help="rational torsion subgroup")
    _add_curve_args(p_tors)

    p_check = sub.add_parser(
        "check", parents=[common], help="divisibility verdict for one curve"
    )
    _add_curve_args(p_check)

    p_dual = sub.add_parser(
        "dual3", parents=[common], help="3-isogeny quotient of y^2 + a xy + y = x^3"
    )
    p_dual.add_argument("--a", type=int, required=True)

    p_scan = sub.add_parser("scan", parents=[common], help="family scans")
    p_scan.add_argument("--preset", required=True, choices=sorted(PRESETS))
    p_scan.add_argument("--bound", type=int)
    p_scan.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p_scan.add_argument("--summary", action="store_true", help="aggregate counts only")

    sub.add_parser("fixtures", parents=[common], help="validate and summarize a fixture file")

    args = parser.parse_args(_join_ai(sys.argv[1:] if argv is None else list(argv)))

    try:
        fixtures = _fixtures_from_args(args)
    except (OSError, FixtureValidationError, json.JSONDecodeError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "localdata":
            curve = _curve_from_args(args)
            if args.p:
                # the named primes need no factored discriminant
                primes, minimal = args.p, minimal_model(curve)[0]
            else:
                analysis = CurveAnalysis.of(curve)
                primes, minimal = analysis.bad_primes, analysis.minimal
            data = local_data(curve, primes=primes)
            payload = {
                "curve": list(curve.ai()),
                "minimal": list(minimal.ai()),
                "local": [d.to_json() for d in data],
                "c_inf": c_infinity(curve),
                "c": 1,
            }
            for d in data:
                payload["c"] *= d.tamagawa
            _emit(payload, args.pretty)
            return EXIT_OK

        if args.command == "torsion":
            curve = _curve_from_args(args)
            _emit(torsion_subgroup(curve).to_json(), args.pretty)
            return EXIT_OK

        if args.command == "check":
            curve = _curve_from_args(args)
            report = check_divisibility(curve, fixtures=fixtures)
            _emit(report.to_json(), args.pretty)
            return EXIT_INCOMPLETE if report.incomplete else EXIT_OK

        if args.command == "dual3":
            if args.a**3 == 27:
                print(json.dumps({"error": "a = 3 gives a singular curve"}), file=sys.stderr)
                return EXIT_USAGE
            pair = hadano_quotient(ThreeTorsionNormalForm(args.a, 1))
            payload = pair.to_json()
            q = quotient_split_prime(pair)
            payload["split_prime"] = q
            if q is None:
                payload["note"] = "no split prime other than 3"
            _emit(payload, args.pretty)
            return EXIT_OK

        if args.command == "scan":
            if args.bound is not None and args.bound < 1:
                raise ValueError(f"--bound must be a positive integer, got {args.bound}")
            preset = PRESETS[args.preset]
            report = preset.run(fixtures, 2_000_000, args.jobs, args.bound)
            if args.summary:
                _emit(report.summary(), args.pretty)
            else:
                for r in sorted(
                    report.reports, key=lambda r: json.dumps(r.params, sort_keys=True)
                ):
                    _emit(r.to_json(), args.pretty)
                _emit(report.summary(), args.pretty)
            if report.incomplete:
                return EXIT_INCOMPLETE
            return EXIT_OK if preset.validate(report) else EXIT_VIOLATION

        if args.command == "fixtures":
            if fixtures is None:
                print(json.dumps({"error": "no fixture file given"}), file=sys.stderr)
                return EXIT_USAGE
            payload = {
                "count": len(fixtures),
                "labels": sorted(fixtures.by_label),
            }
            _emit(payload, args.pretty)
            return EXIT_OK

    except IncompleteFactorizationError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_INCOMPLETE
    except (ValueError, SingularCurveError) as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_USAGE

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
