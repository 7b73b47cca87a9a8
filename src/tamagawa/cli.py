"""Command-line surface: JSON in, JSON out, deterministic byte-for-byte.

Exit codes: 0 success, 1 a scan found violations outside the expected
exception set, 2 usage or input error, 3 factorization budget exhausted,
141 the reader closed standard output (as `| head` does) before it was all
written: 128 + SIGPIPE, what a shell reports for a writer killed by it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .arith import IncompleteFactorizationError
from .curves import CurveAnalysis, WeierstrassCurve, minimal_model
from .families import FAMILIES, ThreeTorsionNormalForm, hadano_quotient, quotient_split_prime
from .reduction import c_infinity, local_data, tate
from .torsion import torsion_subgroup
from .verify import PRESETS, VerdictReport, check_divisibility, ingest_fixtures

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3


# built once, since json.dumps builds a new encoder on each call that passes an
# argument; encode gives the bytes json.dumps gives with the same arguments.
# Every payload is a tree of dicts, lists and scalars, so _COMPACT, which
# encodes each scan line, skips the check for a container that holds itself
# (about 6% of its time on the scan presets' reports).
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False).encode
_PRETTY = json.JSONEncoder(indent=2, sort_keys=True).encode


def _emit(payload, pretty: bool) -> None:
    sys.stdout.write((_PRETTY if pretty else _COMPACT)(payload) + "\n")


def _in_params_order(reports: list[VerdictReport]) -> list[tuple[str, VerdictReport]]:
    """(compact line, report) pairs in the order of json.dumps(params, sort_keys=True).

    Each line is sorted by its suffix from the key "params" on, so that each
    report is encoded once. That suffix starts with the compact text of the
    params, which sorts as the spaced text json.dumps gives:
    - the two texts differ only by a space after each "," and ":" that is
      not inside a string, so when two compact texts first differ at a pair
      of characters, the spaced texts first differ at the same pair;
    - the text of a JSON object never is a proper prefix of another's, so
      what follows the params in a line never decides between unequal params.
    Reports with equal params have equal lines, since a report is a function
    of its params. The first '"params":' in a line is the key: each '"' inside
    an encoded string is escaped, so a match that starts in a string ends it
    and needs a key ending in '"params', and the keys sorted before "params"
    are fixed names.
    """

    def from_params(pair: tuple[str, VerdictReport]) -> str:
        line, report = pair
        at = line.find('"params":')
        if at < 0:
            raise RuntimeError(f"scan report without params: {report}")
        return line[at:]

    return sorted(((_COMPACT(r.to_json()), r) for r in reports), key=from_params)


def _parse_ai(text: str) -> WeierstrassCurve:
    parts = text.split(",")
    if len(parts) != 5:
        raise ValueError("--ai needs 5 comma-separated integers a1,a2,a3,a4,a6")
    return WeierstrassCurve(*(int(p.strip()) for p in parts))


def _join_ai(argv: list[str]) -> list[str]:
    """Join "--ai X" into "--ai=X" and "--t X" into "--t=X".

    argparse reads an X with a negative a1, or a negative rational t such as
    -7/3, as a flag.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--ai", "--t") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{out[-1]}={arg}"
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
    try:
        return family.curve(params)
    except ZeroDivisionError:  # only a rational flag with a zero denominator, as --t 1/0
        raise ValueError(f"--family {args.family}: a parameter has a zero denominator") from None


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
    """Run one command and return its exit code (module docstring)."""
    try:
        code = _run(argv)
        sys.stdout.flush()  # so that a closed pipe raises here, not at interpreter exit
    except BrokenPipeError:
        # point stdout's descriptor at devnull, so that the flush at interpreter exit
        # does not raise again
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141
    return code


def _run(argv) -> int:
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
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--summary", action="store_true", help="aggregate counts only")

    sub.add_parser("fixtures", parents=[common], help="validate and summarize a fixture file")

    args = parser.parse_args(_join_ai(sys.argv[1:] if argv is None else list(argv)))

    try:
        fixtures = _fixtures_from_args(args)
    except (OSError, ValueError) as e:  # a bad file: JSON, UTF-8 or a fixture record
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "localdata":
            curve = _curve_from_args(args)
            if args.p:
                # the named primes need no factored discriminant
                minimal = minimal_model(curve)[0]
                data = local_data(curve, primes=args.p)
            else:
                # tate gives the same data on every integral model of the curve
                analysis = CurveAnalysis.of(curve)
                minimal = analysis.minimal
                data = [tate(minimal, p, e) for p, e in analysis.disc_min.factors]
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
            pair = hadano_quotient(ThreeTorsionNormalForm(args.a, 1))
            payload = pair.to_json()
            q = quotient_split_prime(pair)
            payload["split_prime"] = q
            if q is None:
                payload["note"] = "no split prime other than 3"
            _emit(payload, args.pretty)
            return EXIT_OK

        if args.command == "scan":
            for flag, value in (("--bound", args.bound), ("--jobs", args.jobs)):
                if value is not None and value < 1:
                    raise ValueError(f"{flag} must be a positive integer, got {value}")
            preset = PRESETS[args.preset]
            if preset.bound is None and args.bound is not None:
                raise ValueError(f"--preset {args.preset} scans a fixed set of curves: no --bound")
            bound = preset.bound if args.bound is None else args.bound
            report = preset.run(fixtures, args.jobs, bound)
            if args.summary:
                _emit(report.summary(), args.pretty)
            else:
                # one write a line: one large write to a pipe whose reader
                # has closed it (as `| head` does) can return without a
                # BrokenPipeError, and the scan would then exit 0, not 141
                for line, r in _in_params_order(report.reports):
                    sys.stdout.write((_PRETTY(r.to_json()) if args.pretty else line) + "\n")
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
    except ValueError as e:
        print(json.dumps({"error": str(e)}), file=sys.stderr)
        return EXIT_USAGE

    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
