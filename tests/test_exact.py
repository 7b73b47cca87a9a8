"""The package keeps its "exact, no floating point" promise.

Walks the syntax tree of every module under src/tamagawa and fails on a
float literal, a float(...) call, an annotation naming float, or a use of
the math module beyond the exact integer helpers gcd, isqrt and prod.  Also
checks that the entry points taking rationals refuse a float argument.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from tamagawa.curves import Transformation, WeierstrassCurve, curve_from_c4c6
from tamagawa.families import three_torsion_normalize, two_six_curve, two_six_disc
from tamagawa.reduction import local_root_number
from tamagawa.torsion import Point

SRC = Path(__file__).resolve().parent.parent / "src" / "tamagawa"
EXACT_MATH = {"gcd", "isqrt", "prod"}


def _inexact_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        where = f"line {getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"{where}: float literal {node.value!r}")
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
        ):
            found.append(f"{where}: float(...) call")
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if annotation is not None and any(
                isinstance(n, ast.Name) and n.id == "float" for n in ast.walk(annotation)
            ):
                found.append(f"{where}: float annotation")
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "math"
            and node.attr not in EXACT_MATH
        ):
            found.append(f"{where}: math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend(
                f"{where}: from math import {a.name}"
                for a in node.names
                if a.name not in EXACT_MATH
            )
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_no_floating_point(path):
    assert _inexact_uses(ast.parse(path.read_text())) == []


def test_the_walk_finds_each_kind_of_float():
    code = (
        "import math\nx = 0.5\ny = float(3)\n"
        "z = math.sqrt(2) + math.gcd(4, 6)\nfrom math import log\n"
        "def f(x: float, n: int) -> Union[int, float]:\n    w: float = n\n"
    )
    found = _inexact_uses(ast.parse(code))
    assert sorted(f.split(": ", 1)[1] for f in found) == [
        "float annotation",
        "float annotation",
        "float annotation",
        "float literal 0.5",
        "float(...) call",
        "from math import log",
        "math.sqrt",
    ]


# a float is refused where it would pass as its binary rational: Point(0.1, 0.5)
# stored x = 3602879701896397/36028797018963968, two_six_curve(0.1) had a
# 111-bit a1, and local_root_number(E, 2.5) answered at p = 2
FLOAT_CALLS = {
    "Point": lambda: Point(0.1, 0.5),
    "two_six_curve": lambda: two_six_curve(0.1),
    "two_six_disc": lambda: two_six_disc(0.1),
    "Transformation": lambda: Transformation(0.5, 0, 0, 0),
    "curve_from_c4c6": lambda: curve_from_c4c6(0.5, 0.25),
    "three_torsion_normalize": lambda: three_torsion_normalize(0.5, 0.25),
    "local_root_number": lambda: local_root_number(WeierstrassCurve(0, 1, 1, -9, -15), 2.5),
}


@pytest.mark.parametrize("name", sorted(FLOAT_CALLS))
def test_entry_points_refuse_a_float(name):
    with pytest.raises(TypeError):
        FLOAT_CALLS[name]()


def test_entry_points_still_read_a_str_as_a_rational():
    # the CLI passes --t 7/3 on as a str
    assert two_six_curve("7/3") == two_six_curve(Fraction(7, 3))
    assert two_six_disc("7/3") == two_six_disc(Fraction(7, 3))
    assert Point("1/2", "-3") == Point(Fraction(1, 2), -3)
    assert Transformation("1/2", 0, 0, 0) == Transformation(Fraction(1, 2), 0, 0, 0)
    assert three_torsion_normalize("1/2", "1/4") == three_torsion_normalize(Fraction(1, 2), Fraction(1, 4))
