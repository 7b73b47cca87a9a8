"""The package keeps its "exact, no floating point" promise.

Walks the syntax tree of every module under src/tamagawa and fails on a
float literal, a float(...) call, or a use of the math module beyond the
exact integer helpers and the infinity that marks ord_p(0).
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tamagawa"
EXACT_MATH = {"gcd", "isqrt", "prod", "inf"}


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
    )
    found = _inexact_uses(ast.parse(code))
    assert sorted(f.split(": ", 1)[1] for f in found) == [
        "float literal 0.5",
        "float(...) call",
        "from math import log",
        "math.sqrt",
    ]
