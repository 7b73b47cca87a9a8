"""Each module keeps its private names to itself.

Walks the syntax tree of every module under src/tamagawa and fails on an
import of a _-prefixed name from another module of the package, apart from
the few shared helpers listed in SHARED_PRIVATE.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tamagawa"
SHARED_PRIVATE = {"arith._int_valuation", "torsion._point_of_order"}


def _private_imports(module: str, tree: ast.AST) -> list[str]:
    """module.name for each _-prefixed name imported from another package module."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or not node.module:
            continue
        if node.level == 0 and not node.module.startswith("tamagawa."):
            continue
        source = node.module.rsplit(".", 1)[-1]
        found.extend(
            f"{source}.{a.name}" for a in node.names if a.name.startswith("_") and source != module
        )
    return found


def test_no_module_imports_another_modules_private_names():
    crossings = []
    for path in sorted(SRC.glob("*.py")):
        crossings += _private_imports(path.stem, ast.parse(path.read_text()))
    assert sorted(set(crossings) - SHARED_PRIVATE) == []


def test_the_walk_finds_private_imports_across_modules():
    code = (
        "from __future__ import annotations\nfrom .torsion import _MAZUR, Point\n"
        "from tamagawa.arith import _small_primes\nfrom .verify import _own\n"
    )
    assert _private_imports("verify", ast.parse(code)) == ["torsion._MAZUR", "arith._small_primes"]
