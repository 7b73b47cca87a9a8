"""Each module keeps its private names to itself, and factorizations come from `factor`.

Walks the syntax tree of every module under src/tamagawa and fails on an
import of a _-prefixed name from another module of the package, apart from
the few shared helpers listed in SHARED_PRIVATE, and on a Factorization
built anywhere but in FACTORIZATION_BUILDERS, on a file read or write
that leaves its encoding to the locale, and on an assert statement.  Also
starts fresh interpreters to check that importing the package loads no
module of the process-pool stack, which only a scan with --jobs >= 2
needs, and none of the dataclass machinery, which the records do without.
"""

import ast
import functools
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tamagawa"
SHARED_PRIVATE = {"arith._int_valuation", "torsion._point_of_order"}
# the functions that build a Factorization: each prime in it was certified by
# arith.factor, which is why reduction.tate may trust a (p, e) pair of one
FACTORIZATION_BUILDERS = {
    "arith.factor",
    "arith.factor_product",
    "arith.Factorization.__mul__",
    "curves.CurveAnalysis.of",
}


@functools.cache
def _modules() -> list[tuple[str, ast.AST]]:
    """(name, syntax tree) of each module under src/tamagawa."""
    paths = sorted(SRC.glob("*.py"))
    return [(path.stem, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def _call_name(call: ast.Call):
    """f of a call f(...) or x.f(...); None for any other callee."""
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


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
    crossings = [name for module, tree in _modules() for name in _private_imports(module, tree)]
    assert sorted(set(crossings) - SHARED_PRIVATE) == []


def test_the_walk_finds_private_imports_across_modules():
    code = (
        "from __future__ import annotations\nfrom .torsion import _MAZUR, Point\n"
        "from tamagawa.arith import _small_primes\nfrom .verify import _own\n"
    )
    assert _private_imports("verify", ast.parse(code)) == ["torsion._MAZUR", "arith._small_primes"]


def _factorization_builders(module: str, tree: ast.AST) -> list[str]:
    """module.qualname of the function around each call of Factorization(...)."""
    found = []

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}"
            elif isinstance(child, ast.Call) and _call_name(child) == "Factorization":
                found.append(scope)
            walk(child, inner)

    walk(tree, module)
    return found


def test_only_the_factoring_functions_build_a_factorization():
    builders = [
        scope for module, tree in _modules() for scope in _factorization_builders(module, tree)
    ]
    assert set(builders) == FACTORIZATION_BUILDERS


def test_the_walk_finds_each_factorization_call_in_its_function():
    code = (
        "from .arith import Factorization\nfrom . import arith\n"
        "class A:\n    def f(self):\n        return Factorization(1, ())\n"
        "def g():\n    return arith.Factorization(-1, ())\n"
        "x = Factorization(1, ())\n"
    )
    assert _factorization_builders("m", ast.parse(code)) == ["m.A.f", "m.g", "m"]


FILE_IO = {"open", "read_text", "write_text"}


def _io_without_encoding(module: str, tree: ast.AST) -> list[str]:
    """module:line of each call of open, read_text or write_text with no encoding keyword."""
    lines = sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and _call_name(node) in FILE_IO
        and not any(k.arg == "encoding" for k in node.keywords)
    )
    return [f"{module}:{line}" for line in lines]


def test_every_file_read_or_write_names_its_encoding():
    unnamed = [line for module, tree in _modules() for line in _io_without_encoding(module, tree)]
    assert unnamed == []


def test_the_walk_finds_each_file_call_without_an_encoding():
    code = (
        "with open(p) as f:\n    pass\nraw = Path(p).read_text()\n"
        "q.write_text(s, encoding='utf-8')\nopen(p, 'w', encoding='ascii')\n"
        "out.write_text(s, 'utf-8')\nread(p)\n"
    )
    assert _io_without_encoding("m", ast.parse(code)) == ["m:1", "m:3", "m:6"]


def _asserts(module: str, tree: ast.AST) -> list[str]:
    """module:line of each assert statement, which `python -O` strips."""
    return [f"{module}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_check_is_an_assert():
    # a check that python -O strips would let a wrong value through without a word
    assert [line for module, tree in _modules() for line in _asserts(module, tree)] == []


def test_the_walk_finds_each_assert():
    code = "assert x\nif y:\n    assert z, 'msg'\nraise RuntimeError('bug')\n"
    assert _asserts("m", ast.parse(code)) == ["m:1", "m:3"]


# what `from concurrent.futures import ProcessPoolExecutor` loads; none of it
# is needed unless a scan starts a pool
POOL_STACK = ("multiprocessing", "concurrent.futures", "logging", "subprocess", "socket", "pickle")
# what `import dataclasses` loads: the records are built without it
DATACLASS_STACK = ("dataclasses", "inspect", "ast", "dis")


def _modules_after(code: str) -> set[str]:
    """sys.modules of a fresh interpreter, with src on the path, after running code."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    probe = code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    return set(json.loads(proc.stdout))


@functools.cache
def _modules_the_package_adds() -> frozenset[str]:
    # compared with a bare interpreter started the same way, since site may
    # preload modules of its own
    baseline = _modules_after("")
    loaded = _modules_after("import tamagawa, tamagawa.verify, tamagawa.cli")
    assert "tamagawa.cli" in loaded
    return frozenset(loaded - baseline)


def _in_stack(stack: tuple[str, ...]) -> list[str]:
    new = _modules_the_package_adds()
    return sorted(m for m in new if any(m == s or m.startswith(s + ".") for s in stack))


def test_importing_the_package_loads_no_process_pool_module():
    assert _in_stack(POOL_STACK) == []


def test_importing_the_package_loads_no_dataclass_machinery():
    assert _in_stack(DATACLASS_STACK) == []
