"""The two routes to a kernel's period invariants stay independent.

Genus theory (`polya.genus`) and the walk to the middle of the period
(`polya.forms`) are each the other's test oracle, so neither imports the
other or any module that could reach it: each imports only `arith` and
`sqclass` from the package.  `quadratic` imports both and reaches each
through one call, and it keeps none of their private names, so a test that
patches one of them on `quadratic` fails instead of patching nothing.  This
parses the imports of each module of `polya`.
"""

from __future__ import annotations

import ast
from pathlib import Path

import polya
from polya import quadratic

PACKAGE = Path(polya.__file__).parent
ROUTES = ("forms", "genus")
MOVED = ("_midpoint", "_compose", "_search_midpoint", "_probe", "_state", "_land",
         "_PLAIN_STEPS", "_MARK_EVERY", "_PHASE_DIVISOR", "_genus_invariants")


def package_imports(tree: ast.AST) -> set[str]:
    """The modules of `polya` that a module of it imports, by name."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("polya."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "polya":
                continue
            if node.level == 0:
                module = module.partition(".")[2]
            if module:
                found.add(module.split(".")[0])
            else:
                found.update(alias.name for alias in node.names)
    return found


def imports_of(name: str) -> set[str]:
    return package_imports(ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8")))


def test_package_imports_are_found():
    source = ("import math\nimport polya.genus\nfrom itertools import count\n"
              "from . import arith, forms\nfrom .sqclass import IDENTITY\n"
              "from polya.quadratic import _unit\nfrom polya import biquad\n"
              "from .verify.sub import x\n")
    assert package_imports(ast.parse(source)) == {
        "genus", "arith", "forms", "sqclass", "quadratic", "biquad", "verify"}


def test_the_routes_import_one_way():
    for route in ROUTES:
        assert imports_of(route) <= {"arith", "sqclass"}, route
    assert set(ROUTES) <= imports_of("quadratic")


def test_quadratic_keeps_no_moved_name():
    kept = [name for name in MOVED if hasattr(quadratic, name)]
    assert kept == []
