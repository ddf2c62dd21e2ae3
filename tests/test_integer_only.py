"""The package decides in integers only, and none of its checks is an assert.

Floats round, and `python -O` strips every assert, so either one would let a
verdict depend on the platform or the interpreter's flags.  This parses each
module of `polya` and fails on any assert statement, float literal, true
division, float() or round() call, or use of `math` beyond the exact integer
functions isqrt, gcd and prod.
"""

from __future__ import annotations

import ast
from pathlib import Path

import polya

EXACT_MATH = {"isqrt", "gcd", "prod"}


def breaches(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        line = getattr(node, "lineno", 0)
        if isinstance(node, ast.Assert):
            found.append((line, "assert"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((line, f"float literal {node.value!r}"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((line, "true division"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "round")):
            found.append((line, f"{node.func.id}()"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in EXACT_MATH):
            found.append((line, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(line, f"math.{alias.name}") for alias in node.names
                      if alias.name not in EXACT_MATH]
    return found


def test_breaches_are_found():
    source = ("import math\nfrom math import log, gcd\nassert x\ny = 0.5\nz = a / b\n"
              "a /= 2\nb = round(c)\nc = float(d)\ne = math.sqrt(2) + math.isqrt(2)\n")
    assert [what for _, what in sorted(breaches(ast.parse(source)))] == [
        "math.log", "assert", "float literal 0.5", "true division", "true division",
        "round()", "float()", "math.sqrt"]


def test_the_package_decides_in_integers_only():
    modules = sorted(Path(polya.__file__).parent.glob("*.py"))
    names = {path.name for path in modules}
    assert {"arith.py", "sqclass.py", "forms.py", "genus.py", "quadratic.py",
            "biquad.py", "verify.py", "cli.py"} <= names, names
    found = [f"{path.name}:{line}: {what}" for path in modules
             for line, what in breaches(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []
