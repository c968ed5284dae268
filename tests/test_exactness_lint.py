"""No inexact arithmetic on the paths that yield a fitness or a delta: stdlib
``ast`` checks over the modules that compute them.  Fitness values and
deltas are exact ints of any size (the counting weights 4^(i-1) pass 2^64 at
N = 34), so these modules may use no true division, no float or complex
literal, no ``float(...)`` call and no ``math`` function but ``math.prod``."""

from __future__ import annotations

import ast
from pathlib import Path

import ascentlab

PACKAGE = Path(ascentlab.__file__).resolve().parent
EXACT_MODULES = ("search", "vcsp", "counting", "winding", "landscapes")


def inexact_arithmetic(source: str) -> list[str]:
    """Each true division, float or complex literal, ``float(...)`` call,
    and ``math`` function other than ``math.prod`` in ``source``, as
    ``"line: what"`` in source order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        what = None
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            what = "true division"
        elif isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            what = f"literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float":
            what = "float() call"
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and node.attr != "prod":
            what = f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            names = [a.name for a in node.names if a.name != "prod"]
            what = f"from math import {', '.join(names)}" if names else None
        if what:
            found.append((node.lineno, node.col_offset, what))
    return [f"{line}: {what}" for line, _, what in sorted(found)]


def test_check_finds_each_kind_of_inexact_arithmetic():
    source = ("import math\nfrom math import prod, sqrt\n"
              "a = 1 / 2\nb = 7\nb /= 2\nc = 0.5 + 2j\nd = float(3)\n"
              "e = math.log2(8)\nf = math.prod((2, 3)) // 2\n")
    assert inexact_arithmetic(source) == [
        "2: from math import sqrt", "3: true division", "5: true division",
        "6: literal 0.5", "6: literal 2j", "7: float() call", "8: math.log2"]


def test_fitness_and_delta_modules_use_exact_arithmetic_only():
    found = {name: hits for name in EXACT_MODULES
             if (hits := inexact_arithmetic(
                 (PACKAGE / f"{name}.py").read_text(encoding="utf-8")))}
    assert found == {}
