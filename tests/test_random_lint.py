"""Seeded randomness only: a stdlib ``ast`` check over every module of the
package.  ``random`` may appear only as ``random.Random(<one argument>)``, a
generator of its own seeded by the caller, so that every random choice the
library makes is a function of a seed: no call of the module's shared
generator (``random.shuffle``, ``random.random``, ...), no ``from random
import``, no unseeded ``random.Random()`` and no other name for the module."""

from __future__ import annotations

import ast
from pathlib import Path

import ascentlab

PACKAGE = Path(ascentlab.__file__).resolve().parent


def unseeded_randomness(source: str) -> list[str]:
    """Each use of ``random`` in ``source`` other than a call
    ``random.Random(x)`` with one positional argument, as ``"line: what"``
    in source order."""
    tree = ast.parse(source)
    seeded = {id(node.func) for node in ast.walk(tree)
              if isinstance(node, ast.Call) and len(node.args) == 1
              and not node.keywords and not isinstance(node.args[0], ast.Starred)}
    found = []
    for node in ast.walk(tree):
        what = None
        if isinstance(node, ast.ImportFrom) and node.module == "random":
            what = f"from random import {', '.join(a.name for a in node.names)}"
        elif isinstance(node, ast.Import):
            aliased = [a for a in node.names if a.name == "random" and a.asname]
            what = f"import random as {aliased[0].asname}" if aliased else None
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "random":
            if node.attr != "Random" or id(node) not in seeded:
                what = f"random.{node.attr}"
        if what:
            found.append((node.lineno, node.col_offset, what))
    return [f"{line}: {what}" for line, _, what in sorted(found)]


def test_check_finds_each_unseeded_use_of_random():
    source = ("import random\nimport random as rnd\nfrom random import shuffle\n"
              "a = random.Random(7)\nb = random.Random()\nrandom.shuffle([1, 2])\n"
              "c = random.Random(1, 2)\nd = random.Random(x=3)\ne = random.Random\n"
              "f = random.Random(*seeds)\ng = random.Random(7).getrandbits\n")
    assert unseeded_randomness(source) == [
        "2: import random as rnd", "3: from random import shuffle",
        "5: random.Random", "6: random.shuffle", "7: random.Random",
        "8: random.Random", "9: random.Random", "10: random.Random"]


def test_library_draws_only_from_seeded_generators():
    found = {path.name: hits for path in sorted(PACKAGE.glob("*.py"))
             if (hits := unseeded_randomness(path.read_text(encoding="utf-8")))}
    assert found == {}
