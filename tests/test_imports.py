"""Every module-level import of the library is used: a stdlib ``ast`` check
over ``src/ascentlab`` (the package ``__init__`` re-exports by importing)."""

from __future__ import annotations

import ast
from pathlib import Path

import ascentlab

PACKAGE = Path(ascentlab.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import and never read in ``source``."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_check_finds_an_unused_import():
    assert unused_imports("import json\nimport os.path\nfrom a import b as c\n") == [
        "json", "os", "c"]
    assert unused_imports("from __future__ import annotations\nimport json\n"
                          "x: json.JSONDecoder\n") == []


def test_library_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: names for p in modules
              if (names := unused_imports(p.read_text(encoding="utf-8")))}
    assert unused == {}
