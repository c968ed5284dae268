"""Every module-level import of the library is used, and every module-level
private name and every method of a private class is read somewhere in it:
stdlib ``ast`` checks over ``src/ascentlab`` (the package ``__init__``
re-exports by importing)."""

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


def private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level private functions, classes and constants, private
    methods of module-level classes, and the public methods of module-level
    private classes, of ``sources`` that no source reads, as a name or as an
    attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined += filter(private, [node.name])
                if isinstance(node, ast.ClassDef):
                    methods = [f.name for f in node.body if isinstance(f, ast.FunctionDef)
                               and not f.name.startswith("__")]
                    defined += methods if private(node.name) else filter(private, methods)
            elif isinstance(node, ast.Assign):
                defined += filter(private, [t.id for t in node.targets
                                            if isinstance(t, ast.Name)])
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined += filter(private, [node.target.id])
    read = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name not in read]


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


def test_check_finds_an_unread_private_name():
    sources = ["_A = 1\n_B: int = 2\ndef _f(): pass\nclass _C: pass\n__version__ = 0\n",
               "from m import _A\nx = m._f\n_A + 1\n",
               "class D:\n    def __init__(self): self._g()\n    def _g(self): pass\n"
               "    def _h(self): pass\n    def h(self): pass\n",
               "class _E:\n    def __init__(self): self.f()\n    def f(self): pass\n"
               "    def g(self): pass\n    def _k(self): pass\nx = _E()\n"]
    assert unread_private_names(sources) == ["_B", "_C", "_h", "g", "_k"]


def test_library_reads_every_private_name():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert unread_private_names(sources) == []
