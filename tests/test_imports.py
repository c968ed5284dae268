"""Every module-level import of the library is used, every module-level
private name and every method of a private class is read somewhere in it,
every public module-level name is read by the library or the benchmark, and
every package attribute the benchmark reads exists: stdlib ``ast`` checks
over ``src/ascentlab`` and ``perfbench`` (the package ``__init__``
re-exports by importing)."""

from __future__ import annotations

import ast
from pathlib import Path

import ascentlab

PACKAGE = Path(ascentlab.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


def module_level_names(tree: ast.Module) -> list[str]:
    """The functions, classes and assigned names at the top of ``tree``."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def names_read(sources: list[str]) -> set[str]:
    """Every name ``sources`` read: as a name, as an attribute, or imported
    from a module."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return read


def package_attributes_read(sources: list[str]) -> set[str]:
    """The ``x`` of every ``ascentlab.x`` that ``sources`` read."""
    return {node.attr for source in sources for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "ascentlab"}


def unread_public_names(modules: dict[str, str], readers: list[str]) -> list[str]:
    """``module.name`` for each public module-level name of ``modules`` (by
    module name, without the package ``__init__``) that neither a module of
    them nor a source of ``readers`` reads."""
    read = names_read([*modules.values(), *readers])
    return [f"{module}.{name}" for module, source in modules.items()
            for name in module_level_names(ast.parse(source))
            if not name.startswith("_") and name not in read]


def unread_private_names(sources: list[str]) -> list[str]:
    """Module-level private functions, classes and constants, private
    methods of module-level classes, and the public methods of module-level
    private classes, of ``sources`` that no source reads, as a name or as an
    attribute."""
    trees = [ast.parse(source) for source in sources]
    defined = []
    for tree in trees:
        defined += filter(private, module_level_names(tree))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                methods = [f.name for f in node.body if isinstance(f, ast.FunctionDef)
                           and not f.name.startswith("__")]
                defined += methods if private(node.name) else filter(private, methods)
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


def library_modules() -> dict[str, str]:
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))
            if p.name != "__init__.py"}


def perfbench_sources() -> list[str]:
    sources = [p.read_text(encoding="utf-8") for p in sorted(PERFBENCH.glob("*.py"))]
    assert sources
    return sources


def test_check_finds_an_unread_public_name():
    modules = {"a": "X = 1\nY: int = 2\ndef f(): return X\nclass C: pass\n_p = 0\n",
               "b": "from .a import f\nimport a\na.C\n"}
    assert unread_public_names(modules, []) == ["a.Y"]
    assert unread_public_names(modules, ["import ascentlab\nascentlab.Y\n"]) == []
    assert package_attributes_read(["import ascentlab\nascentlab.f(ascentlab.a.C)\n"
                                    "'ascentlab.g'\n"]) == {"f", "a"}


def test_every_package_attribute_the_benchmark_reads_exists():
    read = package_attributes_read(perfbench_sources())
    assert read
    assert sorted(name for name in read if not hasattr(ascentlab, name)) == []


def test_every_public_name_is_read_by_the_library_or_the_benchmark():
    # the package __init__ is no reader: a re-export alone keeps no name
    assert unread_public_names(library_modules(), perfbench_sources()) == []
