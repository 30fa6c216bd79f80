"""Every name a library module imports is used there, every private
helper it defines is used somewhere, and its ``__all__`` lists only what
it defines.

Stdlib-only static checks over ``src/brauer/*.py``: an imported name must
appear as a name somewhere else in the module.  Names listed in the
module's ``__all__`` and the re-exports of ``__init__.py`` are exempt.  A
module-level function or class named ``_name`` must be named, outside its
own definition, somewhere in the library, the tests or the benchmark
(which is read, never changed).  A name in ``__all__`` must be bound in
the module by a definition or an assignment, not by an import: the package
re-exports in ``__init__.py`` alone.
"""

from __future__ import annotations

import ast
import pathlib

import brauer

PACKAGE = pathlib.Path(brauer.__file__).resolve().parent
REPO = pathlib.Path(__file__).resolve().parents[1]


def _imported(tree):
    """Bound name -> import line, for every module-level or nested import."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """(line, name) for each name path imports and never uses."""
    if path.name == "__init__.py":
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = used | _exported(tree)
    return sorted((line, name) for name, line in _imported(tree).items()
                  if name not in exempt)


def test_checker_sees_an_unused_import(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from math import gcd, pi\nimport os.path\n"
                      "from json import dumps as d\n__all__ = ['pi']\n"
                      "print(os.sep)\n")
    assert unused_imports(module) == [(1, "gcd"), (3, "d")]


def test_no_unused_imports():
    hits = ["%s:%d %s" % (path.name, line, name)
            for path in sorted(PACKAGE.glob("*.py"))
            for line, name in unused_imports(path)]
    assert hits == []


def _names(node):
    """Every identifier node reads: names, attributes, imported names and
    string constants (a getattr or monkeypatch target)."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.asname or sub.name)
            out.add(sub.name)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def unused_private_helpers(modules, readers):
    """(module name, line, name) for each module-level ``_name`` function or
    class of modules that nothing names outside its own definition; the
    other top-level statements of modules and every statement of readers
    count as uses."""
    uses = set()
    for path in readers:
        uses |= _names(ast.parse(path.read_text(encoding="utf-8")))
    hits = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        per_stmt = [_names(stmt) for stmt in tree.body]
        for idx, stmt in enumerate(tree.body):
            if not (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    and stmt.name.startswith("_")
                    and not stmt.name.startswith("__")):
                continue
            if stmt.name in uses or any(stmt.name in names for j, names
                                        in enumerate(per_stmt) if j != idx):
                continue
            hits.append((path.name, stmt.lineno, stmt.name))
    return hits


def test_checker_sees_an_unused_private_helper(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("def _dead(n):\n    return _dead(n - 1)\n\n"
                      "def _used():\n    pass\n\n"
                      "class _Named:\n    pass\n\n"
                      "def _by_reader():\n    pass\n\n"
                      "def public():\n    return _used()\n")
    reader = tmp_path / "reader.py"
    reader.write_text("import sample\nsample._by_reader()\n"
                      "setattr(sample, '_Named', None)\n")
    assert unused_private_helpers([module], [reader]) == [
        ("sample.py", 1, "_dead")]


def test_no_unused_private_helpers():
    modules = sorted(PACKAGE.glob("*.py"))
    readers = [path for folder in ("tests", "perfbench")
               for path in sorted((REPO / folder).glob("**/*.py"))]
    assert readers, "tests/ and perfbench/ hold no Python files"
    assert unused_private_helpers(modules, readers) == []


def foreign_exports(path):
    """Names in path's ``__all__`` that path does not define at module
    level (by def, class or assignment)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {sub.id for t in targets for sub in ast.walk(t)
                        if isinstance(sub, ast.Name)}
    return sorted(_exported(tree) - defined)


def test_checker_sees_a_foreign_export(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("from math import pi\nLIMIT = 3\n\ndef f():\n    pass\n\n"
                      "class C:\n    pass\n\n"
                      "__all__ = ['pi', 'LIMIT', 'f', 'C', 'missing']\n")
    assert foreign_exports(module) == ["missing", "pi"]


def test_exports_are_defined_where_listed():
    hits = ["%s %s" % (path.name, name)
            for path in sorted(PACKAGE.glob("*.py"))
            for name in foreign_exports(path)]
    assert hits == []
