"""Every name a library module imports is used there.

Stdlib-only static check over ``src/brauer/*.py``: an imported name must
appear as a name somewhere else in the module.  Names listed in the
module's ``__all__`` and the re-exports of ``__init__.py`` are exempt.
"""

from __future__ import annotations

import ast
import pathlib

import brauer

PACKAGE = pathlib.Path(brauer.__file__).resolve().parent


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
