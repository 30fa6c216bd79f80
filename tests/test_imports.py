"""Every name a library module imports is used there, every private
helper it defines is used somewhere, every public definition and public
method has a caller in the library or the benchmark, its ``__all__`` lists only what it
defines, and only the modules that report checks import ``report``.

Stdlib-only static checks over ``src/brauer/*.py``: an imported name must
appear as a name somewhere else in the module.  Names listed in the
module's ``__all__`` and the re-exports of ``__init__.py`` are exempt.  A
module-level function or class named ``_name`` must be named, outside its
own definition, somewhere in the library, the tests or the benchmark
(which is read, never changed).  A public one, and every public method
or property of a public class, must be named, outside its own definition
and ``__all__``, somewhere in the library (not ``__init__.py``) or the
benchmark: a name only tests call is dead code.  A
name in ``__all__`` must be bound in the module by a definition or an
assignment, not by an import: the package re-exports in ``__init__.py``
alone.
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


def _attribute_names(node):
    """Every attribute node reads, and string constants: the only ways to
    reach a method.  A bare name, such as a local variable, is a binding
    of its own and never reaches one."""
    return {sub.attr if isinstance(sub, ast.Attribute) else sub.value
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) or (
                isinstance(sub, ast.Constant) and isinstance(sub.value, str))}


def _assigns_all(stmt):
    return isinstance(stmt, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets)


def _unnamed_definitions(modules, readers, wanted, in_classes=False):
    """(module name, line, name) for each module-level function or class of
    modules whose name passes wanted and that nothing names outside its own
    definition and ``__all__``; the other top-level statements of modules
    and every statement of readers other than the module itself count as
    uses.  With in_classes, the definitions are instead the methods and
    properties of the module-level classes whose names pass wanted, named
    ``Class.method``; the class's other statements count as uses too, and
    only attribute reads and string constants count (:func:`_attribute_names`)."""
    names = _attribute_names if in_classes else _names
    read = {path: names(ast.parse(path.read_text(encoding="utf-8")))
            for path in readers}
    hits = []
    for path in modules:
        uses = set().union(*(names for reader, names in read.items()
                             if reader != path))
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        per_stmt = [set() if _assigns_all(stmt) else names(stmt)
                    for stmt in tree.body]
        for top, stmt in enumerate(tree.body):
            if not in_classes:
                body, prefix = [stmt], ""
            elif isinstance(stmt, ast.ClassDef) and wanted(stmt.name):
                body, prefix = stmt.body, stmt.name + "."
            else:
                continue
            outside = uses.union(*(names for j, names in enumerate(per_stmt)
                                   if j != top))
            for idx, node in enumerate(body):
                if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                          ast.ClassDef))
                        and wanted(node.name)):
                    continue
                if node.name in outside or any(
                        node.name in names(other)
                        for j, other in enumerate(body) if j != idx):
                    continue
                hits.append((path.name, node.lineno, prefix + node.name))
    return hits


def unused_private_helpers(modules, readers):
    """The module-level ``_name`` functions and classes of modules that
    nothing names outside their own definitions."""
    return _unnamed_definitions(
        modules, readers,
        lambda name: name.startswith("_") and not name.startswith("__"))


def unused_public_names(modules, readers):
    """The module-level public functions and classes of modules that
    nothing names outside their own definitions and ``__all__``."""
    return _unnamed_definitions(modules, readers,
                                lambda name: not name.startswith("_"))


def unused_public_methods(modules, readers):
    """The public methods and properties of the module-level public classes
    of modules that nothing names outside their own definitions."""
    return _unnamed_definitions(modules, readers,
                                lambda name: not name.startswith("_"),
                                in_classes=True)


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


# Public names only the tests call, kept as oracles: the E_p bend is
# checked against rotate_right, the functor's bending of a strand against
# raise_diagram, and the invariance of a form, X^T G + G X = 0 and
# R^T G R = G, through ExactMatrix.transpose on matrices that
# ExactMatrix.from_rows writes out entry by entry.
TEST_ORACLES = {"raise_diagram", "rotate_right", "ExactMatrix.from_rows",
                "ExactMatrix.transpose"}


def test_checker_sees_an_unused_public_name(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("__all__ = ['dead', 'Exported', 'used']\n\n"
                      "def dead(n):\n    return dead(n - 1)\n\n"
                      "class Exported:\n    pass\n\n"
                      "def used():\n    pass\n\n"
                      "def caller():\n    return used()\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from sample import caller\n")
    assert unused_public_names([module, reader], [module, reader]) == [
        ("sample.py", 3, "dead"), ("sample.py", 6, "Exported")]


def test_checker_sees_an_unused_public_method(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text("class Public:\n"
                      "    def dead(self):\n        return self.dead()\n\n"
                      "    @property\n    def size(self):\n        return 0\n\n"
                      "    def by_sibling(self):\n        pass\n\n"
                      "    def by_reader(self):\n        pass\n\n"
                      "    def by_module(self):\n        return self.by_sibling()\n\n"
                      "    def _private(self):\n        pass\n\n"
                      "class _Hidden:\n    def dead(self):\n        pass\n\n"
                      "def caller(x):\n    return x.by_module()\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from sample import Public\nPublic().by_reader()\n")
    assert unused_public_methods([module, reader], [module, reader]) == [
        ("sample.py", 2, "Public.dead"), ("sample.py", 6, "Public.size")]


def test_checker_sees_a_method_behind_a_same_named_variable(tmp_path):
    # A local variable, a parameter or an imported name that spells a
    # method is not a call of it.
    module = tmp_path / "sample.py"
    module.write_text("from math import floor\n\n"
                      "class Public:\n"
                      "    def degree(self):\n        return 0\n\n"
                      "    def floor(self):\n        return 0\n\n"
                      "    def used(self):\n        return 0\n\n"
                      "def caller(x, used=None):\n"
                      "    degree = floor(2.5)\n"
                      "    return degree + x.used()\n")
    assert unused_public_methods([module], [module]) == [
        ("sample.py", 4, "Public.degree"), ("sample.py", 7, "Public.floor")]


def test_every_public_name_has_a_caller():
    modules = [path for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"]
    readers = modules + sorted((REPO / "perfbench").glob("**/*.py"))
    hits = [hit for hit in (unused_public_names(modules, readers)
                            + unused_public_methods(modules, readers))
            if hit[2] not in TEST_ORACLES]
    assert hits == []


def _imports_report(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("report", "brauer.report") or (
                    node.module in (None, "brauer")
                    and any(a.name == "report" for a in node.names)):
                return True
        elif isinstance(node, ast.Import):
            if any(a.name == "brauer.report" for a in node.names):
                return True
    return False


def test_only_the_reporting_modules_import_report():
    # Checks are built by the suites (verify) and printed by the CLI.
    # rewrite keeps verify_relation_soundness because perfbench/spans.py
    # traces it there by module and name.
    importers = {path.name for path in PACKAGE.glob("*.py")
                 if path.name != "__init__.py" and _imports_report(path)}
    assert importers == {"verify.py", "cli.py", "rewrite.py"}


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
