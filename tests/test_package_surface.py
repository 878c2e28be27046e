"""Every public name in `src/e6lab` is used by the package, a demo or the
benchmark, and every name a module of `src/e6lab` imports is read there.

A function, class or method that only tests call is test code kept in the
package: it belongs beside its tests (for an independent oracle) or nowhere.
The scan is by name, with no type resolution: a method counts as used when
any attribute of that name is read outside its own definition.  A dotted
string such as ``"algcore.is_automorphism"`` (a benchmark span) counts as a
reference to each of its parts.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "e6lab"
USERS = ("src", "demos", "perfbench")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")


def _public(name):
    return not name.startswith("_")


def definitions(tree):
    """(name, first line, last line) of each public module-level function and
    class, and of each public method of a module-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            out.append((node.name, node.lineno, node.end_lineno))
        if isinstance(node, ast.ClassDef):
            out += [
                (f"{node.name}.{m.name}", m.lineno, m.end_lineno)
                for m in node.body
                if isinstance(m, ast.FunctionDef) and _public(m.name)
            ]
    return out


def references(tree):
    """name -> lines on which the name is read."""
    refs = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and DOTTED.fullmatch(node.value):
            names = node.value.split(".")
        else:
            continue
        for name in names:
            refs.setdefault(name, []).append(node.lineno)
    return refs


def unreferenced():
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for top in USERS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    refs = {path: references(tree) for path, tree in trees.items()}
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        for qualname, first, last in definitions(trees[path]):
            name = qualname.rsplit(".", 1)[-1]
            used = any(
                not (where == path and first <= line <= last)
                for where, table in refs.items()
                for line in table.get(name, ())
            )
            if not used:
                missing.append(f"{path.stem}.{qualname}")
    return missing


def test_every_public_name_has_a_caller_outside_tests():
    missing = unreferenced()
    assert not missing, "no caller outside tests: " + ", ".join(missing)


def unread_imports(tree):
    """(name, line) for each name an import statement binds in the module
    that no expression of the module reads (`from __future__` aside)."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound if name not in read]


def test_every_import_in_the_package_is_read():
    unread = [
        f"{path.stem}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in unread_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not unread, "imported but never read: " + ", ".join(unread)


def test_unread_imports_are_found():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from . import linalg as la\n"
        "from .algcore import derivation_algebra, twist\n"
        "def f():\n"
        "    from .tits import ingredient_layer\n"
        "    return la.rank, twist\n"
    )
    assert unread_imports(tree) == [("os", 2), ("derivation_algebra", 4), ("ingredient_layer", 6)]
