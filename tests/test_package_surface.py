"""Every public name in `src/e6lab` is used by the package, a demo or the
benchmark.

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
