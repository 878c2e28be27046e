"""Every private attribute a test writes is one the package defines.

A test that forces a code path by writing ``x._name = ...`` relies on some
class of `src/e6lab` reading ``_name``.  Once the field goes, the write
only sets an attribute nothing reads, and the test passes on the path it
meant to avoid.  So every such write in `tests/` must name an attribute
that a class in `src/e6lab` defines: a dataclass field or other class-level
name, a method, or a ``self._name = ...`` assignment in one of its methods.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "e6lab"
TESTS = ROOT / "tests"


def _targets(node):
    """The assignment targets of node, with tuple and list targets
    unpacked."""
    if isinstance(node, ast.Assign):
        todo = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        todo = [node.target]
    else:
        return []
    out = []
    while todo:
        t = todo.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            todo.extend(t.elts)
        elif isinstance(t, ast.Starred):
            todo.append(t.value)
        else:
            out.append(t)
    return out


def private_writes(tree):
    """(line, attribute) of each write x._name = ... in tree."""
    return [
        (t.lineno, t.attr)
        for node in ast.walk(tree)
        for t in _targets(node)
        if isinstance(t, ast.Attribute) and t.attr.startswith("_") and not t.attr.startswith("__")
    ]


def defined_attributes(tree):
    """The attribute names the classes of tree define: class-level names
    (dataclass fields, class attributes, methods) and self.x assignments
    in their methods."""
    out = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.add(node.name)
            out.update(t.id for t in _targets(node) if isinstance(t, ast.Name))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.update(
                    t.attr
                    for sub in ast.walk(node)
                    for t in _targets(sub)
                    if isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                )
    return out


def test_the_scan_finds_writes_and_definitions():
    writes = ast.parse("a._x = 1\nb.c._y, (d._z, e.w) = 2, (3, 4)\nf._u += 1\ng.__dict__ = {}\n")
    assert sorted(private_writes(writes)) == [(1, "_x"), (2, "_y"), (2, "_z"), (3, "_u")]
    source = ast.parse(
        "class A:\n"
        "    _field: int = 0\n"
        "    _plain = None\n"
        "    def _method(self):\n"
        "        self._set = self._chained = 1\n"
        "        other._not_self = 2\n"
    )
    assert defined_attributes(source) == {"_field", "_plain", "_method", "_set", "_chained"}


def test_every_private_attribute_written_in_tests_is_defined_in_src():
    defined = set()
    for path in sorted(PACKAGE.glob("*.py")):
        defined |= defined_attributes(ast.parse(path.read_text()))
    stale = [
        f"{path.name}:{line} {name}"
        for path in sorted(TESTS.glob("*.py"))
        for line, name in private_writes(ast.parse(path.read_text()))
        if name not in defined
    ]
    assert not stale, stale
