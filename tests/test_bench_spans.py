"""Every span the benchmark traces must name a live attribute of e6lab.

`perfbench/spans.py` wraps e6lab functions from the outside by name, and a
traced benchmark run stops when one is missing.  This test does the same
lookup without installing any wrapper, so a rename or deletion shows here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS = _spans_module().SPANS


@pytest.mark.parametrize("name", SPANS)
def test_span_resolves(name):
    mod_name, *path = name.split(".")
    owner = importlib.import_module(f"e6lab.{mod_name}")
    for part in path:
        assert hasattr(owner, part), f"{name}: e6lab.{mod_name} has no {part}"
        owner = getattr(owner, part)
    assert callable(owner)
