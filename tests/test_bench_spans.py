"""Every span the benchmark traces must name a live attribute of e6lab.

`perfbench/spans.py` wraps e6lab functions from the outside by name, and a
traced benchmark run stops when one is missing or when a span that
`perfbench/run.py` expects on a workload is not in that list.  These tests do
the same lookups without installing any wrapper, so a rename or deletion
shows here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(filename):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{filename[:-3]}", PERFBENCH / filename
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


SPANS_MOD = _load("spans.py")
SPANS = SPANS_MOD.SPANS
EXPECTED_SPANS = _load("run.py").EXPECTED_SPANS


@pytest.mark.parametrize("name", SPANS)
def test_span_resolves(name):
    mod_name, *path = name.split(".")
    owner = importlib.import_module(f"e6lab.{mod_name}")
    for part in path:
        assert hasattr(owner, part), f"{name}: e6lab.{mod_name} has no {part}"
        owner = getattr(owner, part)
    assert callable(owner)


@pytest.mark.parametrize(
    "workload,name",
    [(w, name) for w, names in EXPECTED_SPANS.items() for name in names],
)
def test_expected_span_is_traced(workload, name):
    # check groups are traced by wrapping verify.GROUPS, not through SPANS
    group = name.removeprefix(SPANS_MOD.GROUP_PREFIX)
    if group != name:
        assert group in importlib.import_module("e6lab.verify").GROUPS, name
    else:
        assert name in SPANS, f"{workload} expects {name}, not in spans.SPANS"
