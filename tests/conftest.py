import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from e6lab import algcore

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")


@pytest.fixture(autouse=True, scope="session")
def every_twist_is_anticommutative():
    """`twist` returns its rescaled table without scanning it; every twist
    made anywhere in the suite is scanned here instead."""
    original = algcore.twist

    def checked(*args, **kwargs):
        lie = original(*args, **kwargs)
        assert lie.alg.is_anticommutative(), "twist returned a table that is not anticommutative"
        return lie

    bound = [
        (mod, name)
        for mod_name, mod in list(sys.modules.items())
        if mod_name.startswith(("e6lab", "test_"))
        for name, value in list(vars(mod).items())
        if value is original
    ]
    for mod, name in bound:
        setattr(mod, name, checked)
    yield
    for mod, name in bound:
        setattr(mod, name, original)


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def perfbench_child():
    """perfbench/child.py, loaded as a module from its file."""
    pytest.importorskip("numpy")  # child.py calibrates with numpy
    sys.path.insert(0, str(PERFBENCH))  # child.py imports its sibling spans.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
        mod = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(mod)
    finally:
        sys.path.remove(str(PERFBENCH))
    return mod


@pytest.fixture(scope="session")
def fixture_documents(perfbench_child):
    """name -> the benchmark's fixture document, from the catalog's builds."""
    return perfbench_child.fixture_documents()
