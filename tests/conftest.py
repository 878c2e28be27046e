import sys

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
