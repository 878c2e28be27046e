"""The collector pause (`linalg.acyclic`) and the contract that makes it safe:
a decorated construction or certificate call leaves no reference cycle
behind, so pausing the cyclic garbage collector never defers a leak."""

import gc
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

from e6lab import algcore, catalog, e6sp8, gradings, jordan, linalg
from e6lab import tits as tits_module
from e6lab.algcore import AlgebraError, LieAlgebra, StructAlgebra
from e6lab.composition import hurwitz

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture(autouse=True)
def collector_on():
    """Every test starts with the collector on and leaves it on."""
    assert gc.isenabled()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "the test left the collector off"


def _fresh_alg(name, scale=None):
    """A catalog model's table on a new StructAlgebra object, so that no
    memo on the algebra is hit; with scale, on the basis p_i b_i for the
    primes p_i of scale, past the bound of `int_tensor`."""
    alg = catalog.model(name)[0].alg
    if scale is None:
        sc = {key: dict(row) for key, row in alg.sc.items()}
    else:
        sc = {
            (i, j): {k: v * scale[i] * scale[j] / scale[k] for k, v in row.items()}
            for (i, j), row in alg.sc.items()
        }
    return StructAlgebra(dim=alg.dim, basis_labels=list(alg.basis_labels), sc=sc)


def _fresh_j(jname):
    return jordan._h3_cached.__wrapped__(*tits_module.JORDAN_INGREDIENTS[jname])


def _primes(count, start=101):
    out, n = [], start
    while len(out) < count:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            out.append(n)
        n += 1
    return out


def _probe(monkeypatch, module, name):
    """Wrap module.name so that each call records whether the collector is
    on; returns the list of records."""
    seen = []
    original = getattr(module, name)

    def probe(*args, **kwargs):
        seen.append(gc.isenabled())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, probe)
    return seen


def _not_anticommutative():
    sc = {(0, 1): {0: Fraction(1)}, (1, 0): {0: Fraction(1)}}
    return StructAlgebra(dim=2, basis_labels=["a", "b"], sc=sc)


# ---------------------------------------------------------------------------
# the pause


def test_collector_is_off_inside_a_kernel_and_on_after_it(monkeypatch):
    # jacobi_defect reads _kernel_table, itself paused, before it places the
    # generators: the probe there sees the collector still off
    alg = _fresh_alg("sp8-e6")
    seen = _probe(monkeypatch, algcore, "_ad_generators")
    assert algcore.jacobi_defect(alg) == []
    assert seen == [False]
    assert gc.isenabled()


def test_collector_is_on_after_a_kernel_raises():
    with pytest.raises(AlgebraError, match="anticommutative"):
        algcore.jacobi_defect(_not_anticommutative())
    assert gc.isenabled()


def test_collector_is_on_after_a_tits_build_over_a_broken_x0_raises(monkeypatch):
    c, j = hurwitz("RR"), _fresh_j("albert")
    seen = _probe(monkeypatch, tits_module, "ingredient_layer")
    monkeypatch.setattr(tits_module, "j0_basis", lambda x: jordan.j0_basis(x)[1:])
    with pytest.raises(AlgebraError, match="a vector leaves J0"):
        tits_module.tits(c, j, comp_name="RR")
    assert seen == [False, False]
    assert gc.isenabled()


def test_a_caller_that_turned_the_collector_off_keeps_it_off():
    gc.disable()
    try:
        algcore.jacobi_defect(_fresh_alg("chevalley-e6"))
        assert not gc.isenabled()
        with pytest.raises(AlgebraError):
            algcore.jacobi_defect(_not_anticommutative())
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_calls_turn_the_collector_on_only_at_the_outermost_exit():
    seen = []

    @linalg.acyclic
    def inner():
        seen.append(("inner", gc.isenabled()))

    @linalg.acyclic
    def outer():
        inner()
        seen.append(("outer after inner", gc.isenabled()))
        inner()

    outer()
    assert seen == [("inner", False), ("outer after inner", False), ("inner", False)]
    assert gc.isenabled()


def test_a_cache_hit_does_not_touch_the_collector(monkeypatch):
    model = e6sp8.assemble_e6()

    def touched():
        raise AssertionError("the collector was touched")

    monkeypatch.setattr(gc, "isenabled", touched)
    assert e6sp8.assemble_e6() is model


# ---------------------------------------------------------------------------
# the acyclic contract


def _left_by(call):
    """The unreachable objects gc.collect() finds after call(), run with the
    collector off.  The call's inputs and result stay referenced until the
    count, so it counts only what the call made and dropped."""
    gc.disable()
    try:
        gc.collect()
        kept = call()
        return gc.collect()
    finally:
        gc.enable()


def _cold(module, name):
    """_left_by(module.name) in a fresh interpreter, where every cache is
    empty."""
    code = (
        "import gc\n"
        f"from e6lab import {module}\n"
        "gc.collect()\n"
        "gc.disable()\n"
        f"kept = {module}.{name}()\n"
        "print(gc.collect())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def _fresh_lie(name):
    return LieAlgebra._of_lie_table(_fresh_alg(name))


def _fresh_gamma11():
    """gamma11 and its carrier on new objects: no homogeneous basis, Gram
    table or Killing matrix built yet."""
    g, carrier, _ = catalog.grading("gamma11")
    alg = StructAlgebra(
        dim=carrier.dim,
        basis_labels=list(carrier.basis_labels),
        sc={key: dict(row) for key, row in carrier.alg.sc.items()},
    )
    fresh = gradings.grading_from_json(gradings.grading_to_json(g), alg)
    return fresh, LieAlgebra._of_lie_table(alg)


def _twisted():
    t = tits_module.tits_model("RR", "albert")
    return _left_by(lambda: algcore.twist(t.lie, t.even_indices(), Fraction(1, 4)))


def _graded(check):
    g, lie = _fresh_gamma11()
    return _left_by(lambda: check(g, lie))


def test_a_dropped_tits_build_on_fresh_ingredients_leaves_no_reference_cycle():
    # the layers kept on C and J hold no reference back to them, so dropping
    # the build frees its ingredients and their layers by reference counting
    gc.disable()
    try:
        gc.collect()
        t = tits_module.tits(hurwitz.__wrapped__("C"), _fresh_j("albert"), "C")
        assert t.comp._layer is not None and t.jordan._layer is not None
        del t
        assert gc.collect() == 0
    finally:
        gc.enable()


# Every entry point `linalg.acyclic` decorates, on fresh inputs: no
# lru_cache and no memo on an object is hit.  The builders behind an
# lru_cache run in a fresh interpreter.
CASES = {
    "StructAlgebra.int_tensor": lambda: _left_by(_fresh_alg("tits-o-m3r").int_tensor),
    "StructAlgebra._kernel_table": lambda: _left_by(
        _fresh_alg("chevalley-e6", scale=_primes(78))._kernel_table
    ),
    "jacobi_defect": lambda: _left_by(partial(algcore.jacobi_defect, _fresh_alg("tits-c-albert"))),
    "killing_matrix": lambda: _left_by(partial(algcore.killing_matrix, _fresh_lie("sp8-e6"))),
    "inertia": lambda: _left_by(
        partial(algcore.inertia, catalog.model("tits-o-m3r")[0].killing_matrix())
    ),
    "twist": _twisted,
    "_solve_derivations": lambda: _left_by(
        partial(algcore._solve_derivations, _fresh_j("albert").alg)
    ),
    "derivation_algebra": lambda: _left_by(
        partial(algcore.derivation_algebra, hurwitz.__wrapped__("O").alg)
    ),
    "tits.tits": lambda: _left_by(
        partial(tits_module.tits, hurwitz.__wrapped__("C"), _fresh_j("albert"), "C")
    ),
    "e6sp8.assemble_e6": lambda: _cold("e6sp8", "assemble_e6"),
    "gradings.verify": lambda: _graded(lambda g, lie: gradings.verify(g)),
    "gradings.killing_orthogonality_violations": lambda: _graded(
        gradings.killing_orthogonality_violations
    ),
    "gradings.signature_bound": lambda: _graded(gradings.signature_bound),
    "gradings.graded_witt_basis": lambda: _graded(gradings.graded_witt_basis),
    "verify.run_all": lambda: _cold("verify", "run_all"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_decorated_call_leaves_no_reference_cycle(name):
    assert CASES[name]() == 0


def test_every_decorated_entry_point_has_a_case():
    import e6lab

    src = Path(e6lab.__file__).parent.glob("*.py")
    assert sum(path.read_text().count("@linalg.acyclic") for path in src) == len(CASES)
