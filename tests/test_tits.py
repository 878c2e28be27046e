import os
from fractions import Fraction

import pytest

from e6lab import tits as tits_module
from e6lab.algcore import (
    StructAlgebra,
    derivation_algebra,
    inertia,
    jacobi_defect,
    killing_matrix,
    twist,
)
from e6lab.composition import hurwitz
from e6lab.jordan import h3
from e6lab.tits import (
    derj_model,
    jacobson_table,
    jordan_ingredient,
    proportionality_constants,
    sp31_decomposition,
    tits,
    tits_model,
    twist_signature_identity,
)

F = Fraction


def test_dimensions():
    assert tits_model("O", "m3r").dim == 14 + 7 * 8 + 8 == 78
    assert tits_model("RR", "albert").dim == 0 + 1 * 26 + 52 == 78
    assert tits_model("RR", "albert-split").dim == 78
    assert derj_model("albert").dim == 26 + 52


def test_jacobi_certified_on_construction():
    t = tits_model("O", "m3r")
    assert jacobi_defect(t.lie.alg) == []
    assert jacobi_defect(derj_model("albert-split").lie.alg) == []
    # the Der(J) + J0 view is a twist, which does not re-run Jacobi
    assert jacobi_defect(derj_model("albert").lie.alg) == []


def _block(sc, rng):
    """The structure constants of sc on the index range rng, shifted to 0."""
    off = rng.start
    return {
        (i - off, j - off): {k - off: v for k, v in row.items()}
        for (i, j), row in sc.items()
        if i in rng and j in rng
    }


def test_der_blocks_copy_the_shared_derivation_algebras():
    tc, trr = tits_model("C", "albert"), tits_model("RR", "albert")
    der_j = derivation_algebra(tc.jordan.alg)
    # both builds read one Der(J) algebra object, built once
    assert derivation_algebra(trr.jordan.alg) is der_j
    for t in (tc, trr):
        assert _block(t.lie.alg.sc, t.layout["der_j"]) == der_j.sc
    t = tits_model("O", "m3r")
    assert _block(t.lie.alg.sc, t.layout["der_c"]) == derivation_algebra(t.comp.alg).sc
    assert _block(t.lie.alg.sc, t.layout["der_j"]) == derivation_algebra(t.jordan.alg).sc


def test_bracket_antisymmetry_spot():
    t = tits_model("O", "m3r")
    sc = t.lie.alg.sc
    for (i, j), row in sc.items():
        other = sc.get((j, i), {})
        assert other == {k: -v for k, v in row.items()}


def test_der_summands_are_subalgebras_and_annihilate():
    t = tits_model("O", "m3r")
    sc = t.lie.alg.sc
    dc, dj = t.layout["der_c"], t.layout["der_j"]
    for i in dc:
        for j in dj:
            assert (i, j) not in sc
    for i in dc:
        for j in dc:
            row = sc.get((i, j), {})
            assert all(k in dc for k in row)
    for i in dj:
        for j in dj:
            row = sc.get((i, j), {})
            assert all(k in dj for k in row)


def test_killing_orthogonality_of_summands():
    t = tits_model("O", "m3r")
    k = t.lie.killing_matrix()
    ranges = [t.layout["der_c"], t.layout["tensor"], t.layout["der_j"]]
    for a in range(3):
        for b in range(a + 1, 3):
            for i in ranges[a]:
                for j in ranges[b]:
                    assert k[i][j] == 0


def test_jacobson_table():
    table = jacobson_table()
    assert table[("C", "albert")] == -78
    assert table[("C", "albert-split")] == -14
    assert table[("C", "splitalbert")] == 2
    assert table[("RR", "albert")] == -26
    assert table[("RR", "albert-split")] == -26
    assert table[("RR", "splitalbert")] == 6


def test_signature_minus26_via_m3r():
    assert inertia(tits_model("O", "m3r").lie.killing_matrix()).signature == -26


def test_derj_signatures():
    assert inertia(derj_model("albert").lie.killing_matrix()).signature == -26
    lie = derj_model("albert").lie
    compact = twist(lie, set(derj_model("albert").even_indices()), F(-1))
    assert inertia(killing_matrix(compact)).signature == -78


def test_proportionality_constants():
    pc = proportionality_constants()
    assert pc["c_der_C"] == 12
    assert pc["c_der_J"] == 8
    assert pc["delta"] == F(12, 5)
    # the tensor constant of Eq-4-as-printed; the published -60 does not
    # survive exact recomputation (see the acceptance battery)
    assert pc["alpha"] == -144


def test_tensor_form_is_the_entrywise_form():
    t = tits_model("O", "m3r")
    c, j = t.comp, t.jordan
    cvecs = [c.alg.basis_vector(b) for b in t.c0_idx]
    nc, nj = len(cvecs), len(t.j0_vectors)
    entrywise = [[None] * (nc * nj) for _ in range(nc * nj)]
    for a in range(nc):
        for x in range(nj):
            for b in range(nc):
                for y in range(nj):
                    entrywise[a * nj + x][b * nj + y] = c.norm_polar(cvecs[a], cvecs[b]) * j.t_j(
                        j.mult(t.j0_vectors[x], t.j0_vectors[y])
                    )
    assert tits_module._tensor_form(t) == entrywise


def test_tits_builds_each_right_multiplication_once(monkeypatch):
    j = jordan_ingredient("albert")
    calls = []
    original = StructAlgebra.right_mult_matrix

    def counted(self, x):
        if self is j.alg:
            calls.append(1)
        return original(self, x)

    monkeypatch.setattr(StructAlgebra, "right_mult_matrix", counted)
    t = tits(hurwitz("RR"), j, comp_name="RR")
    assert len(calls) == len(t.j0_vectors) == 26


def test_sp31_decomposition():
    dec = sp31_decomposition()
    assert dec["even_dim"] == 36
    assert dec["odd_dim"] == 42
    assert dec["fix_theta_and_nu_dim"] == 24
    assert dec["even_signature"] == -12


def test_twist_identity():
    tw = twist_signature_identity()
    assert tw["sign"] == -26
    assert tw["sign_twisted"] == -78
    assert tw["sign_even"] == -52
    assert tw["identity_holds"]


def test_positive_twists_preserve_signature():
    t = derj_model("albert-split")
    base = inertia(t.lie.killing_matrix()).signature
    even = set(t.even_indices())
    for scale in (F(1), F(4), F(9)):
        tw = twist(t.lie, even, scale)
        assert inertia(killing_matrix(tw)).signature == base == -26


def test_tensor_coefficient_rigidity():
    # scaling only one output channel of the tensor x tensor bracket must
    # break Jacobi (the construction is rigid up to the simultaneous family)
    t = tits_model("O", "m3r")
    rng_t = t.layout["tensor"]
    rng_dj = t.layout["der_j"]
    sc = {}
    for (i, j), row in t.lie.alg.sc.items():
        if i in rng_t and j in rng_t:
            sc[(i, j)] = {k: (v * 2 if k in rng_dj else v) for k, v in row.items()}
        else:
            sc[(i, j)] = dict(row)
    mod = StructAlgebra(
        dim=t.dim, basis_labels=t.lie.alg.basis_labels, sc=sc
    )
    assert jacobi_defect(mod) != []


@pytest.mark.stress
@pytest.mark.skipif(not os.environ.get("E6_STRESS"), reason="set E6_STRESS=1")
def test_e8_cell():
    t = tits(hurwitz("O"), h3("O", (1, 1, 1)), comp_name="O")
    assert t.dim == 14 + 7 * 26 + 52 == 248
