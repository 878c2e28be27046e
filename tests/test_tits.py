import os
import sys
from fractions import Fraction
from itertools import combinations

import pytest

from dataclasses import replace

from e6lab import jordan, linalg
from e6lab import tits as tits_module
from e6lab.algcore import (
    AlgebraError,
    LieAlgebra,
    StructAlgebra,
    bracket_constants,
    derivation_algebra,
    derivation_int_matrices,
    derivations,
    fixed_subspace,
    inertia,
    is_automorphism,
    jacobi_defect,
    killing_matrix,
    twist,
)
from e6lab.composition import HURWITZ_NAMES, d_ab, hurwitz
from e6lab.jordan import h3
from e6lab.tits import (
    derj_model,
    jacobson_table,
    proportionality_constants,
    sp31_decomposition,
    tits,
    tits_model,
    twist_signature_identity,
)
from oracles import derivation_solver_full_width, mat_vec, nu_automorphism, span_coefficients

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
    # once per J object: the first T(C, J) builds the J layer, which keeps
    # the brackets [R_x, R_y], and a second C reads it
    j = jordan._h3_cached.__wrapped__("O", (1, 1, 1))
    calls = []
    original = StructAlgebra.right_mult_matrix

    def counted(self, x):
        if self is j.alg:
            calls.append(1)
        return original(self, x)

    monkeypatch.setattr(StructAlgebra, "right_mult_matrix", counted)
    t = tits(hurwitz("RR"), j, comp_name="RR")
    assert len(calls) == len(t.j0_vectors) == 26
    tits(hurwitz("C"), j, comp_name="C")
    assert len(calls) == 26


def _fresh_j(jname):
    if jname == "m3r":
        return jordan.m3r.__wrapped__()
    return jordan._h3_cached.__wrapped__(*tits_module.JORDAN_INGREDIENTS[jname])


CATALOG_PAIRS = [("O", "m3r")] + [
    (c, j) for j in ("albert", "albert-split", "splitalbert") for c in ("C", "RR")
]


@pytest.fixture(scope="module")
def fresh_catalog_builds():
    """The seven catalog T(C, J) on fresh ingredient objects, one per name,
    with the layers and pair tables built on the way; T(C, J) comes before
    T(R+R, J), so the latter reads a J layer already built."""
    comps = {c: hurwitz.__wrapped__(c) for c in ("O", "C", "RR")}
    js = {jn: _fresh_j(jn) for jn in ("m3r", "albert", "albert-split", "splitalbert")}
    layers, pair_tables = [], []
    layer_class = tits_module.Layer
    original_pairs = layer_class.pair_tables

    def counted_layer(*args):
        layers.append(args[0])
        return layer_class(*args)

    def counted_pairs(self, x):
        if self._pairs is None:
            pair_tables.append(self.name)
        return original_pairs(self, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tits_module, "Layer", counted_layer)
        mp.setattr(layer_class, "pair_tables", counted_pairs)
        models = {(c, jn): tits(comps[c], js[jn], comp_name=c) for c, jn in CATALOG_PAIRS}
    return models, layers, pair_tables


def test_seven_catalog_models_build_seven_layers(fresh_catalog_builds):
    models, layers, pair_tables = fresh_catalog_builds
    assert sorted(layers) == ["C"] * 3 + ["J"] * 4
    # the J pair tables are read only when dim C0 > 1: for T(O, M3R)
    assert sorted(pair_tables) == ["C", "C", "C", "J"]
    assert tits_module.ingredient_layer(models[("O", "m3r")].jordan)._pairs is not None
    for (c, jn), t in models.items():
        assert t.lie.alg.sc == tits_model(c, jn).lie.alg.sc


def _entries(sc):
    return [(key, list(row.items()), [type(v) for v in row.values()]) for key, row in sc.items()]


def test_model_and_constants_never_build_the_dense_der_basis(monkeypatch):
    # Der(C) and Der(J) are read as the kept int matrices: T(O, M3R) and the
    # four constants, on fresh ingredients, never call the dense view
    calls = []

    def counted(alg):
        calls.append(alg)
        return derivations(alg)

    for name, module in list(sys.modules.items()):
        if name.startswith("e6lab") and hasattr(module, "derivations"):
            monkeypatch.setattr(module, "derivations", counted)

    def fresh_model(cname, jname):
        return tits(hurwitz.__wrapped__(cname), _fresh_j(jname), comp_name=cname)

    monkeypatch.setattr(tits_module, "tits_model", fresh_model)
    monkeypatch.setattr(tits_module, "derj_model", tits_module.derj_j0_model)
    monkeypatch.setattr(tits_module, "sp31_decomposition", sp31_decomposition.__wrapped__)
    t = tits_module.tits_model("O", "m3r")
    pc = tits_module.proportionality_constants()
    assert calls == []
    assert t.lie.alg.sc == tits_model("O", "m3r").lie.alg.sc
    assert pc == {"c_der_C": 12, "c_der_J": 8, "alpha": -144, "delta": F(12, 5)}


def test_a_kept_j_layer_builds_the_same_table(fresh_catalog_builds):
    models, _, _ = fresh_catalog_builds
    reused = models[("RR", "albert")]
    assert reused.jordan is models[("C", "albert")].jordan
    fresh = tits(hurwitz.__wrapped__("RR"), _fresh_j("albert"), comp_name="RR")
    assert list(reused.lie.alg.sc.items()) == list(fresh.lie.alg.sc.items())
    assert _entries(reused.lie.alg.sc) == _entries(fresh.lie.alg.sc)


@pytest.mark.parametrize("ingredient", ["C", "J"])
def test_a_layer_over_a_broken_x0_raises(monkeypatch, ingredient):
    # X0 with one basis vector dropped: Der(X) maps the rest out of its span
    if ingredient == "C":
        c, j = hurwitz.__wrapped__("O"), jordan.m3r()
        indices = c.traceless_indices()
        monkeypatch.setattr(c, "traceless_indices", lambda: indices[1:])
        broken = c
    else:
        c, j = hurwitz("RR"), _fresh_j("albert")
        monkeypatch.setattr(tits_module, "j0_basis", lambda x: jordan.j0_basis(x)[1:])
        broken = j
    with pytest.raises(AlgebraError, match=f"a vector leaves {ingredient}0"):
        tits(c, j, comp_name="X")
    assert broken._layer is None


def test_tits_keeps_only_the_der_tables_on_its_ingredients(monkeypatch):
    # the layers read their pairings on a full-width Der(X) solver and drop
    # it: on fresh ingredients, each Der(X) slot holds the table alone
    monkeypatch.setattr(tits_module, "hurwitz", hurwitz.__wrapped__)
    monkeypatch.setattr(tits_module, "jordan_ingredient", _fresh_j)
    t = tits_model.__wrapped__("O", "m3r")
    assert t.comp is not hurwitz("O") and t.jordan is not jordan.m3r()
    for x in (t.comp, t.jordan):
        assert type(x.alg._der_alg_cache) is StructAlgebra
        assert x.alg._der_alg_cache is derivation_algebra(x.alg)


@pytest.mark.parametrize("name", [n for n in HURWITZ_NAMES if hurwitz(n).dim > 2])
def test_c_pairing_is_d_ab_read_in_der_c(name):
    # the layer forms d_{a,b} on the int-scaled L_v and R_v of C0; read as
    # d_ab of the composition algebra in the full-width Der(C) solver it is
    # the same
    c = hurwitz(name)
    layer = tits_module.ingredient_layer(c)
    vs, solver = layer.vectors, derivation_solver_full_width(c.alg)
    expected = {}
    for a, b in combinations(range(len(vs)), 2):
        d, m = linalg.int_scaled(d_ab(c, vs[a], vs[b]))
        expected[(a, b)] = solver.int_coordinates(m, d)
    assert repr(list(layer.pairing.items())) == repr(list(expected.items()))


def test_sp31_decomposition():
    dec = sp31_decomposition()
    assert dec["even_dim"] == 36
    assert dec["odd_dim"] == 42
    assert dec["fix_theta_and_nu_dim"] == 24
    assert dec["even_signature"] == -12


def _dense_sp31_reference():
    """The dense sp(3,1) decomposition that the diagonal one replaced, kept
    as the reference: nu as a 27x27 matrix checked by `is_automorphism`, its
    lift through the J0 and Der(J) span solvers and `mat_mul`, theta*nu as a
    78x78 matrix, the even part as its fixed space, and the subalgebra's
    table through `bracket_constants`."""
    j = h3("O", (1, 1, 1))
    t = tits_module.derj_model("albert")
    lie = t.lie
    dim = lie.dim
    nu_j = nu_automorphism()
    if not is_automorphism(j.alg, nu_j):
        raise AlgebraError("nu is not an automorphism of the Albert algebra")
    der = derivations(t.jordan.alg)
    dj_solver = derivation_solver_full_width(t.jordan.alg)
    j0 = t.j0_vectors
    j0_solver = linalg.SpanSolver(j0)
    nu_l = [[F(0)] * dim for _ in range(dim)]
    for ji, x in enumerate(j0):
        img = span_coefficients(j0_solver, mat_vec(nu_j, x))
        for r, v in enumerate(img):
            nu_l[t.layout["tensor"].start + r][t.layout["tensor"].start + ji] = v
    for p, d in enumerate(der):
        conj = linalg.mat_mul(nu_j, linalg.mat_mul(d, nu_j))
        img = span_coefficients(dj_solver, sum(conj, []))
        if img is None:
            raise AlgebraError("nu conjugation leaves Der(J)")
        for r, v in enumerate(img):
            nu_l[t.layout["der_j"].start + r][t.layout["der_j"].start + p] = v
    theta = [[F(0)] * dim for _ in range(dim)]
    for i in range(dim):
        theta[i][i] = F(1) if i in t.layout["der_j"] else F(-1)
    nu_prime = linalg.mat_mul(theta, nu_l)
    if not is_automorphism(lie.alg, nu_prime):
        raise AlgebraError("theta*nu is not an automorphism")
    even_basis, even_dim = fixed_subspace(nu_prime)
    der_range = t.layout["der_j"]
    nu_der_block = [
        [nu_l[der_range.start + r][der_range.start + p] for p in range(len(der))]
        for r in range(len(der))
    ]
    fix_both, _ = fixed_subspace(nu_der_block)
    gram = linalg.gram(lie.killing_matrix(), even_basis, even_basis)
    even_sig = inertia(gram).signature
    sub_sc = bracket_constants(
        linalg.SpanSolver(even_basis), lambda a, b: lie.bracket(even_basis[a], even_basis[b])
    )
    sub = LieAlgebra(
        StructAlgebra(dim=even_dim, basis_labels=[f"s{i}" for i in range(even_dim)], sc=sub_sc),
        check_jacobi=False,
    )
    k0 = killing_matrix(sub)
    delta = tits_module._ratio_constant(gram, list(range(even_dim)), k0)
    return {
        "even_dim": even_dim,
        "odd_dim": dim - even_dim,
        "fix_theta_and_nu_dim": len(fix_both),
        "even_signature": even_sig,
        "delta": delta,
        "model": t,
        "even_basis": even_basis,
    }


def test_sp31_decomposition_equals_the_dense_reference():
    dec = sp31_decomposition()
    ref = _dense_sp31_reference()
    assert dec.keys() == ref.keys()
    assert dec["model"] is ref["model"]
    for key in ("even_dim", "odd_dim", "fix_theta_and_nu_dim", "even_signature"):
        assert dec[key] == ref[key], key
    assert dec["delta"] == ref["delta"] == F(12, 5)
    assert type(dec["delta"]) is type(ref["delta"]) is Fraction
    assert dec["even_basis"] == ref["even_basis"]
    assert [[type(x) for x in row] for row in dec["even_basis"]] == [
        [type(x) for x in row] for row in ref["even_basis"]
    ]


def test_sp31_rejects_a_nu_with_one_iota_sign_flipped(monkeypatch):
    j = h3("O", (1, 1, 1))
    nu = jordan.nu_diagonal()
    flipped = list(nu)
    flipped[j.alg.basis_labels.index("i1(l)")] *= -1
    monkeypatch.setattr(jordan, "nu_diagonal", lambda: flipped)
    monkeypatch.setattr(tits_module, "nu_diagonal", lambda: flipped)
    with pytest.raises(AlgebraError, match="nu is not an automorphism"):
        sp31_decomposition.__wrapped__()
    with pytest.raises(AlgebraError, match="nu is not an automorphism"):
        _dense_sp31_reference()


def _first_of_other_sign(vectors, sign_of):
    """The first index whose vector takes the other sign than vector 0."""
    first = sign_of(vectors[0])
    return next(q for q, v in enumerate(vectors) if sign_of(v) != first)


@pytest.mark.parametrize("block", ["j0_vectors", "der_j_basis"])
def test_sp31_rejects_a_lift_that_is_not_diagonal(monkeypatch, block):
    # replace basis vector 0 of J0 or Der(J) by its sum with one of the other
    # nu-sign: nu then maps it to the difference, not to +- itself.  Der(J)
    # is read as the int matrices kept on J, so the mutant goes there
    t = derj_model("albert")
    nu = jordan.nu_diagonal()
    if block == "j0_vectors":
        vectors = t.j0_vectors
        q = _first_of_other_sign(vectors, lambda x: nu[next(k for k, v in enumerate(x) if v)])
        mutant = replace(t, j0_vectors=[linalg.vec_add(vectors[0], vectors[q])] + vectors[1:])
        monkeypatch.setattr(tits_module, "derj_model", lambda jname: mutant)
    else:
        den, mats = derivation_int_matrices(t.jordan.alg)
        q = _first_of_other_sign(
            mats, lambda d: next(nu[a] * nu[b] for a, row in d.items() for b in row)
        )
        mixed = {r: dict(row) for r, row in mats[0].items()}
        for r, row in mats[q].items():
            linalg.sp_add_into(mixed.setdefault(r, {}), row, 1)
        mutant = (den, [mixed] + mats[1:])
        monkeypatch.setattr(tits_module, "derivation_int_matrices", lambda alg: mutant)
    with pytest.raises(AlgebraError, match="does not map a basis vector"):
        sp31_decomposition.__wrapped__()


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
