from fractions import Fraction

import pytest

from e6lab import catalog, linalg
from e6lab.algcore import StructAlgebra, derivations, inertia
from e6lab.composition import hurwitz, octonion_z23_grading
from e6lab.gradings import (
    FinAbGroup,
    GradedDecomposition,
    GradingError,
    coarsen,
    combine,
    common_refinement,
    graded_witt_basis,
    induced_on_der,
    killing_orthogonality_violations,
    signature_bound,
    type_vector,
    type_vector_sum,
    verify,
)
from e6lab.jordan import h3, jordan_gradings, m3r
from e6lab.tits import tits_model

F = Fraction


def test_group_arithmetic():
    g = FinAbGroup(1, (2, 4))
    assert g.identity() == (0, 0, 0)
    assert g.add((1, 1, 3), (2, 1, 2)) == (3, 0, 1)
    assert g.neg((1, 1, 3)) == (-1, 1, 1)
    assert g.order_divides_2((0, 1, 2))
    assert not g.order_divides_2((1, 0, 0))
    assert not g.order_divides_2((0, 0, 1))
    assert g.name() == "Z x Z2 x Z4"
    prod = g.product(FinAbGroup(0, (2,)))
    assert prod.free_rank == 1 and prod.torsion == (2, 4, 2)
    assert g.combine_elements(FinAbGroup(0, (2,)), (5, 1, 3), (1,)) == (5, 1, 3, 1)


def test_group_rejects_bad_torsion():
    with pytest.raises(GradingError):
        FinAbGroup(0, (1,))


def test_type_vector_sums():
    for name in catalog.GRADING_NAMES:
        g, _, _ = catalog.grading(name)
        assert type_vector_sum(g) == 78


def test_flagship_types_and_groups():
    for name, meta in catalog.TABLE2.items():
        g, _, _ = catalog.grading(name)
        assert type_vector(g) == meta["type"], name
        assert g.group.name() == meta["group"], name
        assert g.dimension_of(g.group.identity()) == meta["e_dim"], name


def test_flagship_verify():
    for name in catalog.GRADING_NAMES:
        g, _, _ = catalog.grading(name)
        assert verify(g).valid, name


def test_killing_orthogonality_all():
    for name in catalog.GRADING_NAMES:
        g, carrier, _ = catalog.grading(name)
        assert killing_orthogonality_violations(g, carrier) == [], name


def test_signature_bound_all():
    for name in catalog.GRADING_NAMES:
        g, carrier, _ = catalog.grading(name)
        rec = signature_bound(g, carrier)
        assert rec["holds"], (name, rec)


def test_signature_bound_static_cases():
    g7, carrier7, _ = catalog.grading("gamma7")
    rec = signature_bound(g7, carrier7)
    assert rec == {"sign": -26, "dim_e": 0, "d": 78, "holds": True}
    g4, carrier4, _ = catalog.grading("gamma4")
    rec4 = signature_bound(g4, carrier4)
    assert rec4["dim_e"] == 2
    # order-2 nonidentity degrees of gamma4 are the 7 four-dimensional
    # components at (0,0; g), so the bound is tight: |-26 - 2| = 28 = d
    assert rec4["d"] == 28
    assert rec4["holds"]


def test_gamma4_order2_component_dims():
    g4, _, _ = catalog.grading("gamma4")
    dims = sorted(
        len(v)
        for deg, v in g4.components.items()
        if g4.group.order_divides_2(deg) and not g4.group.is_identity(deg)
    )
    assert dims == [4] * 7  # repository fact, frozen


def test_witt_basis_certificates():
    for name in catalog.GRADING_NAMES:
        g, carrier, _ = catalog.grading(name)
        rec = graded_witt_basis(g, carrier)
        assert rec["gram_ok"], name
        assert rec["signature"] == inertia(carrier.killing_matrix()).signature
        # hyperbolic pairs: order-infinity or unpaired degrees contribute 0
        assert 2 * len(rec["hyperbolic_pairs"]) + len(rec["diagonal"]) == 78


def test_witt_gamma7_no_hyperbolic_pairs():
    # every degree of the Z2^6 grading squares to e, so everything is diagonal
    g, carrier, _ = catalog.grading("gamma7")
    rec = graded_witt_basis(g, carrier)
    assert rec["hyperbolic_pairs"] == []
    assert len(rec["diagonal"]) == 78


def test_witt_gamma8_pairs_off_infinite_degrees():
    g, carrier, _ = catalog.grading("gamma8")
    rec = graded_witt_basis(g, carrier)
    paired_dim = 2 * len(rec["hyperbolic_pairs"])
    infinite = sum(
        len(v)
        for deg, v in g.components.items()
        if not g.group.order_divides_2(deg)
    )
    assert paired_dim == infinite


def test_killing_checks_reject_moved_component():
    # move one component of gamma8 whose degree is not its own negative to a
    # degree outside the support: it loses its Killing partner
    g, carrier, _ = catalog.grading("gamma8")
    moved = next(d for d in g.support if g.group.neg(d) != d)
    fresh = (5, 0, 0, 0, 0)
    assert fresh not in g.components
    comps = dict(g.components)
    comps[fresh] = comps.pop(moved)
    bad = GradedDecomposition(g.group, g.algebra, comps)
    assert killing_orthogonality_violations(bad, carrier) == [
        (g.group.neg(moved), fresh)
    ]
    with pytest.raises(GradingError):
        graded_witt_basis(bad, carrier)
    rep = verify(bad)
    assert not rep.closure_ok
    assert len(rep.violations) == 92  # repository fact, frozen


def test_verify_past_the_int_table_bound():
    # b_i -> p_i b_i with large p_i keeps every grading by basis lines, but
    # the constants c_ij^k p_i p_j / p_k are past the int-table bound, so
    # closure is checked on the int-scaled Fraction table instead
    g = octonion_z23_grading()
    alg = g.algebra
    p = [2**31 - 1 - 2 * i for i in range(alg.dim)]
    sc = {
        (i, j): {k: v * p[i] * p[j] / p[k] for k, v in row.items()}
        for (i, j), row in alg.sc.items()
    }
    big = StructAlgebra(dim=alg.dim, basis_labels=list(alg.basis_labels), sc=sc)
    assert big.int_tensor() == (None, None)
    assert verify(GradedDecomposition(g.group, big, g.components)).valid
    # swapping the lines of two degrees breaks closure the same way on both
    d1, d2 = g.support[1], g.support[2]
    comps = dict(g.components)
    comps[d1], comps[d2] = comps[d2], comps[d1]
    want = verify(GradedDecomposition(g.group, alg, comps)).violations
    assert want
    assert verify(GradedDecomposition(g.group, big, comps)).violations == want


def test_induced_on_der_octonion():
    g = octonion_z23_grading()
    ind = induced_on_der(g)
    assert verify(ind).valid
    assert type_vector(ind) == (0, 7)  # 7 components of dim 2, e-component 0
    assert ind.dimension_of((0, 0, 0)) == 0


def test_induced_on_der_octonion_brute_force():
    # independent route: solve the Leibniz system together with the degree
    # constraints, without parametrizing by the derivation basis
    o = hurwitz("O")
    g = octonion_z23_grading()
    deg_of = {}
    for deg, vecs in g.components.items():
        for v in vecs:
            deg_of[v.index(F(1))] = deg
    total = 0
    for gdeg in g.components:
        acc = linalg.IntKernelAccumulator(64)
        # d(b_j) must lie in the line of degree gdeg + deg(b_j)
        for j in range(8):
            target = g.group.add(gdeg, deg_of[j])
            allowed = {v.index(F(1)) for v in g.components[target]}
            for p in range(8):
                if p not in allowed:
                    acc.add_constraint({p * 8 + j: 1})
        # Leibniz on all pairs
        sc = o.alg.sc
        for i in range(8):
            for j in range(8):
                prod = sc.get((i, j), {})
                for k in range(8):
                    row = {}
                    for mm, v in prod.items():
                        row[k * 8 + mm] = row.get(k * 8 + mm, 0) + v
                    for p in range(8):
                        vpj = sc.get((p, j), {}).get(k)
                        if vpj:
                            row[p * 8 + i] = row.get(p * 8 + i, 0) - vpj
                        viq = sc.get((i, p), {}).get(k)
                        if viq:
                            row[p * 8 + j] = row.get(p * 8 + j, 0) - viq
                    row = {u: val for u, val in row.items() if val}
                    if row:
                        acc.add_constraint(row)
        dim = acc.dimension
        ind_dim = 2 if gdeg != (0, 0, 0) else 0
        assert dim == ind_dim, (gdeg, dim)
        total += dim
    assert total == 14


def test_induced_on_der_z_grading_contains_operator():
    j = h3("O", (1, -1, 1))
    from e6lab.jordan import z_grading_operator

    ders = derivations(j.alg)
    g = jordan_gradings(j)["z"]
    ind = induced_on_der(g)
    op = z_grading_operator(j)
    expander = linalg.SpanSolver([sum(d, []) for d in ders])
    coeffs = expander.coefficients(
        {i: v for i, v in enumerate(sum(op, [])) if v}
    )
    assert coeffs is not None
    assert ind.degree_of(coeffs) == (0,)


def test_induced_on_der_m3r_z2():
    g = jordan_gradings(m3r())["z^2"]
    ind = induced_on_der(g)
    assert ind.dimension_of((0, 0)) == 2  # diagonal traceless
    assert type_vector_sum(ind) == 8


def test_combine_coarsening_consistency():
    # projecting gamma4 degrees to the octonion factor = combining with the
    # trivial grading on M
    g4, _, _ = catalog.grading("gamma4")
    t = tits_model("O", "m3r")
    m = m3r()
    trivial_j = GradedDecomposition(
        group=FinAbGroup(0, ()),
        algebra=m.alg,
        components={(): [m.alg.basis_vector(i) for i in range(9)]},
    )
    proj = coarsen(
        g4,
        lambda deg: deg[2:],  # drop the two free coordinates
        FinAbGroup(0, (2, 2, 2)),
    )
    direct = combine(octonion_z23_grading(), trivial_j, t)
    assert proj.support == direct.support
    for deg in proj.support:
        a = linalg.rref(proj.components[deg])[0]
        b = linalg.rref(direct.components[deg])[0]
        assert a == b, deg


def test_common_refinement_incompatible_raises():
    # transverse line decompositions of R+R have zero pairwise intersections
    rr = hurwitz("RR")
    one, s = rr.alg.basis_vector(0), rr.alg.basis_vector(1)
    g1 = GradedDecomposition(
        group=FinAbGroup(0, (2,)),
        algebra=rr.alg,
        components={(0,): [one], (1,): [s]},
    )
    g2 = GradedDecomposition(
        group=FinAbGroup(0, (2,)),
        algebra=rr.alg,
        components={(0,): [linalg.vec_add(one, s)], (1,): [linalg.vec_sub(one, s)]},
    )
    with pytest.raises(GradingError):
        common_refinement(g1, g2)
    # and the refinement of compatible pairs is fine and spans everything
    ref = common_refinement(g1, g1)
    assert type_vector_sum(ref) == 2


def test_grading_json_roundtrip():
    from e6lab.gradings import grading_from_json, grading_to_json

    g = octonion_z23_grading()
    doc = grading_to_json(g)
    back = grading_from_json(doc, g.algebra)
    assert back.components == g.components
    assert back.group == g.group


def test_grading_vectors_of_the_wrong_length_are_rejected():
    from e6lab.gradings import grading_from_json

    sl2 = StructAlgebra(dim=3, basis_labels=["h", "e", "f"], sc={
        (0, 1): {1: F(2)}, (1, 0): {1: F(-2)}, (0, 2): {2: F(-2)}, (2, 0): {2: F(2)},
        (1, 2): {0: F(1)}, (2, 1): {0: F(-1)},
    })

    def doc(e_vector):
        return {
            "group": {"free_rank": 1, "torsion": []},
            "components": [
                {"degree": [0], "vectors": [["1", "0", "0"]]},
                {"degree": [2], "vectors": [e_vector]},
                {"degree": [-2], "vectors": [["0", "0", "1"]]},
            ],
        }

    assert verify(grading_from_json(doc(["0", "1", "0"]), sl2)).valid
    for short_or_long in (["0", "1"], ["0", "1", "0", "7"]):
        with pytest.raises(GradingError, match=r"\(2,\)"):
            grading_from_json(doc(short_or_long), sl2)
