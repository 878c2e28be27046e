from fractions import Fraction

import pytest

from e6lab import catalog, linalg
from e6lab.algcore import StructAlgebra, derivations, inertia
from e6lab.composition import hurwitz, octonion_z23_grading
from e6lab.gradings import (
    FinAbGroup,
    GradedDecomposition,
    GradingError,
    combine,
    common_refinement,
    graded_witt_basis,
    induced_on_der,
    killing_orthogonality_violations,
    signature_bound,
    type_vector,
    verify,
)
from e6lab.jordan import h3, jordan_gradings, m3r
from e6lab.tits import tits_model
from oracles import coarsen, mat_vec, scaled_rows_dense, span_coefficients

F = Fraction


def _type_vector_sum(grading):
    """sum_i i h_i over the type vector: the dimension the components span."""
    return sum((i + 1) * h for i, h in enumerate(type_vector(grading)))


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
        assert _type_vector_sum(g) == 78


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
        dim = len(acc.basis)
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
    coeffs = span_coefficients(expander, {i: v for i, v in enumerate(sum(op, [])) if v})
    assert coeffs is not None
    assert ind.degree_of(coeffs) == (0,)


def test_induced_on_der_m3r_z2():
    g = jordan_gradings(m3r())["z^2"]
    ind = induced_on_der(g)
    assert ind.dimension_of((0, 0)) == 2  # diagonal traceless
    assert _type_vector_sum(ind) == 8


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
    assert _type_vector_sum(ref) == 2


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


# ---------------------------------------------------------------------------
# the graded certificates against the per-degree bodies they replaced
#
# `verify` was a per-degree `SpanSolver.contains` query about every product,
# Killing orthogonality and the Witt blocks read a dense K' = P K P^T built
# by `gram` on the dense K, and `induced_on_der` solved one kernel per
# candidate degree.  Those bodies are kept here as references.


def _reference_verify(grading):
    alg = grading.algebra
    stacked = [v for vecs in grading.components.values() for v in vecs]
    direct_sum_ok = len(stacked) == alg.dim and linalg.rank(stacked) == alg.dim
    solvers = {g: linalg.SpanSolver(vecs) for g, vecs in grading.components.items()}
    violations = []
    for g, gv in grading.components.items():
        for h, hv in grading.components.items():
            target = grading.group.add(g, h)
            tsolver = solvers.get(target)
            for x in gv:
                for y in hv:
                    p = alg.multiply(x, y)
                    if any(p) and (tsolver is None or span_coefficients(tsolver, p) is None):
                        violations.append((g, h, target))
    return direct_sum_ok, not violations, violations


def _reference_homogeneous_gram(grading, lie):
    spans = {}
    rows = []
    for g in grading.support:
        spans[g] = slice(len(rows), len(rows) + len(grading.components[g]))
        rows.extend(grading.components[g])
    kp = linalg.mat_mul(linalg.mat_mul(rows, lie.killing_matrix()), linalg.transpose(rows))
    return kp, spans


def _reference_orthogonality(grading, lie):
    kp, spans = _reference_homogeneous_gram(grading, lie)
    supp = grading.support
    return [
        (g, h)
        for gi, g in enumerate(supp)
        for h in supp[gi:]
        if not grading.group.is_identity(grading.group.add(g, h))
        and any(x for row in kp[spans[g]] for x in row[spans[h]])
    ]


def _reference_witt(grading, lie):
    k = lie.killing_matrix()
    group = grading.group
    kp, spans = _reference_homogeneous_gram(grading, lie)

    def block(g, h):
        return [row[spans[h]] for row in kp[spans[g]]]

    pairs, zvecs, done = [], [], set()
    for g in grading.support:
        if g in done:
            continue
        neg = group.neg(g)
        gv = grading.components[g]
        if neg == g:
            diag, p = linalg.congruence_diagonalize(block(g, g))
            if any(d == 0 for d in diag):
                raise GradingError(f"Killing form degenerate on component {g}")
            zvecs.extend(zip(linalg.mat_mul(linalg.transpose(p), gv), diag))
            done.add(g)
        else:
            if neg not in grading.components:
                raise GradingError(f"component {g} has no pairing partner")
            hv = grading.components[neg]
            if len(gv) != len(hv):
                raise GradingError("paired components have different dimensions")
            ginv = linalg.mat_inverse(block(g, neg))
            pairs.extend(zip(gv, linalg.mat_mul(linalg.transpose(ginv), hv)))
            done.update((g, neg))
    basis = [w for u, v in pairs for w in (u, v)] + [z for z, _ in zvecs]
    gram = linalg.mat_mul(linalg.mat_mul(basis, k), linalg.transpose(basis))
    expected = linalg.zeros(len(basis), len(basis))
    for t in range(len(pairs)):
        expected[2 * t][2 * t + 1] = expected[2 * t + 1][2 * t] = F(1)
    for t, (_, piv) in enumerate(zvecs):
        expected[2 * len(pairs) + t][2 * len(pairs) + t] = piv
    if gram != expected:
        raise GradingError("Witt basis Gram certificate failed")
    sig = sum(1 if piv > 0 else -1 for _, piv in zvecs)
    if sig != inertia(k).signature:
        raise GradingError("Witt signature disagrees with inertia")
    return {"hyperbolic_pairs": pairs, "diagonal": zvecs, "signature": sig, "gram_ok": True}


def _reference_induced_on_der(grading):
    alg = grading.algebra
    der_basis = derivations(alg)
    m = len(der_basis)
    supp = grading.support
    group = grading.group
    candidates = sorted({group.add(h2, group.neg(h1)) for h1 in supp for h2 in supp})
    stacked, positions = [], []
    for h in supp:
        for r, v in enumerate(grading.components[h]):
            stacked.append(v)
            positions.append((h, r))
    full_solver = linalg.SpanSolver(stacked)
    slices = {}  # (h, vi) -> {target: {t: {r: coefficient}}}
    for h in supp:
        for vi, v in enumerate(grading.components[h]):
            per_target = {}
            for t, d in enumerate(der_basis):
                coeffs = span_coefficients(full_solver, mat_vec(d, v))
                for pos, co in enumerate(coeffs):
                    if co:
                        tgt, r = positions[pos]
                        per_target.setdefault(tgt, {}).setdefault(t, {})[r] = co
            slices[(h, vi)] = per_target
    comps = {}
    for g in candidates:
        acc = linalg.IntKernelAccumulator(m)
        for (h, vi), per_target in slices.items():
            allowed = group.add(g, h)
            for target, per_der in per_target.items():
                if target != allowed:
                    for r in {r for d in per_der.values() for r in d}:
                        acc.add_constraint({t: d[r] for t, d in per_der.items() if r in d})
        combos = scaled_rows_dense(acc.kernel_basis(), m)
        if combos:
            comps[g] = combos
    assert sum(len(v) for v in comps.values()) == m
    return comps


def _types(x):
    """x with every scalar replaced by its type: equal values of other
    types would pass ==."""
    if isinstance(x, (list, tuple)):
        return [_types(v) for v in x]
    if isinstance(x, dict):
        return {k: _types(v) for k, v in x.items()}
    return type(x)


def _swapped_octonion_lines():
    g = octonion_z23_grading()
    d1, d2 = g.support[1], g.support[2]
    comps = dict(g.components)
    comps[d1], comps[d2] = comps[d2], comps[d1]
    return GradedDecomposition(g.group, g.algebra, comps)


def _rescaled_past_bound(alg):
    p = [2**31 - 1 - 2 * i for i in range(alg.dim)]
    sc = {
        (i, j): {k: v * p[i] * p[j] / p[k] for k, v in row.items()}
        for (i, j), row in alg.sc.items()
    }
    big = StructAlgebra(dim=alg.dim, basis_labels=list(alg.basis_labels), sc=sc)
    assert big.int_tensor() == (None, None)
    return big


def _moved_gamma8():
    g, carrier, _ = catalog.grading("gamma8")
    moved = next(d for d in g.support if g.group.neg(d) != d)
    comps = dict(g.components)
    comps[(5, 0, 0, 0, 0)] = comps.pop(moved)
    return GradedDecomposition(g.group, g.algebra, comps), carrier


def _report(rep):
    return rep.direct_sum_ok, rep.closure_ok, rep.violations


@pytest.mark.parametrize("name", catalog.GRADING_NAMES)
def test_graded_certificates_equal_the_reference_bodies(name):
    g, carrier, _ = catalog.grading(name)
    g = GradedDecomposition(g.group, g.algebra, g.components)  # a basis of its own
    assert _report(verify(g)) == _reference_verify(g) == (True, True, [])
    assert killing_orthogonality_violations(g, carrier) == _reference_orthogonality(g, carrier) == []
    new, old = graded_witt_basis(g, carrier), _reference_witt(g, carrier)
    for key in ("hyperbolic_pairs", "diagonal", "signature", "gram_ok"):
        assert new[key] == old[key], key
        assert _types(new[key]) == _types(old[key]), key


def test_graded_certificates_equal_the_reference_bodies_on_mutants():
    bad, carrier = _moved_gamma8()
    rep = _report(verify(bad))
    assert rep == _reference_verify(bad)
    assert len(rep[2]) == 92
    assert killing_orthogonality_violations(bad, carrier) == _reference_orthogonality(bad, carrier)
    for witt in (graded_witt_basis, _reference_witt):
        with pytest.raises(GradingError, match="no pairing partner"):
            witt(bad, carrier)
    # a component merged into its Killing partner's degree: K(L_g, L_g) != 0
    g8, _, _ = catalog.grading("gamma8")
    d = next(d for d in g8.support if g8.group.neg(d) != d)
    comps = dict(g8.components)
    comps[d] = comps[d] + comps.pop(g8.group.neg(d))
    merged = GradedDecomposition(g8.group, g8.algebra, comps)
    # the line L_e moved to a degree f with 2f != e: K(L_f, L_f) != 0
    comps = dict(g8.components)
    comps[(5, 0, 0, 0, 0)] = comps.pop(g8.group.identity())
    lifted = GradedDecomposition(g8.group, g8.algebra, comps)
    for bad, pair in ((merged, (d, d)), (lifted, ((5, 0, 0, 0, 0),) * 2)):
        viols = killing_orthogonality_violations(bad, carrier)
        assert pair in viols
        assert viols == _reference_orthogonality(bad, carrier)
        assert _report(verify(bad)) == _reference_verify(bad)
    swapped = _swapped_octonion_lines()
    big = _rescaled_past_bound(swapped.algebra)
    for alg in (swapped.algebra, big):
        for comps in (octonion_z23_grading().components, swapped.components):
            g = GradedDecomposition(swapped.group, alg, comps)
            assert _report(verify(g)) == _reference_verify(g)
    assert not verify(swapped).closure_ok


@pytest.mark.parametrize(
    "name",
    ["O-z2^3", "M3R-z^2", "albert-split-z", "albert-split-z2^2+z2^3", "albert-split-z+z2^3"],
)
def test_induced_on_der_equals_the_kernel_per_degree(name):
    if name == "O-z2^3":
        g = octonion_z23_grading()
    elif name == "M3R-z^2":
        g = jordan_gradings(m3r())["z^2"]
    else:
        jg = jordan_gradings(h3("O", (1, -1, 1)))
        parts = name.split("-")[-1].split("+")
        g = jg[parts[0]] if len(parts) == 1 else common_refinement(jg[parts[0]], jg[parts[1]])
    new = induced_on_der(g).components
    old = _reference_induced_on_der(g)
    assert list(new) == list(old)
    assert new == old
    assert _types(new) == _types(old)


def test_induced_on_der_projection_rejects_a_non_grading():
    # the octonion lines of two degrees swapped: still a direct sum, but not
    # a grading, and some degree part of a derivation is not a derivation
    bad = _swapped_octonion_lines()
    assert verify(bad).direct_sum_ok and not verify(bad).closure_ok
    with pytest.raises(GradingError, match="not a grading"):
        induced_on_der(bad)


def test_a_sum_that_is_not_direct():
    g, _, _ = catalog.grading("gamma11")
    comps = {d: [list(v) for v in vs] for d, vs in g.components.items()}
    d1, d2 = g.support[0], g.support[1]
    # 78 vectors of rank 77: a vector of d2 replaced by one of d1
    comps[d2][0] = list(comps[d1][0])
    dependent = GradedDecomposition(g.group, g.algebra, comps)
    assert sum(len(v) for v in dependent.components.values()) == 78
    assert linalg.rank([v for vs in dependent.components.values() for v in vs]) == 77
    short = dict(g.components)
    short.pop(d1)
    o = octonion_z23_grading()
    extra = dict(o.components)
    extra[o.support[0]] = extra[o.support[0]] + [o.algebra.basis_vector(3)]
    for bad in (dependent, GradedDecomposition(g.group, g.algebra, short),
                GradedDecomposition(o.group, o.algebra, extra)):
        rep = verify(bad)
        assert (rep.direct_sum_ok, rep.closure_ok, rep.violations) == (False, False, [])
        assert not rep.valid
        with pytest.raises(GradingError, match="do not sum directly"):
            bad.degree_of(bad.algebra.basis_vector(0))
        with pytest.raises(GradingError, match="do not sum directly"):
            induced_on_der(bad)


def test_degree_of_zero_and_mixed_vectors():
    g = octonion_z23_grading()
    e0, e1 = g.algebra.basis_vector(0), g.algebra.basis_vector(1)
    assert g.degree_of(e0) == (0, 0, 0)
    assert g.degree_of([F(0)] * 8) is None
    assert g.degree_of(linalg.vec_add(e0, e1)) is None


def test_graded_checks_build_one_basis_one_kprime_one_inertia(monkeypatch):
    from e6lab import algcore
    from e6lab.algcore import LieAlgebra

    built = {"solvers": 0, "grams": [], "inertia": 0}
    solver_cls, gram, inertia_fn = linalg.SpanSolver, linalg.gram, algcore.inertia

    class CountingSolver(solver_cls):
        def __init__(self, *args, **kwargs):
            built["solvers"] += 1
            super().__init__(*args, **kwargs)

    def counting_gram(m, xs, ys):
        built["grams"].append(xs)
        return gram(m, xs, ys)

    def counting_inertia(matrix):
        built["inertia"] += 1
        return inertia_fn(matrix)

    monkeypatch.setattr(linalg, "SpanSolver", CountingSolver)
    monkeypatch.setattr(linalg, "gram", counting_gram)
    monkeypatch.setattr(algcore, "inertia", counting_inertia)
    g0, carrier0, _ = catalog.grading("gamma11")
    g = GradedDecomposition(g0.group, g0.algebra, g0.components)
    carrier = LieAlgebra._of_lie_table(carrier0.alg)
    for _ in range(2):
        assert verify(g).valid
        assert killing_orthogonality_violations(g, carrier) == []
        assert signature_bound(g, carrier)["holds"]
        assert graded_witt_basis(g, carrier)["gram_ok"]
    assert built["solvers"] == 1
    assert built["inertia"] == 1
    # one K' on the rows of P, and one Witt certificate per Witt call
    kprimes = [xs for xs in built["grams"] if xs is g.homogeneous_basis().rows]
    assert len(kprimes) == 1
    assert len(built["grams"]) == 3
