from fractions import Fraction
from itertools import combinations

import pytest

from e6lab import linalg
from e6lab.algcore import derivations
from e6lab.composition import (
    HURWITZ_NAMES,
    d_ab,
    hurwitz,
    octonion_z23_grading,
)
from e6lab.gradings import type_vector, verify
from oracles import d_ab_dense, leibniz_defect, mat_sub, span_coefficients, unflatten

F = Fraction


def vec(c, label):
    return c.alg.basis_vector(c.labels.index(label))


def test_unknown_name():
    with pytest.raises(ValueError):
        hurwitz("sedenions")


def test_octonion_products_match_l_rules():
    # oracle: evaluate the three doubling rules on quaternion pairs directly
    o = hurwitz("O")
    h = hurwitz("H")
    for qa in range(4):
        a = h.alg.basis_vector(qa)
        for qb in range(4):
            b = h.alg.basis_vector(qb)
            # q1 (q2 l) = (q2 q1) l
            got = o.alg.multiply(a + [F(0)] * 4, [F(0)] * 4 + b)
            want = [F(0)] * 4 + h.alg.multiply(b, a)
            assert got == want
            # (q1 l)(q2 l) = -conj(q2) q1
            got = o.alg.multiply([F(0)] * 4 + a, [F(0)] * 4 + b)
            want = [-x for x in h.alg.multiply(h.conj(b), a)] + [F(0)] * 4
            assert got == want
            # (q2 l) q1 = (q2 conj(q1)) l
            got = o.alg.multiply([F(0)] * 4 + b, a + [F(0)] * 4)
            want = [F(0)] * 4 + h.alg.multiply(b, h.conj(a))
            assert got == want


def test_octonion_spot_products():
    o = hurwitz("O")
    assert o.alg.multiply(vec(o, "i"), vec(o, "j")) == vec(o, "k")
    # l i = -(il)
    assert o.alg.multiply(vec(o, "l"), vec(o, "i")) == [
        -x for x in vec(o, "il")
    ]
    # (il)(jl) = -k
    assert o.alg.multiply(vec(o, "il"), vec(o, "jl")) == [
        -x for x in vec(o, "k")
    ]
    assert o.norm_polar(vec(o, "l"), vec(o, "l")) == 1


def test_rr_componentwise():
    rr = hurwitz("RR")
    # (a, b) in R+R is ((a + b)/2, (a - b)/2) in the {1, s} basis
    e10 = [F(1, 2), F(1, 2)]
    e01 = [F(1, 2), F(-1, 2)]
    assert rr.alg.multiply(e10, e01) == [F(0), F(0)]
    assert rr.alg.multiply(e10, e10) == e10
    x23 = [F(5, 2), F(-1, 2)]
    assert rr.norm_polar(x23, x23) == 6  # n((a,b)) = ab


@pytest.mark.parametrize("name", HURWITZ_NAMES)
def test_composition_law(name):
    # n(xy) = n(x)n(y), checked on enough points to pin the biquadratic form
    c = hurwitz(name)
    n = c.dim
    pts = [c.alg.basis_vector(i) for i in range(n)]
    pts += [
        linalg.vec_add(c.alg.basis_vector(a), c.alg.basis_vector(b))
        for a, b in combinations(range(n), 2)
    ]
    for x in pts:
        for y in pts:
            xy = c.alg.multiply(x, y)
            assert c.norm_polar(xy, xy) == c.norm_polar(x, x) * c.norm_polar(y, y)


@pytest.mark.parametrize("name", HURWITZ_NAMES)
def test_quadratic_equation_and_conj(name):
    c = hurwitz(name)
    for i in range(c.dim):
        a = c.alg.basis_vector(i)
        sq = c.alg.multiply(a, a)
        t = c.trace(a)
        lhs = [
            s - t * v + (c.norm_polar(a, a) if k == c.unit_idx else F(0))
            for k, (s, v) in enumerate(zip(sq, a))
        ]
        assert all(x == 0 for x in lhs)
        # n(a) 1 = a conj(a)
        prod = c.alg.multiply(a, c.conj(a))
        want = [c.norm_polar(a, a) if k == c.unit_idx else F(0) for k in range(c.dim)]
        assert prod == want


@pytest.mark.parametrize("name", HURWITZ_NAMES)
def test_trace_symmetry(name):
    c = hurwitz(name)
    for i in range(c.dim):
        for j in range(c.dim):
            ab = c.alg.multiply(c.alg.basis_vector(i), c.alg.basis_vector(j))
            ba = c.alg.multiply(c.alg.basis_vector(j), c.alg.basis_vector(i))
            assert c.trace(ab) == c.trace(ba)


def test_norm_signatures():
    from e6lab.algcore import inertia

    o = hurwitz("O")
    assert all(d == 1 for d in o.norm_diag)
    for name in ("Os", "M2R"):
        c = hurwitz(name)
        gram = [
            [c.norm_diag[i] if i == j else F(0) for j in range(c.dim)]
            for i in range(c.dim)
        ]
        assert inertia(gram).signature == 0


def test_d_ab_trivial_cases():
    o = hurwitz("O")
    a = vec(o, "i")
    assert d_ab(o, a, a) == {}
    rr = hurwitz("RR")
    assert d_ab(rr, vec(rr, "1"), vec(rr, "s")) == {}


@pytest.mark.parametrize("name", HURWITZ_NAMES)
def test_d_ab_equals_the_dense_products_on_every_basis_pair(name):
    # the three sparse brackets against the six dense products, in values
    # and in Fraction types
    c = hurwitz(name)
    for i in range(c.dim):
        for j in range(c.dim):
            a, b = c.alg.basis_vector(i), c.alg.basis_vector(j)
            got = d_ab(c, a, b)
            assert unflatten(got, c.dim) == d_ab_dense(c, a, b), (i, j)
            assert all(type(x) is F and x for x in got.values())


def test_d_ab_spans_der_o():
    o = hurwitz("O")
    mats = []
    for i in range(8):
        for j in range(i + 1, 8):
            d = d_ab(o, o.alg.basis_vector(i), o.alg.basis_vector(j))
            assert not leibniz_defect(o.alg, unflatten(d, 8))
            mats.append(d)
    assert linalg.rank(mats) == 14
    # commutator of two d_ab stays in the span
    span = linalg.SpanSolver(linalg.rref(mats, 64)[0])
    a = unflatten(d_ab(o, vec(o, "i"), vec(o, "j")), 8)
    b = unflatten(d_ab(o, vec(o, "l"), vec(o, "kl")), 8)
    comm = mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))
    assert span_coefficients(span, sum(comm, [])) is not None


def test_derivation_dimensions():
    assert len(derivations(hurwitz("O").alg)) == 14
    assert len(derivations(hurwitz("Os").alg)) == 14
    assert len(derivations(hurwitz("RR").alg)) == 0
    assert len(derivations(hurwitz("C").alg)) == 0


def test_z23_grading():
    g = octonion_z23_grading()
    report = verify(g)
    assert report.valid
    assert type_vector(g) == (8,)
    o = hurwitz("O")
    assert g.degree_of(vec(o, "i")) == (1, 0, 0)
    assert g.degree_of(vec(o, "kl")) == (1, 1, 1)
    # closure instance: deg(i) + deg(j) = deg(k) and i j = k
    assert g.group.add((1, 0, 0), (0, 1, 0)) == (1, 1, 0)
    assert g.degree_of(vec(o, "k")) == (1, 1, 0)


def test_corrupted_grading_reports_violation():
    g = octonion_z23_grading()
    comps = {k: [list(v) for v in vs] for k, vs in g.components.items()}
    # move kl to the wrong degree
    comps[(1, 1, 1)], comps[(0, 1, 1)] = comps[(0, 1, 1)], comps[(1, 1, 1)]
    from e6lab.gradings import GradedDecomposition

    bad = GradedDecomposition(group=g.group, algebra=g.algebra, components=comps)
    report = verify(bad)
    assert report.direct_sum_ok
    assert not report.closure_ok
    assert report.violations
