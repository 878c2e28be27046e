from fractions import Fraction

import pytest

from e6lab import jordan, linalg
from e6lab.algcore import derivations, inertia, is_automorphism
from e6lab.composition import hurwitz
from e6lab.gradings import type_vector, verify
from e6lab.jordan import (
    h3,
    inner_der,
    j0_basis,
    jordan_gradings,
    m3r,
    nu_automorphism,
    star,
    z_grading_operator,
)
from oracles import (
    check_jordan_identity,
    h3rr_to_m3r_iso,
    leibniz_defect,
    mat_vec,
    sp_commutator,
    sparse_to_dense,
    unflatten,
)

F = Fraction

GAMMA_SPLIT = (1, -1, 1)


def test_h3_dimensions_and_idempotents():
    j = h3("O")
    assert j.dim == 27
    e1, e2 = j.e_vec(0), j.e_vec(1)
    assert j.mult(e1, e1) == e1
    assert j.mult(e1, e2) == [F(0)] * 27
    assert j.t_j(e1) == F(1, 3)
    assert j.t_j(j.unit) == 1
    assert h3("RR").dim == 9
    assert h3("Os").dim == 27


def test_h3_commutative_and_jordan():
    for name, gamma in (("O", (1, 1, 1)), ("O", GAMMA_SPLIT)):
        j = h3(name, gamma)
        assert all(j.alg.sc.get((b, a)) == row for (a, b), row in j.alg.sc.items())
        assert check_jordan_identity(j, extended=False)


def _h3_matrix_mult(c, x, y):
    """Product in Mat3(C) with entries as dense C-coordinate vectors of
    Fractions."""
    nc = c.dim
    zero = [F(0)] * nc
    out = [[list(zero) for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = list(zero)
            for k in range(3):
                xv = x[i][k]
                yv = y[k][j]
                if any(xv) and any(yv):
                    acc = linalg.vec_add(acc, c.alg.multiply(xv, yv))
            out[i][j] = acc
    return out


def _h3_basis_matrices(c, gamma):
    """Dense matrices of E1,E2,E3 and iota_t(b_k); iota_t(a) has a at
    (t+1, t+2) and gamma_{t+1} gamma_{t+2} conj(a) at (t+2, t+1), indices
    mod 3."""
    zero = [F(0)] * c.dim
    mats = []
    for i in range(3):
        m = [[list(zero) for _ in range(3)] for _ in range(3)]
        m[i][i] = c.unit()
        mats.append(m)
    for t in range(3):
        r, s = (t + 1) % 3, (t + 2) % 3
        sign = gamma[r] * gamma[s]
        for ci in range(c.dim):
            a = c.alg.basis_vector(ci)
            m = [[list(zero) for _ in range(3)] for _ in range(3)]
            m[r][s] = list(a)
            m[s][r] = [sign * v for v in c.conj(a)]
            mats.append(m)
    return mats


def _h3_reference_table(comp_name, gamma):
    """H3(C, gamma) from the definition: (xy + yx)/2 with both Fraction
    matrix products, for every ordered pair, read back entrywise with a
    hermitian check."""
    c = hurwitz(comp_name)
    mats = _h3_basis_matrices(c, gamma)
    sc = {}
    for i, x in enumerate(mats):
        for j, y in enumerate(mats):
            xy = _h3_matrix_mult(c, x, y)
            yx = _h3_matrix_mult(c, y, x)
            sym = [[[(a + b) / 2 for a, b in zip(xy[r][s], yx[r][s])] for s in range(3)] for r in range(3)]
            coords = []
            for r in range(3):
                assert all(v == 0 for k, v in enumerate(sym[r][r]) if k != c.unit_idx)
                coords.append(sym[r][r][c.unit_idx])
            for t in range(3):
                r, s = (t + 1) % 3, (t + 2) % 3
                assert sym[s][r] == [gamma[r] * gamma[s] * v for v in c.conj(sym[r][s])]
                coords.extend(sym[r][s])
            row = {k: v for k, v in enumerate(coords) if v}
            if row:
                sc[(i, j)] = row
    return sc


@pytest.mark.parametrize(
    "comp_name, gamma",
    [("O", (1, 1, 1)), ("O", GAMMA_SPLIT), ("Os", (1, 1, 1)), ("RR", (1, 1, 1)), ("C", (1, 1, 1))],
)
def test_h3_table_matches_both_products_on_every_ordered_pair(comp_name, gamma):
    # albert, albert-split, splitalbert, H3(R+R) and H3(C)
    sc = h3(comp_name, gamma).alg.sc
    assert sc == _h3_reference_table(comp_name, gamma)
    assert all(type(v) is Fraction for row in sc.values() for v in row.values())


def test_h3_multiplies_each_unordered_pair_once(monkeypatch):
    calls = []
    original = jordan._h3_matrix_mult

    def counted(c, x, y):
        calls.append(1)
        return original(c, x, y)

    monkeypatch.setattr(jordan, "_h3_matrix_mult", counted)
    j = jordan._h3_cached.__wrapped__("O", (1, 1, 1))  # a fresh build
    assert j.dim == 27
    assert len(calls) == 27 * 28 // 2


def test_jordan_identity_extended_on_split_gamma():
    assert check_jordan_identity(h3("O", GAMMA_SPLIT), extended=True)


def test_trace_associative():
    j = h3("O", GAMMA_SPLIT)
    import random

    rng = random.Random(7)
    for _ in range(40):
        x, y, z = (
            [F(rng.randint(-2, 2)) for _ in range(27)] for _ in range(3)
        )
        assert j.t_j(j.mult(j.mult(x, y), z)) == j.t_j(j.mult(x, j.mult(y, z)))


def test_m3r_products():
    m = m3r()
    e12 = m.alg.basis_vector(1)
    e21 = m.alg.basis_vector(3)
    got = m.mult(e12, e21)
    want = [F(0)] * 9
    want[0] = F(1, 2)
    want[4] = F(1, 2)
    assert got == want
    assert m.dim == 9
    assert len(derivations(m.alg)) == 8


def test_m3r_traceless_traceform_signature():
    m = m3r()
    basis = j0_basis(m)
    gram = [
        [3 * m.t_j(m.mult(x, y)) for y in basis] for x in basis
    ]  # tr(x.y) = 3 t_J
    assert inertia(gram).signature == 2


def test_r_op_matches_multiplication():
    j = h3("O", GAMMA_SPLIT)
    x = j.iota(1, j.comp.alg.basis_vector(5))
    r = sparse_to_dense(j.alg.right_mult_matrix(x), j.dim, j.dim)  # R_x: y -> y.x
    for i in (0, 3, 12, 26):
        y = j.alg.basis_vector(i)
        assert mat_vec(r, y) == j.mult(y, x)


def test_star_and_inner_trivials():
    j = h3("O")
    assert star(j, j.unit, j.unit) == [F(0)] * 27
    x = j.iota(0, j.comp.alg.basis_vector(3))
    assert inner_der(j, x, x) == {}
    # star lands in J0 for traceless arguments
    jb = j0_basis(j)
    for a in jb[:5]:
        for b in jb[:5]:
            assert j.t_j(star(j, a, b)) == 0


def test_inner_der_span_is_52():
    j = h3("O")
    basis = j0_basis(j)
    mats = []
    for i in range(len(basis)):
        for k in range(i + 1, len(basis)):
            mats.append(inner_der(j, basis[i], basis[k]))
    assert linalg.rank(mats) == 52
    d = inner_der(j, basis[0], basis[5])
    assert not leibniz_defect(j.alg, unflatten(d, j.dim))
    # the one bracket against the two products merged, densified
    rx, ry = j.alg.right_mult_matrix(basis[0]), j.alg.right_mult_matrix(basis[5])
    assert unflatten(d, j.dim) == sparse_to_dense(sp_commutator(rx, ry), j.dim, j.dim)


def test_derivations_of_albert_is_52():
    assert len(derivations(h3("O").alg)) == 52
    assert len(derivations(h3("O", GAMMA_SPLIT).alg)) == 52


def test_h3rr_isomorphic_m3r():
    src = h3("RR")
    iso = h3rr_to_m3r_iso()
    dst = m3r()
    cols = [[iso[p][q] for p in range(9)] for q in range(9)]
    assert linalg.rank(iso) == 9
    for i in range(9):
        for j in range(9):
            lhs = mat_vec(
                iso, src.mult(src.alg.basis_vector(i), src.alg.basis_vector(j))
            )
            rhs = dst.mult(cols[i], cols[j])
            assert lhs == rhs


def test_jordan_gradings_verify():
    j = h3("O", GAMMA_SPLIT)
    gr = jordan_gradings(j)
    for name, g in gr.items():
        assert verify(g).valid, name
    assert type_vector(gr["z2^3"]) == (0, 0, 7, 0, 0, 1)
    assert type_vector(gr["z2^2"]) == (0, 0, 1, 0, 0, 0, 0, 3)
    assert type_vector(gr["z"]) == (2, 0, 0, 0, 0, 0, 0, 2, 1)


def test_z_grading_dims_and_spans():
    j = h3("O", GAMMA_SPLIT)
    g = jordan_gradings(j)["z"]
    dims = [g.dimension_of((lam,)) for lam in range(-2, 3)]
    assert dims == [1, 8, 9, 8, 1]
    # the stated spans are the eigenspaces
    o = j.comp
    minus2 = linalg.vec_sub(
        linalg.vec_sub(j.e_vec(1), j.e_vec(2)), j.iota(0, o.unit())
    )
    assert g.degree_of(minus2) == (-2,)
    plus2 = linalg.vec_add(
        linalg.vec_sub(j.e_vec(1), j.e_vec(2)), j.iota(0, o.unit())
    )
    assert g.degree_of(plus2) == (2,)
    for ci in range(8):
        x = o.alg.basis_vector(ci)
        down = linalg.vec_sub(j.iota(1, x), j.iota(2, o.conj(x)))
        up = linalg.vec_add(j.iota(1, x), j.iota(2, o.conj(x)))
        assert g.degree_of(down) == (-1,)
        assert g.degree_of(up) == (1,)
    e23 = linalg.vec_add(j.e_vec(1), j.e_vec(2))
    assert g.degree_of(j.e_vec(0)) == (0,)
    assert g.degree_of(e23) == (0,)
    for lbl in ("i", "j", "k", "l", "il", "jl", "kl"):
        x = o.alg.basis_vector(o.labels.index(lbl))
        assert g.degree_of(j.iota(0, x)) == (0,)


def test_z_operator_is_derivation():
    j = h3("O", GAMMA_SPLIT)
    op = z_grading_operator(j)
    quarter = [[v / 4 for v in row] for row in op]
    assert not leibniz_defect(j.alg, quarter)
    # the same dense Fraction matrix as 4 times the two products merged
    rx = j.alg.right_mult_matrix(j.iota(0, j.comp.unit()))
    ry = j.alg.right_mult_matrix(j.e_vec(1))
    merged = sparse_to_dense(sp_commutator(rx, ry), j.dim, j.dim)
    assert op == [[4 * v for v in row] for row in merged]
    assert all(type(v) is F for row in op for v in row)


def test_z22_degrees():
    j = h3("O", GAMMA_SPLIT)
    g = jordan_gradings(j)["z2^2"]
    assert g.degree_of(j.e_vec(0)) == (0, 0)
    assert g.degree_of(j.iota(2, j.comp.alg.basis_vector(2))) == (1, 1)


def test_z2_grading_on_m3r():
    m = m3r()
    g = jordan_gradings(m)["z^2"]
    assert verify(g).valid
    assert g.degree_of(m.alg.basis_vector(1)) == (1, 0)  # E12 -> g2 - g1
    assert g.dimension_of((0, 0)) == 3
    assert type_vector(g) == (6, 0, 1)


def test_nu_automorphism():
    j = h3("O")
    nu = nu_automorphism()
    assert is_automorphism(j.alg, nu)
    from e6lab.algcore import fixed_subspace

    _, dim = fixed_subspace(nu)
    assert dim == 15
    neg = [[-v for v in row] for row in nu]
    _, dimneg = fixed_subspace(neg)
    assert dimneg == 12
    # nu(E1) = E1, nu(iota1(l)) = -iota1(l)
    e1 = j.e_vec(0)
    assert mat_vec(nu, e1) == e1
    il = j.iota(0, j.comp.alg.basis_vector(4))
    assert mat_vec(nu, il) == [-x for x in il]


def test_gamma_display_convention():
    # for gamma = diag(1,-1,1) the (2,1) entry of iota_3(a) is -conj(a)
    j = h3("O", GAMMA_SPLIT)
    o = j.comp
    a = o.alg.basis_vector(1)  # i
    x = j.iota(2, a)
    sq = j.mult(x, x)
    # iota_t(a)^2 = gamma_{t+1} gamma_{t+2} n(a,a) (E_{t+1} + E_{t+2});
    # here t=3: gamma_1 gamma_2 = -1, n(i,i) = 1 -> -(E1 + E2)
    want = [F(0)] * 27
    want[0] = F(-1)
    want[1] = F(-1)
    assert sq == want
