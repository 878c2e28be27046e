from fractions import Fraction
from itertools import permutations, product

import pytest

from e6lab import e6sp8, linalg
from e6lab import verify as battery
from e6lab.algcore import AlgebraError, inertia, jacobi_defect, twist
from e6lab.gradings import type_vector, verify
from oracles import (
    I_POWERS,
    a_matrices,
    act2_matrix_sparse,
    act4_matrix_sparse,
    assemble_walk,
    c_matrix,
    conjugation,
    frame,
    frame_holds,
    graded_bases_walk,
    identity,
    mat_vec,
    neg,
    odd_bracket,
    pair,
    pair_inverse,
    pair_mul,
    pair_op,
    real,
    split,
    wedge4_matrix_sparse,
)
from oracles import fix_ad_c_a123_dim as fix_ad_c_a123_dim_on_pairs

F = Fraction


def _canonical_mod_sign(m):
    """The one of +-m, m = P + iQ given as (P, Q), whose first nonzero entry
    x (row-major) has Re x > 0, or Re x = 0 and Im x > 0, as nested tuples:
    the pair-product reference for the monomial words."""
    p, q = m
    entries = zip((x for row in p for x in row), (y for row in q for y in row))
    first = next(((x, y) for x, y in entries if x or y), (0, 0))
    if first < (0, 0):
        p, q = neg(p), neg(q)
    return tuple(map(tuple, p)), tuple(map(tuple, q))


def _order_mod_sign(m) -> int:
    """Least k >= 1 with m^k = +-I for a (P, Q) pair, by `pair_mul` powers."""
    ident = _canonical_mod_sign(real(identity(len(m[0]))))
    power = m
    for k in range(1, 9):
        if _canonical_mod_sign(power) == ident:
            return k
        power = pair_mul(power, m)
    raise AlgebraError("order mod +-I exceeds 8")


def test_frame_invariants():
    assert e6sp8.frame_check() is True
    assert frame().check()


def test_c_map_is_the_matrix_c():
    assert pair(e6sp8._C_MAP) == (c_matrix(), linalg.zeros(8, 8))


def test_frame_check_equals_the_pair_form_on_every_one_phase_mutant(monkeypatch):
    # every frame with one phase of one column of one A_i shifted by 1, 2 or
    # 3 breaks A C A^t = C (the A1 (4, 0) entry i as -i sends e4 to -e0, not
    # e0): the monomial check returns False, with no exception, on each of
    # the 96, and the pair-form check fails on the same ones
    maps = e6sp8._A_POWERS
    outcomes = []
    for i, m in enumerate(maps):
        for c, (r, k) in enumerate(m):
            for shift in (1, 2, 3):
                a = list(m)
                a[c] = (r, (k + shift) % 4)
                monkeypatch.setattr(e6sp8, "_A_POWERS", maps[:i] + (tuple(a),) + maps[i + 1 :])
                outcomes.append(e6sp8.frame_check())
                assert outcomes[-1] == frame_holds(), (i, c, shift)
    assert len(outcomes) == 96 and not any(outcomes)


def test_frame_check_rejects_a_frame_map_that_is_not_monomial(monkeypatch):
    a1, a2, a3, a4 = e6sp8._A_POWERS
    a3 = ((0, 0),) + a3[1:]  # columns 0 and 1 both onto row 0
    monkeypatch.setattr(e6sp8, "_A_POWERS", (a1, a2, a3, a4))
    assert e6sp8.frame_check() is False


# A1..A4 as displayed in the paper: the nonzero entries, all others are 0
_UNIT = {"1": (1, 0), "-1": (-1, 0), "i": (0, 1), "-i": (0, -1)}
DISPLAYED = (
    {(0, 4): "i", (1, 5): "i", (4, 0): "i", (5, 1): "i",
     (2, 7): "i", (3, 6): "i", (6, 3): "i", (7, 2): "i"},
    {(k, k): "i" if k < 4 else "-i" for k in range(8)},
    {(0, 1): "1", (1, 0): "1", (2, 3): "1", (3, 2): "1",
     (4, 5): "1", (5, 4): "1", (6, 7): "1", (7, 6): "1"},
    {(k, k): x for k, x in enumerate(("1", "-1", "-i", "i", "1", "-1", "i", "-i"))},
)


@pytest.mark.parametrize("idx", range(4))
def test_frame_matrix_pairs(idx):
    a = a_matrices()[idx]
    p, q = a
    # the pair entries are the displayed powers of i
    for r in range(8):
        for c in range(8):
            assert (p[r][c], q[r][c]) == _UNIT.get(DISPLAYED[idx].get((r, c)), (0, 0))
    # the inverse read off the real 16x16 form is a two-sided inverse
    ident = (identity(8), linalg.zeros(8, 8))
    inv = pair_inverse(a)
    assert pair_mul(inv, a) == ident
    assert pair_mul(a, inv) == ident
    # order modulo +-I, read from the powers of the pair
    assert _order_mod_sign(a) == (2, 2, 2, 4)[idx]


def test_sp8_membership_and_count():
    c = c_matrix()
    basis = e6sp8.sp8_rational_basis()
    assert len(basis) == 36
    for v in basis:
        x = [v[8 * r : 8 * r + 8] for r in range(8)]
        xc = linalg.mat_mul(x, c)
        cxt = linalg.mat_mul(c, linalg.transpose(x))
        assert all(
            xc[i][j] + cxt[i][j] == 0 for i in range(8) for j in range(8)
        )


def test_b0_entries_and_membership():
    mats = e6sp8.assemble_e6().even_matrices
    assert len(mats) == 36
    c = c_matrix()
    for m in mats:
        assert all(v in (-1, 0, 1) for row in m for v in row)
        xc = linalg.mat_mul(m, c)
        cxt = linalg.mat_mul(c, linalg.transpose(m))
        assert all(xc[i][j] == -cxt[i][j] for i in range(8) for j in range(8))


def test_eigenspace_type():
    assert e6sp8.eigenspace_type() == (24, 6)


def test_split_over_q_diagonal_gaussian_operator():
    # diag(i, -i): eigenvalue i^1 on the first axis, i^3 on the second
    basis = [[F(1), F(0)], [F(0), F(1)]]

    def op(v):
        return [F(0), F(0)], [v[0], -v[1]]

    assert split([(basis, ())], op, 4) == [([[F(1), F(0)]], (1,)), ([[F(0), F(1)]], (3,))]
    # a tag already present is extended, not replaced
    assert [tag for _, tag in split([(basis, (0,))], op, 4)] == [(0, 1), (0, 3)]


@pytest.mark.parametrize(
    "op",
    [
        lambda v: ([-v[1], v[0]], [F(0), F(0)]),  # 90-degree rotation: eigenvalues +-i, none rational
        lambda v: ([v[0] + v[1], v[1]], [F(0), F(0)]),  # shear: eigenvalue 1, one eigenvector
    ],
)
@pytest.mark.parametrize("nev", [2, 4])
def test_split_over_q_rejects_eigenspaces_short_of_the_subspace(op, nev):
    with pytest.raises(AlgebraError):
        split([([[F(1), F(0)], [F(0), F(1)]], ())], op, nev)


def _split_by_intersection(subspaces, op, nev):
    """The split as the intersection of the eigenspaces of Re op and of Im op
    (`eigenspace` twice, then `intersect_spans`): the reference for the
    one kernel of their stacked rows."""
    out = []
    for basis, tag in subspaces:
        k = len(basis)
        re_imgs, im_imgs = zip(*(op(v) for v in basis))
        m = e6sp8._operator_on_subspace(re_imgs + im_imgs, basis)
        re = [{c: x for c, x in row.items() if c < k} for row in m]
        im = [{c - k: x for c, x in row.items() if c >= k} for row in m]
        for e in range(nev):
            lam_re, lam_im = I_POWERS[(4 // nev) * e]
            combos = linalg.intersect_spans(
                linalg.eigenspace(re, lam_re), linalg.eigenspace(im, lam_im)
            )
            if combos:
                out.append(([linalg.lin_comb(co, basis) for co in combos], tag + (e,)))
    return out


@pytest.mark.parametrize(
    "start,op_of",
    [
        (e6sp8.sp8_rational_basis, lambda a: pair_op(conjugation(a))),
        (e6sp8.kernel_c_basis, lambda a: pair_op(wedge4_matrix_sparse(a))),
    ],
    ids=["sp8", "ker_c"],
)
def test_stacked_kernel_split_matches_intersected_eigenspaces(start, op_of):
    # the stacked-kernel walk of the oracle: every subspace it meets splits
    # the same way on both paths, in values and in Fraction types
    leaves = [(start(), ())]
    for i, a in enumerate(a_matrices()):
        nev = 2 if i < 3 else 4
        op = op_of(a)
        for leaf in leaves:
            assert split([leaf], op, nev) == _split_by_intersection([leaf], op, nev)
        leaves = split(leaves, op, nev)
        assert all(type(x) is F for basis, _ in leaves for v in basis for x in v)
    assert sum(len(basis) for basis, _ in leaves) == len(start())


def brute_contraction(mono):
    """Independent oracle: the full alternating sum over S4."""
    out = {}
    for sigma in permutations(range(4)):
        if sigma[0] > sigma[1] or sigma[2] > sigma[3]:
            continue
        sign = 1
        s = list(sigma)
        for i in range(4):
            for j in range(i + 1, 4):
                if s[i] > s[j]:
                    sign = -sign
        factor = e6sp8._c_entry(mono[sigma[0]], mono[sigma[1]])
        if not factor:
            continue
        pair = (mono[sigma[2]], mono[sigma[3]])
        out[pair] = out.get(pair, 0) + sign * factor
    return {k: v for k, v in out.items() if v}


def test_contraction_against_brute_force():
    mat = e6sp8.contraction_matrix()
    for mono in [(0, 1, 2, 3), (0, 1, 4, 5), (0, 4, 1, 5), (2, 3, 6, 7), (0, 2, 4, 6)]:
        mono = tuple(sorted(mono))
        want = brute_contraction(mono)
        col = e6sp8.IDX4[mono]
        got = {
            e6sp8.MON2[r]: mat[r][col] for r in range(28) if mat[r][col]
        }
        assert got == {k: F(v) for k, v in want.items()}


def test_contraction_trivial_and_kernel():
    u = [F(0)] * 70
    u[e6sp8.IDX4[(0, 1, 2, 3)]] = F(1)
    assert all(v == 0 for v in mat_vec(e6sp8.contraction_matrix(), u))
    assert len(e6sp8.kernel_c_basis()) == 42
    assert linalg.rank(e6sp8.contraction_matrix()) == 28


def test_contraction_is_module_map():
    # c(x.u) = x.c(u) for all sp8 basis x and all 70 monomials
    mats = e6sp8.assemble_e6().even_matrices
    cmat = e6sp8.contraction_matrix()
    for x in mats:
        a4 = act4_matrix_sparse(x)
        a2 = act2_matrix_sparse(x)
        for col in range(70):
            u = [F(0)] * 70
            u[col] = F(1)
            img = linalg.sp_matvec(a4, {col: F(1)})
            lhs = [F(0)] * 28
            for c2, v in img.items():
                for r in range(28):
                    if cmat[r][c2]:
                        lhs[r] += cmat[r][c2] * v
            cu = {r: cmat[r][col] for r in range(28) if cmat[r][col]}
            rhs_sp = linalg.sp_matvec(a2, cu)
            rhs = [F(0)] * 28
            for r, v in rhs_sp.items():
                rhs[r] = v
            assert lhs == rhs


def test_wedge8_pairing_symmetric_nondegenerate():
    w8 = e6sp8.wedge8_pairs()
    for i, (j, s) in w8.items():
        j2, s2 = w8[j]
        assert j2 == i
        assert s2 == s  # degree 4 is even, the pairing is symmetric
    assert sorted(j for j, _ in w8.values()) == list(range(70))
    # nondegenerate on ker c: the Gram of the odd basis has full rank
    model = e6sp8.assemble_e6()
    kb = model.odd_vectors
    gram = []
    for u in kb:
        row = []
        for v in kb:
            acc = F(0)
            for c, x in enumerate(u):
                if x:
                    j, s = w8[c]
                    if v[j]:
                        acc += x * v[j] * s
            row.append(acc)
        gram.append(row)
    assert all(gram[i][j] == gram[j][i] for i in range(42) for j in range(42))
    assert linalg.rank(gram) == 42


def test_assembled_model():
    model = e6sp8.assemble_e6()
    assert model.dim == 78
    assert jacobi_defect(model.lie.alg) == []
    assert e6sp8.model_even_signature() == 4
    sig = inertia(model.lie.killing_matrix()).signature
    assert sig in (-26, 2, 6, -14, -78)
    assert sig == 6  # recorded repository fact for lambda = 1


def test_odd_bracket_scaling_family():
    # any nonzero scale of the odd x odd bracket satisfies Jacobi: the
    # spec's "exactly one lambda" does not hold (see the decisions ledger);
    # freeze the family fact.  `twist` does not scan its result, so Jacobi
    # is certified here on each rescaled table
    model = e6sp8.assemble_e6()
    even = range(model.even_dim)
    for lam in (F(2), F(-1)):
        scaled = twist(model.lie, even, lam)
        assert jacobi_defect(scaled.alg) == []
    twisted = twist(model.lie, even, F(-1))
    assert inertia(twisted.killing_matrix()).signature == 2


def test_odd_bracket_antisymmetry_and_equivariance():
    model = e6sp8.assemble_e6()
    ne = model.even_dim
    kb = model.odd_vectors
    u, v = kb[0], kb[7]
    buv = odd_bracket(u, v)
    bvu = odd_bracket(v, u)
    assert bvu == [[-x for x in row] for row in buv]
    assert odd_bracket(u, u) == [[F(0)] * 8 for _ in range(8)]
    # equivariance spot check through the structure constants: for even x,
    # [x,[u,v]] = [[x,u],v] + [u,[x,v]] is already certified by Jacobi
    sc = model.lie.alg.sc
    assert jacobi_defect(model.lie.alg) == []
    # [sp8, ker c] stays odd
    for (i, j), row in sc.items():
        if (i < ne) != (j < ne):
            assert all(k >= ne for k in row)


def test_odd_bracket_trace_duality():
    # independent oracle: tr([u,v] x) = wedge8((x.u) ^ v) for every basis x
    model = e6sp8.assemble_e6()
    w8 = e6sp8.wedge8_pairs()
    kb = model.odd_vectors
    for ui, vi in ((0, 1), (3, 17), (10, 40)):
        u, v = kb[ui], kb[vi]
        x_mat = odd_bracket(u, v)
        for m in (model.even_matrices[0], model.even_matrices[20]):
            tr = F(0)
            for r in range(8):
                for s in range(8):
                    if x_mat[r][s] and m[s][r]:
                        tr += x_mat[r][s] * m[s][r]
            act = act4_matrix_sparse(m)
            xu = linalg.sp_matvec(act, {c: w for c, w in enumerate(u) if w})
            pair = F(0)
            for c, w in xu.items():
                j, sgn = w8[c]
                if v[j]:
                    pair += w * v[j] * sgn
            assert tr == pair


def _wedge8_sign(mono, rest):
    """Sign of e_mono ^ e_rest against e_0 ^ .. ^ e_7: the parity of the
    inversions of the concatenation."""
    seq = mono + rest
    inversions = sum(1 for i in range(8) for j in range(i + 1, 8) if seq[i] > seq[j])
    return -1 if inversions % 2 else 1


def test_one_pass_wedge_pairing_matches_per_pair_dot_loop():
    # reference: the per-pair dot loop on Fractions, b_x = wedge8((x.u) ^ v)
    # for every even x, then [u, v] = lam G^-1 b, G the trace Gram matrix;
    # the wedge8 pairing is recomputed here, not read from wedge8_pairs
    model = e6sp8.assemble_e6()
    ne, no = model.even_dim, model.odd_dim
    even_sp = [linalg.dense_to_sparse(m) for m in model.even_matrices]
    odd_sp = [linalg.sparse(v) for v in model.odd_vectors]
    pair_of = {}
    for i, mono in enumerate(e6sp8.MON4):
        rest = tuple(t for t in range(8) if t not in mono)
        pair_of[i] = (e6sp8.IDX4[rest], _wedge8_sign(mono, rest))
    paired = []
    for m in model.even_matrices:
        act = act4_matrix_sparse(m)
        paired.append(
            [
                {pair_of[c][0]: pair_of[c][1] * w for c, w in linalg.sp_matvec(act, u).items()}
                for u in odd_sp
            ]
        )
    gram = [[linalg.sp_trace_product(a, b) or F(0) for b in even_sp] for a in even_sp]
    ginv = linalg.mat_inverse(gram)
    lam = F(model.provenance["odd_bracket_scale"])
    sc = model.lie.alg.sc
    for u in range(no):
        for v in range(u + 1, no):
            vv = odd_sp[v]
            b = [
                sum((w * vv[c] for c, w in paired[x][u].items() if c in vv), F(0))
                for x in range(ne)
            ]
            want = {i: lam * co for i, co in enumerate(mat_vec(ginv, b)) if co}
            got = sc.get((ne + u, ne + v), {})
            assert got == want, (u, v)
            assert all(type(x) is F for x in got.values())


def test_fix_ad_ca123():
    # G X G^t on the monomial frame against g X g^-1 on the pair form
    assert e6sp8.fix_ad_c_a123_dim() == fix_ad_c_a123_dim_on_pairs() == 24


def test_fix_ad_ca123_goes_red_without_c(monkeypatch):
    # C as the identity map drops it from g: Ad(A1 A2 A3) fixes 16 dims of
    # sp8, not 24.  Only C11.frame (A1 A1^t = -I) reads C as well, so the
    # battery's sp8 group reports exactly those two red, with no exception
    monkeypatch.setattr(e6sp8, "_C_MAP", e6sp8._IDENTITY)
    assert e6sp8.fix_ad_c_a123_dim() == 16
    red = {c.id for c in battery.group_sp8() if not c.passed}
    assert red == {"C11.frame", "C11.fix-CA123"}


def test_conjugated_form_signatures():
    data = e6sp8.conjugated_form()
    assert data["even_sig"] == -12
    assert {data["full_sig"], data["twisted_sig"]} == {-26, 2}
    assert data["full_sig"] + data["twisted_sig"] == -24


def test_gamma11():
    g = e6sp8.gamma11()
    assert type_vector(g) == (48, 13, 0, 1)
    assert g.group.name() == "Z4 x Z2^4"
    assert verify(g).valid
    assert g.dimension_of(g.group.identity()) == 0
    # theta coordinate separates even from odd
    model = e6sp8.assemble_e6()
    for deg, vecs in g.components.items():
        for v in vecs:
            idx = next(i for i, x in enumerate(v) if x)
            assert deg[-1] == (0 if idx < model.even_dim else 1)
    # the unique 4-dimensional component sits at an order-2 degree
    four = [deg for deg, v in g.components.items() if len(v) == 4]
    assert len(four) == 1
    assert g.group.order_divides_2(four[0])


def test_gamma11_component_dims_match_on_both_forms():
    g = e6sp8.gamma11()
    model = e6sp8.assemble_e6()
    gl = e6sp8._gamma11_on(model, model.lie.alg)  # the degrees on the untwisted model
    assert {d: len(v) for d, v in g.components.items()} == {
        d: len(v) for d, v in gl.components.items()
    }
    assert verify(gl).valid


def test_dot_group_certificate():
    data = e6sp8.dot_group_order_data()
    assert data == {
        "matrix_group_order": 32,
        "with_theta_order": 64,
        "abelian": True,
        "order_le2_with_theta": 32,
        "is_z4_x_z2_4": True,
    }
    # read from the matrices, not from the exponent ranges of the words
    assert e6sp8.dot_group_generator_orders() == (2, 2, 2, 4)


def _pair_dot_group(pairs):
    """(dot_group_order_data, generator orders) computed on (P, Q) pairs with
    `pair_mul`, as before the words were monomial: the reference."""
    orders = tuple(_order_mod_sign(a) for a in pairs)
    words = []
    for exps in product(*(range(o) for o in orders)):
        m = real(identity(8))
        for a, e in zip(pairs, exps):
            for _ in range(e):
                m = pair_mul(m, a)
        words.append(m)
    canon = [_canonical_mod_sign(m) for m in words]
    commute = all(
        _canonical_mod_sign(pair_mul(pairs[i], pairs[j]))
        == _canonical_mod_sign(pair_mul(pairs[j], pairs[i]))
        for i in range(4)
        for j in range(i + 1, 4)
    )
    distinct = len(set(canon))
    order_le2 = sum(1 for m in words if _order_mod_sign(m) <= 2)
    data = {
        "matrix_group_order": distinct,
        "with_theta_order": distinct * 2,
        "abelian": commute,
        "order_le2_with_theta": order_le2 * 2,
        "is_z4_x_z2_4": distinct == 32
        and commute
        and orders == (2, 2, 2, 4)
        and order_le2 * 2 == 32,
    }
    return data, orders


def test_monomial_words_equal_their_pair_products():
    maps = e6sp8._A_POWERS
    pairs = a_matrices()
    for exps in product(range(2), range(2), range(2), range(4)):
        mono, word = e6sp8._IDENTITY, real(identity(8))
        for m, a, e in zip(maps, pairs, exps):
            for _ in range(e):
                mono, word = e6sp8._mono_mul(mono, m), pair_mul(word, a)
        # the densified word is its pair product, also after fixing the sign
        assert pair(mono) == word
        canon = pair(e6sp8._mono_mod_sign(mono))
        assert (tuple(map(tuple, canon[0])), tuple(map(tuple, canon[1]))) == (
            _canonical_mod_sign(word)
        )
        assert e6sp8._mono_order_mod_sign(mono) == _order_mod_sign(word)
        # the transpose of the word, against the transposed pair
        assert pair(e6sp8._mono_transpose(mono)) == tuple(map(linalg.transpose, word))
    assert _pair_dot_group(pairs) == (
        e6sp8.dot_group_order_data(),
        e6sp8.dot_group_generator_orders(),
    )


def test_dot_group_goes_red_on_a_mutated_a4_phase(monkeypatch):
    # the A4 (2, 2) entry -i becomes 1: A4 no longer commutes with A1 mod
    # +-I.  One phase of a diagonal A4 cannot move its own order (A4^4 = I
    # stays, and A4^2 = +-I needs all phases of one parity), so the
    # generator orders must agree on both paths and the certificate goes red
    a4 = list(e6sp8._A_POWERS[3])
    a4[2] = (2, 0)
    monkeypatch.setattr(e6sp8, "_A_POWERS", e6sp8._A_POWERS[:3] + (tuple(a4),))
    data, orders = _pair_dot_group(a_matrices())
    assert e6sp8.dot_group_order_data() == data
    assert e6sp8.dot_group_generator_orders() == orders == (2, 2, 2, 4)
    assert not data["is_z4_x_z2_4"]
    assert not data["abelian"]
    assert data["order_le2_with_theta"] == 20


def test_dot_group_rejects_a_frame_map_that_is_not_monomial(monkeypatch):
    a1, a2, a3, a4 = e6sp8._A_POWERS
    a3 = ((0, 0),) + a3[1:]  # columns 0 and 1 both onto row 0
    monkeypatch.setattr(e6sp8, "_A_POWERS", (a1, a2, a3, a4))
    with pytest.raises(AlgebraError):
        e6sp8.dot_group_order_data()


def test_wedge4_action_is_multiplicative_automorphism():
    # spot check: (A.)[u, v-ish wedge] equals wedge of images; and
    # A.(ker c) = ker c via the preserved pairing
    a = a_matrices()[0]
    w_re, w_im = wedge4_matrix_sparse(a)
    cmat = e6sp8.contraction_matrix()
    for col in (0, 13, 37, 69):
        # c(A.u) must equal Lambda^2(A) c(u); verify kernel preservation on
        # the real and the imaginary part of A.u
        if all(cmat[r][col] == 0 for r in range(28)):
            for w in (w_re, w_im):
                img = linalg.sp_matvec(w, {col: F(1)})
                assert all(x == 0 for x in mat_vec(cmat, img))


# ---------------------------------------------------------------------------
# the orbit split and the target-leaf reads against the oracle walk


@pytest.fixture
def uncached():
    """For a mutant run on the uncached bodies (``__wrapped__``): every
    lru_cache of e6sp8 that was filled while the mutant was in place is
    emptied again, so no later test reads a mutated table."""
    caches = [f for f in vars(e6sp8).values() if hasattr(f, "cache_clear")]
    misses = {f: f.cache_info().misses for f in caches}
    yield
    for f in caches:
        if f.cache_info().misses != misses[f]:
            f.cache_clear()


def test_orbit_split_equals_the_stacked_kernel_walk():
    fast = e6sp8._graded_bases()
    slow = graded_bases_walk(a_matrices())
    # the leaves, their tags and their order, then the Fraction types
    assert fast == slow
    assert all(type(x) is F for leaves in fast + slow for basis, _ in leaves for v in basis for x in v)


def test_assembled_model_equals_the_oracle_walk():
    model = e6sp8.assemble_e6()
    want = assemble_walk(*graded_bases_walk(a_matrices()))
    sc = model.lie.alg.sc
    # the values, the order of the keys and of the entries in each row, and
    # the types
    assert list(sc) == list(want["sc"])
    assert all(list(sc[k].items()) == list(row.items()) for k, row in want["sc"].items())
    assert all(type(x) is F for row in sc.values() for x in row.values())
    for field in ("even_tags", "odd_tags", "even_matrices", "odd_vectors", "even_leaf_dims"):
        assert getattr(model, field) == want[field], field
    assert list(model.even_leaf_dims) == list(want["even_leaf_dims"])
    assert all(type(x) is F for m in model.even_matrices for row in m for x in row)
    assert all(type(x) is F for v in model.odd_vectors for x in v)


@pytest.mark.parametrize("idx", range(4))
def test_signed_permutations_equal_the_pair_actions(idx):
    # A E_rc A^-1 on the 64 matrix units and Lambda^4(A) on the 70 four-forms,
    # read off the monomial map, entry by entry against the (Re, Im) sparse
    # matrices of the pair form
    m, a = e6sp8._A_POWERS[idx], a_matrices()[idx]
    for perm, parts in (
        (e6sp8._conjugation_perm(m), conjugation(a)),
        (e6sp8._wedge4_perm(m), wedge4_matrix_sparse(a)),
    ):
        want = ({}, {})
        for src, (dst, k) in enumerate(perm):
            for part, x in zip(want, I_POWERS[k]):
                if x:
                    part.setdefault(dst, {})[src] = x
        assert want == parts


def test_orbit_vectors_are_rational_joint_eigenvectors_only():
    # the first three maps fix both points; the fourth is a signed swap
    fixed = [(0, 0), (1, 0)]
    swap = [(1, 1), (0, 1)]  # A e0 = i e1, A e1 = i e0: eigenvalues i and -i
    assert e6sp8._orbit_vectors([fixed] * 3 + [swap], (0, 0, 0, 1)) == [{0: 1, 1: 1}]
    assert e6sp8._orbit_vectors([fixed] * 3 + [swap], (0, 0, 0, 3)) == [{0: 1, 1: -1}]
    assert e6sp8._orbit_vectors([fixed] * 3 + [swap], (0, 0, 0, 0)) == []
    # e0 -> e1 -> -e0, a rotation: its eigenvectors at +-i are not rational
    rotation = [(1, 0), (0, 2)]
    assert e6sp8._orbit_vectors([fixed] * 3 + [rotation], (0, 0, 0, 1)) == []
    assert e6sp8._orbit_vectors([fixed] * 3 + [rotation], (0, 0, 0, 3)) == []


def test_slot_table_action_equals_the_dense_derivation_action():
    model = e6sp8.assemble_e6()
    mats = [linalg.dense_to_sparse(m) for m in model.even_matrices]
    acts = [act4_matrix_sparse(m) for m in model.even_matrices]
    vecs = [{c: F(1)} for c in range(70)] + [linalg.sparse(v) for v in model.odd_vectors]
    assert e6sp8._act4_images(mats, vecs) == [[linalg.sp_matvec(a, u) for a in acts] for u in vecs]


def test_a_ker_c_vector_under_a_wrong_tag_fails_its_target_leaf_read(monkeypatch, uncached):
    even, odd = e6sp8._graded_bases()
    odd = [(list(basis), tag) for basis, tag in odd]
    i = next(i for i, (basis, _) in enumerate(odd) if len(basis) > 1)
    odd[i + 1][0].append(odd[i][0].pop())  # into the next leaf, under its tag
    monkeypatch.setattr(e6sp8, "_graded_bases", lambda: (even, odd))
    with pytest.raises(AlgebraError, match="target leaf"):
        e6sp8.assemble_e6.__wrapped__()


def test_a4_phase_mutant_splits_alike_on_both_paths(monkeypatch, uncached):
    # the A4 (2, 2) entry -i becomes 1: A4 is no longer symplectic, so it
    # does not preserve sp8, and neither split may return leaves
    a4 = list(e6sp8._A_POWERS[3])
    a4[2] = (2, 0)
    monkeypatch.setattr(e6sp8, "_A_POWERS", e6sp8._A_POWERS[:3] + (tuple(a4),))

    def outcome(build):
        try:
            return build()
        except AlgebraError:
            return AlgebraError

    fast = outcome(e6sp8._graded_bases.__wrapped__)
    assert fast == outcome(lambda: graded_bases_walk(a_matrices()))
    assert fast is AlgebraError


@pytest.mark.parametrize("row", range(28))
def test_a_dropped_sp8_equation_fails_the_dimension_certificate(monkeypatch, uncached, row):
    # without one entry of xC + Cx^t the solution space has dim 37, and
    # only the 36 dims of sp8 split into joint eigenspaces
    rows = e6sp8._sp8_equations()
    monkeypatch.setattr(e6sp8, "_sp8_equations", lambda: rows[:row] + rows[row + 1 :])
    with pytest.raises(AlgebraError, match="do not span"):
        e6sp8._graded_bases.__wrapped__()


def test_conjugated_form_rejects_a_complex_a1_a2_a3(monkeypatch, uncached):
    e6sp8.assemble_e6()
    a1, a2, a3, a4 = e6sp8._A_POWERS
    a3 = ((a3[0][0], 1),) + a3[1:]  # one entry of A3 becomes i
    monkeypatch.setattr(e6sp8, "_A_POWERS", (a1, a2, a3, a4))
    with pytest.raises(AlgebraError, match="real"):
        e6sp8.conjugated_form.__wrapped__()
