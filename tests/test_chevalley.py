from fractions import Fraction
from itertools import product

import pytest

from e6lab import algcore, chevalley, linalg
from e6lab.algcore import fixed_subspace, jacobi_defect
from e6lab.gradings import type_vector, verify
from oracles import diagonal_table, identity, mat_sub, primes, rescaled, span_coefficients

F = Fraction


def _dense_omega(cb):
    """omega as a dense 78x78 Fraction matrix, for the dense checks."""
    m = [[F(0)] * cb.dim for _ in range(cb.dim)]
    for i, row in enumerate(chevalley.omega(cb)):
        for j, x in row.items():
            m[i][j] = F(x)
    return m


def _dense_diagonal(diag):
    """The dense Fraction matrix with the given diagonal."""
    return [[F(x) if i == j else F(0) for j in range(len(diag))] for i, x in enumerate(diag)]


def _dense_torus(cb, signs):
    return _dense_diagonal(chevalley.torus_element(cb, signs))


def _dense_fix_omega_t(om, t):
    """The dense fix(omega t) path the sparse rank replaced, kept as the
    reference: the dense product omega t, then `fixed_subspace`."""
    return fixed_subspace(linalg.mat_mul(om, t))


def test_root_count_and_heights():
    rs = chevalley.e6_roots()
    assert len(rs.positive) == 36
    highest = max(rs.positive, key=sum)
    assert tuple(highest) == (1, 2, 2, 3, 2, 1)  # Bourbaki highest root
    assert all(
        sum(x * rs.cartan[i][j] * y for i, x in enumerate(a) for j, y in enumerate(a)) == 2
        for a in rs.positive
    )


def test_chains_have_root_partial_sums():
    rs = chevalley.e6_roots()
    for alpha in rs.positive:
        chain = chevalley.chain_for(rs, alpha)
        partial = [0] * 6
        for step, j in enumerate(chain):
            partial[j] += 1
            if step + 1 < len(chain):
                assert tuple(partial) in rs.index
        assert tuple(partial) == alpha


def test_chevalley_basis():
    cb = chevalley.e6_chevalley()
    assert cb.lie.dim == 78
    assert jacobi_defect(cb.lie.alg) == []
    # integer structure constants
    for row in cb.lie.alg.sc.values():
        for v in row.values():
            assert v.denominator == 1
    # [e_j, f_j] = h_j with alpha_j(h_j) = 2 for the simple roots
    rs = cb.roots
    for j in range(6):
        alpha = tuple(1 if i == j else 0 for i in range(6))
        r = rs.index[alpha]
        prod = cb.lie.alg.mult_basis(cb.e_index(r), cb.f_index(r))
        assert prod == {j: F(1)}
    # [e_a, f_a] always lands in the Cartan
    for r in range(36):
        prod = cb.lie.alg.mult_basis(cb.e_index(r), cb.f_index(r))
        assert all(k < 6 for k in prod)


def _chain_basis_reference():
    """The change-of-basis rebuild the signs replaced, kept as the reference:
    the chain vectors e_a, f_a as dense vectors in the cocycle basis (f_j
    seeded as -x_-a_j), and the bracket of every pair of them solved back
    into that basis through `SpanSolver`."""
    rs = chevalley.e6_roots()
    base = chevalley._build_cocycle_algebra()
    simple = [rs.index[tuple(int(i == j) for i in range(6))] for j in range(6)]

    def e_gen(j):
        return base.basis_vector(6 + simple[j])

    def f_gen(j):
        return [-x for x in base.basis_vector(42 + simple[j])]

    evecs, fvecs = [], []
    for alpha in rs.positive:
        chain = chevalley.chain_for(rs, alpha)
        e, f = e_gen(chain[0]), f_gen(chain[0])
        for j in chain[1:]:
            e = base.multiply(e_gen(j), e)
            f = base.multiply(f_gen(j), f)
        evecs.append(e)
        fvecs.append(f)
    basis = [base.basis_vector(j) for j in range(6)] + evecs + fvecs
    return algcore.bracket_constants(
        linalg.SpanSolver(basis), lambda i, j: base.multiply(basis[i], basis[j])
    )


def test_chevalley_table_equals_the_change_of_basis_reference():
    sc = chevalley.e6_chevalley().lie.alg.sc
    ref = _chain_basis_reference()
    assert sc.keys() == ref.keys()
    assert sc == ref
    for table in (sc, ref):
        assert all(type(v) is F for row in table.values() for v in row.values())


def test_the_opposite_h_a_sign_fails_jacobi():
    # the cocycle convention [x_a, x_-a] = eps(a, -a) h_a is forced: the
    # other sign fails Jacobi
    base = chevalley._build_cocycle_algebra()
    assert jacobi_defect(base) == []
    sc = dict(base.sc)
    for r in range(36):  # the rows [x_a, x_-a] and [x_-a, x_a]
        for key in ((6 + r, 42 + r), (42 + r, 6 + r)):
            sc[key] = {k: -v for k, v in sc[key].items()}
    flipped = algcore.StructAlgebra(dim=base.dim, basis_labels=base.basis_labels, sc=sc)
    assert len(jacobi_defect(flipped)) == 1440


def test_chain_sign_rejects_a_bracket_that_is_not_a_signed_basis_vector():
    base = chevalley._build_cocycle_algebra()
    rs = chevalley.e6_roots()
    # [x_a1, x_a3] = +-x_(a1+a3)
    a1, a3 = (rs.index[tuple(int(i == j) for i in range(6))] for j in (0, 2))
    k = 6 + rs.index[(1, 0, 1, 0, 0, 0)]
    row = base.mult_basis(6 + a1, 6 + a3)
    assert chevalley._chain_sign(row, k) in (1, -1)
    for bad in ({k: 2 * v for k, v in row.items()}, {}, {**row, 0: F(1)}):
        with pytest.raises(algcore.AlgebraError):
            chevalley._chain_sign(bad, k)


def test_split_signature():
    assert chevalley.split_signature(chevalley.e6_chevalley()) == 6


def test_omega():
    cb = chevalley.e6_chevalley()
    om = _dense_omega(cb)
    n = cb.lie.dim
    assert linalg.mat_mul(om, om) == identity(n)
    for j in range(6):
        col = [om[i][j] for i in range(n)]
        want = [F(0)] * n
        want[j] = F(-1)
        assert col == want  # omega(h_j) = -h_j
    _, dim = fixed_subspace(om)
    assert dim == 36
    # on the simple roots: e_j -> -f_j
    rs = cb.roots
    for j in range(6):
        alpha = tuple(1 if i == j else 0 for i in range(6))
        r = rs.index[alpha]
        col = [om[i][cb.e_index(r)] for i in range(n)]
        want = [F(0)] * n
        want[cb.f_index(r)] = F(-1)
        assert col == want


def test_torus_elements():
    cb = chevalley.e6_chevalley()
    ident = _dense_torus(cb, (1,) * 6)
    assert ident == identity(78)
    t = _dense_torus(cb, (-1, 1, 1, 1, 1, 1))
    _, dim = fixed_subspace(t)
    assert dim == 46
    assert chevalley.torus_element(cb, (-1, 1, 1, 1, 1, 1)).count(1) == 46
    with pytest.raises(ValueError):
        chevalley.torus_element(cb, (2, 1, 1, 1, 1, 1))


def _torus_reference(cb, signs):
    """The diagonal of t by its formula: s^alpha, the product of the signs
    at the odd coordinates of alpha, on e_alpha and f_alpha, 1 on h."""
    diag = [1] * cb.dim
    for r, alpha in enumerate(cb.roots.positive):
        val = 1
        for i, c in enumerate(alpha):
            if c % 2 and signs[i] == -1:
                val = -val
        diag[cb.e_index(r)] = diag[cb.f_index(r)] = val
    return diag


def _fix_dim_t_reference(cb, signs):
    """dim fix(t) by its root-coordinate formula: the Cartan plus both root
    vectors of every root with s^alpha = 1 (an even number of odd
    coordinates carrying -1)."""
    count = 6
    for alpha in cb.roots.positive:
        flips = sum(1 for c, s in zip(alpha, signs) if c % 2 and s == -1)
        if flips % 2 == 0:
            count += 2
    return count


def test_fix_dim_t_matches_the_root_formula():
    cb = chevalley.e6_chevalley()
    values = set()
    for signs in product((1, -1), repeat=6):
        dim = chevalley.torus_element(cb, signs).count(1)
        assert dim == _fix_dim_t_reference(cb, signs)
        if -1 in signs:
            values.add(dim)
    assert sorted(values) == chevalley.inheriting_signatures(cb)["fix_t_values"] == [38, 46]


def test_torus_elements_are_products_of_certified_generators():
    cb = chevalley.e6_chevalley()
    fresh = chevalley.ChevalleyBasis(lie=cb.lie, roots=cb.roots, chains=cb.chains)
    gens = fresh.torus_generators()
    assert fresh.torus_generators() is gens
    assert gens == [
        _torus_reference(cb, tuple(-1 if i == j else 1 for j in range(6))) for i in range(6)
    ]
    for signs in product((1, -1), repeat=6):
        diag = chevalley.torus_element(fresh, signs)
        assert diag == _torus_reference(cb, signs)
        assert all(type(x) is int for x in diag)
        assert algcore.is_diagonal_automorphism(cb.lie.alg, diag)


def test_torus_generators_reject_a_table_they_do_not_preserve():
    # [e_a1, f_a1] gains an e_a1 component: the flip of alpha1 sends the
    # left side to -e_a1 and the right side, a product of two -1s, to +e_a1
    cb = chevalley.e6_chevalley()
    alg = cb.lie.alg
    e, f = cb.e_index(0), cb.f_index(0)
    sc = dict(alg.sc)
    algcore.put_antisymmetric(sc, e, f, {**sc[(e, f)], e: F(1)})
    bad = algcore.StructAlgebra(dim=alg.dim, basis_labels=alg.basis_labels, sc=sc)
    mutant = chevalley.ChevalleyBasis(
        lie=algcore.LieAlgebra._of_lie_table(bad), roots=cb.roots, chains=cb.chains
    )
    with pytest.raises(algcore.AlgebraError):
        chevalley.torus_element(mutant, (1,) * 6)


def test_omega_commutes_with_torus():
    cb = chevalley.e6_chevalley()
    om = _dense_omega(cb)
    for signs in [(-1, 1, 1, 1, 1, 1), (1, -1, 1, -1, 1, -1)]:
        t = _dense_torus(cb, signs)
        assert linalg.mat_mul(om, t) == linalg.mat_mul(t, om)


def test_fix_omega_t_structure():
    # fix(omega t) is spanned by e+f over s-even positive roots and e-f over
    # s-odd ones, up to the height sign; dimension always 36
    cb = chevalley.e6_chevalley()
    signs = (1, -1, 1, 1, -1, 1)
    om = _dense_omega(cb)
    t = _dense_torus(cb, signs)
    mat = linalg.mat_mul(om, t)
    basis, dim = fixed_subspace(mat)
    assert dim == 36
    sp = linalg.SpanSolver(basis)
    for r, alpha in enumerate(cb.roots.positive):
        flips = sum(1 for c, s in zip(alpha, signs) if c % 2 and s == -1)
        sgn = F((-1) ** sum(alpha))
        e = cb.lie.alg.basis_vector(cb.e_index(r))
        f = cb.lie.alg.basis_vector(cb.f_index(r))
        if flips % 2 == 0:
            vec = linalg.vec_add(e, linalg.vec_scale(f, sgn))
        else:
            vec = linalg.vec_sub(e, linalg.vec_scale(f, sgn))
        assert span_coefficients(sp, vec) is not None


def test_gamma13():
    cb = chevalley.e6_chevalley()
    g = chevalley.gamma13(cb)
    assert type_vector(g) == (72, 0, 0, 0, 0, 1)
    assert g.group.name() == "Z2^7"
    assert verify(g).valid
    # the 6-dim component is the Cartan, fixed by t and negated by omega
    six = [deg for deg, v in g.components.items() if len(v) == 6]
    assert six == [(1, 0, 0, 0, 0, 0, 0)]
    # e_a +- f_a sit in components differing exactly in the omega bit
    rs = cb.roots
    alpha = rs.positive[10]
    bits = tuple(c % 2 for c in alpha)
    assert (0,) + bits in g.components
    assert (1,) + bits in g.components


def test_inheriting_signatures():
    inh = chevalley.inheriting_signatures(chevalley.e6_chevalley())
    assert inh["signatures"] == [-78, -14, 2, 6]
    assert not inh["contains_minus_26"]
    assert inh["fix_t_values"] == [38, 46]
    assert len(inh["multiset"]) == 128
    # the 64 q = t forms are all split; q = omega t gives the inner classes
    assert inh["multiset"].count(6) == 64
    assert inh["multiset"].count(-78) == 1
    assert inh["multiset"].count(2) + inh["multiset"].count(-14) == 63


def test_killing_invariant_under_omega_and_torus():
    cb = chevalley.e6_chevalley()
    k = cb.lie.killing_matrix()
    for m in (_dense_omega(cb), _dense_torus(cb, (1, -1, 1, 1, 1, -1))):
        mt = linalg.transpose(m)
        assert linalg.mat_mul(mt, linalg.mat_mul(k, m)) == k


def test_fix_dims_honest_vs_formula():
    cb = chevalley.e6_chevalley()
    import random

    rng = random.Random(11)
    om = chevalley.omega(cb)
    for _ in range(6):
        signs = tuple(rng.choice((1, -1)) for _ in range(6))
        t = _dense_torus(cb, signs)
        _, dim = fixed_subspace(t)
        diag = chevalley.torus_element(cb, signs)
        assert dim == diag.count(1)
        assert chevalley.fix_dim_monomial(om, diag) == 36


def _dense_is_automorphism(alg, m):
    """The dense checker `is_automorphism` replaced, kept as the reference:
    M(b_i b_j) against alg.multiply(M b_i, M b_j) on dense columns."""
    n = alg.dim
    cols = [[m[p][q] for p in range(n)] for q in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = [F(0)] * n
            for k, v in alg.sc.get((i, j), {}).items():
                lhs = [a + v * b for a, b in zip(lhs, cols[k])]
            if lhs != alg.multiply(cols[i], cols[j]):
                return False
    return True


def test_sparse_automorphism_check_matches_dense():
    cb = chevalley.e6_chevalley()
    alg = cb.lie.alg
    om = _dense_omega(cb)
    t = _dense_torus(cb, (-1, 1, -1, 1, 1, -1))
    q = cb.e_index(0)
    p = next(p for p in range(alg.dim) if om[p][q])
    om_bad = [row[:] for row in om]
    om_bad[p][q] = 2 * om[p][q]
    t_bad = [row[:] for row in t]
    t_bad[0][q] = F(1)
    for m, expected in ((om, True), (t, True), (om_bad, False), (t_bad, False)):
        assert algcore.is_automorphism(alg, m) is expected
        assert _dense_is_automorphism(alg, m) is expected


def test_diagonal_check_same_verdict_on_int_and_fraction_signs():
    cb = chevalley.e6_chevalley()
    alg = cb.lie.alg
    q = cb.e_index(0)
    for signs in product((1, -1), repeat=6):
        ints = chevalley.torus_element(cb, signs)
        frac = [F(v) for v in ints]
        bad_frac, bad_ints = frac[:], ints[:]
        bad_frac[q], bad_ints[q] = -frac[q], -ints[q]
        verdicts = [
            algcore.is_diagonal_automorphism(alg, d) for d in (ints, frac, bad_ints, bad_frac)
        ]
        assert verdicts == [True, True, False, False]


def _omega_perm_coef(cb):
    """(perm, coef) with omega(b_q) = coef[q] b_perm[q], read off its rows."""
    perm, coef = [None] * cb.dim, [None] * cb.dim
    for i, row in enumerate(chevalley.omega(cb)):
        for q, x in row.items():
            perm[q], coef[q] = i, x
    return perm, coef


def _monomial_matrix(perm, coef):
    m = [[F(0)] * len(perm) for _ in perm]
    for q, (p, c) in enumerate(zip(perm, coef)):
        m[p][q] = F(c)
    return m


def test_monomial_check_on_a_prime_rescaled_model():
    # chevalley-e6 on the basis p_i b_i, past the int-table bound: omega
    # b_i -> coef_i b_perm(i) is b_i -> coef_i p_i / p_perm(i) b_perm(i)
    # there, which the check reads on the diagonal table
    cb = chevalley.e6_chevalley()
    p = primes(cb.dim)
    wide = rescaled(cb.lie.alg, p)
    assert wide.int_tensor() == (None, None)
    perm, coef = _omega_perm_coef(cb)
    moved = [F(c * p[i], p[perm[i]]) for i, c in enumerate(coef)]
    assert algcore.is_monomial_automorphism(wide, perm, moved)
    assert not algcore.is_monomial_automorphism(wide, perm, coef)
    q = cb.e_index(0)
    moved[q] = -moved[q]
    assert not algcore.is_monomial_automorphism(wide, perm, moved)


def test_monomial_check_rejects_the_mutants_the_dense_check_rejects():
    cb = chevalley.e6_chevalley()
    alg = cb.lie.alg
    # the same table, read on its diagonal int table
    fallback = diagonal_table(
        algcore.StructAlgebra(dim=alg.dim, basis_labels=alg.basis_labels, sc=alg.sc)
    )
    perm, coef = _omega_perm_coef(cb)
    q, p = cb.e_index(0), cb.e_index(1)
    flipped = coef[:]
    flipped[q] = -coef[q]
    two_onto_one = perm[:]
    two_onto_one[q] = perm[p]  # e_alpha1 and e_alpha2 both onto -f_alpha2
    cases = (
        (perm, coef, True),
        (perm, [F(c) for c in coef], True),
        (perm, flipped, False),
        (two_onto_one, coef, False),
    )
    for pm, cf, expected in cases:
        assert algcore.is_monomial_automorphism(alg, pm, cf) is expected
        assert algcore.is_monomial_automorphism(fallback, pm, cf) is expected
        assert _dense_is_automorphism(alg, _monomial_matrix(pm, cf)) is expected


def test_omega_rows_and_torus_diagonals():
    cb = chevalley.e6_chevalley()
    om = chevalley.omega(cb)
    assert len(om) == cb.dim
    assert all(len(row) == 1 for row in om)
    assert all(type(x) is int and x in (1, -1) for row in om for x in row.values())
    diag = chevalley.torus_element(cb, (1, -1, 1, 1, -1, 1))
    assert len(diag) == cb.dim
    assert all(type(x) is int and x in (1, -1) for x in diag)


def omega_t_minus_one(om, diag) -> list:
    """Sparse rows of omega t - 1, for om the sparse rows of `omega` and diag
    the diagonal of t: row i is {j: om[i][j] t_j} minus e_i."""
    rows = []
    for i, row in enumerate(om):
        r = {j: x * diag[j] for j, x in row.items()}
        x = r.get(i, 0) - 1
        if x:
            r[i] = x
        else:
            del r[i]
        rows.append(r)
    return rows


def _both_fix_omega_t_paths(cb, om, om_dense, diag):
    """(kernel basis, dim) of omega t - 1 on the sparse rows and on the dense
    reference; the sparse dim is 78 minus the rank.  The sparse rows must be
    the nonzeros of the dense omega t - 1."""
    rows = omega_t_minus_one(om, diag)
    t = _dense_diagonal(diag)
    dense_rows = mat_sub(linalg.mat_mul(om_dense, t), identity(cb.dim))
    assert rows == [linalg.sparse(r) for r in dense_rows]
    return (
        (linalg.kernel(rows, cb.dim), cb.dim - linalg.rank(rows)),
        _dense_fix_omega_t(om_dense, t),
    )


def test_fix_omega_t_matches_dense_reference():
    cb = chevalley.e6_chevalley()
    om, om_dense = chevalley.omega(cb), _dense_omega(cb)
    for signs in product((1, -1), repeat=6):
        diag = chevalley.torus_element(cb, signs)
        (basis, dim), (ref_basis, ref_dim) = _both_fix_omega_t_paths(cb, om, om_dense, diag)
        assert basis == ref_basis
        assert all(type(x) is F for v in basis for x in v)
        assert dim == ref_dim == len(basis) == 36
        # the cycle count of omega t against 78 minus the rank
        assert chevalley.fix_dim_monomial(om, diag) == dim
        assert chevalley.fix_dim_monomial(om, chevalley.torus_element(cb, signs)) == dim


def test_fix_omega_t_paths_agree_on_a_mutated_diagonal():
    # e_alpha flipped but not f_alpha: not an automorphism, so it goes to the
    # kernel paths straight; omega t swaps e_alpha and f_alpha with product
    # of signs -1 there, which loses the fixed vector of that pair
    cb = chevalley.e6_chevalley()
    om, om_dense = chevalley.omega(cb), _dense_omega(cb)
    diag = chevalley.torus_element(cb, (1, -1, 1, 1, -1, 1))
    q = cb.e_index(5)
    diag[q] = -diag[q]
    assert not algcore.is_diagonal_automorphism(cb.lie.alg, diag)
    (basis, dim), (ref_basis, ref_dim) = _both_fix_omega_t_paths(cb, om, om_dense, diag)
    assert basis == ref_basis
    assert dim == ref_dim == len(basis) == 35
    assert chevalley.fix_dim_monomial(om, diag) == 35


def test_fix_omega_t_rejects_rows_that_are_not_a_signed_permutation():
    cb = chevalley.e6_chevalley()
    om = chevalley.omega(cb)
    signs = (1, -1, 1, 1, -1, 1)
    two = [dict(row) for row in om]
    two[0][1] = 1  # row 0 holds two entries
    with pytest.raises(algcore.AlgebraError):
        chevalley.fix_dim_monomial(two, chevalley.torus_element(cb, signs))
    # the rank reference reads 36 off those rows without noticing: rows h1
    # and h2 of omega t - 1 become {h1: -2, h2: 1} and {h2: -2}, still
    # independent, so only the cycle count refuses a map that is not monomial
    rows = omega_t_minus_one(two, chevalley.torus_element(cb, signs))
    assert cb.dim - linalg.rank(rows) == 36
    shared = [dict(row) for row in om]
    shared[0] = dict(om[1])  # rows 0 and 1 both hold the column of row 1
    with pytest.raises(algcore.AlgebraError):
        chevalley.fix_dim_monomial(shared, chevalley.torus_element(cb, signs))


def test_inheriting_signatures_is_kept_on_the_basis():
    cb = chevalley.e6_chevalley()
    fresh = chevalley.ChevalleyBasis(lie=cb.lie, roots=cb.roots, chains=cb.chains)
    assert fresh._inheriting is None
    first = fresh.inheriting_signatures()
    assert fresh.inheriting_signatures() is first
    # the module function computes afresh and leaves the memo alone
    again = chevalley.inheriting_signatures(fresh)
    assert again == first and again is not first
    assert fresh.inheriting_signatures() is first
