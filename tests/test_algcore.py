import copy
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import e6lab
from e6lab import algcore, catalog, gradings, linalg, verify
from e6lab.algcore import (
    AlgebraError,
    LieAlgebra,
    StructAlgebra,
    derivations,
    fixed_subspace,
    inertia,
    jacobi_defect,
    killing_matrix,
    signature_from_fix,
    twist,
)
from oracles import (
    derivation_solver_full_width,
    derivation_table_full_width,
    diagonal_table,
    identity,
    jacobi_defect_scaled,
    leibniz_defect,
    mat_sub,
    mat_vec,
    rescaled,
    sp_commutator,
    sp_flatten,
    span_coefficients,
)

F = Fraction


def sl2() -> StructAlgebra:
    # basis h, e, f with [h,e]=2e, [h,f]=-2f, [e,f]=h
    sc = {
        (0, 1): {1: F(2)},
        (1, 0): {1: F(-2)},
        (0, 2): {2: F(-2)},
        (2, 0): {2: F(2)},
        (1, 2): {0: F(1)},
        (2, 1): {0: F(-1)},
    }
    return StructAlgebra(dim=3, basis_labels=["h", "e", "f"], sc=sc)


def test_multiply_bilinear():
    a = sl2()
    zero = [F(0)] * 3
    y = [F(1), F(2), F(3)]
    assert a.multiply(zero, y) == zero
    h = a.basis_vector(0)
    e = a.basis_vector(1)
    assert a.multiply(h, e) == [F(0), F(2), F(0)]
    with pytest.raises(AlgebraError):
        a.multiply([F(1)], y)


def test_jacobi_sl2_empty():
    assert jacobi_defect(sl2()) == []


def test_jacobi_perturbed_nonempty():
    a = sl2()
    a.sc[(0, 1)] = {1: F(3)}
    a.sc[(1, 0)] = {1: F(-3)}
    a = StructAlgebra(dim=3, basis_labels=a.basis_labels, sc=a.sc)
    assert jacobi_defect(a) != []


def test_jacobi_exact_path_agrees():
    a = sl2()
    assert a.int_tensor()[1] is not None
    assert jacobi_defect(diagonal_table(a)) == []
    b = sl2()
    b.sc[(1, 2)] = {0: F(1), 1: F(1)}
    b.sc[(2, 1)] = {0: F(-1), 1: F(-1)}
    b = StructAlgebra(dim=3, basis_labels=b.basis_labels, sc=b.sc)
    assert b.int_tensor()[1] is not None
    fast = jacobi_defect(b)
    assert fast == jacobi_defect(diagonal_table(b))


@pytest.mark.parametrize("name", catalog.MODEL_NAMES)
def test_packed_jacobi_matches_the_scaled_loop_on_catalog_models(name):
    alg = catalog.model(name)[0].alg
    assert alg.int_tensor()[1] is not None
    assert jacobi_defect(alg) == jacobi_defect_scaled(alg) == []


def _mutated_tits_o_m3r():
    """tits-o-m3r with its first bracket entry tripled (and its mirror)."""
    alg = catalog.model("tits-o-m3r")[0].alg
    (i, j), row = min((key, row) for key, row in alg.sc.items() if key[0] < key[1])
    k = min(row)
    sc = dict(alg.sc)  # rows are replaced below, never edited in place
    sc[(i, j)] = {**row, k: 3 * row[k]}
    sc[(j, i)] = {q: -v for q, v in sc[(i, j)].items()}
    return StructAlgebra(dim=alg.dim, basis_labels=alg.basis_labels, sc=sc)


def test_packed_jacobi_matches_the_scaled_loop_on_a_mutated_model():
    mutant = _mutated_tits_o_m3r()
    defect = jacobi_defect(mutant)
    assert defect
    assert defect == jacobi_defect_scaled(mutant)


def _primes_below(top, count):
    """The `count` largest odd primes below the odd number top, top <
    3,215,031,751, for which Miller-Rabin with the bases 2, 3, 5, 7 is exact."""
    def is_prime(n):
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for a in (2, 3, 5, 7):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                return False
        return True

    out = []
    n = top
    while len(out) < count:
        n -= 2
        if is_prime(n):
            out.append(n)
    return out


def test_scaled_jacobi_past_the_bound_finds_the_mutants_triples():
    # b_i -> p_i b_i with distinct 31-bit primes: c'[i, j][k] = c[i, j][k]
    # p_i p_j / p_k.  The common denominator then pushes the table past the
    # int bound, and a diagonal change of basis keeps the bad triples.
    mutant = _mutated_tits_o_m3r()
    primes = _primes_below(2**31 - 1, mutant.dim)
    assert len(set(primes)) == mutant.dim and all(p.bit_length() == 31 for p in primes)
    sc = {
        (i, j): {k: v * primes[i] * primes[j] / primes[k] for k, v in row.items()}
        for (i, j), row in mutant.sc.items()
    }
    wide = StructAlgebra(dim=mutant.dim, basis_labels=mutant.basis_labels, sc=sc)
    assert wide.int_tensor() == (None, None)
    assert mutant.int_tensor()[1] is not None
    defect = jacobi_defect(mutant)
    assert defect
    assert jacobi_defect(wide) == defect


@pytest.mark.parametrize("name", ["tits-o-m3r", "tits-c-albert", "sp8-e6", "chevalley-e6"])
def test_certificates_past_the_bound_read_a_small_diagonal_table(name):
    # the benchmark's wide models: b_i -> p_i b_i with distinct 31-bit primes
    # pushes int_tensor past its bound, and the kernels then read the table
    # on b_i / f_i, whose entries are back within it
    lie = catalog.model(name)[0]
    n = lie.dim
    primes = _primes_below(2**31 - 1, n)
    wide = LieAlgebra(rescaled(lie.alg, primes), check_jacobi=False)
    assert wide.alg.int_tensor() == (None, None)
    t = wide.alg._kernel_table()[2]
    top = max(abs(y) for row in t.values() for y in row.values())
    assert n * top * top < algcore._INT_TABLE_BOUND
    k, k_wide = lie.killing_matrix(), killing_matrix(wide)
    assert all(
        k_wide[i][j] == k[i][j] * primes[i] * primes[j] for i in range(n) for j in range(n)
    )
    assert inertia(k_wide) == lie.killing_inertia()
    assert jacobi_defect(wide.alg) == []


@pytest.mark.parametrize("wide", [False, True])
def test_every_int_reader_shares_one_table_scan(monkeypatch, wide):
    # sl2, and sl2 on the basis p_i b_i for three 31-bit primes, past the
    # bound: Jacobi, Killing, the graded certificate, the Leibniz system and
    # the monomial check all read the one table memo, so int_tensor scans
    # the table once per algebra object
    p = _primes_below(2**31 - 1, 3) if wide else [1, 1, 1]
    alg = rescaled(sl2(), p)
    k = killing_matrix(LieAlgebra(sl2()))
    scan, calls = StructAlgebra.int_tensor, []
    monkeypatch.setattr(StructAlgebra, "int_tensor", lambda self: calls.append(self) or scan(self))
    lie = LieAlgebra(alg)
    assert killing_matrix(lie) == [[k[i][j] * p[i] * p[j] for j in range(3)] for i in range(3)]
    # the Z-grading h: 0, e: 1, f: -1, by basis lines on either basis
    lines = {(d,): [alg.basis_vector(i)] for i, d in enumerate((0, 1, -1))}
    z = gradings.FinAbGroup(1, ())
    assert gradings.verify(gradings.GradedDecomposition(z, alg, lines)).valid
    assert len(algcore.derivation_int_matrices(alg)[1]) == 3
    # the Chevalley involution h -> -h, e -> -f, f -> -e, moved to p_i b_i
    perm = [0, 2, 1]
    coef = [F(-p[i], p[perm[i]]) for i in range(3)]
    assert algcore.is_monomial_automorphism(alg, perm, coef)
    assert calls == [alg]
    assert (scan(alg)[1] is None) is wide


@st.composite
def integer_tables(draw):
    """An anticommutative table of dim 3-6 with integer entries of absolute
    value at most top, often exactly +-top; top goes up to the largest entry
    the int table takes, and rows go from empty to dense."""
    n = draw(st.integers(min_value=3, max_value=6))
    top = draw(st.sampled_from([1, 3, 2**20, isqrt((2**62 - 1) // n)]))
    entry = st.sampled_from([top, -top]) | st.integers(min_value=-top, max_value=top)
    sc = {}
    for i, j in combinations(range(n), 2):
        row = draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1), entry, max_size=n))
        row = {k: F(v) for k, v in row.items() if v}
        if row:
            sc[(i, j)] = row
            sc[(j, i)] = {k: -v for k, v in row.items()}
    return StructAlgebra(dim=n, basis_labels=[f"b{i}" for i in range(n)], sc=sc)


@given(integer_tables())
@settings(max_examples=150, deadline=None)
def test_packed_jacobi_matches_the_scaled_loop_on_integer_tables(alg):
    assert alg.int_tensor()[1] is not None
    assert jacobi_defect(alg) == jacobi_defect_scaled(alg)


def test_int_tensor_bound_is_on_the_entries():
    # dim 4, so dim * T^2 < 2^62 iff |T| < 2^30; the 1/2 and 1/3 entries give
    # D = 6 with max |T| = 3, and the third bracket sets max |T| on its own
    def alg_with(c):
        return _from_brackets(4, {(0, 1): {2: F(1, 2)}, (1, 2): {0: F(1, 3)}, (0, 2): {1: c}})

    d, t = alg_with(F(1)).int_tensor()
    assert (d, t[(0, 1)], t[(1, 2)], t[(0, 2)]) == (6, {2: 3}, {0: 2}, {1: 6})
    assert alg_with(F(2**30 - 1, 6)).int_tensor()[1][(0, 2)] == {1: 2**30 - 1}
    assert alg_with(F(2**30, 6)).int_tensor() == (None, None)
    assert alg_with(F(-(2**30), 6)).int_tensor() == (None, None)


def test_killing_sl2():
    lie = LieAlgebra(sl2())
    k = killing_matrix(lie)
    # oracle: hand-expanded 3x3 ad matrices
    ad = {}
    for idx in range(3):
        m = linalg.zeros(3, 3)
        for q in range(3):
            for p, v in lie.alg.sc.get((idx, q), {}).items():
                m[p][q] = v
        ad[idx] = m
    for i in range(3):
        for j in range(3):
            prod = linalg.mat_mul(ad[i], ad[j])
            assert k[i][j] == sum(prod[d][d] for d in range(3))
    assert k == [
        [F(8), F(0), F(0)],
        [F(0), F(0), F(4)],
        [F(0), F(4), F(0)],
    ]


def test_killing_exact_fallback_agrees():
    lie = LieAlgebra(sl2())
    fast = killing_matrix(lie)
    diagonal_table(lie.alg)
    slow = killing_matrix(lie)
    assert fast == slow


def test_abelian_killing_zero():
    a = StructAlgebra(dim=3, basis_labels=["x", "y", "z"], sc={})
    k = killing_matrix(LieAlgebra(a))
    assert all(v == 0 for row in k for v in row)


def test_inertia_basics():
    r = inertia(identity(4))
    assert (r.n_plus, r.n_minus, r.n_zero) == (4, 0, 0)
    r = inertia([[F(1), F(0)], [F(0), F(-1)]])
    assert r.signature == 0
    r = inertia(killing_matrix(LieAlgebra(sl2())))
    assert (r.n_plus, r.n_minus, r.n_zero) == (2, 1, 0)
    assert r.signature == 1  # split rank-1 form


def test_signature_from_fix_table():
    assert signature_from_fix(78, 52) == -26
    assert signature_from_fix(78, 36) == 6
    assert signature_from_fix(78, 78) == -78
    assert signature_from_fix(78, 38) == 2
    assert signature_from_fix(78, 46) == -14
    with pytest.raises(ValueError):
        signature_from_fix(10, 11)


def test_fixed_subspace():
    basis, dim = fixed_subspace(identity(5))
    assert dim == 5
    m = [[F(0), F(1)], [F(1), F(0)]]
    basis, dim = fixed_subspace(m)
    assert dim == 1
    assert basis == [[F(1), F(1)]]
    # the benchmark's second argument: Q's tag only
    assert fixed_subspace(m, "Q") == (basis, dim)
    with pytest.raises(ValueError, match="'Qi'"):
        fixed_subspace(m, "Qi")


def test_twist_identity_and_validation():
    lie = LieAlgebra(sl2())
    # sl2 has a Z2 grading: even {h}, odd {e,f}
    same = twist(lie, {0}, F(1))
    assert same.alg.sc == lie.alg.sc
    flipped = twist(lie, {0}, F(-1))
    assert flipped.alg.sc[(1, 2)] == {0: F(-1)}
    assert jacobi_defect(flipped.alg) == []
    with pytest.raises(AlgebraError):
        twist(lie, {0, 1}, F(-1))  # not a Z2 split


def test_twist_leaves_the_source_table_unchanged():
    lie = LieAlgebra(sl2())
    before = copy.deepcopy(lie.alg.sc)
    for t in (F(-1), F(1, 4), F(0)):
        twisted = twist(lie, {0}, t)
        assert lie.alg.sc == before
        assert twisted.alg.sc[(0, 1)] == before[(0, 1)]
        assert twisted.alg.sc.get((1, 2), {}) == {k: v * t for k, v in before[(1, 2)].items() if v * t}


@pytest.mark.parametrize("check_jacobi", [True, False])
def test_lie_algebra_rejects_a_table_that_is_not_anticommutative(check_jacobi):
    a = sl2()
    a.sc[(1, 0)] = {1: F(2)}  # [e, h] = 2e, the same sign as [h, e]
    with pytest.raises(AlgebraError):
        LieAlgebra(a, check_jacobi=check_jacobi)
    diag = StructAlgebra(dim=2, basis_labels=["x", "y"], sc={(0, 0): {1: F(1)}})
    with pytest.raises(AlgebraError):
        LieAlgebra(diag, check_jacobi=check_jacobi)


def test_twist_sign_identity_sl2():
    # sign(L) + sign(L^-1) = 2 sign(K|even)
    lie = LieAlgebra(sl2())
    k = killing_matrix(lie)
    s = inertia(k).signature
    s_tw = inertia(killing_matrix(twist(lie, {0}, F(-1)))).signature
    even = inertia([[k[0][0]]]).signature
    assert s + s_tw == 2 * even


def test_derivations_sl2():
    ders = derivations(sl2())
    # sl2 is semisimple: Der = ad(sl2), dimension 3
    assert len(ders) == 3
    for d in ders:
        assert not leibniz_defect(sl2(), d)
    # closed under commutator
    sp = linalg.SpanSolver([sum(d, []) for d in ders])
    for a in ders:
        for b in ders:
            comm = mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))
            assert span_coefficients(sp, sum(comm, [])) is not None


def test_derivations_abelian():
    a = StructAlgebra(dim=2, basis_labels=["x", "y"], sc={})
    assert len(derivations(a)) == 4


def test_derivations_memoized_on_the_algebra():
    from e6lab.composition import hurwitz

    # the int matrices are the memo; `derivations` is a dense view of them
    alg = hurwitz("O").alg
    kept = algcore.derivation_int_matrices(alg)
    assert alg._der_cache is kept
    ders = derivations(alg)
    assert derivations(alg) == ders
    assert algcore.derivation_int_matrices(alg) is kept
    fresh = algcore.algebra_from_json(algcore.algebra_to_json(alg))
    assert fresh._der_cache is None
    assert derivations(fresh) == ders
    assert len(ders) == 14


def test_derivation_int_matrices_kept_beside_the_basis(perfbench_child, fixture_documents):
    # on the five algebras of the benchmark's `solve` round, each loaded
    # fresh: the kept int matrices are the ones every caller used to build,
    # and Der(A) is the same table built on them
    for name in perfbench_child.SOLVE_ALGEBRAS:
        alg = algcore.algebra_from_json(fixture_documents[f"solve-{name}"])
        ders = derivations(alg)
        kept = algcore.derivation_int_matrices(alg)
        assert alg._der_alg_cache is None  # no Der(A) table is forced
        assert algcore.derivation_int_matrices(alg) is kept
        assert kept == linalg.int_scaled([linalg.dense_to_sparse(d) for d in ders])
        den, mats = kept
        n = alg.dim
        reference = algcore.bracket_constants(
            linalg.SpanSolver([sum(d, []) for d in ders]),
            lambda p, q: sp_flatten(sp_commutator(mats[p], mats[q]), n),
            den * den,
        )
        assert algcore.derivation_algebra(alg).sc == reference
        assert algcore.derivation_int_matrices(alg) is kept


def test_derivation_algebra_built_once_and_only_on_request():
    alg = sl2()
    ders = derivations(alg)
    assert alg._der_alg_cache is None  # derivations alone builds no table
    der = algcore.derivation_algebra(alg)
    assert algcore.derivation_algebra(alg) is der
    assert der.dim == len(ders) == 3
    assert der.basis_labels == ["d0", "d1", "d2"]
    assert jacobi_defect(der) == []
    sp = linalg.SpanSolver([sum(d, []) for d in ders])
    for p in range(3):
        for q in range(3):
            a, b = ders[p], ders[q]
            comm = mat_sub(linalg.mat_mul(a, b), linalg.mat_mul(b, a))
            coeffs = span_coefficients(sp, sum(comm, []))
            assert der.mult_basis(p, q) == {k: v for k, v in enumerate(coeffs) if v}
    assert alg._der_alg_cache is der  # the slot holds the table alone


def _der_test_algebra(name):
    from e6lab.composition import hurwitz
    from e6lab.jordan import h3, m3r
    from e6lab.tits import jordan_ingredient

    if name in ("O", "C", "H", "RR"):
        return hurwitz(name).alg
    return (m3r() if name == "M3R" else jordan_ingredient(name)).alg


# k for each algebra: its Der(A) table is read on the first k basis vectors
DER_PREFIX = {"O": 5, "M3R": 3, "C": 0, "H": 3, "RR": 0}
DER_PREFIX.update(dict.fromkeys(["albert", "albert-split", "splitalbert"], 10))


def _spy_prefix(monkeypatch, shift=0):
    """Route `_full_rank_prefix` through a wrapper that adds shift to k and
    records the k it returns."""
    rule, seen = algcore._full_rank_prefix, []

    def shifted(n, cols):
        seen.append(rule(n, cols) + shift)
        return seen[-1]

    monkeypatch.setattr(algcore, "_full_rank_prefix", shifted)
    return seen


@pytest.mark.parametrize("name", sorted(DER_PREFIX))
def test_der_table_on_a_few_basis_vectors_is_the_full_width_table(name, monkeypatch):
    # values, key order and entry types of the table read on the first k
    # basis vectors equal those of the whole commutators on the full width
    kept = _der_test_algebra(name)
    alg = StructAlgebra(kept.dim, list(kept.basis_labels), kept.sc)
    seen = _spy_prefix(monkeypatch)
    table = algcore.derivation_algebra(alg).sc
    assert seen == [DER_PREFIX[name]]
    assert repr(list(table.items())) == repr(list(derivation_table_full_width(alg).items()))
    if DER_PREFIX[name] == 0:  # Der(A) = 0: nothing is restricted, the table is empty
        assert algcore.derivation_int_matrices(alg)[1] == [] and table == {}


@pytest.mark.parametrize("name", ["O", "M3R", "H", "albert"])
def test_der_table_on_one_basis_vector_too_few_raises(name, monkeypatch):
    kept = _der_test_algebra(name)
    alg = StructAlgebra(kept.dim, list(kept.basis_labels), kept.sc)
    _spy_prefix(monkeypatch, shift=-1)
    with pytest.raises(AlgebraError, match=f"on {DER_PREFIX[name] - 1} basis vectors"):
        algcore.derivation_algebra(alg)
    assert alg._der_alg_cache is None


def test_automorphism_checks():
    a = sl2()
    ident = identity(3)
    assert algcore.is_automorphism(a, ident)
    # h -> h, e -> 2e, f -> f/2 is an automorphism of sl2
    m = [[F(1), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(1, 2)]]
    assert algcore.is_automorphism(a, m)
    assert algcore.is_diagonal_automorphism(a, [F(1), F(2), F(1, 2)])
    assert not algcore.is_diagonal_automorphism(a, [F(1), F(2), F(2)])
    # swap e,f with sign: h -> -h (the sl2 omega)
    sw = [[F(-1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(-1), F(0)]]
    assert algcore.is_automorphism(a, sw)
    assert algcore.is_monomial_automorphism(a, [0, 2, 1], [F(-1), F(-1), F(-1)])
    # one coefficient's sign flipped: [e, f] = h is no longer preserved
    assert not algcore.is_monomial_automorphism(a, [0, 2, 1], [F(-1), F(1), F(-1)])
    # on an abelian algebra every map preserves products, and only the
    # invertible ones are automorphisms
    ab = StructAlgebra(dim=2, basis_labels=["x", "y"], sc={})
    assert algcore.is_monomial_automorphism(ab, [1, 0], [2, -1])
    assert not algcore.is_monomial_automorphism(ab, [0, 0], [1, 1])
    assert not algcore.is_monomial_automorphism(ab, [0, 1], [1, 0])


def test_killing_invariant_under_automorphism():
    # K(phi x, phi y) = K(x, y) for a verified automorphism phi
    a = sl2()
    lie = LieAlgebra(a)
    k = killing_matrix(lie)
    m = [[F(1), F(0), F(0)], [F(0), F(2), F(0)], [F(0), F(0), F(1, 2)]]
    assert algcore.is_automorphism(a, m)
    mt = linalg.transpose(m)
    assert linalg.mat_mul(mt, linalg.mat_mul(k, m)) == k
    sw = [[F(-1), F(0), F(0)], [F(0), F(0), F(-1)], [F(0), F(-1), F(0)]]
    swt = linalg.transpose(sw)
    assert linalg.mat_mul(swt, linalg.mat_mul(k, sw)) == k


def test_json_roundtrip():
    a = sl2()
    doc = algcore.algebra_to_json(a, provenance={"model": "sl2"})
    b = algcore.algebra_from_json(doc)
    assert b.sc == a.sc
    assert b.basis_labels == a.basis_labels
    assert doc["sc"][0] == [0, 1, 1, "2"]


@st.composite
def anticommutative_algebras(draw):
    """(alg, wide): a sparse anticommutative rational algebra of dim 3-6.

    When wide, b_0 b_1 gets a 2^-61 component and b_0 b_2 an integer one, so
    the common denominator pushes int_tensor past its bound.
    """
    n = draw(st.integers(min_value=3, max_value=6))
    wide = draw(st.booleans())
    coef = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)
    sc = {}
    for i, j in combinations(range(n), 2):
        row = draw(st.dictionaries(st.integers(min_value=0, max_value=n - 1), coef, max_size=2))
        if wide and (i, j) == (0, 1):
            row[0] = F(1, 2**61)
        if wide and (i, j) == (0, 2):
            row[1] = F(1)
        if row:
            sc[(i, j)] = row
            sc[(j, i)] = {k: -v for k, v in row.items()}
    alg = StructAlgebra(dim=n, basis_labels=[f"b{i}" for i in range(n)], sc=sc)
    return alg, wide


def _jacobi_reference(alg):
    e = [alg.basis_vector(i) for i in range(alg.dim)]
    bad = []
    for i, j, k in combinations(range(alg.dim), 3):
        terms = [
            alg.multiply(alg.multiply(e[a], e[b]), e[c])
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j))
        ]
        if any(sum(vals) for vals in zip(*terms)):
            bad.append((i, j, k))
    return bad


def _killing_reference(alg):
    ads = [alg.left_mult_matrix(alg.basis_vector(i)) for i in range(alg.dim)]
    return [
        [
            sum((v * b.get(q, {}).get(p, 0) for p, row in a.items() for q, v in row.items()), F(0))
            for b in ads
        ]
        for a in ads
    ]


@given(anticommutative_algebras())
@settings(max_examples=80, deadline=None)
def test_kernels_match_brute_force_on_both_tables(case):
    alg, wide = case
    assert (alg.int_tensor()[1] is None) == wide
    defect = _jacobi_reference(alg)
    kmat = _killing_reference(alg)
    lie = LieAlgebra(alg, check_jacobi=False)
    assert jacobi_defect(alg) == defect
    assert killing_matrix(lie) == kmat
    diagonal_table(alg)
    assert jacobi_defect(alg) == defect
    assert killing_matrix(lie) == kmat


def test_kernels_match_brute_force_on_a_diagonal_table_past_the_bound():
    # c[1, 2][0] = 2^-61 makes f_0 = 7 * 2^61, so the integer bracket [b_0,
    # b_1] = b_3 - 2 b_2 gets the constants 1 / (7 * 2^62) and -2 / (7 * 2^62)
    # on b_i / f_i: the diagonal table's denominator is past the bound too
    alg = _from_brackets(
        5,
        {
            (1, 2): {0: F(1, 2**61), 4: F(1, 3)},
            (0, 1): {3: F(1), 2: F(-2)},
            (0, 3): {1: F(1, 2)},
            (2, 3): {4: F(3)},
            (3, 4): {2: F(1)},
            (0, 4): {0: F(5, 7)},
        },
    )
    assert alg.int_tensor() == (None, None)
    f, d, t = alg._kernel_table()
    top = max(abs(y) for row in t.values() for y in row.values())
    assert f[0] == 7 * 2**61 and d % 2**62 == 0
    assert alg.dim * top * top >= algcore._INT_TABLE_BOUND
    defect = _jacobi_reference(alg)
    kmat = _killing_reference(alg)
    assert defect and any(any(row) for row in kmat)
    assert jacobi_defect(alg) == defect
    assert killing_matrix(LieAlgebra(alg, check_jacobi=False)) == kmat


# Three-dimensional Lie algebras by their brackets [b_i, b_j], i < j.  Scaling
# one bracket of so3 or of the Heisenberg algebra gives a Lie algebra again,
# and so does scaling [e, f] of sl2; scaling [h, e] or [h, f] by s breaks
# Jacobi on (h, e, f) by 2(1 - s)h.
LIE_BRACKETS = {
    "sl2": {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}},
    "so3": {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}},
    "heisenberg": {(0, 1): {2: 1}},
}
JACOBI_BREAKERS = {("sl2", (0, 1)), ("sl2", (0, 2))}
PRIMES = [p for p in range(2, 100) if all(p % d for d in range(2, p))] + [
    998244353,
    1000000007,
    2**31 - 1,
    2**61 - 1,
]


def _from_brackets(n, brackets):
    sc = {}
    for (i, j), row in brackets.items():
        sc[(i, j)] = row
        sc[(j, i)] = {k: -v for k, v in row.items()}
    return StructAlgebra(dim=n, basis_labels=[f"b{i}" for i in range(n)], sc=sc)


def _sheared(alg, shear):
    """The algebra on the basis b'_j = b_j + sum_{i<j} shear[i][j] b_i."""
    n = alg.dim
    p = [[F(1 if i == j else shear[i][j] if i < j else 0) for j in range(n)] for i in range(n)]
    p_inv = linalg.mat_inverse(p)
    cols = [[p[r][c] for r in range(n)] for c in range(n)]
    return algcore.algebra_from_products(
        alg.basis_labels,
        lambda i, j: mat_vec(p_inv, alg.multiply(cols[i], cols[j])),
    )


@st.composite
def rescaled_lie_algebras(draw):
    """(alg, breaks): sl2, so3 or Heisenberg plus an abelian part, at random
    basis slots, sometimes with one bracket and its mirror scaled; then on a
    unitriangular integer change of basis rescaled by distinct primes.  The
    shear gives each bracket several terms, so Jacobi sums terms over distinct
    denominators that cancel.  ``breaks`` says whether the mutant fails Jacobi.
    """
    name = draw(st.sampled_from(sorted(LIE_BRACKETS)))
    n = 3 + draw(st.integers(min_value=0, max_value=3))
    slot = draw(st.permutations(range(n)))
    brackets = {
        (slot[i], slot[j]): {slot[k]: F(v) for k, v in row.items()}
        for (i, j), row in LIE_BRACKETS[name].items()
    }
    breaks = False
    if draw(st.booleans()):
        i, j = draw(st.sampled_from(sorted(LIE_BRACKETS[name])))
        scale = st.fractions(min_value=-5, max_value=5, max_denominator=7)
        s = draw(scale.filter(lambda s: s not in (0, 1)))
        key = (slot[i], slot[j])
        brackets[key] = {k: s * v for k, v in brackets[key].items()}
        breaks = (name, (i, j)) in JACOBI_BREAKERS
    entries = st.integers(min_value=-2, max_value=2)
    shear = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    primes = draw(st.lists(st.sampled_from(PRIMES), min_size=n, max_size=n, unique=True))
    return rescaled(_sheared(_from_brackets(n, brackets), shear), primes), breaks


@given(rescaled_lie_algebras())
@settings(max_examples=80, deadline=None)
def test_scaled_loop_on_prime_rescaled_lie_algebras(case):
    alg, breaks = case
    defect = _jacobi_reference(alg)
    assert bool(defect) == breaks
    assert jacobi_defect(alg) == defect
    assert jacobi_defect(diagonal_table(alg)) == defect


# Lie algebras for the generator walk: direct sums of sl2, the Heisenberg
# algebra and an abelian summand, so S has several elements and the closure
# crosses summands only through the change of basis.
SUMMANDS = {
    "sl2": (3, LIE_BRACKETS["sl2"]),
    "heisenberg": (3, LIE_BRACKETS["heisenberg"]),
    "abelian1": (1, {}),
    "abelian2": (2, {}),
}


@st.composite
def transported_lie_algebras(draw):
    """A direct sum of sl2, Heisenberg and abelian summands (dim at most 8)
    on the basis of the columns of a random invertible integer matrix; in
    half the draws one entry of a bracket and of its mirror is then changed
    by the same nonzero rational, which keeps the table anticommutative."""
    kinds = draw(st.lists(st.sampled_from(sorted(SUMMANDS)), min_size=1, max_size=3))
    brackets, n = {}, 0
    for kind in kinds:
        size, table = SUMMANDS[kind]
        if n + size > 8:
            break
        for (i, j), row in table.items():
            brackets[(n + i, n + j)] = {n + k: F(v) for k, v in row.items()}
        n += size
    entries = st.integers(min_value=-3, max_value=3)
    p = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    assume(linalg.rank(p) == n)
    p_inv = linalg.mat_inverse(p)
    cols = [[F(p[r][c]) for r in range(n)] for c in range(n)]
    alg = algcore.algebra_from_products(
        [f"b{i}" for i in range(n)],
        lambda i, j: mat_vec(p_inv, _from_brackets(n, brackets).multiply(cols[i], cols[j])),
    )
    if n >= 2 and draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        k = draw(st.integers(0, n - 1))
        delta = draw(st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool))
        row = dict(alg.sc.get((i, j), {}))
        row[k] = row.get(k, 0) + delta
        sc = {key: r for key, r in alg.sc.items() if key not in ((i, j), (j, i))}
        algcore.put_antisymmetric(sc, i, j, row)
        alg = StructAlgebra(dim=n, basis_labels=alg.basis_labels, sc=sc)
    return alg


def _ad_closure(alg, gens):
    """Reduced echelon rows of the smallest subspace holding b_s (s in gens)
    and closed under every ad b_s, grown a bracket level at a time until
    `linalg.rank` stops rising: an oracle apart from `_ad_generators`'
    echelon walk."""
    ads = [alg.left_mult_matrix(alg.basis_vector(s)) for s in gens]
    span = [{s: 1} for s in gens]
    dim = linalg.rank(span)
    while True:
        basis = [linalg.sparse(v) for v in linalg.rref(span, alg.dim)[0]]
        span = basis + [linalg.sp_matvec(ad, v) for ad in ads for v in basis]
        grown = linalg.rank(span)
        if grown == dim:
            return basis
        dim = grown


def _basis_vectors_in(closure):
    """The indices b with b_b in the span of the reduced echelon rows
    closure: b_b has 0 at every pivot but b, so it is in the span iff the
    row of pivot b is b_b itself."""
    return {b for row in closure for b in row if row == {b: 1}}


def _check_placement(alg, order, gens):
    """The induction of `jacobi_defect`, on the oracle `_ad_closure`: S
    generates, and the vectors placed before each generator are exactly the
    basis vectors that the closure of the earlier generators holds, so each
    of them lies in it, it holds no generator, and no vector it holds is
    placed after a generator."""
    assert sorted(order) == list(range(alg.dim))
    assert list(gens) == [b for b in order if b in gens]
    assert len(_ad_closure(alg, gens)) == alg.dim
    for a, s in enumerate(gens):
        inside = _basis_vectors_in(_ad_closure(alg, gens[:a]))
        assert set(order[: order.index(s)]) == inside, s


@given(transported_lie_algebras())
@settings(max_examples=120, deadline=None)
def test_generator_walk_matches_the_reference_on_both_tables(alg):
    defect = _jacobi_reference(alg)
    order, gens = algcore._ad_generators(alg)
    _check_placement(alg, order, gens)
    assert jacobi_defect(alg) == defect
    diagonal_table(alg)
    assert algcore._ad_generators(alg) == (order, gens)
    assert jacobi_defect(alg) == defect


# |S| in placement order: the Tits models over R+R and C share a basis layout
GENERATOR_COUNTS = {"tits-o-m3r": 8, "sp8-e6": 5, "chevalley-e6": 15}


@pytest.mark.parametrize("name", catalog.MODEL_NAMES)
def test_ad_generators_generate_each_catalog_model(name):
    alg = catalog.model(name)[0].alg
    order, gens = algcore._ad_generators(alg)
    assert len(gens) == GENERATOR_COUNTS.get(name, 6)
    assert len(_ad_closure(alg, gens)) == 78
    assert linalg.rank(_ad_closure(alg, gens[:-1])) < 78
    # the same placement on the diagonal table, and on the diagonal table
    # of the model rescaled by 31-bit primes
    diag = diagonal_table(StructAlgebra(dim=alg.dim, basis_labels=alg.basis_labels, sc=alg.sc))
    wide = rescaled(alg, _primes_below(2**31 - 1, alg.dim))
    assert wide.int_tensor() == (None, None)
    assert algcore._ad_generators(diag) == algcore._ad_generators(wide) == (order, gens)


def _every_triple_fails(n):
    """An int table of dimension n, every entry 1, and the same table with
    every entry 1/2: each Jacobi coordinate is a sum of positive products,
    so every triple a kernel walks is a defect, and without stop it lists
    exactly the triples it walks, in order."""
    t = {(a, b): dict.fromkeys(range(n), 1) for a in range(n) for b in range(n)}
    sc = {key: {q: F(1, 2) for q in row} for key, row in t.items()}
    return t, StructAlgebra(dim=n, basis_labels=[f"b{i}" for i in range(n)], sc=sc)


def _packed_terms(t, n):
    """The terms `_jacobi_walk` reads, packed as `jacobi_defect` packs them:
    w = bitlen(3 n M^2) + 2 bits a coordinate."""
    top = max(abs(y) for row in t.values() for y in row.values())
    w = (3 * n * top * top).bit_length() + 2
    packed = [{} for _ in range(n)]
    for (m, c), row in t.items():
        packed[m][c] = sum(y << (w * q) for q, y in row.items())
    terms = [{} for _ in range(n)]
    for (a, b), row in t.items():
        terms[a][b] = [(x, packed[m]) for m, x in row.items()]
    return terms


def test_jacobi_walk_is_s_j_k_through_the_firsts():
    n = 7
    t, alg = _every_triple_fails(n)
    terms = _packed_terms(t, n)
    # every index first, in index order: the reference walk i<j<k, in order
    full = list(combinations(range(n), 3))
    assert algcore._jacobi_walk(terms, list(range(n)), range(n)) == full
    assert jacobi_defect_scaled(alg) == full
    # index order and a subset: exactly the triples (s, j, k), s < j < k
    firsts = [1, 2, 4]
    through = [(s, j, k) for s in firsts for j, k in combinations(range(s + 1, n), 2)]
    assert algcore._jacobi_walk(terms, list(range(n)), firsts) == through
    assert jacobi_defect_scaled(alg, firsts) == through
    # a placement order: each s with the pairs placed after it, in that order
    order = [3, 0, 6, 1, 5, 2, 4]
    firsts = [0, 5]
    placed = [(s, j, k) for s in firsts for j, k in combinations(order[order.index(s) + 1 :], 2)]
    assert placed[0] == (0, 6, 1) and len(placed) == 10 + 1
    assert algcore._jacobi_walk(terms, order, firsts) == placed
    assert algcore._jacobi_walk(terms, order, firsts, stop=True) == placed[:1]


def test_jacobi_finds_a_defect_through_the_last_generator_only():
    # ad b0 is a derivation and ad b1 is not: S = [0, 1], and the one
    # defect (1, 2, 3) is found only by the walk through the last generator
    sc = {}
    for (i, j), k in {(0, 1): 3, (0, 2): 2, (0, 3): 2, (1, 3): 0}.items():
        algcore.put_antisymmetric(sc, i, j, {k: F(1)})
    alg = StructAlgebra(dim=4, basis_labels=["b0", "b1", "b2", "b3"], sc=sc)
    assert algcore._ad_generators(alg) == ([0, 1, 2, 3], [0, 1])
    assert jacobi_defect(alg) == _jacobi_reference(alg) == [(1, 2, 3)]
    assert algcore.jacobi_certificate(alg) == ((1, 2, 3),)
    assert jacobi_defect(diagonal_table(alg)) == [(1, 2, 3)]


# triples (s, j, k) walked through S on the certified table: each s with
# the pairs placed after it
WALKED_TRIPLES = {"tits-o-m3r": 13090, "sp8-e6": 11034, "chevalley-e6": 26059}


@pytest.mark.parametrize("name", catalog.MODEL_NAMES)
def test_indices_below_a_generator_lie_in_the_earlier_closure(name):
    # the induction step of `jacobi_defect`, with "below" in placement
    # order: every index placed before a generator s that is not a generator
    # lies in the closure of the generators before s, and s does not
    alg = catalog.model(name)[0].alg
    order, gens = algcore._ad_generators(alg)
    _check_placement(alg, order, gens)
    walked = sum(comb(alg.dim - 1 - order.index(s), 2) for s in gens)
    assert walked == WALKED_TRIPLES.get(name, 13631)


def _mirrors_reference(sc, sign):
    """The Fraction-comparing mirror check that `is_anticommutative` and
    `_symmetry` replaced."""
    for (i, j), row in sc.items():
        if sign == -1 and i == j and row:
            return False
        other = sc.get((j, i), {})
        if set(row) != set(other) or any(other[k] != sign * v for k, v in row.items()):
            return False
    return True


@pytest.mark.parametrize(
    "sc,anti,comm",
    [
        ({(0, 1): {2: F(1)}}, False, False),  # no mirror row
        ({(0, 1): {2: F(1)}, (1, 0): {2: F(-1), 0: F(1)}}, False, False),  # one extra key
        ({(0, 1): {2: F(1), 0: F(1)}, (1, 0): {2: F(-1)}}, False, False),  # one key short
        ({(0, 1): {2: F(1, 2)}, (1, 0): {2: F(-1, 3)}}, False, False),  # denominators differ
        ({(0, 1): {2: F(1, 2)}, (1, 0): {2: F(1, 3)}}, False, False),
        # int entries mixed with Fractions
        ({(0, 1): {2: 2, 0: F(1, 3)}, (1, 0): {2: F(-2), 0: F(-1, 3)}}, True, False),
        ({(0, 1): {2: F(3)}, (1, 0): {2: 3}}, False, True),
        ({(0, 1): {2: F(-4, 6)}, (1, 0): {2: F(2, 3)}}, True, False),
        ({(0, 0): {1: F(1)}}, False, True),  # a nonzero diagonal row
        ({(0, 1): {2: F(1)}, (1, 0): {2: F(-1)}, (2, 2): {0: 5}}, False, False),
        ({}, True, True),
        # stored zeros: a zero entry whose mirror is not stored, and one that
        # is; mirrors as long as the row, with the zero at another key; a
        # zero on a diagonal row
        ({(0, 1): {2: F(0)}}, False, False),
        ({(0, 1): {2: F(0), 0: F(1)}, (1, 0): {2: F(0), 0: F(-1)}}, True, False),
        ({(0, 1): {2: F(0), 0: F(1)}, (1, 0): {1: F(0), 0: F(-1)}}, False, False),
        ({(0, 0): {1: F(0)}}, False, True),
    ],
)
def test_mirror_checks_compare_numerators_and_denominators(sc, anti, comm):
    alg = StructAlgebra(dim=3, basis_labels=["a", "b", "c"], sc=sc)
    assert alg.is_anticommutative() is anti == _mirrors_reference(sc, -1)
    assert comm == _mirrors_reference(sc, 1)
    # _solve_derivations reads both off the int table in one pass
    assert algcore._symmetry(linalg.int_scaled(sc)[1]) == (comm, anti)
    # jacobi_defect checks anticommutativity on its packed rows instead
    assert _jacobi_rejects_on_both_tables(alg) == (not anti, not anti)


def _jacobi_rejects_on_both_tables(alg):
    """Whether `jacobi_defect` raises AlgebraError on the table of
    `int_tensor`, and on the diagonal table."""
    out = []
    for _ in range(2):
        try:
            jacobi_defect(alg)
        except AlgebraError:
            out.append(True)
        else:
            out.append(False)
        diagonal_table(alg)
    return tuple(out)


@st.composite
def perturbed_tables(draw):
    """An anticommutative table of `integer_tables` with one entry of one
    row (i, j), the diagonal rows included, set to a nonzero rational or
    removed; the mirror row (j, i) is left as it is, or in half the draws
    made minus the new row, which keeps an off-diagonal change
    anticommutative."""
    alg = draw(integer_tables())
    n = alg.dim
    i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
    row = dict(alg.sc.get((i, j), {}))
    value = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)
    if k in row and draw(st.booleans()):
        del row[k]
    else:
        row[k] = draw(st.sampled_from([-row[k]]) | value if k in row else value)
    sc = {key: r for key, r in alg.sc.items() if key != (i, j)}
    if row:
        sc[(i, j)] = row
    if i != j and draw(st.booleans()):
        sc.pop((j, i), None)
        if row:
            sc[(j, i)] = {q: -v for q, v in row.items()}
    return StructAlgebra(dim=n, basis_labels=alg.basis_labels, sc=sc)


@given(perturbed_tables())
@settings(max_examples=150, deadline=None)
def test_jacobi_rejects_exactly_the_tables_that_are_not_anticommutative(alg):
    rejects = not alg.is_anticommutative()
    assert _jacobi_rejects_on_both_tables(alg) == (rejects, rejects)


@st.composite
def planted_int_tables(draw):
    """A Lie algebra of dimension 4-9 with integer constants: sl2, so3 and
    Heisenberg summands and an abelian rest at random basis slots, on a
    unitriangular integer change of basis (whose inverse is integral too);
    then up to three defects planted, each an int added to one entry of a
    bracket and of its mirror, which keeps the table anticommutative."""
    n = draw(st.integers(min_value=4, max_value=9))
    slot = draw(st.permutations(range(n)))
    brackets, used = {}, 0
    for name in draw(st.lists(st.sampled_from(sorted(LIE_BRACKETS)), max_size=3)):
        if used + 3 > n:
            break
        for (i, j), row in LIE_BRACKETS[name].items():
            brackets[(slot[used + i], slot[used + j])] = {slot[used + k]: F(v) for k, v in row.items()}
        used += 3
    entries = st.integers(min_value=-2, max_value=2)
    shear = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    sc = dict(_sheared(_from_brackets(n, brackets), shear).sc)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        i, j = sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)))
        k = draw(st.integers(0, n - 1))
        row = dict(sc.pop((i, j), {}))
        sc.pop((j, i), None)
        row[k] = row.get(k, 0) + draw(st.integers(min_value=-3, max_value=3).filter(bool))
        algcore.put_antisymmetric(sc, i, j, row)
    return StructAlgebra(dim=n, basis_labels=[f"b{i}" for i in range(n)], sc=sc)


@given(planted_int_tables())
@settings(max_examples=120, deadline=None)
def test_jacobi_matches_the_scaled_loop_on_planted_int_tables(alg):
    assert all(v.denominator == 1 for row in alg.sc.values() for v in row.values())
    assert alg.int_tensor()[1] is not None
    defect = jacobi_defect_scaled(alg)
    assert jacobi_defect(alg) == defect
    assert jacobi_defect(diagonal_table(alg)) == defect


def test_lie_algebra_and_c02_read_one_jacobi_certificate(monkeypatch):
    alg = sl2()
    LieAlgebra(alg)
    assert alg._jacobi_cache == ()
    for name in catalog.MODEL_NAMES:
        catalog.model(name)
    calls = []
    real = algcore.jacobi_defect
    monkeypatch.setattr(algcore, "jacobi_defect", lambda a: calls.append(a) or real(a))
    assert algcore.jacobi_certificate(alg) == ()
    LieAlgebra(alg)
    results = verify.group_jacobi()
    assert all(r.passed for r in results) and len(results) == len(catalog.MODEL_NAMES)
    assert calls == []
    # a table never certified is certified once, on its first read
    fresh = sl2()
    assert algcore.jacobi_certificate(fresh) == algcore.jacobi_certificate(fresh) == ()
    assert calls == [fresh]


@st.composite
def lie_bases(draw):
    """(name, alg, basis): sl2, so3 or the Heisenberg algebra, and a basis of
    it, the rows of a unitriangular integer shear rescaled by nonzero
    rationals, as coordinate vectors in the standard basis."""
    name = draw(st.sampled_from(sorted(LIE_BRACKETS)))
    brackets = {
        key: {k: F(v) for k, v in row.items()} for key, row in LIE_BRACKETS[name].items()
    }
    entries = st.integers(min_value=-2, max_value=2)
    shear = draw(st.lists(st.lists(entries, min_size=3, max_size=3), min_size=3, max_size=3))
    scale = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
    scales = draw(st.lists(scale, min_size=3, max_size=3))
    basis = [
        [scales[i] * (1 if i == j else shear[i][j] if i < j else 0) for j in range(3)]
        for i in range(3)
    ]
    return name, _from_brackets(3, brackets), basis


def _all_pairs_constants(alg, basis):
    """sc of alg's bracket on basis from every ordered pair: the coordinates c
    with c B = [b_i, b_j] are [b_i, b_j] B^-1."""
    n = len(basis)
    inv = linalg.mat_inverse(basis)
    sc = {}
    for i in range(n):
        for j in range(n):
            v = alg.multiply(basis[i], basis[j])
            row = {c: sum(v[r] * inv[r][c] for r in range(n)) for c in range(n)}
            row = {c: x for c, x in row.items() if x}
            if row:
                sc[(i, j)] = row
    return sc


@given(lie_bases(), st.booleans())
@settings(max_examples=60, deadline=None)
def test_bracket_constants_match_all_pairs_expansion(case, sparse_bracket):
    _, alg, basis = case

    def bracket(i, j):
        v = alg.multiply(basis[i], basis[j])
        return linalg.sparse(v) if sparse_bracket else v

    solver = linalg.SpanSolver(basis)
    assert algcore.bracket_constants(solver, bracket) == _all_pairs_constants(alg, basis)


@given(lie_bases())
@settings(max_examples=60, deadline=None)
def test_bracket_constants_identical_on_int_and_fraction_brackets(case):
    # the brackets scaled to ints on one denominator D, read as they are,
    # and the same ints as Fractions and as dense lists, which are scaled
    # to ints first: the tables are equal down to key order and entry types
    _, alg, basis = case
    pairs = list(combinations(range(3), 2))
    products = [linalg.sparse(alg.multiply(basis[i], basis[j])) for i, j in pairs]
    den, ints = linalg.int_scaled(products)
    by_pair = dict(zip(pairs, ints))
    solver = linalg.SpanSolver(basis)
    tables = [
        algcore.bracket_constants(solver, lambda i, j: by_pair[(i, j)], den),
        algcore.bracket_constants(
            solver, lambda i, j: {k: F(x) for k, x in by_pair[(i, j)].items()}, den
        ),
        algcore.bracket_constants(
            solver, lambda i, j: [F(by_pair[(i, j)].get(k, 0)) for k in range(3)], den
        ),
    ]
    assert tables[0] == _all_pairs_constants(alg, basis)
    assert len({repr(list(sc.items())) for sc in tables}) == 1


@pytest.mark.parametrize("name", ["O", "M3R", "albert"])
def test_der_tables_identical_on_int_and_fraction_brackets(name):
    from e6lab.composition import hurwitz
    from e6lab.jordan import h3, m3r

    alg = {"O": lambda: hurwitz("O"), "M3R": m3r, "albert": lambda: h3("O", (1, 1, 1))}[name]().alg
    den, mats = algcore.derivation_int_matrices(alg)
    n = alg.dim
    solver = derivation_solver_full_width(alg)
    # the solver built on the int matrices is the one on the dense
    # flattened Fraction matrices
    dense = linalg.SpanSolver([sum(d, []) for d in derivations(alg)])
    assert (solver.n, solver.lcm_red, solver.red, solver.lcm_transform, solver.transform) == (
        dense.n,
        dense.lcm_red,
        dense.red,
        dense.lcm_transform,
        dense.transform,
    )
    table = algcore.derivation_algebra(alg).sc
    as_fractions = algcore.bracket_constants(
        solver,
        lambda p, q: {k: F(x) for k, x in linalg.sp_bracket(mats[p], mats[q], n).items()},
        den * den,
    )
    assert repr(list(as_fractions.items())) == repr(list(table.items()))


@given(lie_bases(), st.sampled_from([(0, 1), (0, 2), (1, 2)]))
@settings(max_examples=60, deadline=None)
def test_bracket_constants_reject_a_span_not_closed(case, pair):
    name, alg, basis = case
    sub = [basis[k] for k in pair]
    product = alg.multiply(sub[0], sub[1])
    closed = span_coefficients(linalg.SpanSolver(sub), product) is not None
    if name == "so3":
        assert not closed  # so3 has no 2-dimensional subalgebra over Q
    solver = linalg.SpanSolver(sub)
    if closed:
        sc = algcore.bracket_constants(solver, lambda i, j: alg.multiply(sub[i], sub[j]))
        full = _all_pairs_constants(alg, sub + [basis[3 - sum(pair)]])
        assert sc == {key: row for key, row in full.items() if max(key) < 2}
    else:
        with pytest.raises(AlgebraError):
            algcore.bracket_constants(solver, lambda i, j: alg.multiply(sub[i], sub[j]))


NO_NUMPY_SCRIPT = """
import importlib, pkgutil, sys
from fractions import Fraction as F

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import e6lab

for mod in pkgutil.iter_modules(e6lab.__path__):
    importlib.import_module("e6lab." + mod.name)

from e6lab.algcore import (
    LieAlgebra, StructAlgebra, derivation_algebra, inertia, jacobi_defect, killing_matrix,
)
from e6lab.composition import hurwitz

sc = {(0, 1): {1: F(2)}, (1, 0): {1: F(-2)}, (0, 2): {2: F(-2)}, (2, 0): {2: F(2)},
      (1, 2): {0: F(1)}, (2, 1): {0: F(-1)}}
sl2 = StructAlgebra(dim=3, basis_labels=["h", "e", "f"], sc=sc)
assert jacobi_defect(sl2) == []
assert killing_matrix(LieAlgebra(sl2)) == [[8, 0, 0], [0, 0, 4], [0, 4, 0]]
der = derivation_algebra(hurwitz("O").alg)
assert jacobi_defect(der) == []
r = inertia(killing_matrix(LieAlgebra(der)))
assert (r.n_plus, r.n_minus, r.n_zero) == (0, 14, 0)
print("ok")
"""


def test_package_runs_without_numpy():
    src = str(Path(e6lab.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"
