import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from e6lab import linalg
from e6lab.scalars import QI, QQ, GaussRational

F = Fraction


def test_rref_simple():
    rows = [[F(2), F(4)], [F(1), F(2)]]
    red, pivots = linalg.rref(rows, QQ)
    assert red == [[F(1), F(2)]]
    assert pivots == [0]


def test_rref_deterministic_under_row_order():
    rows = [[F(0), F(1), F(3)], [F(2), F(0), F(4)], [F(2), F(1), F(7)]]
    a, _ = linalg.rref(rows, QQ)
    b, _ = linalg.rref(rows[::-1], QQ)
    assert a == b


def test_kernel_matches_definition():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    ker = linalg.kernel(rows, 3, QQ)
    assert len(ker) == 2
    for v in ker:
        assert all(sum(r[c] * v[c] for c in range(3)) == 0 for r in rows)


def test_kernel_over_qi():
    i = GaussRational(0, 1)
    one = GaussRational(1)
    ker = linalg.kernel([[one, i]], 2, QI)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] * one + v[1] * i == GaussRational(0)


def test_span_solver():
    basis = [[F(1), F(1), F(0)], [F(0), F(2), F(2)]]
    s = linalg.SpanSolver(basis, QQ)
    v = [F(2), F(4), F(2)]
    coeffs = s.coefficients(v)
    assert coeffs == [F(2), F(1)]
    assert s.coefficients([F(1), F(0), F(0)]) is None
    with pytest.raises(ValueError):
        linalg.SpanSolver([[F(1), F(0)], [F(2), F(0)]], QQ)


def test_mat_inverse():
    a = [[F(2), F(1)], [F(1), F(1)]]
    inv = linalg.mat_inverse(a, QQ)
    assert linalg.mat_mul(a, inv, QQ) == linalg.identity(2, QQ)


def test_intersect_spans():
    a = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    b = [[F(0), F(1), F(1)], [F(1), F(0), F(1)]]
    inter = linalg.intersect_spans(a, b, QQ)
    assert len(inter) == 1
    v = inter[0]
    # must lie in both spans
    assert linalg.SpanSolver(a, QQ).contains(v)
    assert linalg.SpanSolver(b, QQ).contains(v)


def test_inertia_identity_and_diag():
    ident3 = linalg.congruence_inertia([[F(1), F(0)], [F(0), F(1)]])
    assert ident3 == (2, 0, 0)
    assert linalg.congruence_inertia([[F(1), F(0)], [F(0), F(-1)]]) == (1, 1, 0)
    # hyperbolic plane: zero diagonal, handled by the off-diagonal trick
    assert linalg.congruence_inertia([[F(0), F(1)], [F(1), F(0)]]) == (1, 1, 0)
    assert linalg.congruence_inertia([[F(0), F(0)], [F(0), F(0)]]) == (0, 0, 2)


def test_inertia_rejects_asymmetric():
    with pytest.raises(ValueError):
        linalg.congruence_inertia([[F(0), F(1)], [F(2), F(0)]])


small_entries = st.integers(min_value=-4, max_value=4)


@given(st.lists(st.lists(small_entries, min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_inertia_congruence_invariant(raw):
    # symmetrize the random matrix, then congruence by a random invertible P
    m = [[F(raw[i][j] + raw[j][i]) for j in range(4)] for i in range(4)]
    rng = random.Random(str(raw))
    while True:
        p = [[F(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        if linalg.rank(p, QQ) == 4:
            break
    pt = linalg.transpose(p)
    m2 = linalg.mat_mul(pt, linalg.mat_mul(m, p, QQ), QQ)
    assert linalg.congruence_inertia(m) == linalg.congruence_inertia(m2)


def test_congruence_diagonalize_certificate():
    m = [[F(0), F(1), F(2)], [F(1), F(0), F(0)], [F(2), F(0), F(3)]]
    diag, p = linalg.congruence_diagonalize(m)
    pt = linalg.transpose(p)
    d = linalg.mat_mul(pt, linalg.mat_mul(m, p, QQ), QQ)
    for i in range(3):
        for j in range(3):
            assert d[i][j] == (diag[i] if i == j else 0)


@given(
    st.lists(
        st.lists(small_entries, min_size=5, max_size=5), min_size=7, max_size=7
    )
)
@settings(max_examples=40, deadline=None)
def test_incremental_kernel_matches_dense(raw):
    rows = [[F(x) for x in r] for r in raw]
    acc = linalg.IntKernelAccumulator(5)
    for r in rows:
        acc.add_constraint({i: v for i, v in enumerate(r) if v})
    dense = linalg.kernel(rows, 5, QQ)
    assert acc.kernel_basis() == dense


def test_eigenspace():
    m = [[F(2), F(0)], [F(0), F(3)]]
    e2 = linalg.eigenspace(m, F(2), QQ)
    assert e2 == [[F(1), F(0)]]


def test_clear_denominators():
    assert linalg.clear_denominators([F(1, 2), F(1, 3)]) == [3, 2]
    assert linalg.clear_denominators([F(2), F(4)]) == [1, 2]


def test_mat_inverse_rejects_singular():
    with pytest.raises(ValueError):
        linalg.mat_inverse([[F(1), F(2)], [F(2), F(4)]], QQ)


def _combine(coeffs, basis, field):
    return [
        sum((c * b[j] for c, b in zip(coeffs, basis)), field.zero)
        for j in range(len(basis[0]))
    ]


def _check_span_solver(basis, coeffs, outside, field):
    assume(linalg.rank(basis, field) == len(basis))
    s = linalg.SpanSolver(basis, field)
    v = _combine(coeffs, basis, field)
    dense = s.coefficients(v)
    assert dense == s.coefficients({j: x for j, x in enumerate(v) if x})
    assert dense == coeffs
    assert _combine(dense, basis, field) == v
    if linalg.rank(basis + [outside], field) > len(basis):
        assert s.coefficients(outside) is None
        assert s.coefficients({j: x for j, x in enumerate(outside) if x}) is None


span_rows = st.lists(
    st.lists(small_entries, min_size=5, max_size=5), min_size=5, max_size=5
)


@given(span_rows)
@settings(max_examples=60, deadline=None)
def test_span_solver_dense_sparse_agree_qq(raw):
    rows = [[F(x) for x in r] for r in raw]
    _check_span_solver(rows[:3], rows[3][:3], rows[4], QQ)


@given(span_rows, span_rows)
@settings(max_examples=40, deadline=None)
def test_span_solver_dense_sparse_agree_qi(re, im):
    rows = [
        [GaussRational(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(re, im)
    ]
    _check_span_solver(rows[:3], rows[3][:3], rows[4], QI)


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(small_entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_congruence_inertia_is_sign_count_of_diagonalize(raw, zero_diag, singular):
    n = len(raw)
    m = [[F(raw[i][j] + raw[j][i]) for j in range(n)] for i in range(n)]
    if zero_diag:
        for i in range(n):
            m[i][i] = F(0)
    if singular and n > 1:
        # last row and column repeat the first: symmetric, rank < n
        for j in range(n):
            m[n - 1][j] = m[0][j]
        for i in range(n):
            m[i][n - 1] = m[i][0]
    diag, p = linalg.congruence_diagonalize(m)
    signs = (
        sum(1 for d in diag if d > 0),
        sum(1 for d in diag if d < 0),
        sum(1 for d in diag if d == 0),
    )
    assert linalg.congruence_inertia(m) == signs
    if singular and n > 1:
        assert signs[2] >= 1
    d = linalg.mat_mul(linalg.transpose(p), linalg.mat_mul(m, p, QQ), QQ)
    assert d == [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


rational_entries = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=0, max_size=4),
            st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=1, max_size=4),
        )
    ),
    st.booleans(),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_gram_equals_x_m_yt(data, zero_rows, zero_block):
    m, xs, ys = data
    n = len(m)
    if zero_rows:
        xs = xs + [[F(0)] * n]
        ys = [[F(0)] * n] + ys
    if zero_block:
        # zero the top-left quarter of m and the leading entries of the rows
        h = (n + 1) // 2
        m = [[F(0) if i < h and j < h else x for j, x in enumerate(row)] for i, row in enumerate(m)]
        xs = [[F(0)] * h + x[h:] for x in xs]
    expected = linalg.mat_mul(linalg.mat_mul(xs, m, QQ), linalg.transpose(ys), QQ)
    assert linalg.gram(m, xs, ys, QQ) == expected
