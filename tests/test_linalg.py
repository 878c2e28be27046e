import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from e6lab import catalog, linalg
from oracles import (
    identity,
    mat_vec,
    scaled_rows_dense,
    sp_commutator,
    sp_flatten,
    span_coefficients,
)

F = Fraction


def test_rref_simple():
    rows = [[F(2), F(4)], [F(1), F(2)]]
    red, pivots = linalg.rref(rows)
    assert red == [[F(1), F(2)]]
    assert pivots == [0]


def test_rref_deterministic_under_row_order():
    rows = [[F(0), F(1), F(3)], [F(2), F(0), F(4)], [F(2), F(1), F(7)]]
    a, _ = linalg.rref(rows)
    b, _ = linalg.rref(rows[::-1])
    assert a == b


def test_kernel_matches_definition():
    rows = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    ker = linalg.kernel(rows, 3)
    assert len(ker) == 2
    for v in ker:
        assert all(sum(r[c] * v[c] for c in range(3)) == 0 for r in rows)


def test_span_solver():
    basis = [[F(1), F(1), F(0)], [F(0), F(2), F(2)]]
    s = linalg.SpanSolver(basis)
    v = [F(2), F(4), F(2)]
    coeffs = span_coefficients(s, v)
    assert coeffs == [F(2), F(1)]
    assert span_coefficients(s, [F(1), F(0), F(0)]) is None
    with pytest.raises(ValueError):
        linalg.SpanSolver([[F(1), F(0)], [F(2), F(0)]])


def test_mat_inverse():
    a = [[F(2), F(1)], [F(1), F(1)]]
    inv = linalg.mat_inverse(a)
    assert linalg.mat_mul(a, inv) == identity(2)


def test_intersect_spans():
    a = [[F(1), F(0), F(0)], [F(0), F(1), F(0)]]
    b = [[F(0), F(1), F(1)], [F(1), F(0), F(1)]]
    inter = linalg.intersect_spans(a, b)
    assert len(inter) == 1
    v = inter[0]
    # must lie in both spans
    assert span_coefficients(linalg.SpanSolver(a), v) is not None
    assert span_coefficients(linalg.SpanSolver(b), v) is not None


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
        if linalg.rank(p) == 4:
            break
    pt = linalg.transpose(p)
    m2 = linalg.mat_mul(pt, linalg.mat_mul(m, p))
    assert linalg.congruence_inertia(m) == linalg.congruence_inertia(m2)


def test_congruence_diagonalize_certificate():
    m = [[F(0), F(1), F(2)], [F(1), F(0), F(0)], [F(2), F(0), F(3)]]
    diag, p = linalg.congruence_diagonalize(m)
    pt = linalg.transpose(p)
    d = linalg.mat_mul(pt, linalg.mat_mul(m, p))
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
    dense = linalg.kernel(rows, 5)
    scaled = acc.kernel_basis()
    assert scaled_rows_dense(scaled, 5) == dense
    # one common scale, the least: every entry is an int and the scale is
    # the least common denominator of the rational basis
    den, ints = scaled
    assert all(type(x) is int for r in ints for x in r.values())
    assert den == linalg.int_scaled(dense)[0]


@given(
    st.lists(
        st.lists(small_entries, min_size=5, max_size=5), min_size=7, max_size=7
    )
)
@settings(max_examples=40, deadline=None)
def test_incremental_kernel_same_on_int_and_fraction_rows(raw):
    # int rows are used as they are and Fraction rows are cleared of
    # denominators: their dot products differ by a scale only, so both reach
    # the same primitive basis
    accs = [linalg.IntKernelAccumulator(5) for _ in range(2)]
    for r in raw:
        accs[0].add_constraint({i: 3 * v for i, v in enumerate(r) if v})
        accs[1].add_constraint({i: F(v, 2) for i, v in enumerate(r) if v})
    assert accs[0].basis == accs[1].basis
    assert accs[0].kernel_basis() == accs[1].kernel_basis()
    assert scaled_rows_dense(accs[0].kernel_basis(), 5) == linalg.kernel(raw, 5)


def test_eigenspace():
    m = [[F(2), F(0)], [F(0), F(3)]]
    e2 = linalg.eigenspace(m, F(2))
    assert e2 == [[F(1), F(0)]]


def test_primitive_of_cleared_rows():
    assert linalg.primitive(linalg.int_scaled([F(1, 2), F(1, 3)])[1]) == [3, 2]
    assert linalg.primitive(linalg.int_scaled([F(2), F(4)])[1]) == [1, 2]
    assert linalg.primitive({3: -4, 7: 6}) == {3: -2, 7: 3}
    assert linalg.primitive([0, 0]) == [0, 0]


def test_echelon_insert_reduces_and_inserts_what_is_left():
    echelon = {}
    assert linalg.echelon_insert(echelon, {0: 2, 2: 1}) == {0: 2, 2: 1}
    assert linalg.echelon_insert(echelon, {0: 4, 2: 2}) is None  # a multiple
    assert linalg.echelon_insert(echelon, {0: 1, 1: 3}) == {1: 6, 2: -1}
    assert linalg.echelon_insert(echelon, {1: 12, 2: -2}) is None
    assert linalg.echelon_insert(echelon, {}) is None
    assert echelon == {0: {0: 2, 2: 1}, 1: {1: 6, 2: -1}}
    # dense and Fraction rows are cleared of denominators before they go in
    rows = [[2, 0, 1], {0: F(4, 3), 2: F(2, 3)}, {0: 1, 1: 3, 2: 0}, [0, 12, -2]]
    assert linalg._echelon(rows) == echelon
    assert rows[2] == {0: 1, 1: 3, 2: 0}  # left as it is
    # the int reduction alone: what is left, and the echelon rows untouched
    assert linalg.echelon_reduce(echelon, {0: 4, 2: 2}) == {}
    assert linalg.echelon_reduce(echelon, {0: 2, 2: 3}) == {2: 1}
    assert linalg.echelon_reduce(echelon, {1: 12, 2: -2}) == {}
    assert echelon == {0: {0: 2, 2: 1}, 1: {1: 6, 2: -1}}


def test_elimination_of_int_rows_stays_rational():
    red, pivots = linalg.rref([[2, 1], [4, 3]])
    inv = linalg.mat_inverse([[2, 0], [1, 3]])
    assert (red, pivots) == ([[1, 0], [0, 1]], [0, 1])
    assert inv == [[F(1, 2), 0], [F(-1, 6), F(1, 3)]]
    assert linalg.rref([[2, 1]])[0] == [[1, F(1, 2)]]
    for row in red + inv + linalg.rref([[2, 1]])[0]:
        assert all(isinstance(x, F) for x in row)
    # zeros are the Fraction 0, never the int 0, on int input too
    computed = [
        linalg.zeros(2, 3),
        identity(3),
        [mat_vec([[2, 0], [0, 0]], [3, 0])],
        linalg.mat_mul([[2, 0], [0, 0]], [[1, 0], [0, 3]]),
        linalg.rref([[2, 1, 0], [4, 3, 0]])[0],
        linalg.kernel([[2, 4, 0]], 3),
        linalg.mat_inverse([[2, 0], [0, 3]]),
        [span_coefficients(linalg.SpanSolver([[2, 0, 2], [0, 3, 3]]), [0, 3, 3])],
    ]
    for rows in computed:
        assert all(type(x) is F for row in rows for x in row), rows
    # the sparse helpers keep the type of the entries they copy or multiply,
    # so only their zeros are Fractions
    copied = [[linalg.lin_comb([2, 0], [[1, 0], [5, 7]])]]
    for rows in copied:
        assert all(type(x) is F for row in rows for x in row if x == 0), rows
    # and a bracket of int matrices stays int, one of Fraction matrices Fraction
    assert linalg.sp_bracket({0: {1: 3}}, {1: {0: 1}}, 2) == {0: 3, 3: -3}
    assert all(type(x) is int for x in linalg.sp_bracket({0: {1: 3}}, {1: {0: 1}}, 2).values())
    assert all(type(x) is F for x in linalg.sp_bracket({0: {1: F(3)}}, {1: {0: F(1)}}, 2).values())


def test_rref_returns_fractions_whatever_the_scale_of_int_rows():
    # a leading 1 used to keep an int row's entries as ints
    one, two = linalg.rref([[1, 2]]), linalg.rref([[2, 4]])
    assert one == two == ([[F(1), F(2)]], [0])
    ker = linalg.kernel([{0: 1, 1: -1}], 2)
    assert ker == linalg.kernel([{0: F(3), 1: F(-3)}], 2) == [[F(1), F(1)]]
    for rows in (one[0], two[0], ker):
        assert all(type(x) is F for row in rows for x in row), rows


def test_rank_of_dict_rows():
    rows = [[2, 0, 4, 0], [1, 0, 2, 0], [0, 0, 0, 0], [0, 3, 0, -1]]
    sparse_rows = [linalg.sparse(r) for r in rows]
    assert linalg.rank(sparse_rows) == linalg.rank(rows) == 2
    assert linalg.rank([{}, {5: F(1, 3)}]) == 1
    assert linalg.rank([]) == 0


def test_mat_inverse_rejects_singular():
    with pytest.raises(ValueError):
        linalg.mat_inverse([[F(1), F(2)], [F(2), F(4)]])


def _combine(coeffs, basis):
    return [
        sum((c * b[j] for c, b in zip(coeffs, basis)), F(0))
        for j in range(len(basis[0]))
    ]


def _check_span_solver(basis, coeffs, outside):
    assume(linalg.rank(basis) == len(basis))
    s = linalg.SpanSolver(basis)
    v = _combine(coeffs, basis)
    dense = span_coefficients(s, v)
    assert dense == span_coefficients(s, {j: x for j, x in enumerate(v) if x})
    assert dense == coeffs
    assert _combine(dense, basis) == v
    if linalg.rank(basis + [outside]) > len(basis):
        assert span_coefficients(s, outside) is None
        assert span_coefficients(s, {j: x for j, x in enumerate(outside) if x}) is None


span_rows = st.lists(
    st.lists(small_entries, min_size=5, max_size=5), min_size=5, max_size=5
)


@given(span_rows)
@settings(max_examples=60, deadline=None)
def test_span_solver_dense_sparse_agree_qq(raw):
    rows = [[F(x) for x in r] for r in raw]
    _check_span_solver(rows[:3], rows[3][:3], rows[4])


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(-4, 4, max_denominator=3), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    ),
    st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_mat_inverse_qq(a, singular):
    n = len(a)
    if singular:
        a[-1] = [2 * x for x in a[0]] if n > 1 else [F(0)]
    if linalg.rank(a) < n:
        with pytest.raises(ValueError):
            linalg.mat_inverse(a)
        return
    inv = linalg.mat_inverse(a)
    assert linalg.mat_mul(a, inv) == identity(n)
    assert linalg.mat_mul(inv, a) == identity(n)


class _FractionSpanSolver:
    """The Fraction algorithm that SpanSolver's integer rows replaced: the
    residual is reduced pivot by pivot, and the coefficients are summed over
    the Fraction transform rows.  Kept as the reference."""

    def __init__(self, basis):
        n = len(basis)
        ncols = len(basis[0])
        aug = []
        for i, b in enumerate(basis):
            row = linalg.sparse(b)
            row[ncols + i] = F(1)
            aug.append(row)
        red, self.pivots = linalg.rref(aug, ncols + n)
        self.n = n
        self.red = [linalg.sparse(row[:ncols]) for row in red]
        self.transform = [linalg.sparse(row[ncols:]) for row in red]

    def coefficients(self, v):
        resid = linalg.sparse(v)
        rc = []
        for p, row in zip(self.pivots, self.red):
            co = resid.get(p)
            rc.append(co)
            if co:
                linalg.sp_add_into(resid, row, -co)
        if resid:
            return None
        out = [F(0)] * self.n
        for co, trow in zip(rc, self.transform):
            if co:
                for j, t in trow.items():
                    out[j] = out[j] + co * t
        return out


rational_entries = st.one_of(
    st.just(0), st.just(0), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=1, max_value=n),
            st.lists(
                st.lists(rational_entries, min_size=n, max_size=n), min_size=n + 2, max_size=n + 2
            ),
        )
    ),
    st.integers(min_value=1, max_value=12),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_int_span_solver_matches_fraction_reference(data, scale, sparse_query):
    k, raw = data
    basis = [[F(x) for x in row] for row in raw[:k]]
    assume(linalg.rank(basis) == k)
    ref = _FractionSpanSolver(basis)
    solver = linalg.SpanSolver(basis)
    # the stored rows hold Python ints only
    assert type(solver.lcm_red) is int and type(solver.lcm_transform) is int
    for rows in (solver.red, solver.transform):
        assert all(type(x) is int for row in rows for x in row.values())
    coeffs = [F(x) for x in raw[k]][:k]
    inside = linalg.lin_comb(coeffs, basis)
    for v in (inside, [F(x) for x in raw[k + 1]]):
        query = linalg.sparse(v) if sparse_query else v
        want = ref.coefficients(v)
        assert span_coefficients(solver, query) == want
        assert (span_coefficients(solver, query) is not None) == (want is not None)
        scaled_want = None if want is None else [c / scale for c in want]
        assert span_coefficients(solver, query, scale) == scaled_want
        # an int query scaled by a known denominator
        d, ints = linalg.int_scaled(linalg.sparse(v))
        assert span_coefficients(solver, ints, d * scale) == scaled_want
        if want is not None:
            assert all(type(c) is F for c in want)
    assert span_coefficients(solver, inside) == coeffs


int_entries = st.one_of(st.just(0), st.just(0), st.integers(min_value=-9, max_value=9))


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=1, max_value=n),
            st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n),
            st.lists(int_entries, min_size=n, max_size=n),
            st.lists(int_entries, min_size=n, max_size=n),
        )
    ),
    st.integers(min_value=1, max_value=60),
)
@settings(max_examples=200, deadline=None)
def test_int_coordinates_match_the_two_pass_oracle(data, scale):
    k, raw, combo, outside = data
    basis = [[F(x) for x in row] for row in raw[:k]]
    assume(linalg.rank(basis) == k)
    solver = linalg.SpanSolver(basis)
    # an int vector inside the span (an int combination of the basis scaled
    # to ints) and a random int vector, inside or outside
    _, ints = linalg.int_scaled([linalg.sparse(b) for b in basis])
    inside = {}
    for c, row in zip(combo, ints):
        linalg.sp_add_into(inside, row, c)
    for vs in (inside, linalg.sparse(outside), dict(enumerate(outside))):
        query = dict(vs)
        want = span_coefficients(solver, vs, scale)
        got = solver.int_coordinates(query, scale)
        assert query == vs and list(query) == list(vs)  # only read
        # the route of a rational query: scaled to ints first, then read
        d, scaled = linalg.int_scaled(linalg.sparse(vs))
        rescaled = solver.int_coordinates(scaled, d * scale)
        if want is None:
            assert got is None and rescaled is None
            continue
        assert got == {j: x for j, x in enumerate(want) if x}
        assert list(got) == sorted(got)
        assert all(type(x) is F for x in got.values())
        assert rescaled == got
        assert [type(x) for x in want] == [F] * k
    assert solver.int_coordinates(inside, scale) is not None
    rational = [F(x, scale) for x in outside]
    d, scaled = linalg.int_scaled(linalg.sparse(rational))
    want = span_coefficients(solver, rational)
    coords = solver.int_coordinates(scaled, d)
    assert coords == (None if want is None else {j: x for j, x in enumerate(want) if x})


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.integers(min_value=1, max_value=n),
            st.lists(st.lists(rational_entries, min_size=n, max_size=n), min_size=n, max_size=n),
        )
    )
)
@settings(max_examples=150, deadline=None)
def test_span_solver_on_int_rows_and_their_scale_is_the_rational_one(data):
    k, raw = data
    basis = [[F(x) for x in row] for row in raw[:k]]
    assume(linalg.rank(basis) == k)
    d, ints = linalg.int_scaled([linalg.sparse(b) for b in basis])
    want = linalg.SpanSolver(basis)
    for scale in (d, 3 * d):
        rows = [{c: x * (scale // d) for c, x in r.items()} for r in ints]
        got = linalg.SpanSolver(rows, len(raw), scale)
        assert (got.n, got.lcm_red, got.red, got.lcm_transform, got.transform) == (
            want.n,
            want.lcm_red,
            want.red,
            want.lcm_transform,
            want.transform,
        )


def _dense_congruence_diagonalize(m):
    """The dense elimination `congruence_diagonalize` replaced, kept as the
    reference: every entry is copied through Fraction, p starts as a dense
    Fraction identity, and every step scans every row of p."""
    n = len(m)
    a = [[F(x) for x in row] for row in m]
    p = [[F(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j]), None)
            if swap is None:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                    None,
                )
                if pair is None:
                    break
                i, j = pair
                for r in range(k, n):
                    a[r][i] += a[r][j]
                ai, aj = a[i], a[j]
                for c in range(k, n):
                    ai[c] += aj[c]
                for row in p:
                    if row[j]:
                        row[i] += row[j]
                swap = i
            if swap != k:
                a[k], a[swap] = a[swap], a[k]
                for r in range(k, n):
                    a[r][k], a[r][swap] = a[r][swap], a[r][k]
                for row in p:
                    row[k], row[swap] = row[swap], row[k]
        ak = a[k]
        piv = ak[k]
        fs = [(c, ak[c] / piv) for c in range(k + 1, n) if ak[c]]
        for r, _ in fs:
            ar = a[r]
            x = ar[k]
            for c, fc in fs:
                ar[c] -= fc * x
            ar[k] = ak[r] = F(0)
        for row in p:
            x = row[k]
            if x:
                for c, fc in fs:
                    row[c] -= fc * x
    return [a[i][i] for i in range(n)], p


def _typed(xs):
    """Nested lists with each entry paired with its type, so that equality
    also compares types (F(0) == 0, but an int digests differently)."""
    if isinstance(xs, list):
        return [_typed(x) for x in xs]
    return (type(xs), xs)


def _check_congruence_matches_dense(m):
    want = _dense_congruence_diagonalize(m)
    assert _typed(list(linalg.congruence_diagonalize(m))) == _typed(list(want))
    as_dicts = [linalg.sparse(row) for row in m]
    assert _typed(list(linalg.congruence_diagonalize(as_dicts))) == _typed(list(want))
    return want


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
    diag, p = _check_congruence_matches_dense(m)
    signs = (
        sum(1 for d in diag if d > 0),
        sum(1 for d in diag if d < 0),
        sum(1 for d in diag if d == 0),
    )
    assert linalg.congruence_inertia(m) == signs
    if singular and n > 1:
        assert signs[2] >= 1
    d = linalg.mat_mul(linalg.transpose(p), linalg.mat_mul(m, p))
    assert d == [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("name", catalog.MODEL_NAMES)
def test_congruence_matches_dense_reference_on_killing_matrices(name):
    k = catalog.model(name)[0].killing_matrix()
    diag, _ = _check_congruence_matches_dense(k)
    assert all(diag)  # e6 is semisimple: the Killing form is nondegenerate


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
    expected = linalg.mat_mul(linalg.mat_mul(xs, m), linalg.transpose(ys))
    assert linalg.gram(m, xs, ys) == expected



def test_gram_and_span_solver_take_dict_rows():
    rng = random.Random(7)
    n = 6

    def entry():
        return F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.4 else F(0)

    m = [[entry() for _ in range(n)] for _ in range(n)]
    xs = [[entry() for _ in range(n)] for _ in range(4)]
    ys = [[entry() for _ in range(n)] for _ in range(3)]
    dense = linalg.gram(m, xs, ys)
    assert dense == linalg.mat_mul(linalg.mat_mul(xs, m), linalg.transpose(ys))
    sparse_rows = [linalg.sparse(r) for r in m]
    got = linalg.gram(sparse_rows, [linalg.sparse(x) for x in xs], [linalg.sparse(y) for y in ys])
    assert got == dense
    assert all(type(x) is F for row in got for x in row)
    basis = linalg.rref(xs)[0]
    dict_solver = linalg.SpanSolver([linalg.sparse(b) for b in basis], n)
    dense_solver = linalg.SpanSolver(basis)
    for v in xs + ys:
        assert span_coefficients(dict_solver, v) == span_coefficients(dense_solver, v)
    with pytest.raises(TypeError):
        linalg.SpanSolver([linalg.sparse(b) for b in basis])

def _dense_rref(rows):
    """The dense Gauss-Jordan elimination `rref` replaced, kept as the
    reference: every pivot rewrites every column of every row."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        inv = F(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots


def _dense_kernel(rows, ncols):
    if not rows:
        return [[F(1) if i == j else F(0) for j in range(ncols)] for i in range(ncols)]
    red, pivots = _dense_rref(rows)
    basis = []
    for fc in range(ncols):
        if fc not in pivots:
            v = [F(0)] * ncols
            v[fc] = F(1)
            for r, pc in enumerate(pivots):
                v[pc] = -red[r][fc]
            basis.append(v)
    return _dense_rref(basis)[0] if basis else []


sparse_entries = st.one_of(
    st.just(0), st.just(0), st.just(0), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)
# denominators above 2^40, so the int rows `_echelon` clears them to are wide
wide_entries = st.builds(F, st.integers(-3, 3), st.integers(2**40 + 1, 2**42))


@st.composite
def sparse_matrices(draw):
    nrows = draw(st.integers(min_value=0, max_value=7))
    ncols = draw(st.integers(min_value=1, max_value=7))
    entries = st.one_of(sparse_entries, wide_entries) if draw(st.booleans()) else sparse_entries
    rows = [[F(draw(entries)) for _ in range(ncols)] for _ in range(nrows)]
    if draw(st.booleans()):
        return [[F(0)] * ncols for _ in rows], ncols
    if nrows and draw(st.booleans()):
        rows[draw(st.integers(0, nrows - 1))] = [F(0)] * ncols
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, nrows)), [F(0)] * ncols)
    if rows and draw(st.booleans()):
        # a duplicate row, or a multiple of one
        dup = rows[draw(st.integers(0, len(rows) - 1))]
        scale = draw(st.sampled_from((1, 1, -3, F(1, 2**41 + 1))))
        rows.insert(draw(st.integers(0, len(rows))), [scale * x for x in dup])
    if draw(st.booleans()):
        col = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[col] = F(0)
    if nrows > 1 and draw(st.booleans()):
        # a dependent row: a multiple of the first plus the second
        rows.append([2 * a + b for a, b in zip(rows[0], rows[1])])
    return rows, ncols


def _check_rref_and_kernel(rows, ncols):
    ref = _dense_rref(rows)
    as_dicts = [linalg.sparse(r) for r in rows]
    red = linalg.rref(rows)
    assert red == ref
    assert all(type(x) is F for row in red[0] for x in row)
    assert linalg.rref(as_dicts, ncols) == ref
    ker = _dense_kernel(rows, ncols)
    assert linalg.kernel(rows, ncols) == ker
    assert linalg.kernel(as_dicts, ncols) == ker
    assert linalg.rank(rows) == len(ref[1])
    assert linalg.rank(as_dicts) == len(ref[1])
    # the echelon rows are Python ints, for Fraction input too
    assert all(type(x) is int for r in linalg._echelon(rows).values() for x in r.values())


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_rref_matches_dense_reference_qq(data):
    _check_rref_and_kernel(*data)


def test_rref_of_no_rows():
    assert linalg.rref([]) == ([], [])
    assert linalg.rref([], 3) == ([], [])
    assert linalg.kernel([], 2) == [[F(1), F(0)], [F(0), F(1)]]
    assert linalg.kernel([{}, {}], 2) == _dense_kernel([], 2)
    with pytest.raises(TypeError):
        linalg.rref([{1: F(1)}])


def _span_rows_through_rref(basis):
    """SpanSolver's int rows as they were first derived: the Fraction rows
    of `rref` on [basis | I], scaled back to ints by `int_scaled`."""
    n, ncols = len(basis), len(basis[0])
    aug = []
    for i, b in enumerate(basis):
        row = linalg.sparse(b)
        row[ncols + i] = F(1)
        aug.append(row)
    red, pivots = linalg.rref(aug, ncols + n)
    pivset = set(pivots)
    lcm_red, rows = linalg.int_scaled(
        [{c: x for c, x in enumerate(row[:ncols]) if x and c not in pivset} for row in red]
    )
    lcm_transform, transform = linalg.int_scaled([linalg.sparse(row[ncols:]) for row in red])
    return lcm_red, rows, lcm_transform, transform


@given(sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_span_solver_int_rows_equal_the_rref_derived_ones(data):
    rows, _ = data
    basis, dependent = [], []
    echelon = {}
    for r in rows:
        v = linalg.echelon_insert(echelon, linalg.int_scaled(linalg.sparse(r))[1])
        (dependent if v is None else basis).append(r)
    assume(basis)
    solver = linalg.SpanSolver(basis)
    got = (solver.lcm_red, solver.red, solver.lcm_transform, solver.transform)
    assert got == _span_rows_through_rref(basis)
    assert type(solver.lcm_red) is int and type(solver.lcm_transform) is int
    assert all(type(x) is int for part in (solver.red, solver.transform) for r in part for x in r.values())
    if dependent:
        with pytest.raises(ValueError):
            linalg.SpanSolver(basis + dependent[:1])


def _naive_mat_mul(a, b):
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), F(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


@given(sparse_matrices(), st.integers(min_value=1, max_value=5))
@settings(max_examples=80, deadline=None)
def test_mat_mul_and_mat_vec_match_naive_loops(data, width):
    a, n = data
    if not a:
        return
    rng = random.Random(str(a))
    b = [[F(rng.choice((0, 0, 1, -2, F(1, 3)))) for _ in range(width)] for _ in range(n)]
    assert linalg.mat_mul(a, b) == _naive_mat_mul(a, b)
    v = [row[0] for row in b]
    assert mat_vec(a, v) == [row[0] for row in _naive_mat_mul(a, [[x] for x in v])]


sparse_entries = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-2, max_value=2, max_denominator=4),
)


@st.composite
def square_sparse_pairs(draw):
    """(a, b, n): two sparse n x n matrices {row: {col: x}} with int or
    Fraction entries (one type per draw), empty rows and zero entries
    included."""
    n = draw(st.integers(min_value=1, max_value=6))
    entries = draw(st.sampled_from((st.integers(min_value=-3, max_value=3), sparse_entries.map(F))))
    rows = st.dictionaries(st.integers(0, n - 1), entries, max_size=n)
    matrix = st.dictionaries(st.integers(0, n - 1), rows, max_size=n)
    return draw(matrix), draw(matrix), n


@given(square_sparse_pairs())
@settings(max_examples=200, deadline=None)
def test_sp_bracket_equals_the_merged_products(data):
    a, b, n = data
    got = linalg.sp_bracket(a, b, n)
    assert got == sp_flatten(sp_commutator(a, b), n)
    types = {type(x) for m in (a, b) for row in m.values() for x in row.values()}
    assert all(type(x) in types for x in got.values())
    assert all(got.values())
