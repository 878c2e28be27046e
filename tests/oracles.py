"""Independent oracles for the tests.

Each one restates, directly and without the package's fast paths, something
the package computes another way or takes as given: the two-pass span
coefficients on a dense list, dense matrix products
and the sparse commutator as two products merged, the standard derivation
d_{a,b} of a Hurwitz algebra from dense products, the full-width Der(A)
span solver and the Der(A) table from whole commutators on it, the Leibniz
rule on every basis pair, the Jacobi walk on the constants scaled to ints
by rows and by columns, the Jordan identity, an explicit Jordan
isomorphism, the involution nu of the Albert algebra as a dense matrix,
the odd x odd bracket of the symplectic model read back from its table, the
derivation action on Lambda^2 and the push of a grading through a group
map.  None of them is used by the package.  Three helpers are not
oracles: `diagonal_table` makes an algebra read its diagonal int table,
and `rescaled` and `primes` move an algebra to the basis p_i b_i.

The last two sections keep the symplectic frame as the pairs (P, Q) of
rational matrices with A = P + iQ, multiplied through the real 16x16 form,
and the symplectic model as it was built before its monomial frame: the
actions of A on sp8 and on Lambda^4 as (Re, Im) pairs of sparse matrices,
the joint eigenspaces split one map at a time by stacked-kernel
elimination, and every product expressed in the whole sp8 or ker c basis.
The tests hold the monomial frame check, Ad(C A1 A2 A3), the orbit split
and the target-leaf reads of `e6sp8` to them.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm

from e6lab import e6sp8, jordan, linalg
from e6lab.algcore import (
    AlgebraError,
    StructAlgebra,
    bracket_constants,
    derivation_int_matrices,
    fixed_subspace,
    put_antisymmetric,
)
from e6lab.gradings import GradedDecomposition
from e6lab.jordan import h3, m3r
from e6lab.scalars import QONE, QZERO

F = Fraction


def span_coefficients(solver, v, scale=1):
    """The coefficients of v / scale in the basis of the `linalg.SpanSolver`
    solver as a dense list, or None outside its span, by the two passes the
    solver's rational read made before `int_coordinates`: v is copied and
    scaled to ints through `int_scaled`, the residual L V - sum_p V[p] R_p
    is checked on its own pass, and the transform rows are summed on a
    second one into a dense list of Fractions (`QZERO` for a zero)."""
    d, vs = linalg.int_scaled(linalg.sparse(v))
    rows = solver._rows
    resid = {}
    for c, x in vs.items():
        pr = rows.get(c)
        if pr is None:
            resid[c] = resid.get(c, 0) + solver.lcm_red * x
        else:
            for k, r in pr[0].items():
                resid[k] = resid.get(k, 0) - x * r
    if any(resid.values()):
        return None
    acc = {}
    for c, x in vs.items():
        pr = rows.get(c)
        if pr is not None:
            for j, t in pr[1].items():
                acc[j] = acc.get(j, 0) + x * t
    den = d * solver.lcm_transform * scale
    out = [QZERO] * solver.n
    for j, x in acc.items():
        if x:
            out[j] = Fraction(x, den)
    return out


def scaled_rows_dense(scaled, ncols):
    """The (L, {col: int} rows) of `IntKernelAccumulator.kernel_basis` as
    dense lists of Fractions row / L (`QZERO` for a zero)."""
    den, rows = scaled
    return [[Fraction(r[c], den) if c in r else QZERO for c in range(ncols)] for r in rows]


def mat_vec(m, v):
    """The dense matrix m times the vector v (dense or sparse)."""
    vs = linalg.sparse(v)
    out = []
    for row in m:
        acc = QZERO
        for j, x in vs.items():
            a = row[j]
            if a:
                acc = acc + a * x
        out.append(acc)
    return out


def identity(n):
    m = linalg.zeros(n, n)
    for i in range(n):
        m[i][i] = QONE
    return m


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def sparse_to_dense(m: dict, nrows, ncols):
    out = linalg.zeros(nrows, ncols)
    for i, row in m.items():
        for j, x in row.items():
            out[i][j] = x
    return out


def unflatten(flat: dict, n):
    """The n x n dense matrix of a sparse matrix flattened row-major to
    {row * n + col: x}, `QZERO` where it is zero."""
    return [[flat.get(n * r + c, QZERO) for c in range(n)] for r in range(n)]


def sp_mul(a: dict, b: dict) -> dict:
    # (a @ b)[i][j] = sum_k a[i][k] b[k][j]
    out = {}
    for i, arow in a.items():
        orow = {}
        for k, x in arow.items():
            brow = b.get(k)
            if not brow:
                continue
            for j, y in brow.items():
                val = orow.get(j)
                val = x * y if val is None else val + x * y
                if val:
                    orow[j] = val
                else:
                    orow.pop(j, None)
        if orow:
            out[i] = orow
    return out


def sp_commutator(a: dict, b: dict) -> dict:
    """ab - ba of sparse matrices, from the two products merged row by row."""
    ab = sp_mul(a, b)
    ba = sp_mul(b, a)
    out = {}
    rows = set(ab) | set(ba)
    for r in rows:
        row = dict(ab.get(r, ()))
        for c, v in ba.get(r, {}).items():
            val = row.get(c)
            val = -v if val is None else val - v
            if val:
                row[c] = val
            else:
                row.pop(c, None)
        if row:
            out[r] = row
    return out


def sp_flatten(m: dict, ncols: int) -> dict:
    """Sparse matrix {r: {c: v}} to sparse row-major vector {r*ncols+c: v}."""
    out = {}
    for r, row in m.items():
        base = r * ncols
        for c, v in row.items():
            out[base + c] = v
    return out


def d_ab_dense(c, a, b):
    """The standard derivation [l_a,l_b] + [l_a,r_b] + [r_a,r_b] of the
    composition algebra c, from six dense products of its dense l and r
    matrices."""
    la = sparse_to_dense(c.alg.left_mult_matrix(a), c.dim, c.dim)
    lb = sparse_to_dense(c.alg.left_mult_matrix(b), c.dim, c.dim)
    ra = sparse_to_dense(c.alg.right_mult_matrix(a), c.dim, c.dim)
    rb = sparse_to_dense(c.alg.right_mult_matrix(b), c.dim, c.dim)

    def comm(x, y):
        return mat_sub(linalg.mat_mul(x, y), linalg.mat_mul(y, x))

    out = comm(la, lb)
    out = [linalg.vec_add(r1, r2) for r1, r2 in zip(out, comm(la, rb))]
    out = [linalg.vec_add(r1, r2) for r1, r2 in zip(out, comm(ra, rb))]
    return out


def derivation_solver_full_width(alg) -> linalg.SpanSolver:
    """The `SpanSolver` of width n^2 on `derivation_int_matrices(alg)`
    flattened row-major, which reads a flattened n x n int matrix in the
    Der(A) basis or finds it outside Der(A): the solver the package kept
    on the algebra before `tits.ingredient_layer` built its own."""
    den, mats = derivation_int_matrices(alg)
    n = alg.dim
    flat = [{r * n + c: x for r, row in m.items() for c, x in row.items()} for m in mats]
    return linalg.SpanSolver(flat, n * n, den)


def derivation_table_full_width(alg) -> dict:
    """The structure constants of Der(A) on the basis of
    `derivation_int_matrices(alg)`, as the package built them before it
    read Der(A) on a few basis vectors: each commutator as a whole n x n
    int matrix (`linalg.sp_bracket`), read on the full-width solver
    `derivation_solver_full_width`."""
    den, mats = derivation_int_matrices(alg)
    solver = derivation_solver_full_width(alg)
    return bracket_constants(
        solver, lambda p, q: linalg.sp_bracket(mats[p], mats[q], alg.dim), den * den
    )


def rescaled(alg, scales) -> StructAlgebra:
    """alg on the basis s_i b_i: c'_ij^k = c_ij^k s_i s_j / s_k."""
    sc = {
        (i, j): {k: v * scales[i] * scales[j] / scales[k] for k, v in row.items()}
        for (i, j), row in alg.sc.items()
    }
    return StructAlgebra(dim=alg.dim, basis_labels=alg.basis_labels, sc=sc)


def primes(count, start=101):
    """The first count primes from start on, by trial division."""
    out, n = [], start
    while len(out) < count:
        if all(n % d for d in range(2, isqrt(n) + 1)):
            out.append(n)
        n += 1
    return out


def diagonal_table(alg):
    """alg, made to read the diagonal table of `StructAlgebra._kernel_table`
    whatever its entry sizes: the table memo is dropped and `int_tensor`
    reports the bound on this instance only, so the next read builds the
    table on the basis b_i / f_i."""
    alg._table_cache = None
    alg.int_tensor = lambda: (None, None)
    return alg


def leibniz_defect(alg, d) -> bool:
    """True iff the matrix d fails d(xy) = d(x)y + x d(y) on some basis pair."""
    n = alg.dim
    for i in range(n):
        bi = alg.basis_vector(i)
        dbi = mat_vec(d, bi)
        for j in range(n):
            bj = alg.basis_vector(j)
            lhs = mat_vec(d, alg.multiply(bi, bj))
            rhs = linalg.vec_add(alg.multiply(dbi, bj), alg.multiply(bi, mat_vec(d, bj)))
            if lhs != rhs:
                return True
    return False


def jacobi_defect_scaled(alg, firsts=None):
    """The reference Jacobi walk on the constants scaled to ints by rows and
    columns: the triples (s, j, k), s < j < k, for s in firsts (every index,
    the full walk i<j<k, when None) that fail Jacobi.

    Output coordinate q is scaled by f_q, the lcm of the denominators in
    column q of the table: U[m, c][q] = f_q c[m, c][q].  Each left row (a, b)
    is scaled by its own lcm e_ab: X[a, b][m] = e_ab c[a, b][m].  The term
    sum_m X[a, b][m] U[m, c][q] is then e_ab f_q [[b_a, b_b], b_c]_q, and
    with e1, e2, e3 the factors of the rows (i, j), (j, k), (k, i)
    e2 e3 (term ijk) + e1 e3 (term jki) + e1 e2 (term kij) = e1 e2 e3 f_q J_q:
    an exact int sum, with no bound and no gcd, that is 0 iff J_q is.
    """
    n = alg.dim
    cols = [set() for _ in range(n)]
    for row in alg.sc.values():
        for q, v in row.items():
            cols[q].add(v.denominator)
    f = [lcm(*dens) for dens in cols]
    u = [{} for _ in range(n)]  # u[m][c]: U[m, c] as {q: int}
    for (m, c), row in alg.sc.items():
        u[m][c] = {q: v.numerator * (f[q] // v.denominator) for q, v in row.items()}
    # terms[a][b]: (e_ab, [(X[a, b][m], u[m]) for the nonzero entries m])
    terms = [[(1, ())] * n for _ in range(n)]
    for (a, b), row in alg.sc.items():
        e = lcm(*(v.denominator for v in row.values()))
        terms[a][b] = (e, [(v.numerator * (e // v.denominator), u[m]) for m, v in row.items()])
    bad = []
    for s in range(n) if firsts is None else firsts:
        t_s = terms[s]
        col_s = [terms[k][s] for k in range(n)]
        for j in range(s + 1, n):
            e1, t_sj = t_s[j]
            t_j = terms[j]
            for k in range(j + 1, n):
                e2, t_jk = t_j[k]
                e3, t_ks = col_s[k]
                acc = {}
                for x, um in t_sj:
                    row = um.get(k)
                    if row:
                        x *= e2 * e3
                        for q, y in row.items():
                            acc[q] = acc.get(q, 0) + x * y
                for x, um in t_jk:
                    row = um.get(s)
                    if row:
                        x *= e1 * e3
                        for q, y in row.items():
                            acc[q] = acc.get(q, 0) + x * y
                for x, um in t_ks:
                    row = um.get(j)
                    if row:
                        x *= e1 * e2
                        for q, y in row.items():
                            acc[q] = acc.get(q, 0) + x * y
                if any(acc.values()):
                    bad.append((s, j, k))
    return bad


def check_jordan_identity(j, extended: bool = True):
    """(x^2 y) x == x^2 (y x) on basis pairs, plus two-term x samples."""
    n = j.dim
    xs = [j.alg.basis_vector(i) for i in range(n)]
    if extended:
        xs += [
            linalg.vec_add(j.alg.basis_vector(a), j.alg.basis_vector(b))
            for a in range(n)
            for b in range(a + 1, n)
        ]
    for x in xs:
        x2 = j.mult(x, x)
        for yi in range(n):
            y = j.alg.basis_vector(yi)
            lhs = j.mult(j.mult(x2, y), x)
            rhs = j.mult(x2, j.mult(y, x))
            if lhs != rhs:
                return False
    return True


def h3rr_to_m3r_iso():
    """Explicit isomorphism H3(R+R, I) -> Mat3(R)+ as a 9x9 matrix."""
    src = h3("RR", (1, 1, 1))
    dst = m3r()
    cols = {}
    for i in range(3):
        cols[src.e_idx[i]] = dst.alg.basis_vector(4 * i)
    # iota_t(a) at slot (r,s): first component of a goes to E_{rs},
    # second to E_{sr}; in the {1, s} basis 1 -> E_rs + E_sr, s -> E_rs - E_sr
    for t in range(3):
        r, s = (t + 1) % 3, (t + 2) % 3
        e_rs = dst.alg.basis_vector(3 * r + s)
        e_sr = dst.alg.basis_vector(3 * s + r)
        cols[src.iota_base[t]] = linalg.vec_add(e_rs, e_sr)
        cols[src.iota_base[t] + 1] = linalg.vec_sub(e_rs, e_sr)
    m = [[F(0)] * 9 for _ in range(9)]
    for col, vec in cols.items():
        for row in range(9):
            m[row][col] = vec[row]
    return m


def nu_automorphism():
    """The order-2 automorphism nu of H3(O, I) as a dense 27 x 27 matrix:
    the diagonal matrix of `jordan.nu_diagonal` (read through the module, so
    a test that replaces it reaches this matrix too), identity on the
    H3(H, I) part and -1 on the H l part."""
    diag = jordan.nu_diagonal()
    n = len(diag)
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = F(diag[i])
    return m


def odd_bracket(u, v):
    """Bracket of two ker-c vectors (70 coords) in the symplectic model, as
    an 8x8 sp8 matrix read back from the structure constants."""
    model = e6sp8.assemble_e6()
    ne = model.even_dim
    ex = linalg.SpanSolver(model.odd_vectors)
    cu = span_coefficients(ex, u)
    cv = span_coefficients(ex, v)
    if cu is None or cv is None:
        raise AlgebraError("arguments must lie in ker c")
    out = [[F(0)] * 8 for _ in range(8)]
    for i, a in enumerate(cu):
        if not a:
            continue
        for j, b in enumerate(cv):
            if not b:
                continue
            row = model.lie.alg.sc.get((ne + i, ne + j))
            if not row:
                continue
            for k, coef in row.items():
                m = model.even_matrices[k]
                c2 = a * b * coef
                for r in range(8):
                    for s in range(8):
                        if m[r][s]:
                            out[r][s] += c2 * m[r][s]
    return out


def act2_matrix_sparse(x):
    """Derivation action of an 8x8 matrix on Lambda^2 (sparse, 28x28):
    x.(e_a ^ e_b) = (x e_a) ^ e_b + e_a ^ (x e_b), each e_p ^ e_q written
    as +-e_min ^ e_max."""
    out = {}
    for src, (a, b) in enumerate(e6sp8.MON2):
        for r in range(8):
            for p, q, coef in ((r, b, x[r][a]), (a, r, x[r][b])):
                if coef and p != q:
                    row = out.setdefault(e6sp8.IDX2[(min(p, q), max(p, q))], {})
                    row[src] = row.get(src, 0) + (coef if p < q else -coef)
    out = {r: {c: v for c, v in row.items() if v} for r, row in out.items()}
    return {r: row for r, row in out.items() if row}


def coarsen(grading, hom, target_group) -> GradedDecomposition:
    """Push a grading through a group homomorphism given as element map."""
    comps = {}
    for g, vecs in grading.components.items():
        t = target_group.reduce(hom(g))
        comps.setdefault(t, []).extend(list(v) for v in vecs)
    return GradedDecomposition(group=target_group, algebra=grading.algebra, components=comps)


# ---------------------------------------------------------------------------
# the symplectic frame as (P, Q) pairs: A = P + iQ, multiplied through the
# real form [[P, Q], [-Q, P]]

I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k as (real, imaginary)


def pair(m):
    """The monomial map m = ((row, k) per column) as the pair (P, Q) of
    rational matrices with P + iQ = m."""
    p, q = linalg.zeros(8, 8), linalg.zeros(8, 8)
    for c, (r, k) in enumerate(m):
        p[r][c], q[r][c] = map(F, I_POWERS[k])
    return p, q


def a_matrices():
    """A1..A4, each A = P + iQ as the pair (P, Q) of rational 8x8 matrices,
    read off the monomial maps `e6sp8._A_POWERS` as they are at the call."""
    return [pair(m) for m in e6sp8._A_POWERS]


def c_matrix():
    return [[F(e6sp8._c_entry(i, j)) for j in range(8)] for i in range(8)]


def neg(m):
    return [[-x for x in row] for row in m]


def real(m):
    """The pair (m, 0) of a rational matrix m."""
    return m, linalg.zeros(len(m), len(m[0]))


def real_form(a):
    """The real form [[P, Q], [-Q, P]] of A = P + iQ given as (P, Q): the row
    pair [X | Y] times it is [Re | Im] of (X + iY) A, so the real form of a
    product is the product of the real forms."""
    p, q = a
    return [[*rp, *rq] for rp, rq in zip(p, q)] + [[*nq, *rp] for nq, rp in zip(neg(q), p)]


def pair_mul(x, y):
    """(P + iQ)(R + iS) = (PR - QS) + i(PS + QR) on (P, Q) and (R, S), read
    off the one product [P | Q] [[R, S], [-S, R]] = [PR - QS | PS + QR]."""
    p, q = x
    n = len(p)
    prod = linalg.mat_mul([[*rp, *rq] for rp, rq in zip(p, q)], real_form(y))
    return [row[:n] for row in prod], [row[n:] for row in prod]


def pair_inverse(a):
    """A^{-1} = R + iS of A = P + iQ, both as pairs: the inverse of the real
    form [[P, Q], [-Q, P]] of A is the real form [[R, S], [-S, R]] of A^{-1}."""
    n = len(a[0])
    inv = linalg.mat_inverse(real_form(a))
    return [row[:n] for row in inv[:n]], [row[n:] for row in inv[:n]]


@dataclass
class SymplecticFrame:
    c: list
    a: list  # A1..A4 as (P, Q) pairs

    def check(self):
        """A_i C A_i^t = C for all i; order data of A2, A4.  Raises
        AlgebraError on the first identity that fails."""
        c = real(self.c)
        for p, q in self.a:
            if pair_mul((p, q), pair_mul(c, (linalg.transpose(p), linalg.transpose(q)))) != c:
                raise AlgebraError("A C A^t != C")
        ident = identity(8)
        if pair_mul(self.a[1], self.a[1]) != real(neg(ident)):
            raise AlgebraError("A2^2 != -I")
        a4sq = pair_mul(self.a[3], self.a[3])
        if pair_mul(a4sq, a4sq) != real(ident):
            raise AlgebraError("A4^4 != I")
        return True


def frame() -> SymplecticFrame:
    """C and A1..A4 as pairs, from the monomial maps as they are at the call."""
    return SymplecticFrame(c=c_matrix(), a=a_matrices())


def frame_holds() -> bool:
    """The pair-form frame check as a boolean."""
    try:
        return frame().check()
    except AlgebraError:
        return False


def conjugation(a):
    """X -> A X A^{-1} for A = P + iQ given as (P, Q), on rational 8x8
    matrices X flattened row-major to 64-vectors, as the pair (Re M, Im M)
    of rational sparse 64x64 matrices: M[8r + c][8k + l] = A[r][k] A^{-1}[l][c]."""

    def entries(m):
        p, q = m
        return [(r, c, p[r][c], q[r][c]) for r in range(8) for c in range(8) if p[r][c] or q[r][c]]

    inv = entries(pair_inverse(a))
    parts = ({}, {})
    for r, k, x, y in entries(a):
        for l, c, u, w in inv:
            for part, z in zip(parts, (x * u - y * w, x * w + y * u)):
                if z:
                    part.setdefault(8 * r + c, {})[8 * k + l] = z
    return parts


def fix_ad_c_a123_dim():
    """dim of the Ad(C A1 A2 A3)-fixed subspace of sp8, with g = C A1 A2 A3
    multiplied on pairs and Ad(g) X = g X g^-1 through `conjugation`."""
    fr = frame()
    g = real(fr.c)
    for a in fr.a[:3]:
        g = pair_mul(g, a)
    if any(x for row in g[1] for x in row):
        raise AlgebraError("C A1 A2 A3 should be real")
    basis = e6sp8.sp8_rational_basis()
    conj, _ = conjugation(g)
    images = [linalg.sp_matvec(conj, linalg.sparse(v)) for v in basis]
    _, dim = fixed_subspace(e6sp8._operator_on_subspace(images, basis))
    return dim


# ---------------------------------------------------------------------------
# the symplectic model as it was built before its monomial frame: the joint
# eigenspaces by stacked-kernel elimination on (Re, Im) actions, and every
# product expressed in the whole 42-dim ker c basis


def act4_matrix_sparse(x):
    """Derivation action of an 8x8 matrix on Lambda^4, as a sparse 70x70
    matrix with entries of the type of x's (ints stay ints)."""
    cols = {}
    for c in range(8):
        col = {r: x[r][c] for r in range(8) if x[r][c]}
        if col:
            cols[c] = col
    out = {}
    for src, mono in enumerate(e6sp8.MON4):
        for t in range(len(mono)):
            col = cols.get(mono[t])
            if not col:
                continue
            for r, coef in col.items():
                if r == mono[t]:
                    dst, sign = src, 1
                elif r in mono:
                    continue
                else:
                    order = list(mono[:t]) + [r] + list(mono[t + 1 :])
                    dst = e6sp8.IDX4[tuple(sorted(order))]
                    sign = e6sp8._perm_sign(order)
                row = out.setdefault(dst, {})
                val = row.get(src, 0) + (coef if sign == 1 else -coef)
                if val:
                    row[src] = val
                else:
                    row.pop(src, None)
    return {r: row for r, row in out.items() if row}


def wedge4_matrix_sparse(a):
    """Multiplicative action e_{i1}^..^e_{i4} -> A e_{i1} ^ .. ^ A e_{i4} of
    A = P + iQ given as (P, Q), as the pair (Re W, Im W) of rational sparse
    matrices."""
    p, q = a
    cols = {c: [(r, (p[r][c], q[r][c])) for r in range(8) if p[r][c] or q[r][c]] for c in range(8)}
    parts = ({}, {})
    for src, mono in enumerate(e6sp8.MON4):
        stack = [([], (1, 0))]
        for i in mono:
            stack = [
                (chosen + [r], (x * u - y * w, x * w + y * u))
                for chosen, (x, y) in stack
                for r, (u, w) in cols[i]
                if r not in chosen
            ]
        for chosen, coef in stack:
            dst = e6sp8.IDX4[tuple(sorted(chosen))]
            sign = e6sp8._perm_sign(chosen)
            for part, x in zip(parts, coef):
                if x:
                    linalg.sp_add_into(part.setdefault(dst, {}), {src: x}, sign)
    return tuple({r: row for r, row in part.items() if row} for part in parts)


def pair_op(m):
    """v -> (Re M v, Im M v) for M given as the pair (Re M, Im M) of sparse
    matrices."""
    return lambda v: tuple(linalg.sp_matvec(part, linalg.sparse(v)) for part in m)


def split(subspaces, op, nev):
    """Split each rational (basis, tag) into the eigenspaces of a complex
    linear op whose eigenvalues are nev-th roots of unity; op maps a rational
    vector v to the pair (Re op(v), Im op(v)) of rational vectors, and the
    tag gains e for the eigenvalue i^(4e/nev).

    A rational v has op(v) = i^k v iff Re op(v) = Re(i^k) v and
    Im op(v) = Im(i^k) v, so each eigenspace is the kernel of the stacked
    rows of Re op - Re(i^k) and Im op - Im(i^k), in reduced echelon form.
    Their dimensions must add up to that of the subspace, which certifies
    that every eigenspace has a rational basis.
    """
    out = []
    for basis, tag in subspaces:
        k = len(basis)
        re_imgs, im_imgs = zip(*(op(v) for v in basis))
        m = e6sp8._operator_on_subspace(re_imgs + im_imgs, basis)
        found = 0
        for e in range(nev):
            rows = []
            for start, x in zip((0, k), I_POWERS[(4 // nev) * e]):
                for i, row in enumerate(m):
                    r = {c - start: v for c, v in row.items() if start <= c < start + k}
                    linalg.sp_add_into(r, {i: QONE}, -x)
                    rows.append(r)
            combos = linalg.kernel(rows, k)
            if combos:
                out.append(([linalg.lin_comb(co, basis) for co in combos], tag + (e,)))
                found += len(combos)
        if found != k:
            raise AlgebraError("the rational eigenspaces do not span the subspace")
    return out


def primitive_rows(rows):
    """Reduced echelon basis of the span of rational rows, each row scaled to
    a primitive integer vector (entries kept as Fractions)."""
    red, _ = linalg.rref(rows)
    return [[F(x) for x in linalg.primitive(linalg.int_scaled(v)[1])] for v in red]


def graded_bases_walk(pairs):
    """(even, odd): the joint eigenspaces of the maps A = P + iQ, given as
    (P, Q) pairs, on sp8 and on ker c, split one map at a time by `split`,
    as (primitive reduced-echelon rational basis, tag) sorted by tag."""
    even = [(e6sp8.sp8_rational_basis(), ())]
    odd = [(e6sp8.kernel_c_basis(), ())]
    for i, a in enumerate(pairs):
        nev = 2 if i < 3 else 4
        even = split(even, pair_op(conjugation(a)), nev)
        odd = split(odd, pair_op(wedge4_matrix_sparse(a)), nev)
    return tuple(
        [(primitive_rows(b), tag) for b, tag in sorted(leaves, key=lambda t: t[1])]
        for leaves in (even, odd)
    )


def assemble_walk(even_rat, odd_rat):
    """The tables of the symplectic model on the graded bases (even, odd),
    with each product expressed in the whole sp8 or ker c basis: the
    structure constants, the tags, the even matrices, the odd vectors and
    the even leaf dimensions, as the keyword arguments of `e6sp8.Sp8Model`
    they become."""
    even_type = {tag: len(b) for b, tag in even_rat}
    even_mats = []
    even_tags = []
    for b, tag in even_rat:
        for v in b:
            if any(x not in (-1, 0, 1) for x in v):
                raise AlgebraError("even eigenvector entries outside {-1,0,1}")
            even_mats.append([v[8 * r : 8 * r + 8] for r in range(8)])
            even_tags.append(tag)
    odd_vecs = [v for b, _ in odd_rat for v in b]
    odd_tags = [tag for b, tag in odd_rat for _ in b]
    ne, no = len(even_mats), len(odd_vecs)
    if (ne, no) != (36, 42):
        raise AlgebraError("unexpected graded dimensions")

    odd_expand = linalg.SpanSolver(odd_vecs)
    # the even matrices (entries in {-1, 0, 1}) and the ker c rows (primitive
    # integer vectors) as int rows: every product below runs on ints
    e_den, even_int = linalg.int_scaled(even_mats)
    o_den, odd_sp = linalg.int_scaled([linalg.sparse(v) for v in odd_vecs])
    even_sp = [linalg.dense_to_sparse(m) for m in even_int]
    act_sp = [act4_matrix_sparse(m) for m in even_int]

    # even x even: sp8 under the commutator
    sc = bracket_constants(
        linalg.SpanSolver([sum(m, []) for m in even_mats]),
        lambda p, q: sp_flatten(sp_commutator(even_sp[p], even_sp[q]), 8),
        e_den * e_den,
    )
    # even x odd: derivation action on four-forms stays inside ker c
    w8 = e6sp8.wedge8_pairs()
    paired = []  # paired[p][u] = (M_p u) reindexed for the odd x odd wedge8 pairing
    for p in range(ne):
        per_u = []
        for u in range(no):
            img = linalg.sp_matvec(act_sp[p], odd_sp[u])
            coeffs = span_coefficients(odd_expand, img, e_den * o_den)
            if coeffs is None:
                raise AlgebraError("sp8 action leaves ker c")
            put_antisymmetric(sc, p, ne + u, {ne + i: v for i, v in enumerate(coeffs) if v})
            per_u.append({w8[c][0]: (v if w8[c][1] == 1 else -v) for c, v in img.items()})
        paired.append(per_u)
    # odd x odd by trace duality: tr(X x) = wedge8((x.u) ^ v), so
    # [u, v] = sum_x b_x G^-1[:, x] with b_x = wedge8((x.u) ^ v) and G
    # the trace Gram matrix of the even basis
    gram = [
        [F(linalg.sp_trace_product(even_sp[p], even_sp[q]) or 0) for q in range(ne)]
        for p in range(ne)
    ]
    g_den, ginv_cols = linalg.int_scaled(
        [linalg.sparse(col) for col in linalg.transpose(linalg.mat_inverse(gram))]
    )
    # one pass over each image x.u through the index {coordinate: [(v, value)]}
    # of the ker c rows collects the nonzero b_x of every pair (u, v), v > u
    by_coord = {}
    for v, vec in enumerate(odd_sp):
        for c, val in vec.items():
            by_coord.setdefault(c, []).append((v, val))
    den = g_den * e_den * o_den * o_den
    for u in range(no):
        b = {}  # v -> {x: b_x}
        for x in range(ne):
            for c, val in paired[x][u].items():
                for v, w in by_coord.get(c, ()):
                    if v > u:
                        bv = b.setdefault(v, {})
                        bv[x] = bv.get(x, 0) + val * w
        for v in sorted(b):
            acc = {}
            for x, bx in b[v].items():
                if bx:
                    for i, gx in ginv_cols[x].items():
                        acc[i] = acc.get(i, 0) + gx * bx
            put_antisymmetric(
                sc, ne + u, ne + v, {i: F(a, den) for i, a in acc.items() if a}
            )

    return {
        "sc": sc,
        "even_tags": even_tags,
        "odd_tags": odd_tags,
        "even_matrices": even_mats,
        "odd_vectors": odd_vecs,
        "even_leaf_dims": even_type,
    }
