"""Independent oracles for the tests.

Each one restates, directly and without the package's fast paths, something
the package computes another way or takes as given: a dense matrix-vector
product, the Leibniz rule on every basis pair, the Jordan identity, an
explicit Jordan isomorphism, the odd x odd bracket of the symplectic model
read back from its table, the derivation action on Lambda^2 and the push of
a grading through a group map.  None of them is used by the package.
"""

from fractions import Fraction

from e6lab import e6sp8, linalg
from e6lab.algcore import AlgebraError
from e6lab.gradings import GradedDecomposition
from e6lab.jordan import h3, m3r
from e6lab.scalars import QZERO

F = Fraction


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


def odd_bracket(u, v):
    """Bracket of two ker-c vectors (70 coords) in the symplectic model, as
    an 8x8 sp8 matrix read back from the structure constants."""
    model = e6sp8.assemble_e6()
    ne = model.even_dim
    ex = linalg.SpanSolver(model.odd_vectors)
    cu = ex.coefficients(u)
    cv = ex.coefficients(v)
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
