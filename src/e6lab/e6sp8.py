"""The symplectic model of e6: sp8 + ker c on the fourth exterior power.

S0 = sp(8) for the form C = [[0, I4], [-I4, 0]]; the odd part is the kernel
of the contraction c: Lambda^4 -> Lambda^2.  Four monomial symplectic
matrices A1..A4 act on everything, with fourth roots of unity as
eigenvalues.  Their entries are 0, +-1 and +-i, and the frame is written down
as monomial maps, column c -> (row, k) for A e_c = i^k e_row (`_A_POWERS`).
The words of the dot group <A1., .., A4.>, their orders modulo +-I and the
commutators are composed on those maps: a product is a permutation lookup
plus a sum of phases mod 4, and -m is m with every phase shifted by 2.

For the linear algebra each A = P + iQ is also held as the pair (P, Q) of
rational matrices: the frame check, the inverse (read off the real 16x16
form [[P, Q], [-Q, P]]) and the actions on sp8 and on Lambda^4 are all
(real part, imaginary part) pairs over Q.  The joint eigenspaces are split
over Q: a rational v has A.v = i^k v iff the real and imaginary parts of A.v
are Re(i^k) v and Im(i^k) v, so each eigenspace is one rational kernel, of
the two sets of rows stacked, and the dimensions adding up certifies that
every joint eigenspace has a rational basis.  These bases are the graded
basis of the real form.

The odd x odd bracket is recovered by trace duality against the
Lambda^4 x Lambda^4 -> Lambda^8 pairing; any nonzero scaling satisfies
Jacobi (the scaling freedom is the same as the Z2 twist), so the module
fixes lambda = 1 and records it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from . import linalg
from .algcore import (
    AlgebraError,
    LieAlgebra,
    StructAlgebra,
    bracket_constants,
    fixed_subspace,
    inertia,
    killing_matrix,
    put_antisymmetric,
    twist,
)
from .gradings import FinAbGroup, GradedDecomposition
from .scalars import QONE

F = Fraction

MON4 = list(combinations(range(8), 4))
MON2 = list(combinations(range(8), 2))
IDX4 = {m: i for i, m in enumerate(MON4)}
IDX2 = {m: i for i, m in enumerate(MON2)}


def _c_entry(i: int, j: int) -> int:
    if j == i + 4:
        return 1
    if j == i - 4:
        return -1
    return 0


def c_matrix():
    return [[F(_c_entry(i, j)) for j in range(8)] for i in range(8)]


_I_POWERS = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^k as (real, imaginary)

# A1..A4 as displayed, as monomial maps: per column c the pair (row, k) with
# A e_c = i^k e_row
_A_POWERS = (
    tuple((r, 1) for r in (4, 5, 7, 6, 0, 1, 3, 2)),
    tuple((c, 1 if c < 4 else 3) for c in range(8)),
    tuple((c ^ 1, 0) for c in range(8)),
    tuple(enumerate((0, 2, 3, 1, 0, 2, 1, 3))),
)


def _pair(m):
    """The monomial map m = ((row, k) per column) as the pair (P, Q) of
    rational matrices with P + iQ = m."""
    p, q = linalg.zeros(8, 8), linalg.zeros(8, 8)
    for c, (r, k) in enumerate(m):
        p[r][c], q[r][c] = map(F, _I_POWERS[k])
    return p, q


def a_matrices():
    """A1..A4 exactly as displayed, each A = P + iQ as the pair (P, Q) of
    rational 8x8 matrices, read off the monomial maps `_A_POWERS`."""
    return [_pair(m) for m in _A_POWERS]


def _real_form(a):
    """The real form [[P, Q], [-Q, P]] of A = P + iQ given as (P, Q): the row
    pair [X | Y] times it is [Re | Im] of (X + iY) A, so the real form of a
    product is the product of the real forms."""
    p, q = a
    return [[*rp, *rq] for rp, rq in zip(p, q)] + [[*nq, *rp] for nq, rp in zip(_neg(q), p)]


def pair_mul(x, y):
    """(P + iQ)(R + iS) = (PR - QS) + i(PS + QR) on (P, Q) and (R, S), read
    off the one product [P | Q] [[R, S], [-S, R]] = [PR - QS | PS + QR]."""
    p, q = x
    n = len(p)
    prod = linalg.mat_mul([[*rp, *rq] for rp, rq in zip(p, q)], _real_form(y))
    return [row[:n] for row in prod], [row[n:] for row in prod]


def _real(m):
    """The pair (m, 0) of a rational matrix m."""
    return m, linalg.zeros(len(m), len(m[0]))


def _neg(m):
    return [[-x for x in row] for row in m]


@dataclass
class SymplecticFrame:
    c: list
    a: list  # A1..A4 as (P, Q) pairs

    def check(self):
        """A_i C A_i^t = C for all i; order data of A2, A4."""
        c = _real(self.c)
        for p, q in self.a:
            if pair_mul((p, q), pair_mul(c, (linalg.transpose(p), linalg.transpose(q)))) != c:
                raise AlgebraError("A C A^t != C")
        ident = linalg.identity(8)
        if pair_mul(self.a[1], self.a[1]) != _real(_neg(ident)):
            raise AlgebraError("A2^2 != -I")
        a4sq = pair_mul(self.a[3], self.a[3])
        if pair_mul(a4sq, a4sq) != _real(ident):
            raise AlgebraError("A4^4 != I")
        return True


@lru_cache(maxsize=None)
def frame() -> SymplecticFrame:
    fr = SymplecticFrame(c=c_matrix(), a=a_matrices())
    fr.check()
    return fr


# ---------------------------------------------------------------------------
# contraction and its kernel


def _perm_sign(seq) -> int:
    sign = 1
    s = list(seq)
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            if s[i] > s[j]:
                sign = -sign
    return sign


@lru_cache(maxsize=None)
def contraction_matrix():
    """28 x 70 matrix of c over Q (the alternating-sum pairing with C)."""
    rows = [[F(0)] * 70 for _ in range(28)]
    for col, mono in enumerate(MON4):
        for p, q in combinations(range(4), 2):
            rest = [t for t in range(4) if t not in (p, q)]
            sign = _perm_sign([p, q] + rest)
            factor = _c_entry(mono[p], mono[q])
            if factor:
                pair = (mono[rest[0]], mono[rest[1]])
                rows[IDX2[pair]][col] += sign * factor
    return rows


@lru_cache(maxsize=None)
def kernel_c_basis():
    """Rational basis of ker c (dim 42), primitive integer vectors."""
    mat = contraction_matrix()
    if linalg.rank(mat) != 28:
        raise AlgebraError("contraction is not surjective")
    return _primitive_rows(linalg.kernel(mat, 70))


def _primitive_rows(rows):
    """Reduced echelon basis of the span of rational rows, each row scaled to
    a primitive integer vector (entries kept as Fractions)."""
    red, _ = linalg.rref(rows)
    return [[F(x) for x in linalg.primitive(linalg.int_scaled(v)[1])] for v in red]


# ---------------------------------------------------------------------------
# sp8 and actions


@lru_cache(maxsize=None)
def sp8_rational_basis():
    """Reduced-echelon rational basis of {x : xC + Cx^t = 0} (dim 36)."""
    c = c_matrix()
    rows = []
    for i in range(8):
        for j in range(8):
            row = [F(0)] * 64
            for k in range(8):
                row[i * 8 + k] += c[k][j]
                row[j * 8 + k] += c[i][k]
            if any(row):
                rows.append(row)
    return linalg.kernel(rows, 64)


def act4_matrix_sparse(x):
    """Derivation action of an 8x8 matrix on Lambda^4, as a sparse 70x70
    matrix with entries of the type of x's (ints stay ints)."""
    cols = {}
    for c in range(8):
        col = {r: x[r][c] for r in range(8) if x[r][c]}
        if col:
            cols[c] = col
    out = {}
    for src, mono in enumerate(MON4):
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
                    dst = IDX4[tuple(sorted(order))]
                    sign = _perm_sign(order)
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
    for src, mono in enumerate(MON4):
        stack = [([], (1, 0))]
        for i in mono:
            stack = [
                (chosen + [r], (x * u - y * w, x * w + y * u))
                for chosen, (x, y) in stack
                for r, (u, w) in cols[i]
                if r not in chosen
            ]
        for chosen, coef in stack:
            dst = IDX4[tuple(sorted(chosen))]
            sign = _perm_sign(chosen)
            for part, x in zip(parts, coef):
                if x:
                    linalg.sp_add_into(part.setdefault(dst, {}), {src: x}, sign)
    return tuple({r: row for r, row in part.items() if row} for part in parts)


def pair_inverse(a):
    """A^{-1} = R + iS of A = P + iQ, both as pairs: the inverse of the real
    form [[P, Q], [-Q, P]] of A is the real form [[R, S], [-S, R]] of A^{-1}."""
    n = len(a[0])
    inv = linalg.mat_inverse(_real_form(a))
    return [row[:n] for row in inv[:n]], [row[n:] for row in inv[:n]]


def _conjugation(a):
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


def _pair_op(m):
    """v -> (Re M v, Im M v) for M given as the pair (Re M, Im M) of sparse
    matrices."""
    return lambda v: tuple(linalg.sp_matvec(part, linalg.sparse(v)) for part in m)


# ---------------------------------------------------------------------------
# joint eigenspace splitting over Q


def _operator_on_subspace(images, basis):
    """Matrix whose column j holds the coordinates of images[j] in the
    rational basis."""
    solver = linalg.SpanSolver(basis)
    cols = [solver.coefficients(img) for img in images]
    if None in cols:
        raise AlgebraError("operator does not preserve the subspace")
    return [[co[i] for co in cols] for i in range(len(basis))]


def _split(subspaces, op, nev):
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
        m = _operator_on_subspace(re_imgs + im_imgs, basis)
        found = 0
        for e in range(nev):
            rows = []
            for start, x in zip((0, k), _I_POWERS[(4 // nev) * e]):
                for i, row in enumerate(m):
                    r = linalg.sparse(row[start : start + k])
                    linalg.sp_add_into(r, {i: QONE}, -x)
                    rows.append(r)
            combos = linalg.kernel(rows, k)
            if combos:
                out.append(([linalg.lin_comb(co, basis) for co in combos], tag + (e,)))
                found += len(combos)
        if found != k:
            raise AlgebraError("the rational eigenspaces do not span the subspace")
    return out


@dataclass
class Sp8Model:
    lie: LieAlgebra
    even_dim: int
    odd_dim: int
    even_tags: list  # per even basis vector: (e1,e2,e3,e4)
    odd_tags: list
    even_matrices: list  # 8x8 rational matrices (entries in {-1,0,1})
    odd_vectors: list  # 70-coordinate rational four-forms
    even_leaf_dims: dict
    provenance: dict

    @property
    def dim(self):
        return self.lie.dim

    def even_indices(self):
        return range(self.even_dim)

    def tag_of(self, idx: int):
        """(e4; e1,e2,e3, theta) in Z4 x Z2^4 for a basis index."""
        if idx < self.even_dim:
            e1, e2, e3, e4 = self.even_tags[idx]
            th = 0
        else:
            e1, e2, e3, e4 = self.odd_tags[idx - self.even_dim]
            th = 1
        return (e4, e1, e2, e3, th)


@lru_cache(maxsize=None)
def _graded_bases():
    """(even, odd): the joint eigenspaces of A1., .., A4. on sp8 and on ker c
    as (primitive reduced-echelon rational basis, tag), sorted by tag."""
    even = [(sp8_rational_basis(), ())]
    odd = [(kernel_c_basis(), ())]
    for i, a in enumerate(frame().a):
        nev = 2 if i < 3 else 4
        even = _split(even, _pair_op(_conjugation(a)), nev)
        odd = _split(odd, _pair_op(wedge4_matrix_sparse(a)), nev)
    return tuple(
        [(_primitive_rows(b), tag) for b, tag in sorted(leaves, key=lambda t: t[1])]
        for leaves in (even, odd)
    )


def wedge8_pairs():
    """mono index -> (complement index, sign of the concatenation)."""
    out = {}
    for i, mono in enumerate(MON4):
        comp = tuple(sorted(set(range(8)) - set(mono)))
        out[i] = (IDX4[comp], _perm_sign(list(mono) + list(comp)))
    return out


@lru_cache(maxsize=None)
def assemble_e6() -> Sp8Model:
    """The 78-dimensional rational Lie algebra sp8 + ker c.

    Any nonzero scale of the odd x odd bracket yields a Lie algebra (the Z2
    twist freedom); the scale is 1, recorded in the provenance.  Jacobi is
    certified exhaustively.
    """
    even_rat, odd_rat = _graded_bases()
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
        lambda p, q: linalg.sp_flatten(linalg.sp_commutator(even_sp[p], even_sp[q]), 8),
        e_den * e_den,
    )
    # even x odd: derivation action on four-forms stays inside ker c
    w8 = wedge8_pairs()
    paired = []  # paired[p][u] = (M_p u) reindexed for the odd x odd wedge8 pairing
    for p in range(ne):
        per_u = []
        for u in range(no):
            img = linalg.sp_matvec(act_sp[p], odd_sp[u])
            coeffs = odd_expand.coefficients(img, e_den * o_den)
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

    labels = [f"x{i}" for i in range(ne)] + [f"u{j}" for j in range(no)]
    alg = StructAlgebra(dim=78, basis_labels=labels, sc=sc)
    lie = LieAlgebra(alg)
    return Sp8Model(
        lie=lie,
        even_dim=ne,
        odd_dim=no,
        even_tags=even_tags,
        odd_tags=odd_tags,
        even_matrices=even_mats,
        odd_vectors=odd_vecs,
        even_leaf_dims=even_type,
        provenance={
            "construction": "sp8+kerc",
            "odd_bracket_scale": "1",
        },
    )


def eigenspace_type() -> tuple:
    """(number of 1-dim, number of 2-dim) joint eigenspaces of sp8."""
    model = assemble_e6()
    dims = sorted(model.even_leaf_dims.values())
    return (dims.count(1), dims.count(2))


def model_even_signature() -> int:
    """Killing signature of the even (sp8) part of the assembled model."""
    model = assemble_e6()
    k = model.lie.killing_matrix()
    idx = list(range(model.even_dim))
    return inertia([[k[i][j] for j in idx] for i in idx]).signature


# ---------------------------------------------------------------------------
# conjugated real form and the Z4 x Z2^4 grading


def _chi_bits(model: Sp8Model):
    """chi = eigenvalue of (A1 A2 A3)-dot per basis vector; 0 even, 1 odd."""
    bits = []
    for i in range(model.dim):
        e4, e1, e2, e3, _th = model.tag_of(i)
        bits.append((e1 + e2 + e3) % 2)
    return bits


@lru_cache(maxsize=None)
def conjugated_form() -> dict:
    """The sigma' = sigma (A1 A2 A3)-dot real form and its signatures.

    The character chi of (A1 A2 A3)-dot is real on every component, so the
    fixed points of sigma' are the chi-even part plus i times the chi-odd
    part, i.e. the chi-twist of the rational model by -1.
    """
    model = assemble_e6()
    fr = frame()
    m, m_im = pair_mul(fr.a[0], pair_mul(fr.a[1], fr.a[2]))
    if any(x for row in m_im for x in row):
        raise AlgebraError("A1 A2 A3 should be real")
    m2 = linalg.mat_mul(m, m)
    ident = linalg.identity(8)
    if m2 != ident and m2 != _neg(ident):
        raise AlgebraError("sigma' is not an involution")
    bits = _chi_bits(model)
    even_idx = {i for i, b in enumerate(bits) if b == 0}
    lprime = twist(model.lie, even_idx, F(-1))
    k = lprime.killing_matrix()
    theta_even = list(range(model.even_dim))
    sub = [[k[i][j] for j in theta_even] for i in theta_even]
    even_sig = inertia(sub).signature
    full_sig = lprime.killing_inertia().signature
    twisted = twist(lprime, set(theta_even), F(-1))
    twisted_sig = inertia(killing_matrix(twisted)).signature
    return {
        "lie": lprime,
        "twisted": twisted,
        "model": model,
        "even_sig": even_sig,
        "full_sig": full_sig,
        "twisted_sig": twisted_sig,
        "chi_bits": bits,
    }


def fix_ad_c_a123_dim() -> int:
    """dim of the Ad(C A1 A2 A3)-fixed subspace of sp8 (rational, dim 24)."""
    fr = frame()
    g = _real(fr.c)
    for a in fr.a[:3]:
        g = pair_mul(g, a)
    if any(x for row in g[1] for x in row):
        raise AlgebraError("C A1 A2 A3 should be real")
    basis = sp8_rational_basis()
    conj, _ = _conjugation(g)
    mat = _operator_on_subspace([linalg.sp_matvec(conj, linalg.sparse(v)) for v in basis], basis)
    _, dim = fixed_subspace(mat)
    return dim


def minus26_carrier():
    """The member of {L', L'^{-1}} with Killing signature -26, plus data."""
    data = conjugated_form()
    if data["full_sig"] == -26:
        return data["lie"], data
    if data["twisted_sig"] == -26:
        return data["twisted"], data
    raise AlgebraError("neither conjugated form has signature -26")


def _gamma11_on(model: Sp8Model, alg) -> GradedDecomposition:
    """The Z4 x Z2^4 degrees of ``model``'s basis, on the same basis of alg."""
    comps = {}
    for i in range(model.dim):
        comps.setdefault(model.tag_of(i), []).append(alg.basis_vector(i))
    return GradedDecomposition(group=FinAbGroup(0, (4, 2, 2, 2, 2)), algebra=alg, components=comps)


def gamma11() -> GradedDecomposition:
    """The Z4 x Z2^4 grading on the signature -26 symplectic carrier."""
    carrier, data = minus26_carrier()
    return _gamma11_on(data["model"], carrier.alg)


# ---------------------------------------------------------------------------
# the abstract group generated by {A1., A2., A3., A4., theta}


_IDENTITY = tuple((c, 0) for c in range(8))


def _monomial_frame():
    """`_A_POWERS`, each checked to be a monomial map: its rows are a
    permutation of the eight basis vectors."""
    for m in _A_POWERS:
        if sorted(r for r, _ in m) != list(range(8)):
            raise AlgebraError("a frame matrix is not monomial")
    return _A_POWERS


def _mono_mul(x, y):
    """The product x y of monomial maps: y e_c = i^k e_r and x e_r = i^k' e_r'
    give x y e_c = i^(k + k') e_r'."""
    return tuple((x[r][0], (k + x[r][1]) % 4) for r, k in y)


def _mono_mod_sign(m):
    """The one of +-m whose row-0 entry is 1 or i: -m is m with every phase
    shifted by 2."""
    k0 = next(k for r, k in m if r == 0)
    shift = 2 if k0 >= 2 else 0
    return tuple((r, (k - shift) % 4) for r, k in m)


def _mono_order_mod_sign(m) -> int:
    """Least k >= 1 with m^k = +-I (at most 8 for the dot group)."""
    power = m
    for k in range(1, 9):
        if _mono_mod_sign(power) == _IDENTITY:
            return k
        power = _mono_mul(power, m)
    raise AlgebraError("order mod +-I exceeds 8")


def dot_group_generator_orders() -> tuple:
    """Orders of A1., .., A4. modulo +-I, read from their monomial maps."""
    return tuple(_mono_order_mod_sign(a) for a in _monomial_frame())


def dot_group_order_data() -> dict:
    """Certify <A1., .., A4., theta> iso Z4 x Z2^4 by word enumeration on the
    monomial maps of the frame."""
    maps = _monomial_frame()
    orders = dot_group_generator_orders()
    words = []
    for exps in product(*(range(o) for o in orders)):
        m = _IDENTITY
        for a, e in zip(maps, exps):
            for _ in range(e):
                m = _mono_mul(m, a)
        words.append(_mono_mod_sign(m))
    distinct = len(set(words))
    # pairwise commutation mod +-I
    commute = all(
        _mono_mod_sign(_mono_mul(maps[i], maps[j])) == _mono_mod_sign(_mono_mul(maps[j], maps[i]))
        for i in range(4)
        for j in range(i + 1, 4)
    )
    # words of order <= 2 mod +-I, read from their powers; theta is a
    # central involution outside the matrix group, so it doubles the count
    order_le2 = sum(1 for m in words if _mono_order_mod_sign(m) <= 2)
    return {
        "matrix_group_order": distinct,
        "with_theta_order": distinct * 2,
        "abelian": commute,
        "order_le2_with_theta": order_le2 * 2,
        "is_z4_x_z2_4": distinct == 32
        and commute
        and orders == (2, 2, 2, 4)
        and order_le2 * 2 == 32,
    }
