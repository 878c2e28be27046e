"""The symplectic model of e6: sp8 + ker c on the fourth exterior power.

S0 = sp(8) for the form C = [[0, I4], [-I4, 0]]; the odd part is the kernel
of the contraction c: Lambda^4 -> Lambda^2.  Four monomial symplectic
matrices A1..A4 act on everything, with fourth roots of unity as
eigenvalues.  Their entries are 0, +-1 and +-i, and the frame is written down
as monomial maps, column c -> (row, k) for A e_c = i^k e_row (`_A_POWERS`).
C is one as well (`_C_MAP`).  The frame identities (A C A^t = C, A2^2 = -I,
A4^4 = I), the words of the dot group <A1., .., A4.>, their orders modulo
+-I and the commutators are composed on those maps: a product is a
permutation lookup plus a sum of phases mod 4, and -m is m with every phase
shifted by 2.

The actions of the frame are signed permutations as well: A E_rc A^-1 =
i^(k_r - k_c) E_{pi r, pi c} on the 64 matrix units, and Lambda^4(A) sends
a four-form to i^(sum of its phases) times a four-form, times -1 when
sorting the image is an odd permutation.  On an orbit of the four
permutations a joint eigenvector is fixed by its value at one point, so the
rational joint eigenvectors at a tag are one +-1 vector per orbit whose
phase exponents, propagated from its least point, agree on every edge and
are all even.  The leaf of sp8
or ker c at that tag is the kernel of the defining equations (xC + Cx^t = 0,
or c) restricted to those vectors, and the dimensions adding up to 36 and 42
certify that every joint eigenspace has a rational basis.  These leaves are
the graded basis of the real form.

Tags add under the bracket, so each even x even and even x odd product is
read by one span solver on the 1-4 rows of the leaf at the sum of the tags
of its factors, and a product outside that leaf is an AlgebraError.  The odd
x odd bracket is recovered by trace duality against the
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
    fixed_subspace,
    inertia,
    killing_block,
    put_antisymmetric,
    twist,
    twist_signatures,
)
from .gradings import FinAbGroup, GradedDecomposition
from .scalars import QZERO

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


# A1..A4 as displayed, as monomial maps: per column c the pair (row, k) with
# A e_c = i^k e_row
_A_POWERS = (
    tuple((r, 1) for r in (4, 5, 7, 6, 0, 1, 3, 2)),
    tuple((c, 1 if c < 4 else 3) for c in range(8)),
    tuple((c ^ 1, 0) for c in range(8)),
    tuple(enumerate((0, 2, 3, 1, 0, 2, 1, 3))),
)

# C as a monomial map: C e_c = -e_(c+4) for c < 4 and e_(c-4) otherwise
_C_MAP = tuple((c + 4, 2) if c < 4 else (c - 4, 0) for c in range(8))


def frame_check() -> bool:
    """A C A^t = C for each A of the frame, A2^2 = -I and A4^4 = I, composed
    on the monomial maps; A^t e_r = i^k e_c when A e_c = i^k e_r.  A frame
    map that is not monomial gives False, never an exception."""
    try:
        maps = _monomial_frame()
    except AlgebraError:
        return False
    a4sq = _mono_mul(maps[3], maps[3])
    return (
        all(_mono_mul(a, _mono_mul(_C_MAP, _mono_transpose(a))) == _C_MAP for a in maps)
        and _mono_mul(maps[1], maps[1]) == tuple((c, 2) for c in range(8))
        and _mono_mul(a4sq, a4sq) == _IDENTITY
    )


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


def _primitive_rows(rows, ncols=None):
    """Reduced echelon basis of the span of rational rows (dense, or {col: x}
    of width ncols), each row scaled to a primitive integer vector (entries
    kept as Fractions)."""
    red, _ = linalg.rref(rows, ncols)
    out = []
    for v in red:
        w = linalg.primitive(linalg.int_scaled(linalg.sparse(v))[1])
        out.append([F(w[j]) if j in w else QZERO for j in range(len(v))])
    return out


# ---------------------------------------------------------------------------
# sp8 and actions


def _sp8_equations():
    """The equations of sp8 on x flattened row-major: the entries (i, j),
    i < j, of the antisymmetric xC + Cx^t, as {col: int} rows."""
    rows = []
    for i, j in MON2:
        row = {}
        for k in range(8):
            for col, x in ((8 * i + k, _c_entry(k, j)), (8 * j + k, _c_entry(i, k))):
                if x:
                    row[col] = row.get(col, 0) + x
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def sp8_rational_basis():
    """Reduced-echelon rational basis of {x : xC + Cx^t = 0} (dim 36)."""
    return linalg.kernel(_sp8_equations(), 64)


def _operator_on_subspace(images, basis):
    """The matrix, as {col: x} rows, whose column j holds the coordinates of
    images[j] in the rational basis."""
    solver = linalg.SpanSolver(basis)
    rows = [{} for _ in basis]
    for j, img in enumerate(images):
        d, vs = linalg.int_scaled(linalg.sparse(img))
        co = solver.int_coordinates(vs, d)
        if co is None:
            raise AlgebraError("operator does not preserve the subspace")
        for i, x in co.items():
            rows[i][j] = x
    return rows


# ---------------------------------------------------------------------------
# joint eigenspaces from signed orbits

# the number of eigenvalues of A1., .., A4.: a tag (e1, .., e4) stands for
# the eigenvalues i^((4 // n) e) of the four maps
_NEV = (2, 2, 2, 4)


def _conjugation_perm(m):
    """X -> A X A^-1 for the monomial map m of A on the 64 matrix units E_rc
    (at 8r + c), as (image, k) per unit: A E_rc A^-1 = i^(k_r - k_c)
    E_{pi r, pi c} for A e_c = i^(k_c) e_{pi c}."""
    return [(8 * m[r][0] + m[c][0], (m[r][1] - m[c][1]) % 4) for r in range(8) for c in range(8)]


def _wedge4_perm(m):
    """Lambda^4(A) for the monomial map m of A on the 70 four-forms, as
    (image, k) per form: e_mono goes to i^(sum of its phases) times the wedge
    of the image vectors, and sorting that wedge adds 2 to k when the sort is
    an odd permutation."""
    out = []
    for mono in MON4:
        image = [m[c][0] for c in mono]
        k = sum(m[c][1] for c in mono) + (0 if _perm_sign(image) == 1 else 2)
        out.append((IDX4[tuple(sorted(image))], k % 4))
    return out


def _orbit_vectors(perms, tag):
    """The rational joint eigenvectors at tag of the signed permutations
    perms (perm[x] = (y, k): the edge x -> y of phase k), one +-1 vector
    {point: sign} per orbit that carries one.

    Let permutation j have the eigenvalue i^(l_j).  Along an edge x -> y of
    phase k an eigenvector has v(y) = i^(k - l_j) v(x), so its exponents are
    propagated over each orbit from 0 at the least point.  The orbit carries
    a joint eigenvector iff every edge agrees, and a rational one iff every
    exponent is then even, so that each entry is +1 or -1.
    """
    steps = [(4 // n) * e for n, e in zip(_NEV, tag)]
    seen = set()
    out = []
    for start in range(len(perms[0])):
        if start in seen:
            continue
        exps = {start: 0}
        order = [start]
        agree = True
        for x in order:
            for perm, step in zip(perms, steps):
                y, k = perm[x]
                p = (exps[x] + k - step) % 4
                if y not in exps:
                    exps[y] = p
                    order.append(y)
                elif exps[y] != p:
                    agree = False
        seen.update(order)
        if agree and not any(p % 2 for p in exps.values()):
            out.append({y: 1 - p for y, p in sorted(exps.items())})
    return out


def _orbit_split(perms, rows, ncols):
    """The joint eigenspaces of the signed permutations perms on the solution
    space of rows (dense or {col: x} equations of width ncols), as (primitive
    reduced-echelon rational basis, tag) in tag order, empty ones left out.

    The leaf at a tag is the kernel of the equations restricted to the +-1
    orbit vectors there (`_orbit_vectors`).  The leaves of distinct tags are
    independent, so their dimensions adding up to that of the solution space
    certifies that every joint eigenspace has a rational basis.
    """
    by_col = {}  # column -> [(equation, coefficient)]
    for e, row in enumerate(rows):
        for c, x in linalg.sparse(row).items():
            by_col.setdefault(c, []).append((e, x))
    leaves = []
    for tag in product(*map(range, _NEV)):
        vecs = _orbit_vectors(perms, tag)
        if not vecs:
            continue
        restricted = {}
        for o, vec in enumerate(vecs):
            for y, sign in vec.items():
                for e, x in by_col.get(y, ()):
                    row = restricted.setdefault(e, {})
                    row[o] = row.get(o, 0) + sign * x
        basis = []
        for combo in linalg.kernel(list(restricted.values()), len(vecs)):
            v = {}
            for co, vec in zip(combo, vecs):
                if co:
                    v.update((y, co * sign) for y, sign in vec.items())
            basis.append(v)
        if basis:
            leaves.append((_primitive_rows(basis, ncols), tag))
    if sum(len(b) for b, _ in leaves) != ncols - linalg.rank(rows):
        raise AlgebraError("the rational eigenspaces do not span the subspace")
    return leaves


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
    as (primitive reduced-echelon rational basis, tag), in tag order, split
    on the signed permutations of the monomial frame (`_orbit_split`)."""
    maps = _monomial_frame()
    return (
        _orbit_split([_conjugation_perm(m) for m in maps], _sp8_equations(), 64),
        _orbit_split([_wedge4_perm(m) for m in maps], contraction_matrix(), 70),
    )


def wedge8_pairs():
    """mono index -> (complement index, sign of the concatenation)."""
    out = {}
    for i, mono in enumerate(MON4):
        comp = tuple(sorted(set(range(8)) - set(mono)))
        out[i] = (IDX4[comp], _perm_sign(list(mono) + list(comp)))
    return out


@lru_cache(maxsize=None)
def _slot_table():
    """Per four-form index and slot t: {r: (four-form index, sign)} for the
    form with its t-th vector replaced by e_r, sorted; an r that is already
    in the form at another slot gives 0 and is left out."""
    table = []
    for mono in MON4:
        per_slot = []
        for t, old in enumerate(mono):
            out = {}
            for r in range(8):
                if r == old or r not in mono:
                    order = mono[:t] + (r,) + mono[t + 1 :]
                    out[r] = (IDX4[tuple(sorted(order))], _perm_sign(order))
            per_slot.append(out)
        table.append(per_slot)
    return table


def _act4_images(mats, vecs):
    """[[x.u for x in mats] for u in vecs]: the derivation action of sparse
    8x8 matrices on sparse four-forms.  Each nonzero x_rc u[mono] goes to
    the form with e_c replaced by e_r (`_slot_table`), so x.u is summed over
    the nonzeros of u, slot by slot, and the entries of the x's in that
    slot's column."""
    slots = _slot_table()
    by_col = {}  # column c -> [(p, r, x_p[r][c])]
    for p, m in enumerate(mats):
        for r, row in m.items():
            for c, x in row.items():
                by_col.setdefault(c, []).append((p, r, x))
    out = []
    for u in vecs:
        imgs = [{} for _ in mats]
        for src, val in u.items():
            for c, table in zip(MON4[src], slots[src]):
                for p, r, x in by_col.get(c, ()):
                    hit = table.get(r)
                    if hit:
                        img = imgs[p]
                        dst, sign = hit
                        img[dst] = img.get(dst, 0) + sign * x * val
        out.append([{k: v for k, v in img.items() if v} for img in imgs])
    return out


def _leaf_solvers(leaves, first):
    """tag -> (index of the leaf's first basis vector, SpanSolver on the
    leaf), the basis indices counted from first."""
    out = {}
    for basis, tag in leaves:
        out[tag] = (first, linalg.SpanSolver(basis))
        first += len(basis)
    return out


def _tag_sum(g, h):
    return tuple((a + b) % n for a, b, n in zip(g, h, _NEV))


def _tag_neg(g):
    return tuple(-a % n for a, n in zip(g, _NEV))


def _in_leaf(leaves, tag, img, scale):
    """img / scale as {basis index: coefficient} in the leaf at tag, img an
    int {col: x} vector read by `SpanSolver.int_coordinates`.  The bracket
    of homogeneous elements is homogeneous of the sum of their tags, so a
    product read anywhere else is an AlgebraError."""
    if not img:
        return {}
    leaf = leaves.get(tag)
    coords = None if leaf is None else leaf[1].int_coordinates(img, scale)
    if coords is None:
        raise AlgebraError(f"a product leaves its target leaf {tag}")
    first = leaf[0]
    return {first + i: x for i, x in coords.items()}


@lru_cache(maxsize=None)
@linalg.acyclic
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

    # the even matrices (entries in {-1, 0, 1}) and the ker c rows (primitive
    # integer vectors) as int rows: every product below runs on ints
    e_den, even_int = linalg.int_scaled(even_mats)
    o_den, odd_sp = linalg.int_scaled([linalg.sparse(v) for v in odd_vecs])
    even_sp = [linalg.dense_to_sparse(m) for m in even_int]
    even_leaf, odd_leaf = _leaf_solvers(even_rat, 0), _leaf_solvers(odd_rat, ne)

    # even x even: sp8 under the commutator.  Tags add under the bracket, so
    # each product is read in the one leaf at the sum of the tags
    sc = {}
    for p in range(ne):
        for q in range(p + 1, ne):
            img = linalg.sp_bracket(even_sp[p], even_sp[q], 8)
            put_antisymmetric(
                sc, p, q, _in_leaf(even_leaf, _tag_sum(even_tags[p], even_tags[q]), img, e_den * e_den)
            )
    # even x odd: the derivation action on four-forms, read in the ker c leaf
    # at the sum of the tags
    w8 = wedge8_pairs()
    images = _act4_images(even_sp, odd_sp)  # images[u][p] = x_p.u
    paired = []  # paired[p][u] = (x_p.u) reindexed for the odd x odd wedge8 pairing
    for p in range(ne):
        per_u = []
        for u in range(no):
            img = images[u][p]
            put_antisymmetric(
                sc, p, ne + u, _in_leaf(odd_leaf, _tag_sum(even_tags[p], odd_tags[u]), img, e_den * o_den)
            )
            per_u.append({w8[c][0]: (v if w8[c][1] == 1 else -v) for c, v in img.items()})
        paired.append(per_u)
    # odd x odd by trace duality: tr(X x) = wedge8((x.u) ^ v), so
    # [u, v] = sum_x b_x G^-1[:, x] with b_x = wedge8((x.u) ^ v) and G
    # the trace Gram matrix of the even basis.  tr(x y) is invariant under
    # the frame, so it vanishes unless the tags of x and y add up to 0: each
    # row has its nonzeros in the leaf at minus its tag
    leaf_range = {tag: range(first, first + solver.n) for tag, (first, solver) in even_leaf.items()}
    gram = [[QZERO] * ne for _ in range(ne)]
    for p in range(ne):
        for q in leaf_range.get(_tag_neg(even_tags[p]), ()):
            gram[p][q] = F(linalg.sp_trace_product(even_sp[p], even_sp[q]) or 0)
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
    return inertia(killing_block(model.lie, range(model.even_dim))).signature


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
    a1, a2, a3, _ = _monomial_frame()
    m = _mono_mul(a1, _mono_mul(a2, a3))
    if any(k % 2 for _, k in m):
        raise AlgebraError("A1 A2 A3 should be real")
    if _mono_mod_sign(_mono_mul(m, m)) != _IDENTITY:
        raise AlgebraError("sigma' is not an involution")
    bits = _chi_bits(model)
    even_idx = {i for i, b in enumerate(bits) if b == 0}
    lprime = twist(model.lie, even_idx, F(-1))
    full_sig, twisted_sig, even_sig, twisted = twist_signatures(lprime, range(model.even_dim))
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
    """dim of the Ad(C A1 A2 A3)-fixed subspace of sp8 (rational, dim 24).

    g = C A1 A2 A3 is composed on the monomial maps and must be real, so its
    matrix G is a signed permutation matrix and G^t = G^-1: Ad(g) X is
    G X G^t, two dense products per basis matrix of sp8."""
    a1, a2, a3, _ = _monomial_frame()
    g = _mono_mul(_C_MAP, _mono_mul(a1, _mono_mul(a2, a3)))
    if any(k % 2 for _, k in g):
        raise AlgebraError("C A1 A2 A3 should be real")
    gm = linalg.zeros(8, 8)
    for c, (r, k) in enumerate(g):
        gm[r][c] = F(1 - k)
    gt = linalg.transpose(gm)
    basis = sp8_rational_basis()
    images = [
        sum(linalg.mat_mul(linalg.mat_mul(gm, [v[8 * r : 8 * r + 8] for r in range(8)]), gt), [])
        for v in basis
    ]
    _, dim = fixed_subspace(_operator_on_subspace(images, basis))
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


def _mono_transpose(m):
    """A^t for the monomial map m of A: A e_c = i^k e_r gives
    A^t e_r = i^k e_c."""
    out = [None] * len(m)
    for c, (r, k) in enumerate(m):
        out[r] = (c, k)
    return tuple(out)


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
