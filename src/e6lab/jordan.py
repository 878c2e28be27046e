"""Jordan algebras: H3(C, gamma) over a Hurwitz algebra and Mat3(R)+.

H3(C, gamma) is the gamma-hermitian 3x3 matrices over C (x* = gamma conj(x)^t
gamma) under the symmetrized product; its basis is E1, E2, E3 and the
off-diagonal embeddings iota_t(b) for b running over the basis of C.  The
normalized trace t_J = tr/3 is the unique associative linear form with
t_J(I) = 1, and J = F I + J0 with J0 = ker t_J.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .algcore import StructAlgebra, algebra_from_products
from .composition import CompositionAlgebra, hurwitz
from .gradings import FinAbGroup, GradedDecomposition, GradingError
from .scalars import QZERO

F = Fraction


@dataclass
class JordanAlgebra:
    alg: StructAlgebra
    unit: list
    t_row: list
    kind: str  # "h3" or "m3r"
    gamma: tuple = None
    comp: CompositionAlgebra = None
    comp_name: str = None
    e_idx: tuple = ()
    iota_base: tuple = ()  # iota_base[t] = first index of the iota_t block
    _layer: object = dc_field(default=None, repr=False, compare=False)  # tits.ingredient_layer

    @property
    def dim(self):
        return self.alg.dim

    def t_j(self, x):
        return sum(a * b for a, b in zip(self.t_row, x))

    def e_vec(self, i: int):
        return self.alg.basis_vector(self.e_idx[i])

    def iota(self, t: int, cvec):
        """Coordinates of iota_t(a) for a C-coordinate vector a."""
        out = [F(0)] * self.dim
        for ci, v in enumerate(cvec):
            out[self.iota_base[t] + ci] = v
        return out

    def mult(self, x, y):
        return self.alg.multiply(x, y)


# ---------------------------------------------------------------------------
# H3(C, gamma)


def _h3_matrix_mult(table, x, y):
    """Product in Mat3(C) of matrices {(r, s): {C basis index: int}} with
    their zero entries omitted, on the int table D*c of C (`int_scaled`):
    the entries of the product come out scaled by D."""
    out = {}
    for (r, k), xv in x.items():
        for (k2, s), yv in y.items():
            if k != k2:
                continue
            acc = out.setdefault((r, s), {})
            for a, u in xv.items():
                for b, w in yv.items():
                    row = table.get((a, b))
                    if row:
                        for m, v in row.items():
                            acc[m] = acc.get(m, 0) + u * w * v
    return out


def _h3_basis_matrices(c: CompositionAlgebra, gamma):
    """Matrices of E1,E2,E3 and iota_t(b_k) in the form of `_h3_matrix_mult`;
    iota_t(a) has a at (t+1, t+2) and gamma_{t+1} gamma_{t+2} conj(a) at
    (t+2, t+1), indices mod 3.  conj(b_k) is b_k for the unit and -b_k
    otherwise, so each entry is one signed basis vector."""
    u = c.unit_idx
    mats = [{(i, i): {u: 1}} for i in range(3)]
    labels = [f"E{i + 1}" for i in range(3)]
    for t in range(3):
        r, s = (t + 1) % 3, (t + 2) % 3
        sign = gamma[r] * gamma[s]
        for ci in range(c.dim):
            mats.append({(r, s): {ci: 1}, (s, r): {ci: sign if ci == u else -sign}})
            labels.append(f"i{t + 1}({c.labels[ci]})")
    return mats, labels


@lru_cache(maxsize=None)
def _h3_cached(comp_name: str, gamma: tuple) -> JordanAlgebra:
    """The table of x.y = (xy + yx)/2 in the E/iota basis, one matrix
    product per unordered basis pair.

    The involution m* = gamma conj(m)^t gamma is an anti-automorphism of
    Mat3(C), so yx = y* x* = (xy)*, and one matrix product gives both terms.
    The symmetrized product is hermitian: its diagonal entries are the real
    parts of those of xy, and its (t+1, t+2) entries, the iota_t
    coordinates, are (xy_{t+1,t+2} + gamma_{t+1} gamma_{t+2}
    conj(xy_{t+2,t+1}))/2.  The products run on the int table D*c of C, and
    D and the 1/2 are divided out once per entry, as its Fraction is built.
    """
    c = hurwitz(comp_name)
    d, table = linalg.int_scaled(c.alg.sc)
    u = c.unit_idx
    mats, labels = _h3_basis_matrices(c, gamma)
    n = len(labels)
    nc = c.dim
    slots = []  # (first iota_t index, (t+1, t+2), (t+2, t+1), gamma_{t+1} gamma_{t+2})
    for t in range(3):
        r, s = (t + 1) % 3, (t + 2) % 3
        slots.append((3 + t * nc, (r, s), (s, r), gamma[r] * gamma[s]))
    sc = {}
    for i in range(n):
        for j in range(i, n):  # the product is commutative
            xy = _h3_matrix_mult(table, mats[i], mats[j])
            row = {}
            for e in range(3):
                v = xy.get((e, e), {}).get(u)
                if v:
                    row[e] = F(v, d)
            for base, rs, sr, sign in slots:
                a, b = xy.get(rs, {}), xy.get(sr, {})
                for ci in sorted(a.keys() | b.keys()):
                    v = a.get(ci, 0) + (sign if ci == u else -sign) * b.get(ci, 0)
                    if v:
                        row[base + ci] = F(v, 2 * d)
            if row:
                sc[(i, j)] = row
                sc[(j, i)] = dict(row)
    alg = StructAlgebra(dim=n, basis_labels=labels, sc=sc)
    unit = [F(0)] * n
    unit[0] = unit[1] = unit[2] = F(1)
    t_row = [F(0)] * n
    t_row[0] = t_row[1] = t_row[2] = F(1, 3)
    return JordanAlgebra(
        alg=alg,
        unit=unit,
        t_row=t_row,
        kind="h3",
        gamma=gamma,
        comp=c,
        comp_name=comp_name,
        e_idx=(0, 1, 2),
        iota_base=tuple(3 + t * nc for t in range(3)),
    )


def h3(comp_name: str, gamma=(1, 1, 1)) -> JordanAlgebra:
    """H3(C, gamma) for C a named Hurwitz algebra and gamma in {+-1}^3."""
    gamma = tuple(int(g) for g in gamma)
    if any(g not in (1, -1) for g in gamma):
        raise ValueError("gamma entries must be +-1")
    return _h3_cached(comp_name, gamma)


# ---------------------------------------------------------------------------
# Mat3(R)+


@lru_cache(maxsize=None)
def m3r() -> JordanAlgebra:
    """Mat3(R) under the symmetrized product; basis = matrix units E_pq."""
    labels = [f"E{p + 1}{q + 1}" for p in range(3) for q in range(3)]

    def product(i, j):
        p, q = divmod(i, 3)
        r, s = divmod(j, 3)
        out = [F(0)] * 9
        if q == r:
            out[3 * p + s] += F(1, 2)
        if s == p:
            out[3 * r + q] += F(1, 2)
        return out

    alg = algebra_from_products(labels, product)
    unit = [F(0)] * 9
    t_row = [F(0)] * 9
    for i in range(3):
        unit[4 * i] = F(1)
        t_row[4 * i] = F(1, 3)
    return JordanAlgebra(
        alg=alg, unit=unit, t_row=t_row, kind="m3r", e_idx=(0, 4, 8)
    )


# ---------------------------------------------------------------------------
# star product and inner derivations


def star(j: JordanAlgebra, x, y):
    """x*y = x.y - t_J(x.y) I, the product induced on J0."""
    p = j.mult(x, y)
    t = j.t_j(p)
    if t:
        p = [a - t * u for a, u in zip(p, j.unit)]
    return p


def inner_der(j: JordanAlgebra, x, y) -> dict:
    """[R_x, R_y], always a derivation of J, as a dim x dim matrix flattened
    row-major to {row * dim + col: x}."""
    return linalg.sp_bracket(j.alg.right_mult_matrix(x), j.alg.right_mult_matrix(y), j.dim)


def j0_basis(j: JordanAlgebra):
    """Deterministic basis of J0 = ker t_J.

    For h3: {E1-E2, E2-E3} then all iota vectors; for m3r the same diagonal
    differences then the off-diagonal matrix units.
    """
    out = []
    e = j.e_idx
    for a, b in ((0, 1), (1, 2)):
        v = [F(0)] * j.dim
        v[e[a]] = F(1)
        v[e[b]] = F(-1)
        out.append(v)
    for i in range(j.dim):
        if i not in e:
            out.append(j.alg.basis_vector(i))
    return out


# ---------------------------------------------------------------------------
# gradings of the Jordan algebras


def _z23_on_h3(j: JordanAlgebra) -> GradedDecomposition:
    from .composition import OCTONION_DEGREES

    group = FinAbGroup(0, (2, 2, 2))
    comps = {}
    e = group.identity()
    ident = []
    for i in range(3):
        ident.append(j.e_vec(i))
    for t in range(3):
        ident.append(j.iota(t, j.comp.unit()))
    comps[e] = ident
    for ci, lbl in enumerate(j.comp.labels):
        g = OCTONION_DEGREES[lbl]
        if g == (0, 0, 0):
            continue
        comps.setdefault(g, [])
        for t in range(3):
            comps[g].append(j.iota(t, j.comp.alg.basis_vector(ci)))
    return GradedDecomposition(group=group, algebra=j.alg, components=comps)


def _z22_on_h3(j: JordanAlgebra) -> GradedDecomposition:
    group = FinAbGroup(0, (2, 2))
    degs = {0: (0, 1), 1: (1, 0), 2: (1, 1)}
    comps = {(0, 0): [j.e_vec(i) for i in range(3)]}
    for t in range(3):
        comps[degs[t]] = [
            j.iota(t, j.comp.alg.basis_vector(ci)) for ci in range(j.comp.dim)
        ]
    return GradedDecomposition(group=group, algebra=j.alg, components=comps)


def z_grading_operator(j: JordanAlgebra):
    """4 [R_iota1(1), R_E2], the derivation whose integer eigenspaces grade J."""
    d = inner_der(j, j.iota(0, j.comp.unit()), j.e_vec(1))
    n = j.dim
    return [[4 * d.get(n * r + c, QZERO) for c in range(n)] for r in range(n)]


def _z_on_h3(j: JordanAlgebra) -> GradedDecomposition:
    group = FinAbGroup(1, ())
    op = z_grading_operator(j)
    comps = {}
    total = 0
    for lam in range(-2, 3):
        basis = linalg.eigenspace(op, F(lam))
        if basis:
            comps[(lam,)] = basis
            total += len(basis)
    if total != j.dim:
        raise GradingError("grading operator does not have integer spectrum -2..2")
    return GradedDecomposition(group=group, algebra=j.alg, components=comps)


def _z2_on_m3r(j: JordanAlgebra) -> GradedDecomposition:
    group = FinAbGroup(2, ())
    gvecs = {0: (0, 0), 1: (1, 0), 2: (0, 1)}
    comps = {}
    for p in range(3):
        for q in range(3):
            deg = tuple(a - b for a, b in zip(gvecs[q], gvecs[p]))
            comps.setdefault(deg, []).append(j.alg.basis_vector(3 * p + q))
    return GradedDecomposition(group=group, algebra=j.alg, components=comps)


def jordan_gradings(j: JordanAlgebra) -> dict:
    """The named gradings used downstream.

    h3 over O: 'z2^3' (octonion degrees), 'z2^2' (off-diagonal slots), 'z'
    (eigenspaces of the grading operator).  m3r: 'z^2' (E_pq at g_q - g_p).
    """
    if j.kind == "m3r":
        return {"z^2": _z2_on_m3r(j)}
    if j.comp_name not in ("O", "Os"):
        raise ValueError("gradings implemented for octonion H3 and m3r")
    return {
        "z2^3": _z23_on_h3(j),
        "z2^2": _z22_on_h3(j),
        "z": _z_on_h3(j),
    }


# ---------------------------------------------------------------------------
# the order-2 automorphism nu of the Albert algebra


def nu_diagonal():
    """nu on H3(O, I) as its list of +-1 diagonal entries: +1 on the
    H3(H, I) part, -1 on the H l part."""
    j = h3("O", (1, 1, 1))
    quat = {"1", "i", "j", "k"}
    diag = []
    for lbl in j.alg.basis_labels:
        if lbl.startswith("E"):
            diag.append(1)
        else:
            inner = lbl[lbl.index("(") + 1 : -1]
            diag.append(1 if inner in quat else -1)
    return diag


def nu_automorphism():
    """Matrix on H3(O, I): identity on the H3(H, I) part, -1 on the H l part."""
    diag = nu_diagonal()
    n = len(diag)
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = F(diag[i])
    return m
