"""Gradings of algebras by finitely generated abelian groups.

A GradedDecomposition attaches to a StructAlgebra a degree map from group
elements to component bases (coordinate vectors).  Each decomposition owns
its homogeneous basis (`HomogeneousBasis`), built on the first call that
needs it: the component vectors stacked in support order as the rows of P,
their degrees, and P^-1 from one `linalg.SpanSolver`.  Every graded check
reads it:

- `verify` is exhaustive: the sum is direct iff P is invertible, and
  closure A_g A_h <= A_{g+h} is a support test of c' = P^-1 c(P., P.) over
  every nonzero product of rows of P, on Python ints;
- `degree_of` reads the degrees of the coordinates in P;
- Killing orthogonality and the graded Witt basis read one Gram table
  K' = P K P^T per carrier, built from the nonzeros of K, and the signature
  bound and the Witt certificate read the carrier's one Killing inertia
  (`LieAlgebra.killing_inertia`).

A grading of T(C, J) is combined from a grading of C and one of J
(`combine`).  Each ingredient's grading passes to C0 or J0 and to Der(C) or
Der(J) through the layer that T(C, J) is built from (`graded_parts`):
Der(X)_g is spanned by the Der(X)-valued pairing of the layer on X0 parts
whose degrees add to g.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import gcd, lcm

from . import linalg
from .algcore import LieAlgebra, StructAlgebra
from .scalars import QONE, QZERO, fmt_rational, parse_rational


class GradingError(ValueError):
    pass


# ---------------------------------------------------------------------------
# groups


@dataclass(frozen=True)
class FinAbGroup:
    """Z^free_rank x Z_m1 x ... x Z_ms; elements are int tuples, torsion
    coordinates reduced mod m_i."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        if any(m < 2 for m in self.torsion):
            raise GradingError("torsion orders must be >= 2")

    @property
    def ncoords(self) -> int:
        return self.free_rank + len(self.torsion)

    def identity(self):
        return (0,) * self.ncoords

    def reduce(self, g):
        g = tuple(g)
        if len(g) != self.ncoords:
            raise GradingError("element has wrong coordinate count")
        free = g[: self.free_rank]
        tor = tuple(
            c % m for c, m in zip(g[self.free_rank :], self.torsion)
        )
        return free + tor

    def add(self, g, h):
        return self.reduce(tuple(a + b for a, b in zip(g, h)))

    def neg(self, g):
        return self.reduce(tuple(-a for a in g))

    def is_identity(self, g) -> bool:
        return all(c == 0 for c in g)

    def order_divides_2(self, g) -> bool:
        free = g[: self.free_rank]
        if any(c != 0 for c in free):
            return False
        return all(
            (2 * c) % m == 0 for c, m in zip(g[self.free_rank :], self.torsion)
        )

    def product(self, other: "FinAbGroup") -> "FinAbGroup":
        return FinAbGroup(
            self.free_rank + other.free_rank, self.torsion + other.torsion
        )

    def combine_elements(self, other: "FinAbGroup", g, h):
        """Element of self.product(other): free coords first, then torsion."""
        return (
            g[: self.free_rank]
            + h[: other.free_rank]
            + g[self.free_rank :]
            + h[other.free_rank :]
        )

    def name(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        i = 0
        tor = list(self.torsion)
        while i < len(tor):
            j = i
            while j < len(tor) and tor[j] == tor[i]:
                j += 1
            count = j - i
            parts.append(f"Z{tor[i]}" + (f"^{count}" if count > 1 else ""))
            i = j
        return " x ".join(parts) if parts else "1"


# ---------------------------------------------------------------------------
# graded decompositions


@dataclass
class GradedDecomposition:
    group: FinAbGroup
    algebra: StructAlgebra
    components: dict  # group element -> list of coordinate vectors
    _basis: HomogeneousBasis = dc_field(default=None, repr=False, compare=False)

    def __post_init__(self):
        clean = {}
        for g, vecs in self.components.items():
            g = self.group.reduce(g)
            if any(len(v) != self.algebra.dim for v in vecs):
                raise GradingError(f"degree {g}: a vector's length is not {self.algebra.dim}")
            vecs = [list(v) for v in vecs if any(v)]
            if vecs:
                if g in clean:
                    raise GradingError(f"duplicate degree {g}")
                clean[g] = vecs
        self.components = clean

    @property
    def support(self):
        return sorted(self.components)

    def dimension_of(self, g) -> int:
        return len(self.components.get(self.group.reduce(g), ()))

    def homogeneous_basis(self) -> HomogeneousBasis:
        """The basis P of the components, built on the first call."""
        if self._basis is None:
            self._basis = HomogeneousBasis(self)
        return self._basis

    def degree_of(self, vec):
        """Degree of a homogeneous vector, or None if it is 0 or not
        homogeneous: its coordinates in P all sit at one degree.  Raises
        GradingError if the sum of the components is not direct."""
        basis = self.homogeneous_basis()
        if basis.inverse is None:
            raise GradingError("the components do not sum directly to the algebra")
        coords = basis.coordinates(linalg.int_scaled(linalg.sparse(vec))[1])
        degs = {basis.degree_ids[r] for r, x in coords.items() if x}
        return basis.support[degs.pop()] if len(degs) == 1 else None


class HomogeneousBasis:
    """The component vectors of a decomposition stacked in support order:
    the rows of P, as sparse rows (`rows`) and as one int-scaled copy
    (`int_rows`, all times one positive int), with the support index of the
    degree of each row (`degree_ids`) and the slice of rows each degree
    occupies (`spans`).

    The sum is direct iff P is a basis of the algebra: as many rows as its
    dimension, and one `linalg.SpanSolver` on them succeeds.  Then
    `inverse[k]` is P^-1 e_k times one positive int, as a {row: int} dict;
    otherwise `inverse` is None.  `kprime` keeps the Gram table
    K' = P K P^T of one carrier.
    """

    def __init__(self, grading: GradedDecomposition):
        self.support = grading.support
        self.rows, self.degree_ids, self.spans = [], [], {}
        for gi, g in enumerate(self.support):
            vecs = grading.components[g]
            self.spans[g] = slice(len(self.rows), len(self.rows) + len(vecs))
            self.rows.extend(linalg.sparse(v) for v in vecs)
            self.degree_ids.extend([gi] * len(vecs))
        _, self.int_rows = linalg.int_scaled(self.rows)
        dim = grading.algebra.dim
        self.inverse = None
        if len(self.rows) == dim:
            try:
                solver = linalg.SpanSolver(self.rows, dim)
            except ValueError:
                pass
            else:
                # every column is a pivot, so transform row k is M P^-1 e_k
                self.inverse = solver.transform
        self._carrier = self._killing_rows = self._kprime = None

    def coordinates(self, vec: dict) -> dict:
        """{row: int}: the coordinates in P of the {col: int} vector vec,
        times the positive int of `inverse`."""
        out = {}
        for k, x in vec.items():
            for r, t in self.inverse[k].items():
                out[r] = out.get(r, 0) + x * t
        return out

    def kprime(self, lie: LieAlgebra):
        """(K as sparse rows, K' = P K P^T as dense rows) for the carrier
        lie, built once from the nonzeros of K and kept until another
        carrier is asked for."""
        if self._carrier is not lie:
            k = [linalg.sparse(row) for row in lie.killing_matrix()]
            self._carrier, self._killing_rows = lie, k
            self._kprime = linalg.gram(k, self.rows, self.rows)
        return self._killing_rows, self._kprime


@dataclass
class GradingReport:
    direct_sum_ok: bool
    closure_ok: bool
    violations: list

    @property
    def valid(self) -> bool:
        return self.direct_sum_ok and self.closure_ok


def _sum_test(group: FinAbGroup, support):
    """(codes, sums): an int per degree of the support, with g + h = s in
    the group iff codes[g] + codes[h] - codes[s] is in the set sums.

    Coordinate i of a degree fills a field of w bits of its code, so field
    i of codes[g] + codes[h] - codes[s] holds g_i + h_i - s_i, with w bits
    enough for its sign and size and for m_i: g + h = s iff each of these
    is 0, or is 0 or m_i at a torsion coordinate mod m_i, since reduced
    coordinates lie in [0, m_i).
    """
    top = max([abs(c) for g in support for c in g] + list(group.torsion), default=0)
    w = (3 * top).bit_length() + 1
    codes = [sum(c << (w * i) for i, c in enumerate(g)) for g in support]
    sums = {0}
    for i, m in enumerate(group.torsion, group.free_rank):
        sums |= {z + (m << (w * i)) for z in sums}
    return codes, sums


@linalg.acyclic
def verify(grading: GradedDecomposition) -> GradingReport:
    """Exhaustive check of direct sum and closure A_g A_h <= A_{g+h}.

    On the homogeneous basis P (`HomogeneousBasis`) the sum is direct iff P
    is invertible, and closure is a support test of the table
    c' = P^-1 c(P., P.): the product of a row x of degree g and a row y of
    degree h fails when one of its coordinates in P sits at a degree other
    than g+h (`_sum_test`).  Each table row c(a, b) is taken through P^-1
    once, and c'(x, y) is summed as x_a y_b P^-1 c(a, b) over the pairs
    (a, b) that meet x and y, so every product is covered but only the
    nonzero ones are formed.  All of it runs on ints: the table T = D*c' of
    `StructAlgebra._kernel_table` on the basis b_a / f_a, where row x of P
    is sum_a x_a f_a (b_a / f_a) and b_k / f_k is P^-1 e_k / f_k, so the
    int rows of P are taken times f_a at a and those of P^-1 times lcm(f) /
    f_k, then each row of P, and P^-1 as a whole, divided by the gcd of its
    entries: positive scales, which leave every support as it is.
    Violations (g, h, g+h), one per failing pair x, y, come in the order g,
    then h in components order, then x, then y.

    A decomposition whose sum is not direct gets (False, False, []): closure
    is not tested without P^-1.
    """
    basis = grading.homogeneous_basis()
    if basis.inverse is None:
        return GradingReport(False, False, [])
    f, _, table = grading.algebra._kernel_table()
    big = lcm(*f)
    inverse = [{r: t * (big // fk) for r, t in row.items()} for row, fk in zip(basis.inverse, f)]
    common = gcd(*(t for row in inverse for t in row.values()))
    inverse = [{r: t // common for r, t in row.items()} for row in inverse]
    rows = [linalg.primitive({a: v * f[a] for a, v in row.items()}) for row in basis.int_rows]
    ids = basis.degree_ids
    codes, sums = _sum_test(grading.group, basis.support)
    code = [codes[i] for i in ids]  # the degree code of each row of P
    left = {}  # a -> [(b, the coordinates in P of the table row (a, b))]
    for (a, b), row in table.items():
        w = {}
        for k, v in row.items():
            for r, t in inverse[k].items():
                w[r] = w.get(r, 0) + v * t
        left.setdefault(a, []).append((b, list(w.items())))
    cols = {}  # b -> [(y, entry of row y at b)] over the rows of P
    for y, row in enumerate(rows):
        for b, v in row.items():
            cols.setdefault(b, []).append((y, v))
    found = []
    for x, xrow in enumerate(rows):
        products = {}  # y -> the coordinates in P of x y
        for a, xa in xrow.items():
            for b, w in left.get(a, ()):
                for y, yb in cols.get(b, ()):
                    c = xa * yb
                    p = products.get(y)
                    if p is None:
                        p = products[y] = {}
                    for r, v in w:
                        p[r] = p.get(r, 0) + c * v
        cx = code[x]
        for y, p in products.items():
            cxy = cx + code[y]
            for r, v in p.items():
                if v and cxy - code[r] not in sums:
                    found.append((x, y))
                    break
    # order the failing pairs x, y as g, then h in components order, then x, y
    supp = basis.support
    order = {g: c for c, g in enumerate(grading.components)}
    found.sort(key=lambda xy: (order[supp[ids[xy[0]]]], order[supp[ids[xy[1]]]], xy))
    violations = []
    for x, y in found:
        g, h = supp[ids[x]], supp[ids[y]]
        violations.append((g, h, grading.group.add(g, h)))
    return GradingReport(True, not violations, violations)


def type_vector(grading: GradedDecomposition) -> tuple:
    """(h_1, ..., h_r): h_i = number of components of dimension i."""
    dims = [len(v) for v in grading.components.values()]
    if not dims:
        return ()
    out = [0] * max(dims)
    for d in dims:
        out[d - 1] += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# combinations


def graded_parts(grading: GradedDecomposition, x) -> tuple:
    """(X0 parts, Der(X) parts) of a grading of X = C or J, x the
    composition or Jordan algebra it grades, read through the layer of x
    (`tits.ingredient_layer`).

    The X0 part of degree g is a basis of the traceless vectors of X_g, in
    X0 coordinates.  Der(X)_g is spanned by the pairing of the layer
    (d_{a,b} for C, [R_a, R_b] for J) on X0 parts u, v of degrees g1, g2
    with g1 + g2 = g: the pairing is built from products, so it adds
    degrees, and it spans Der(X), since the d_{a,b} span the derivations of
    a Hurwitz algebra and every derivation of a semisimple Jordan algebra is
    inner.  Each Der(X)_g is the reduced echelon basis of its span, in
    Der(X) coordinates, and the degrees come in sorted order.

    Raises GradingError if a traceless vector leaves X0, or if the X0 parts
    or the Der(X) parts do not sum directly to X0 or Der(X), which happens
    only when the decomposition is not a grading.
    """
    from .tits import ingredient_layer  # tits builds on this module

    lay = ingredient_layer(x)
    x0 = {}
    for g, vecs in grading.components.items():
        for combo in linalg.kernel([[lay.trace(x, v) for v in vecs]], len(vecs)):
            d, vs = linalg.int_scaled(linalg.sparse(linalg.lin_comb(combo, vecs)))
            coeffs = lay.solver.int_coordinates(vs, d)
            if coeffs is None:
                raise GradingError(f"traceless {lay.name} component outside {lay.name}0")
            x0.setdefault(g, []).append(coeffs)
    homogeneous = [(g, u) for g, vecs in x0.items() for u in vecs]
    n0 = len(lay.vectors)
    if len(homogeneous) != n0 or linalg.rank([u for _, u in homogeneous]) != n0:
        raise GradingError(f"the traceless parts do not sum directly to {lay.name}0")
    spans = {}  # g -> pairings of the X0 parts whose degrees add to g
    for i, (g1, u) in enumerate(homogeneous):
        for g2, v in homogeneous[i + 1 :]:
            w = {}
            for a, ua in u.items():
                for b, vb in v.items():
                    if a < b:
                        linalg.sp_add_into(w, lay.pairing[(a, b)], ua * vb)
                    elif a > b:
                        linalg.sp_add_into(w, lay.pairing[(b, a)], -ua * vb)
            if w:
                spans.setdefault(grading.group.add(g1, g2), []).append(w)
    nder = len(lay.action)
    der = {g: linalg.rref(spans[g], nder)[0] for g in sorted(spans)}
    stacked = [row for rows in der.values() for row in rows]
    if len(stacked) != nder or linalg.rank(stacked) != nder:
        raise GradingError(f"the Der({lay.name}) parts do not sum directly to Der({lay.name})")
    return x0, der


def combine(grading_c: GradedDecomposition, grading_j: GradedDecomposition, t) -> GradedDecomposition:
    """Mix a C-grading and a J-grading into a grading of T(C, J).

    Uniform rule: L_(g,h) = Der(C)_g [h=e]  +  Der(J)_h [g=e]  +
    (C0)_g x (J0)_h, with the parts of each ingredient from `graded_parts`.
    """
    c, j = t.comp, t.jordan
    if grading_c.algebra.sc != c.alg.sc or grading_j.algebra.sc != j.alg.sc:
        # the parts are read in the model's C0, J0, Der(C) and Der(J) bases
        raise GradingError("gradings do not live on the model's C and J")
    gc, gj = grading_c.group, grading_j.group
    c0g, derc = graded_parts(grading_c, c)
    j0h, derj = graded_parts(grading_j, j)
    dim, nj0 = t.lie.dim, len(t.j0_vectors)
    ec, ej = gc.identity(), gj.identity()
    tn_off = t.layout["tensor"].start
    comps = {}

    def bucket(g, h):
        key = gc.combine_elements(gj, g, h)
        return comps.setdefault(key, [])

    # Der(C)_g at degree (g, e) and Der(J)_h at (e, h), copied into their
    # slots of the model's basis
    for der, span, degree in ((derc, "der_c", lambda g: (g, ej)), (derj, "der_j", lambda h: (ec, h))):
        for g, vecs in der.items():
            dst = bucket(*degree(g))
            for coeffs in vecs:
                v = [QZERO] * dim
                v[t.layout[span].start : t.layout[span].stop] = coeffs
                dst.append(v)
    for g, avecs in c0g.items():
        for h, xvecs in j0h.items():
            dst = bucket(g, h)
            for a in avecs:
                for x in xvecs:
                    v = [QZERO] * dim
                    for ci2, av in a.items():
                        for ji2, xv in x.items():
                            v[tn_off + ci2 * nj0 + ji2] = av * xv
                    dst.append(v)
    return GradedDecomposition(group=gc.product(gj), algebra=t.lie.alg, components=comps)


def common_refinement(g1: GradedDecomposition, g2: GradedDecomposition) -> GradedDecomposition:
    """Intersection grading over the product group (compatible gradings only)."""
    if g1.algebra is not g2.algebra and g1.algebra.sc != g2.algebra.sc:
        raise GradingError("gradings live on different algebras")
    alg = g1.algebra
    group = g1.group.product(g2.group)
    comps = {}
    total = 0
    for a, va in g1.components.items():
        for b, vb in g2.components.items():
            inter = linalg.intersect_spans(va, vb)
            if inter:
                comps[g1.group.combine_elements(g2.group, a, b)] = inter
                total += len(inter)
    if total != alg.dim:
        raise GradingError("gradings are not compatible (refinement not direct)")
    return GradedDecomposition(group=group, algebra=alg, components=comps)


# ---------------------------------------------------------------------------
# Killing-form tools on graded real Lie algebras


@linalg.acyclic
def killing_orthogonality_violations(grading: GradedDecomposition, lie: LieAlgebra):
    """Pairs (g,h) with g+h != e but K(L_g, L_h) != 0 (must be empty), in
    support order, g before or at h: read off the nonzeros of the Gram
    table K' of the homogeneous basis."""
    basis = grading.homogeneous_basis()
    _, kp = basis.kprime(lie)
    supp, ids, group = basis.support, basis.degree_ids, grading.group
    bad = set()
    for i, row in enumerate(kp):
        gi = ids[i]
        for j in range(i, len(row)):
            pair = (gi, ids[j])
            if row[j] and pair not in bad:
                if not group.is_identity(group.add(supp[gi], supp[pair[1]])):
                    bad.add(pair)
    return [(supp[gi], supp[hi]) for gi, hi in sorted(bad)]


@linalg.acyclic
def signature_bound(grading: GradedDecomposition, lie: LieAlgebra) -> dict:
    """|sign L - dim L_e| <= sum of dims over order-2 nonidentity degrees."""
    sig = lie.killing_inertia().signature
    dim_e = grading.dimension_of(grading.group.identity())
    d = sum(
        len(vecs)
        for g, vecs in grading.components.items()
        if grading.group.order_divides_2(g) and not grading.group.is_identity(g)
    )
    return {
        "sign": sig,
        "dim_e": dim_e,
        "d": d,
        "holds": abs(sig - dim_e) <= d,
    }


@linalg.acyclic
def graded_witt_basis(grading: GradedDecomposition, lie: LieAlgebra) -> dict:
    """Homogeneous basis splitting K into hyperbolic pairs and diagonal pivots.

    Components pair off degree against opposite degree (Killing orthogonality
    guarantees everything else vanishes); degrees with 2g = e are diagonalized
    by exact congruence, keeping the rational pivots and their signs.  Both
    read their blocks from the Gram table K' of the homogeneous basis; the
    certificate recomputes the Gram matrix of the final basis from the sparse
    rows of K, and compares the signature with the carrier's inertia.
    """
    group = grading.group
    basis_p = grading.homogeneous_basis()
    k, kp = basis_p.kprime(lie)
    spans = basis_p.spans

    def block(g, h):
        return [row[spans[h]] for row in kp[spans[g]]]

    pairs = []  # (u_i, v_i)
    zvecs = []  # (z, pivot)
    done = set()
    for g in grading.support:
        if g in done:
            continue
        neg = group.neg(g)
        gv = grading.components[g]
        if neg == g:
            diag, p = linalg.congruence_diagonalize(block(g, g))
            if any(d == 0 for d in diag):
                raise GradingError(f"Killing form degenerate on component {g}")
            zvecs.extend(zip(linalg.mat_mul(linalg.transpose(p), gv), diag))
            done.add(g)
        else:
            if neg not in grading.components:
                raise GradingError(f"component {g} has no pairing partner")
            hv = grading.components[neg]
            if len(gv) != len(hv):
                raise GradingError("paired components have different dimensions")
            ginv = linalg.mat_inverse(block(g, neg))
            pairs.extend(zip(gv, linalg.mat_mul(linalg.transpose(ginv), hv)))
            done.add(g)
            done.add(neg)
    # certificate: the Gram matrix of the full basis, recomputed from K
    basis = []
    for u, v in pairs:
        basis.extend([u, v])
    basis.extend(z for z, _ in zvecs)
    gram = linalg.gram(k, basis, basis)
    nb = len(basis)
    expected = linalg.zeros(nb, nb)
    for t in range(len(pairs)):
        expected[2 * t][2 * t + 1] = QONE
        expected[2 * t + 1][2 * t] = QONE
    for t, (_, piv) in enumerate(zvecs):
        i = 2 * len(pairs) + t
        expected[i][i] = piv
    if gram != expected:
        raise GradingError("Witt basis Gram certificate failed")
    sig = sum(1 if piv > 0 else -1 for _, piv in zvecs)
    if sig != lie.killing_inertia().signature:
        raise GradingError("Witt signature disagrees with inertia")
    return {
        "hyperbolic_pairs": pairs,
        "diagonal": zvecs,
        "signature": sig,
        "gram_ok": True,
    }


# ---------------------------------------------------------------------------
# JSON


def grading_to_json(grading: GradedDecomposition) -> dict:
    comps = []
    for g in grading.support:
        comps.append(
            {
                "degree": list(g),
                "vectors": [[fmt_rational(x) for x in v] for v in grading.components[g]],
            }
        )
    return {
        "group": {
            "free_rank": grading.group.free_rank,
            "torsion": list(grading.group.torsion),
        },
        "components": comps,
    }


def grading_from_json(doc: dict, algebra: StructAlgebra) -> GradedDecomposition:
    group = FinAbGroup(doc["group"]["free_rank"], tuple(doc["group"]["torsion"]))
    comps = {}
    for c in doc["components"]:
        comps[tuple(c["degree"])] = [
            [parse_rational(x) for x in v] for v in c["vectors"]
        ]
    return GradedDecomposition(group=group, algebra=algebra, components=comps)
