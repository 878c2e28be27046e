"""Gradings of algebras by finitely generated abelian groups.

A GradedDecomposition attaches to a StructAlgebra a degree map from group
elements to component bases (coordinate vectors).  Verification is exhaustive:
the components must sum directly to the whole algebra and every product of
homogeneous basis vectors must land in the component of the degree sum.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .algcore import LieAlgebra, StructAlgebra, derivation_algebra, derivations, inertia
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
    _solvers: dict = dc_field(default=None, repr=False, compare=False)

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

    def degree_of(self, vec):
        """Degree of a homogeneous vector, or None if not homogeneous."""
        for g, s in self._component_solvers().items():
            if s.contains(vec):
                return g
        return None

    def _component_solvers(self):
        if self._solvers is None:
            self._solvers = {
                g: linalg.SpanSolver(vecs)
                for g, vecs in self.components.items()
            }
        return self._solvers


@dataclass
class GradingReport:
    direct_sum_ok: bool
    closure_ok: bool
    violations: list

    @property
    def valid(self) -> bool:
        return self.direct_sum_ok and self.closure_ok


def verify(grading: GradedDecomposition) -> GradingReport:
    """Exhaustive check of direct sum and closure A_g A_h <= A_{g+h}."""
    alg = grading.algebra
    stacked = [v for vecs in grading.components.values() for v in vecs]
    total = len(stacked)
    direct_sum_ok = total == alg.dim and linalg.rank(stacked) == alg.dim
    violations = []
    solvers = grading._component_solvers()
    # products x*y run on the int table D*c and the int-scaled rows; membership
    # in a span does not depend on the scale
    _, table = alg.int_tensor()
    if table is None:
        _, table = linalg.int_scaled(alg.sc)
    rows = {
        h: [linalg.int_scaled(linalg.sparse(y))[1] for y in hv]
        for h, hv in grading.components.items()
    }
    for g, gv in rows.items():
        for h, hv in rows.items():
            target = grading.group.add(g, h)
            tsolver = solvers.get(target)
            for x in gv:
                for y in hv:
                    p = {}
                    for a, xa in x.items():
                        for b, yb in y.items():
                            row = table.get((a, b))
                            if row:
                                c = xa * yb
                                for k, v in row.items():
                                    p[k] = p.get(k, 0) + c * v
                    if any(p.values()) and (tsolver is None or not tsolver.contains(p)):
                        violations.append((g, h, target))
    return GradingReport(direct_sum_ok, not violations, violations)


def type_vector(grading: GradedDecomposition) -> tuple:
    """(h_1, ..., h_r): h_i = number of components of dimension i."""
    dims = [len(v) for v in grading.components.values()]
    if not dims:
        return ()
    out = [0] * max(dims)
    for d in dims:
        out[d - 1] += 1
    return tuple(out)


def type_vector_sum(grading: GradedDecomposition) -> int:
    return sum((i + 1) * h for i, h in enumerate(type_vector(grading)))


# ---------------------------------------------------------------------------
# induced grading on Der(A)


def induced_on_der(grading: GradedDecomposition) -> GradedDecomposition:
    """Grading on Der(A) induced by a grading on A (over Q).

    Der(A)_g = {d : d(A_h) <= A_{g+h} for all h}; solved degree by degree
    inside the span of `derivations(A)`.  The pieces must exhaust Der(A); the
    returned components are coefficient vectors with respect to that basis,
    attached to `derivation_algebra(A)`.
    """
    alg = grading.algebra
    der_basis = derivations(alg)
    m = len(der_basis)
    supp = grading.support
    # d(A_h) lives in sum over supp of components; candidates g = h' - h
    candidates = sorted(
        {grading.group.add(h2, grading.group.neg(h1)) for h1 in supp for h2 in supp}
    )
    # decompose every derivation image once over the whole grading
    der_sparse = [linalg.dense_to_sparse(d) for d in der_basis]
    stacked = []
    positions = []  # (degree, index inside component) per stacked row
    for h in supp:
        for r, v in enumerate(grading.components[h]):
            stacked.append(v)
            positions.append((h, r))
    full_solver = linalg.SpanSolver(stacked)
    slices = {}  # (h, vi) -> {target: [per-der {r: coeff}] }
    for h in supp:
        for vi, v in enumerate(grading.components[h]):
            vsp = linalg.sparse(v)
            per_target = {}
            for t, dsp in enumerate(der_sparse):
                coeffs = full_solver.coefficients(linalg.sp_matvec(dsp, vsp))
                if coeffs is None:
                    raise GradingError("derivation image outside the algebra")
                for pos, co in enumerate(coeffs):
                    if co:
                        tgt, r = positions[pos]
                        per_target.setdefault(tgt, {}).setdefault(t, {})[r] = co
            slices[(h, vi)] = per_target
    comps = {}
    total = 0
    for g in candidates:
        acc = linalg.IntKernelAccumulator(m)
        alive = True
        for (h, vi), per_target in slices.items():
            if not alive:
                break
            allowed = grading.group.add(g, h)
            for target, per_der in per_target.items():
                if target == allowed:
                    continue
                rs = {r for d in per_der.values() for r in d}
                for r in rs:
                    row = {
                        t: d[r] for t, d in per_der.items() if r in d
                    }
                    if not row:
                        continue
                    acc.add_constraint(row)
                    if acc.dimension == 0:
                        alive = False
                        break
                if not alive:
                    break
        combos = acc.kernel_basis() if alive else []
        if not combos:
            continue
        comps[g] = combos
        total += len(combos)
    if total != m:
        raise GradingError(
            f"induced derivation pieces sum to {total}, expected {m}"
        )
    return GradedDecomposition(
        group=grading.group, algebra=derivation_algebra(alg), components=comps
    )


# ---------------------------------------------------------------------------
# combinations


def combine(grading_c: GradedDecomposition, grading_j: GradedDecomposition, t) -> GradedDecomposition:
    """Mix a C-grading and a J-grading into a grading of T(C, J).

    Uniform rule: L_(g,h) = Der(C)_g [h=e]  +  Der(J)_h [g=e]  +
    (C0)_g x (J0)_h, with the induced gradings on the derivation summands.
    """
    c, j = t.comp, t.jordan
    if grading_c.algebra.sc != c.alg.sc or grading_j.algebra.sc != j.alg.sc:
        # the induced pieces are read in the model's Der(C), Der(J) bases
        raise GradingError("gradings do not live on the model's C and J")
    gc, gj = grading_c.group, grading_j.group
    lie = t.lie
    nj0 = len(t.j0_vectors)
    indc = induced_on_der(grading_c) if t.der_c_basis else None
    indj = induced_on_der(grading_j)
    # traceless parts of the graded components, in C0 / J0 coordinates
    j0_expand = linalg.SpanSolver(t.j0_vectors)
    c0g = {}
    for g, vecs in grading_c.components.items():
        tv = [c.trace(v) for v in vecs]
        combos = linalg.kernel([tv], len(vecs))
        out = []
        for combo in combos:
            v = linalg.lin_comb(combo, vecs)
            if v[c.unit_idx] != 0:
                raise GradingError("traceless C component touches the unit")
            out.append([v[b] for b in t.c0_idx])
        if out:
            c0g[g] = out
    j0h = {}
    for h, vecs in grading_j.components.items():
        tv = [j.t_j(v) for v in vecs]
        combos = linalg.kernel([tv], len(vecs))
        out = []
        for combo in combos:
            v = linalg.lin_comb(combo, vecs)
            coeffs = j0_expand.coefficients(v)
            if coeffs is None:
                raise GradingError("traceless J component outside J0")
            out.append(coeffs)
        if out:
            j0h[h] = out
    ec, ej = gc.identity(), gj.identity()
    dc_off = t.layout["der_c"].start
    dj_off = t.layout["der_j"].start
    tn_off = t.layout["tensor"].start
    comps = {}

    def bucket(g, h):
        key = gc.combine_elements(gj, g, h)
        return comps.setdefault(key, [])

    if indc is not None:
        for g, vecs in indc.components.items():
            dst = bucket(g, ej)
            for coeffs in vecs:
                v = [QZERO] * lie.dim
                for i2, co in enumerate(coeffs):
                    v[dc_off + i2] = co
                dst.append(v)
    for h, vecs in indj.components.items():
        dst = bucket(ec, h)
        for coeffs in vecs:
            v = [QZERO] * lie.dim
            for i2, co in enumerate(coeffs):
                v[dj_off + i2] = co
            dst.append(v)
    for g, avecs in c0g.items():
        for h, xvecs in j0h.items():
            dst = bucket(g, h)
            for a in avecs:
                for x in xvecs:
                    v = [QZERO] * lie.dim
                    for ci2, av in enumerate(a):
                        if av:
                            for ji2, xv in enumerate(x):
                                if xv:
                                    v[tn_off + ci2 * nj0 + ji2] = av * xv
                    dst.append(v)
    group = gc.product(gj)
    return GradedDecomposition(group=group, algebra=lie.alg, components=comps)


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


def coarsen(grading: GradedDecomposition, hom, target_group: FinAbGroup) -> GradedDecomposition:
    """Push a grading through a group homomorphism given as element map."""
    comps = {}
    for g, vecs in grading.components.items():
        t = target_group.reduce(hom(g))
        comps.setdefault(t, []).extend(list(v) for v in vecs)
    return GradedDecomposition(group=target_group, algebra=grading.algebra, components=comps)


# ---------------------------------------------------------------------------
# Killing-form tools on graded real Lie algebras


def _homogeneous_gram(grading: GradedDecomposition, lie: LieAlgebra):
    """K' = P K P^T on the homogeneous rows P stacked in support order, and
    the slice of rows each degree occupies in it."""
    spans = {}
    rows = []
    for g in grading.support:
        spans[g] = slice(len(rows), len(rows) + len(grading.components[g]))
        rows.extend(grading.components[g])
    return linalg.gram(lie.killing_matrix(), rows, rows), spans


def killing_orthogonality_violations(grading: GradedDecomposition, lie: LieAlgebra):
    """Pairs (g,h) with g+h != e but K(L_g, L_h) != 0 (must be empty)."""
    kp, spans = _homogeneous_gram(grading, lie)
    supp = grading.support
    return [
        (g, h)
        for gi, g in enumerate(supp)
        for h in supp[gi:]
        if not grading.group.is_identity(grading.group.add(g, h))
        and any(x for row in kp[spans[g]] for x in row[spans[h]])
    ]


def signature_bound(grading: GradedDecomposition, lie: LieAlgebra) -> dict:
    """|sign L - dim L_e| <= sum of dims over order-2 nonidentity degrees."""
    sig = inertia(lie.killing_matrix()).signature
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


def graded_witt_basis(grading: GradedDecomposition, lie: LieAlgebra) -> dict:
    """Homogeneous basis splitting K into hyperbolic pairs and diagonal pivots.

    Components pair off degree against opposite degree (Killing orthogonality
    guarantees everything else vanishes); degrees with 2g = e are diagonalized
    by exact congruence, keeping the rational pivots and their signs.  Both
    read their blocks from the Gram table K' of the homogeneous basis; the
    certificate recomputes the Gram matrix of the final basis from K.
    """
    k = lie.killing_matrix()
    group = grading.group
    kp, spans = _homogeneous_gram(grading, lie)

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
    if sig != inertia(k).signature:
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
