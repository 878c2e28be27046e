"""The unified construction T(C, J) = Der(C) + C0 x J0 + Der(J).

The mixed bracket is

    [a x, b y] = t_J(x.y) d_{a,b}  +  [a,b] (x*y)  +  2 t_C(ab) [R_x, R_y],

with Der parts acting componentwise and annihilating each other.  The
Der(C) and Der(J) blocks are copies of `derivation_algebra(C)` and
`derivation_algebra(J)`, tables built once per algebra.  A sign or
convention error anywhere surfaces as a Jacobi failure, so construction always
certifies Jacobi before returning.

Also here: the Der(J) + J0 model, a view of T(R+R, J) with its odd x odd
bracket rescaled; the signature table over the 2-dimensional composition
algebras; the proportionality constants of the Killing form on T(O, M3R); and
the 36-dimensional fixed part of the twisted Albert involution (the
quaternionic symplectic subalgebra).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .algcore import (
    AlgebraError,
    LieAlgebra,
    StructAlgebra,
    derivation_algebra,
    derivation_int_matrices,
    derivation_solver,
    derivations,
    inertia,
    is_diagonal_automorphism,
    killing_matrix,
    put_antisymmetric,
    twist,
)
from .composition import CompositionAlgebra, hurwitz
from .jordan import (
    JordanAlgebra,
    h3,
    j0_basis,
    m3r,
    nu_diagonal,
    star,
)

F = Fraction


@dataclass
class TitsAlgebra:
    lie: LieAlgebra
    layout: dict  # name -> range
    provenance: dict
    comp: CompositionAlgebra
    jordan: JordanAlgebra
    der_c_basis: list
    der_j_basis: list
    c0_idx: list  # C basis indices spanning C0
    j0_vectors: list

    @property
    def dim(self):
        return self.lie.dim

    def even_indices(self):
        """Indices of Der(C) + Der(J), the even part of the C0 Z2-split."""
        return list(self.layout["der_c"]) + list(self.layout["der_j"])


def tits(c: CompositionAlgebra, j: JordanAlgebra, comp_name: str) -> TitsAlgebra:
    """Assemble T(C, J) with certified Jacobi; comp_name names C in the
    provenance."""
    der_c = derivations(c.alg)
    der_j = derivations(j.alg)
    c0 = c.traceless_indices()
    j0 = j0_basis(j)
    nc, nj = len(c0), len(j0)
    ndc, ndj = len(der_c), len(der_j)
    dim = ndc + nc * nj + ndj

    rng_dc = range(0, ndc)
    rng_t = range(ndc, ndc + nc * nj)
    rng_dj = range(ndc + nc * nj, dim)

    dc_expand = derivation_solver(c.alg)
    dj_expand = derivation_solver(j.alg)
    j0_expand = linalg.SpanSolver(j0)

    def expand_der_c(flat):
        coeffs = dc_expand.coefficients(flat)
        if coeffs is None:
            raise AlgebraError("derivation of C outside Der(C) span")
        return {i: v for i, v in enumerate(coeffs) if v}

    def expand_der_j(flat, scale):
        coeffs = dj_expand.coefficients(flat, scale)
        if coeffs is None:
            raise AlgebraError("derivation of J outside Der(J) span")
        return {rng_dj.start + i: v for i, v in enumerate(coeffs) if v}

    def expand_c0(vec):
        if vec[c.unit_idx] != 0:
            raise AlgebraError("C0 element has a unit component")
        return {ci: vec[b] for ci, b in enumerate(c0) if vec[b]}

    def expand_j0(vec):
        coeffs = j0_expand.coefficients(vec)
        if coeffs is None:
            raise AlgebraError("element outside J0")
        return {i: v for i, v in enumerate(coeffs) if v}

    def tensor_entry(ci, ji):
        return rng_t.start + ci * nj + ji

    sc = {}

    # Der(C) x Der(C), Der(J) x Der(J): the shared tables, at their offsets
    for off, der_alg in (
        (rng_dc.start, derivation_algebra(c.alg)),
        (rng_dj.start, derivation_algebra(j.alg)),
    ):
        for (p, q), row in der_alg.sc.items():
            sc[(off + p, off + q)] = {off + k: v for k, v in row.items()}

    # Der parts act componentwise on the tensor summand
    for p in range(ndc):
        dmat = der_c[p]
        for ci, b in enumerate(c0):
            img = expand_c0([row[b] for row in dmat])
            for ji in range(nj):
                put_antisymmetric(
                    sc,
                    p,
                    tensor_entry(ci, ji),
                    {tensor_entry(ci2, ji): v for ci2, v in img.items()},
                )
    # Der(J) and J0 scaled once to int rows: an image comes out scaled by
    # the product of the two denominators
    dj_den, der_j_int = derivation_int_matrices(j.alg)
    j0_den, j0_int = linalg.int_scaled([linalg.sparse(vec) for vec in j0])
    for p in range(ndj):
        dsp = der_j_int[p]
        for ji in range(nj):
            imgvec = linalg.sp_matvec(dsp, j0_int[ji])
            coeffs = j0_expand.coefficients(imgvec, dj_den * j0_den)
            if coeffs is None:
                raise AlgebraError("derivation image outside J0")
            for ci in range(nc):
                put_antisymmetric(
                    sc,
                    rng_dj.start + p,
                    tensor_entry(ci, ji),
                    {tensor_entry(ci, ji2): v for ji2, v in enumerate(coeffs) if v},
                )

    # tensor x tensor per the three-term bracket
    from .composition import d_ab

    cvecs = [c.alg.basis_vector(b) for b in c0]
    dab_tab = {}
    lie_c0 = {}
    trace_c0 = {}
    for a in range(nc):
        for b in range(nc):
            prod = c.alg.multiply(cvecs[a], cvecs[b])
            trace_c0[(a, b)] = c.trace(prod)
            if a < b:
                dab_tab[(a, b)] = expand_der_c(d_ab(c, cvecs[a], cvecs[b]))
                rev = c.alg.multiply(cvecs[b], cvecs[a])
                lie_c0[(a, b)] = expand_c0(linalg.vec_sub(prod, rev))
    star_tab = {}
    tj_tab = {}
    inner_tab = {}
    # R_x for x in J0, scaled once to int matrices; [R_x, R_y] comes out
    # scaled by r_den^2
    r_den, rmats = linalg.int_scaled([j.alg.right_mult_matrix(v) for v in j0])
    for x in range(nj):
        for y in range(x, nj):
            if nc > 1:  # only the pairs a != b read t_J and the star product
                tj_tab[(x, y)] = j.t_j(j.mult(j0[x], j0[y]))
                star_tab[(x, y)] = expand_j0(star(j, j0[x], j0[y]))
            if x < y:
                inner_tab[(x, y)] = expand_der_j(
                    linalg.sp_bracket(rmats[x], rmats[y], j.dim), r_den * r_den
                )

    for a in range(nc):
        for x in range(nj):
            i1 = tensor_entry(a, x)
            for b in range(a, nc):
                for y in range(nj):
                    i2 = tensor_entry(b, y)
                    if i2 <= i1:
                        continue
                    row = {}
                    xs, ys = (x, y) if x <= y else (y, x)
                    if a != b:
                        tj = tj_tab[(xs, ys)]
                        if tj:
                            for k, v in dab_tab[(a, b)].items():
                                row[k] = row.get(k, F(0)) + tj * v
                        lie_ab = lie_c0[(a, b)]
                        st = star_tab[(xs, ys)]
                        for ci2, cv in lie_ab.items():
                            for ji2, jv in st.items():
                                k = tensor_entry(ci2, ji2)
                                row[k] = row.get(k, F(0)) + cv * jv
                    tc = trace_c0[(a, b)]
                    if tc and x != y:
                        xx, yy = (x, y) if x < y else (y, x)
                        sgn = 1 if x < y else -1
                        for k, v in inner_tab[(xx, yy)].items():
                            row[k] = row.get(k, F(0)) + 2 * sgn * tc * v
                    put_antisymmetric(sc, i1, i2, row)

    labels = (
        [f"dC{p}" for p in range(ndc)]
        + [f"t[{c.labels[c0[a]]};{x}]" for a in range(nc) for x in range(nj)]
        + [f"dJ{p}" for p in range(ndj)]
    )
    alg = StructAlgebra(dim=dim, basis_labels=labels, sc=sc)
    lie = LieAlgebra(alg)  # certifies Jacobi; a convention bug fails loudly here
    return TitsAlgebra(
        lie=lie,
        layout={"der_c": rng_dc, "tensor": rng_t, "der_j": rng_dj},
        provenance={
            "construction": "tits",
            "C": comp_name,
            "J": j.kind if j.kind == "m3r" else f"h3({j.comp_name},{list(j.gamma)})",
        },
        comp=c,
        jordan=j,
        der_c_basis=der_c,
        der_j_basis=der_j,
        c0_idx=c0,
        j0_vectors=j0,
    )


# ---------------------------------------------------------------------------
# the Der(J) + J0 model: T(R+R, J) with its odd x odd bracket rescaled


def derj_j0_model(jname: str) -> TitsAlgebra:
    """Der(J) + J0 with [x, y] = [R_x, R_y]; Z2-graded with even part Der(J).

    A view of T(R+R, J): there t_C(s s) = 2, so [s x, s y] = 4 [R_x, R_y],
    and the odd x odd bracket is scaled by 1/4.  That positive rescale of the
    odd part keeps the Killing signature.  The tensor slot holds J0 itself,
    labelled x0, x1, ...
    """
    t = tits_model("RR", jname)
    lie = twist(t.lie, t.even_indices(), F(1, 4))
    nj = len(t.j0_vectors)
    lie.alg.basis_labels[:nj] = [f"x{i}" for i in range(nj)]  # twist's own copy
    return replace(t, lie=lie, provenance={**t.provenance, "construction": "derj+j0"})


# ---------------------------------------------------------------------------
# signature table for the 2-dimensional composition algebras


JORDAN_INGREDIENTS = {
    "albert": ("O", (1, 1, 1)),
    "albert-split": ("O", (1, -1, 1)),
    "splitalbert": ("Os", (1, 1, 1)),
}


def jordan_ingredient(jname: str) -> JordanAlgebra:
    if jname == "m3r":
        return m3r()
    o, gamma = JORDAN_INGREDIENTS[jname]
    return h3(o, gamma)


@lru_cache(maxsize=None)
def tits_model(cname: str, jname: str) -> TitsAlgebra:
    return tits(hurwitz(cname), jordan_ingredient(jname), comp_name=cname)


@lru_cache(maxsize=None)
def derj_model(jname: str) -> TitsAlgebra:
    return derj_j0_model(jname)


def jacobson_table() -> dict:
    """Exact Killing signatures of T(C, J) for C in {C, R+R} and the three
    octonion Jordan ingredients."""
    out = {}
    for cname in ("C", "RR"):
        for jname in JORDAN_INGREDIENTS:
            t = tits_model(cname, jname)
            sig = t.lie.killing_inertia().signature
            out[(cname, jname)] = sig
    return out


# ---------------------------------------------------------------------------
# Killing proportionality constants on T(O, M3R)


def _submatrix(k, idx):
    return [[k[i][j] for j in idx] for i in idx]


def _ratio_constant(kmat, idx, other):
    """k[idx x idx] = const * other, verified entrywise; returns const."""
    const = None
    for a in range(len(idx)):
        for b in range(len(idx)):
            lhs = kmat[idx[a]][idx[b]]
            rhs = other[a][b]
            if rhs == 0:
                if lhs != 0:
                    raise AlgebraError("forms are not proportional")
                continue
            r = lhs / rhs
            if const is None:
                const = r
            elif const != r:
                raise AlgebraError("ratio is not constant")
    return const


def _tensor_form(t: TitsAlgebra):
    """n(a, b) t_J(x.y) on the tensor summand C0 x J0, in its basis order: the
    Kronecker product of the n table on C0 and the t_J(x.y) table on J0."""
    c = t.comp
    j = t.jordan
    cvecs = [c.alg.basis_vector(b) for b in t.c0_idx]
    n_tab = [[c.norm_polar(u, v) for v in cvecs] for u in cvecs]
    t_tab = [[j.t_j(j.mult(x, y)) for y in t.j0_vectors] for x in t.j0_vectors]
    return [[nv * tv for nv in nrow for tv in trow] for nrow in n_tab for trow in t_tab]


def proportionality_constants() -> dict:
    """The four exact constants tying the Killing form of T(O, M3R) and the
    quaternionic subalgebra to the natural forms of the ingredients."""
    t = tits_model("O", "m3r")
    k = t.lie.killing_matrix()

    def trace_gram(mats):
        sp = [linalg.dense_to_sparse(a) for a in mats]
        return [[linalg.sp_trace_product(a, b) or F(0) for b in sp] for a in sp]

    # Der(O): k(d, d') = 12 tr(d d')
    c_der_c = _ratio_constant(k, list(t.layout["der_c"]), trace_gram(t.der_c_basis))
    # Der(M): k(D, D') = 8 tr(D D')
    c_der_j = _ratio_constant(k, list(t.layout["der_j"]), trace_gram(t.der_j_basis))
    # tensor part: k(a x, b y) = alpha n(a,b) t_M(x.y)
    alpha = _ratio_constant(k, list(t.layout["tensor"]), _tensor_form(t))
    # delta: K restricted to the 36-dim even part of the Albert nu-twist
    # against that subalgebra's own Killing form
    dec = sp31_decomposition()
    delta = dec["delta"]
    return {
        "c_der_C": c_der_c,
        "c_der_J": c_der_j,
        "alpha": alpha,
        "delta": delta,
    }


# ---------------------------------------------------------------------------
# the sp(3,1) decomposition of the Albert model


def _lifted_sign(factors) -> int:
    """s when each +-1 factor a diagonal map puts on a nonzero entry of one
    vector is s, so that the map takes the vector to s times itself;
    AlgebraError otherwise."""
    found = set(factors)
    if len(found) != 1:
        raise AlgebraError("the lift of nu does not map a basis vector to +- itself")
    return found.pop()


@lru_cache(maxsize=None)
def sp31_decomposition() -> dict:
    """Even part of the theta*nu involution on Der(J) + J0, J the Albert
    algebra: dimension 36, theta-and-nu fixed dimension 24, Killing
    signature -12, Killing ratio delta against its own Killing form.

    nu is a +-1 diagonal on J (`nu_diagonal`), so it lifts entrywise: x ->
    nu(x) on J0 and D -> nu D nu^{-1} on Der(J), whose (p, q) entry is
    nu_p nu_q D[p][q].  Each basis vector of J0 and of Der(J) must go to +-
    itself, so theta*nu (theta = +1 on Der(J), -1 on J0) is a +-1 diagonal
    on the model's basis too, certified by `is_diagonal_automorphism`.  Its
    even part is spanned by the basis vectors of sign +1: the Gram matrix is
    K on those indices and the subalgebra's table is `sc` on them.
    """
    j = h3("O", (1, 1, 1))
    t = derj_model("albert")
    lie = t.lie
    dim = lie.dim
    nu = nu_diagonal()
    if not is_diagonal_automorphism(j.alg, nu):
        raise AlgebraError("nu is not an automorphism of the Albert algebra")
    nu_j0 = [_lifted_sign(nu[k] for k in linalg.sparse(x)) for x in t.j0_vectors]
    nu_der = [
        _lifted_sign(nu[p] * nu[q] for p, row in d.items() for q in row)
        for d in derivation_int_matrices(t.jordan.alg)[1]
    ]
    theta_nu = [0] * dim
    for i, s in zip(t.layout["tensor"], nu_j0):
        theta_nu[i] = -s
    for i, s in zip(t.layout["der_j"], nu_der):
        theta_nu[i] = s
    if not is_diagonal_automorphism(lie.alg, theta_nu):
        raise AlgebraError("theta*nu is not an automorphism")
    even = [i for i in range(dim) if theta_nu[i] == 1]
    even_dim = len(even)
    pos = {i: a for a, i in enumerate(even)}
    gram = _submatrix(lie.killing_matrix(), even)
    even_sig = inertia(gram).signature
    # the even part as its own Lie algebra, for delta
    sub_sc = {}
    for (a, b), row in lie.alg.sc.items():
        if a in pos and b in pos:
            if not row.keys() <= pos.keys():
                raise AlgebraError("the even part is not closed under the bracket")
            sub_sc[(pos[a], pos[b])] = {pos[k]: v for k, v in row.items()}
    # a subalgebra of a Lie algebra, closed as checked above
    sub = LieAlgebra._of_lie_table(
        StructAlgebra(
            dim=even_dim,
            basis_labels=[f"s{i}" for i in range(even_dim)],
            sc=sub_sc,
        )
    )
    k0 = killing_matrix(sub)
    delta = _ratio_constant(gram, list(range(even_dim)), k0)
    return {
        "even_dim": even_dim,
        "odd_dim": dim - even_dim,
        "fix_theta_and_nu_dim": nu_der.count(1),
        "even_signature": even_sig,
        "delta": delta,
        "model": t,
        "even_basis": [lie.alg.basis_vector(i) for i in even],
    }


def twist_signature_identity() -> dict:
    """sign(L) + sign(L^{-1}) = 2 sign(K|even) on Der(J) + J0, J Albert."""
    t = derj_model("albert")
    lie = t.lie
    k = lie.killing_matrix()
    sig = lie.killing_inertia().signature
    tw = twist(lie, set(t.even_indices()), F(-1))
    sig_tw = inertia(killing_matrix(tw)).signature
    even_idx = t.even_indices()
    even_sig = inertia(_submatrix(k, even_idx)).signature
    return {
        "sign": sig,
        "sign_twisted": sig_tw,
        "sign_even": even_sig,
        "identity_holds": sig + sig_tw == 2 * even_sig,
    }
