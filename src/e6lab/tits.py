"""The unified construction T(C, J) = Der(C) + C0 x J0 + Der(J).

The mixed bracket is

    [a x, b y] = t_J(x.y) d_{a,b}  +  [a,b] (x*y)  +  2 t_C(ab) [R_x, R_y],

with Der parts acting componentwise and annihilating each other.  C and J
enter as two ingredients of one shape, each read through its `Layer`: X0 (C0
or J0) with its span solver, the Der(X) action on X0, the Der(X)-valued
pairing (d_{a,b} for C, [R_x, R_y] for J), and the pair tables t(ab) and the
X0-valued product ([a,b] for C, x*y for J).  A layer is built on the first
call of `ingredient_layer` and kept on the C or J object, so the seven
catalog models build seven layers from three C's and four J's; every
coordinate in a layer is read off an int vector by
`SpanSolver.int_coordinates`.  The Der(C)
and Der(J) blocks are copies of `derivation_algebra(C)` and
`derivation_algebra(J)`, tables built once per algebra.  A sign or
convention error anywhere surfaces as a Jacobi failure, so construction
always certifies Jacobi before returning.

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
from itertools import combinations, combinations_with_replacement

from . import linalg
from .algcore import (
    AlgebraError,
    LieAlgebra,
    StructAlgebra,
    derivation_algebra,
    derivation_int_matrices,
    derivation_solver,
    inertia,
    is_diagonal_automorphism,
    killing_matrix,
    put_antisymmetric,
    twist,
)
from .composition import CompositionAlgebra, d_ab, hurwitz
from .jordan import (
    JordanAlgebra,
    h3,
    j0_basis,
    m3r,
    nu_diagonal,
    star,
)

F = Fraction


def _coords(solver: linalg.SpanSolver, vec: dict, scale: int, span: str) -> dict:
    """The nonzero coordinates {i: x} of vec / scale in the basis of solver,
    vec an int {col: x} vector (`SpanSolver.int_coordinates`); AlgebraError
    if vec leaves that span, named span."""
    coords = solver.int_coordinates(vec, scale)
    if coords is None:
        raise AlgebraError(f"a vector leaves {span}")
    return coords


def _c0_product(c: CompositionAlgebra, u, v):
    """[u, v] = uv - vu, the C0-valued product of C."""
    return linalg.vec_sub(c.alg.multiply(u, v), c.alg.multiply(v, u))


@dataclass
class Layer:
    """What the bracket of T(C, J) reads of one ingredient X, X = C or J.

    `vectors` is the X0 basis and `solver` its span solver.  `action[p][i]`
    is the p-th Der(X) basis element (`derivation_int_matrices`) applied to
    X0 basis vector i, in X0 coordinates; `pairing[(a, b)]`, a < b, is the
    Der(X)-valued pairing of X0 basis vectors a and b (d_{a,b} for C,
    [R_x, R_y] for J) in Der(X) coordinates.  `trace` is t as a function of (X, u), and
    `product` the X0-valued product ([u, v] for C, u*v for J) as a function
    of (X, u, v), read by `pair_tables`.  X keeps its layer, and the layer
    holds no reference back to X, which is passed in instead: the two make
    no reference cycle, so X is freed by reference counting.
    """

    name: str
    vectors: list
    solver: linalg.SpanSolver
    action: list
    pairing: dict
    trace: object
    product: object
    _pairs: tuple = None

    def pair_tables(self, x) -> tuple:
        """(form, product) on the X0 basis pairs a <= b of x, the ingredient
        the layer was built on: form[(a, b)] = t(v_a v_b) and product[(a, b)]
        the X0 coordinates of the X0-valued product of v_a and v_b.  Built on
        the first call and kept."""
        if self._pairs is None:
            vs, span = self.vectors, f"{self.name}0"
            form, product = {}, {}
            for a, b in combinations_with_replacement(range(len(vs)), 2):
                u, v = vs[a], vs[b]
                form[(a, b)] = self.trace(x, x.alg.multiply(u, v))
                d, p = linalg.int_scaled(linalg.sparse(self.product(x, u, v)))
                product[(a, b)] = _coords(self.solver, p, d, span)
            self._pairs = (form, product)
        return self._pairs


def ingredient_layer(x: CompositionAlgebra | JordanAlgebra) -> Layer:
    """The layer of C (X0 = C0) or of J (X0 = J0), built on the first call
    and kept on x."""
    if x._layer is not None:
        return x._layer
    if isinstance(x, CompositionAlgebra):
        name, trace, product = "C", CompositionAlgebra.trace, _c0_product
        vs = [x.alg.basis_vector(b) for b in x.traceless_indices()]

        def pairing(a, b):
            d, m = linalg.int_scaled(d_ab(x, vs[a], vs[b]))
            return m, d

    else:
        name, trace, product, vs = "J", JordanAlgebra.t_j, star, j0_basis(x)
        # R_x for x in J0, scaled once to int matrices; [R_x, R_y] comes out
        # scaled by r_den^2
        r_den, rmats = linalg.int_scaled([x.alg.right_mult_matrix(v) for v in vs])

        def pairing(a, b):
            return linalg.sp_bracket(rmats[a], rmats[b], x.dim), r_den * r_den

    solver = linalg.SpanSolver(vs)
    # Der(X) and X0 scaled once to int rows: an image comes out scaled by the
    # product of the two denominators
    der_den, ders = derivation_int_matrices(x.alg)
    x0_den, x0 = linalg.int_scaled([linalg.sparse(v) for v in vs])
    action = [
        [_coords(solver, linalg.sp_matvec(d, v), der_den * x0_den, f"{name}0") for v in x0]
        for d in ders
    ]
    der_solver = derivation_solver(x.alg)
    pairs = {
        (a, b): _coords(der_solver, *pairing(a, b), f"Der({name})")
        for a, b in combinations(range(len(vs)), 2)
    }
    x._layer = Layer(name, vs, solver, action, pairs, trace, product)
    return x._layer


@dataclass
class TitsAlgebra:
    lie: LieAlgebra
    layout: dict  # name -> range
    provenance: dict
    comp: CompositionAlgebra
    jordan: JordanAlgebra
    c0_idx: list  # C basis indices spanning C0
    j0_vectors: list

    @property
    def dim(self):
        return self.lie.dim

    def even_indices(self):
        """Indices of Der(C) + Der(J), the even part of the C0 Z2-split."""
        return list(self.layout["der_c"]) + list(self.layout["der_j"])


@linalg.acyclic
def tits(c: CompositionAlgebra, j: JordanAlgebra, comp_name: str) -> TitsAlgebra:
    """Assemble T(C, J) from the layers of C and J with certified Jacobi;
    comp_name names C in the provenance."""
    lc, lj = ingredient_layer(c), ingredient_layer(j)
    nc, nj = len(lc.vectors), len(lj.vectors)
    ndc, ndj = len(lc.action), len(lj.action)
    dim = ndc + nc * nj + ndj

    rng_dc = range(0, ndc)
    rng_t = range(ndc, ndc + nc * nj)
    rng_dj = range(ndc + nc * nj, dim)

    def tensor_entry(ci, ji):
        return rng_t.start + ci * nj + ji

    sc = {}

    # Der(C) x Der(C), Der(J) x Der(J): the shared tables, at their offsets
    for off, x in ((rng_dc.start, c), (rng_dj.start, j)):
        for (p, q), row in derivation_algebra(x.alg).sc.items():
            sc[(off + p, off + q)] = {off + k: v for k, v in row.items()}

    # Der parts act componentwise on the tensor summand: (i, o) places the
    # X0 index i and the index o of the other ingredient in (ci, ji)
    for off, lay, other, place in (
        (rng_dc.start, lc, nj, lambda i, o: (i, o)),
        (rng_dj.start, lj, nc, lambda i, o: (o, i)),
    ):
        for p, images in enumerate(lay.action):
            for i, img in enumerate(images):
                for o in range(other):
                    put_antisymmetric(
                        sc,
                        off + p,
                        tensor_entry(*place(i, o)),
                        {tensor_entry(*place(i2, o)): v for i2, v in img.items()},
                    )

    # tensor x tensor per the three-term bracket; only the pairs a != b read
    # t_J and the star product, so the J pair tables are built for dim C0 > 1
    trace_c0, lie_c0 = lc.pair_tables(c)
    tj_tab, star_tab = lj.pair_tables(j) if nc > 1 else (None, None)
    # the pairs i1 < i2 in order; the three terms land in disjoint index
    # ranges, and put_antisymmetric drops their zero entries
    for i1, i2 in combinations(rng_t, 2):
        (a, x), (b, y) = divmod(i1 - rng_t.start, nj), divmod(i2 - rng_t.start, nj)
        xs, ys = (x, y) if x <= y else (y, x)
        row = {}
        if a != b:
            tj, st = tj_tab[(xs, ys)], star_tab[(xs, ys)]
            row.update({k: tj * v for k, v in lc.pairing[(a, b)].items()})
            for ci2, cv in lie_c0[(a, b)].items():
                row.update({tensor_entry(ci2, ji2): cv * jv for ji2, jv in st.items()})
        tc = trace_c0[(a, b)]
        if tc and x != y:
            tc2 = 2 * tc if x < y else -2 * tc
            row.update({rng_dj.start + k: tc2 * v for k, v in lj.pairing[(xs, ys)].items()})
        put_antisymmetric(sc, i1, i2, row)

    c0 = c.traceless_indices()
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
        c0_idx=c0,
        j0_vectors=lj.vectors,
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

    def trace_gram(x):
        # tr(d d') on Der(X), read off the int matrices D*d, D*d'
        den, mats = derivation_int_matrices(x.alg)
        return [[F(linalg.sp_trace_product(a, b) or 0, den * den) for b in mats] for a in mats]

    # Der(O): k(d, d') = 12 tr(d d')
    c_der_c = _ratio_constant(k, list(t.layout["der_c"]), trace_gram(t.comp))
    # Der(M): k(D, D') = 8 tr(D D')
    c_der_j = _ratio_constant(k, list(t.layout["der_j"]), trace_gram(t.jordan))
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
