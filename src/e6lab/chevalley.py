"""The split form of e6 on a Chevalley basis, and its order-2 torus data.

Roots are integer coordinate vectors over the simple roots (Bourbaki E6
numbering: the branch node is alpha_2, attached to alpha_4).  Structure
constants come from a lattice 2-cocycle.  The delivered basis is built through
iterated bracket chains (height-lexicographic), one chain per positive root,
which keeps every partial sum a root.  Each chain bracket is +-1 times a
cocycle basis vector, so the chain basis is the cocycle basis up to signs read
off the chains, and one Jacobi certificate runs on the delivered table.

omega is the involution e_j -> -f_j, f_j -> -e_j (it inverts the Cartan);
together with the 64 order-2 torus elements it produces the Z2^7 grading and
the classification of the real forms inheriting it.  omega is monomial and a
torus element is diagonal, so neither is built as a dense matrix: `omega`
returns its sparse {col: +-1} rows and `torus_element` its +-1 diagonal, the
forms their automorphism checks take.  omega t is then a signed permutation,
and dim fix(omega t) is the number of its cycles whose sign product is +1;
dim fix(t) is the number of +1 entries of the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct

from . import linalg
from .algcore import (
    AlgebraError,
    LieAlgebra,
    StructAlgebra,
    is_diagonal_automorphism,
    is_monomial_automorphism,
    put_antisymmetric,
    signature_from_fix,
)
from .gradings import FinAbGroup, GradedDecomposition

F = Fraction

# Bourbaki E6: chain 1-3-4-5-6, branch 2 attached to 4
_E6_EDGES = ((1, 3), (3, 4), (4, 5), (5, 6), (2, 4))


def cartan_matrix():
    a = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
    for i, j in _E6_EDGES:
        a[i - 1][j - 1] = -1
        a[j - 1][i - 1] = -1
    return a


@dataclass
class RootSystem:
    cartan: list
    positive: list  # integer coordinate tuples, sorted by (height, lex)
    index: dict  # root tuple -> position in positive


@lru_cache(maxsize=None)
def e6_roots() -> RootSystem:
    """All 72 roots generated from the simple ones by root strings."""
    cartan = cartan_matrix()
    simple = [tuple(1 if j == i else 0 for j in range(6)) for i in range(6)]

    def pair(alpha, beta):
        return sum(
            a * cartan[i][j] * b
            for i, a in enumerate(alpha)
            for j, b in enumerate(beta)
        )

    positive = set(simple)
    frontier = list(simple)
    while frontier:
        nxt = []
        for beta in frontier:
            for i, alpha in enumerate(simple):
                if pair(beta, alpha) == -1:
                    new = tuple(b + a for b, a in zip(beta, alpha))
                    if new not in positive:
                        positive.add(new)
                        nxt.append(new)
        frontier = nxt
    ordered = sorted(positive, key=lambda r: (sum(r), r))
    if len(ordered) != 36:
        raise AlgebraError(f"expected 36 positive roots, got {len(ordered)}")
    return RootSystem(
        cartan=cartan,
        positive=ordered,
        index={r: i for i, r in enumerate(ordered)},
    )


def chain_for(root_system: RootSystem, alpha) -> list:
    """Simple-root indices j1..jm with every partial sum a root.

    Chains are chosen height-lexicographically: peel the smallest simple
    index whose removal leaves a positive root, then recurse.
    """
    ht = sum(alpha)
    if ht == 1:
        return [alpha.index(1)]
    for j in range(6):
        if alpha[j] == 0:
            continue
        prev = tuple(c - (1 if i == j else 0) for i, c in enumerate(alpha))
        if all(c >= 0 for c in prev) and prev in root_system.index:
            return chain_for(root_system, prev) + [j]
    raise AlgebraError(f"no chain found for {alpha}")


# ---------------------------------------------------------------------------
# structure constants via the lattice cocycle, then the chain basis


def _epsilon_form():
    """Bilinear Z-form with eps(x, y) = (-1)^{x B y}, asymmetric half of the
    Cartan pairing plus the diagonal."""
    cartan = cartan_matrix()
    b = [[0] * 6 for _ in range(6)]
    for i in range(6):
        b[i][i] = 1
        for j in range(6):
            if i > j:
                b[i][j] = cartan[i][j]
    return b


def _build_cocycle_algebra() -> StructAlgebra:
    """The split form on the cocycle basis: [x_a, x_b] = eps(a, b) x_(a+b)
    and [x_a, x_-a] = eps(a, -a) h_a.  The opposite sign of the second
    bracket fails Jacobi on 1,440 triples."""
    rs = e6_roots()
    cartan = rs.cartan
    bform = _epsilon_form()
    roots = [r for r in rs.positive] + [tuple(-c for c in r) for r in rs.positive]
    ridx = {r: i for i, r in enumerate(roots)}
    nroots = len(roots)
    dim = 6 + nroots

    def eps(x, y) -> int:
        s = sum(
            xi * bform[i][j] * yj
            for i, xi in enumerate(x)
            if xi
            for j, yj in enumerate(y)
            if yj
        )
        return -1 if s % 2 else 1

    sc = {}

    for hj in range(6):
        for r, root in enumerate(roots):
            val = sum(cartan[hj][i] * c for i, c in enumerate(root))
            if val:
                put_antisymmetric(sc, hj, 6 + r, {6 + r: F(val)})
    for r1 in range(nroots):
        a = roots[r1]
        for r2 in range(r1 + 1, nroots):
            b = roots[r2]
            s = tuple(x + y for x, y in zip(a, b))
            if all(c == 0 for c in s):
                coeff = F(eps(a, tuple(-c for c in a)))
                put_antisymmetric(sc, 6 + r1, 6 + r2, {i: coeff * c for i, c in enumerate(a)})
            elif s in ridx:
                put_antisymmetric(sc, 6 + r1, 6 + r2, {6 + ridx[s]: F(eps(a, b))})
    labels = (
        [f"h{j + 1}" for j in range(6)]
        + ["e" + "".join(map(str, r)) for r in rs.positive]
        + ["f" + "".join(map(str, r)) for r in rs.positive]
    )
    return StructAlgebra(dim=dim, basis_labels=labels, sc=sc)


@dataclass
class ChevalleyBasis:
    lie: LieAlgebra
    roots: RootSystem
    chains: list  # chain per positive root
    _inheriting: dict = field(default=None, repr=False, compare=False)
    _torus_generators: list = field(default=None, repr=False, compare=False)

    @property
    def dim(self):
        return 78

    def e_index(self, r: int) -> int:
        return 6 + r

    def f_index(self, r: int) -> int:
        return 6 + 36 + r

    def inheriting_signatures(self) -> dict:
        """`inheriting_signatures` of this basis, computed on the first call
        and kept: every later call returns the same dict."""
        if self._inheriting is None:
            self._inheriting = inheriting_signatures(self)
        return self._inheriting

    def torus_generators(self) -> list:
        """The diagonals of the six torus elements with one sign -1, each
        certified an automorphism on the first call and kept."""
        if self._torus_generators is None:
            gens = []
            for i in range(6):
                diag = [1] * self.dim
                for r, alpha in enumerate(self.roots.positive):
                    if alpha[i] % 2:
                        diag[self.e_index(r)] = diag[self.f_index(r)] = -1
                if not is_diagonal_automorphism(self.lie.alg, diag):
                    raise AlgebraError("torus element is not an automorphism")
                gens.append(diag)
            self._torus_generators = gens
        return self._torus_generators


def _chain_sign(row: dict, k: int) -> int:
    """The sign s with row = s b_k, for row a chain bracket in the cocycle
    basis; AlgebraError unless the bracket is exactly +-1 times b_k."""
    if row.keys() != {k} or row[k] not in (1, -1):
        raise AlgebraError(f"chain bracket {row} is not +-1 times basis vector {k}")
    return int(row[k])


@lru_cache(maxsize=None)
def e6_chevalley() -> ChevalleyBasis:
    """The split form on the iterated-bracket chain basis, Jacobi certified.

    Each chain bracket is +-1 times the cocycle vector of its root, so the
    chain basis is the cocycle basis up to one sign s_i per basis vector,
    read off the chains, and its constants are s_i s_j s_k c[i][j][k]."""
    rs = e6_roots()
    base = _build_cocycle_algebra()
    # [x_a, x_-a] = -h_a for a simple (eps(a,-a) = -1), so seed f_j with the
    # compensating sign to get [e_j, f_j] = +h_j
    f_seed = -1
    chains = [chain_for(rs, alpha) for alpha in rs.positive]
    simple = [rs.index[tuple(int(i == j) for i in range(6))] for j in range(6)]
    signs = [1] * base.dim  # chain basis vector i = signs[i] * cocycle vector i
    for chain in chains:
        root = [int(i == chain[0]) for i in range(6)]
        r = simple[chain[0]]
        se, sf = 1, f_seed
        for j in chain[1:]:
            root[j] += 1
            q = rs.index[tuple(root)]
            se *= _chain_sign(base.mult_basis(6 + simple[j], 6 + r), 6 + q)
            sf *= f_seed * _chain_sign(base.mult_basis(42 + simple[j], 42 + r), 42 + q)
            r = q
        signs[6 + r], signs[42 + r] = se, sf
    sc = {
        (i, j): {k: signs[i] * signs[j] * signs[k] * v for k, v in row.items()}
        for (i, j), row in base.sc.items()
    }
    alg = StructAlgebra(dim=base.dim, basis_labels=base.basis_labels, sc=sc)
    for row in alg.sc.values():
        for v in row.values():
            if v.denominator != 1:
                raise AlgebraError("chain basis has non-integer constants")
    lie = LieAlgebra(alg)
    return ChevalleyBasis(lie=lie, roots=rs, chains=chains)


# ---------------------------------------------------------------------------
# omega and the order-2 torus


def omega(cb: ChevalleyBasis):
    """The automorphism with e_j -> -f_j, f_j -> -e_j; inverts the Cartan.

    Propagating through the chains gives e_a -> (-1)^height f_a.  Returns
    its 78 sparse rows: row i is {j: m[i][j]}, one +-1 int each."""
    n = cb.lie.dim
    perm = list(range(n))
    coef = [-1] * n
    for r, alpha in enumerate(cb.roots.positive):
        sign = (-1) ** sum(alpha)
        ei, fi = cb.e_index(r), cb.f_index(r)
        perm[ei], perm[fi] = fi, ei
        coef[ei] = coef[fi] = sign
    if not is_monomial_automorphism(cb.lie.alg, perm, coef):
        raise AlgebraError("omega is not an automorphism")
    rows = [{} for _ in range(n)]
    for q in range(n):  # column q holds coef[q] at row perm[q]
        rows[perm[q]][q] = coef[q]
    return rows


def torus_element(cb: ChevalleyBasis, signs):
    """Diagonal automorphism: identity on h, s^alpha on the root vectors.

    Returns its diagonal, a list of 78 ints +-1: the entrywise product of
    the certified generator diagonals (`ChevalleyBasis.torus_generators`)
    for the signs -1.  A product of automorphisms is one, so no check runs
    here."""
    if len(signs) != 6 or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be a +-1 vector of length 6")
    diag = [1] * cb.dim
    for s, gen in zip(signs, cb.torus_generators()):
        if s == -1:
            diag = [x * y for x, y in zip(diag, gen)]
    return diag


def fix_dim_monomial(rows, diag) -> int:
    """dim fix(M t) for M given by its sparse rows, one nonzero each, and t
    by its diagonal.

    M t e_j = M[i][j] t_j e_i for the one row i holding column j, so M t
    permutes the basis lines.  On a cycle j_0 -> j_1 -> .. -> j_0 with
    entries c_0, c_1, .., a fixed vector has x_(m+1) = c_m x_m, which closes
    up iff c_0 c_1 .. = 1, and then spans one line.  So the fixed dimension
    is the number of cycles whose entry product is 1, exactly.  Raises
    AlgebraError unless every row holds one entry and no column is held
    twice."""
    n = len(rows)
    nxt, val = [None] * n, [None] * n
    for i, row in enumerate(rows):
        if len(row) != 1:
            raise AlgebraError(f"row {i} holds {len(row)} entries, not one")
        ((j, x),) = row.items()
        if nxt[j] is not None:
            raise AlgebraError(f"column {j} is held by two rows")
        nxt[j], val[j] = i, x * diag[j]
    fixed = 0
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        prod, j = 1, start
        while not seen[j]:
            seen[j] = True
            prod *= val[j]
            j = nxt[j]
        if prod == 1:
            fixed += 1
    return fixed


# ---------------------------------------------------------------------------
# the Z2^7 grading


def gamma13(cb: ChevalleyBasis) -> GradedDecomposition:
    """Simultaneous eigenspaces of omega and the six sign involutions."""
    group = FinAbGroup(0, (2,) * 7)
    comps = {}
    hvecs = [cb.lie.alg.basis_vector(j) for j in range(6)]
    comps[(1, 0, 0, 0, 0, 0, 0)] = hvecs
    for r, alpha in enumerate(cb.roots.positive):
        bits = tuple(c % 2 for c in alpha)
        sign = (-1) ** sum(alpha)
        e = cb.lie.alg.basis_vector(cb.e_index(r))
        f = cb.lie.alg.basis_vector(cb.f_index(r))
        plus = linalg.vec_add(e, linalg.vec_scale(f, F(sign)))
        minus = linalg.vec_sub(e, linalg.vec_scale(f, F(sign)))
        # omega(plus) = +plus, omega(minus) = -minus
        comps.setdefault((0,) + bits, []).append(plus)
        comps.setdefault((1,) + bits, []).append(minus)
    return GradedDecomposition(group=group, algebra=cb.lie.alg, components=comps)


# ---------------------------------------------------------------------------
# which real forms inherit gamma13


def inheriting_signatures(cb: ChevalleyBasis) -> dict:
    """Signatures of the 128 real forms fixed by sigma0 q, q in {t, omega t}.

    q = omega t maps to the inner class of t (signature from dim fix(t));
    q = t maps to the outer class of omega t, whose fixed dimension is
    always 36, hence the split signature 6.
    """
    sigs = []
    rows = []
    attained_fix_t = set()
    om = omega(cb)
    for signs in iproduct((1, -1), repeat=6):
        # dim fix(t) and dim fix(omega t) on one diagonal of t
        diag = torus_element(cb, signs)
        dft = diag.count(1)
        dfot = fix_dim_monomial(om, diag)
        if dfot != 36:
            raise AlgebraError("dim fix(omega t) must be 36")
        sig_omega_t_form = signature_from_fix(78, dft)  # Phi([s0 w t]) = [t]
        sig_t_form = signature_from_fix(78, dfot)  # Phi([s0 t]) = [w t]
        sigs.append(sig_omega_t_form)
        sigs.append(sig_t_form)
        if any(s == -1 for s in signs):
            attained_fix_t.add(dft)
        rows.append(
            {
                "signs": signs,
                "dim_fix_t": dft,
                "dim_fix_omega_t": dfot,
                "signature_via_omega_t": sig_omega_t_form,
                "signature_via_t": sig_t_form,
            }
        )
    return {
        "signatures": sorted(set(sigs)),
        "multiset": sigs,
        "fix_t_values": sorted(attained_fix_t),
        "rows": rows,
        "contains_minus_26": -26 in sigs,
    }


def split_signature(cb: ChevalleyBasis) -> int:
    return cb.lie.killing_inertia().signature
