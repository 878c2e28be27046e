"""The real Hurwitz algebras: R+R, C, H, Mat2(R), O and split O.

Each algebra carries its norm as a diagonal Gram on the standard basis
(bases are chosen norm-orthogonal), the unit at index 0, the trace t(x) =
2*x_0, and the standard involution x -> t(x)1 - x.  The octonions come from
the quaternions by a Cayley-Dickson double implementing the three l-rules

    q1 (q2 l) = (q2 q1) l,   (q1 l)(q2 l) = -conj(q2) q1,   (q2 l) q1 = (q2 conj(q1)) l,

and the split octonions by the same double applied to Mat2(R).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .algcore import StructAlgebra, algebra_from_products
from .gradings import FinAbGroup, GradedDecomposition

F = Fraction

HURWITZ_NAMES = ("RR", "C", "H", "M2R", "O", "Os")


@dataclass
class CompositionAlgebra:
    alg: StructAlgebra
    norm_diag: list
    unit_idx: int = 0
    _layer: object = dc_field(default=None, repr=False, compare=False)  # tits.ingredient_layer

    @property
    def dim(self):
        return self.alg.dim

    @property
    def labels(self):
        return self.alg.basis_labels

    def norm_polar(self, x, y):
        """n(x,y) = (n(x+y) - n(x) - n(y)) / 2, here diagonal."""
        return sum(d * a * b for d, a, b in zip(self.norm_diag, x, y))

    def trace(self, x):
        return 2 * x[self.unit_idx]

    def conj(self, x):
        out = [-v for v in x]
        out[self.unit_idx] += self.trace(x)
        return out

    def unit(self):
        return self.alg.basis_vector(self.unit_idx)

    def traceless_indices(self):
        return [i for i in range(self.dim) if i != self.unit_idx]


def _quaternion_table():
    # basis 1, i, j, k
    idx = {"1": 0, "i": 1, "j": 2, "k": 3}
    table = {}
    for a in idx:
        table[("1", a)] = (1, a)
        table[(a, "1")] = (1, a)
    for a in "ijk":
        table[(a, a)] = (-1, "1")
    cyc = {("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j"}
    for (a, b), c in cyc.items():
        table[(a, b)] = (1, c)
        table[(b, a)] = (-1, c)
    return idx, table


def _algebra_from_table(labels, table) -> StructAlgebra:
    idx = {lbl: n for n, lbl in enumerate(labels)}

    def product(i, j):
        s, lbl = table[(labels[i], labels[j])]
        out = [F(0)] * len(labels)
        out[idx[lbl]] = F(s)
        return out

    return algebra_from_products(labels, product)


def _split_quaternion_table():
    # Mat2(R) with basis 1=I, u=diag(1,-1), v=offdiag(1,1), w=offdiag(1,-1)
    table = {}
    labels = ["1", "u", "v", "w"]
    for a in labels:
        table[("1", a)] = (1, a)
        table[(a, "1")] = (1, a)
    table[("u", "u")] = (1, "1")
    table[("v", "v")] = (1, "1")
    table[("w", "w")] = (-1, "1")
    table[("u", "v")] = (1, "w")
    table[("v", "u")] = (-1, "w")
    table[("u", "w")] = (1, "v")
    table[("w", "u")] = (-1, "v")
    table[("v", "w")] = (-1, "u")
    table[("w", "v")] = (1, "u")
    return labels, table


def _cayley_dickson(base: CompositionAlgebra) -> CompositionAlgebra:
    """Double with (a,b)(c,d) = (ac - conj(d) b, d a + b conj(c)), n = n + n."""
    n = base.dim
    alg = base.alg
    labels = list(alg.basis_labels) + [
        "l" if lbl == "1" else lbl + "l" for lbl in alg.basis_labels
    ]

    def product(i, j):
        a, ia = (i % n, i < n)
        c, ic = (j % n, j < n)
        ea = alg.basis_vector(a)
        ec = alg.basis_vector(c)
        zero = [F(0)] * n
        if ia and ic:
            first, second = alg.multiply(ea, ec), zero
        elif ia and not ic:
            # a * (d l) = (d a) l
            first, second = zero, alg.multiply(ec, ea)
        elif not ia and ic:
            # (b l) * c = (b conj(c)) l
            first, second = zero, alg.multiply(ea, base.conj(ec))
        else:
            # (b l)(d l) = -conj(d) b
            first = [-x for x in alg.multiply(base.conj(ec), ea)]
            second = zero
        return first + second

    doubled = algebra_from_products(labels, product)
    return CompositionAlgebra(alg=doubled, norm_diag=base.norm_diag * 2)


@lru_cache(maxsize=None)
def hurwitz(name: str) -> CompositionAlgebra:
    """The named real Hurwitz algebra with its standard orthogonal basis."""
    if name == "RR":
        # basis 1=(1,1), s=(1,-1); componentwise product, n((a,b)) = ab
        table = {
            ("1", "1"): (1, "1"),
            ("1", "s"): (1, "s"),
            ("s", "1"): (1, "s"),
            ("s", "s"): (1, "1"),
        }
        alg = _algebra_from_table(["1", "s"], table)
        return CompositionAlgebra(alg=alg, norm_diag=[F(1), F(-1)])
    if name == "C":
        table = {
            ("1", "1"): (1, "1"),
            ("1", "i"): (1, "i"),
            ("i", "1"): (1, "i"),
            ("i", "i"): (-1, "1"),
        }
        alg = _algebra_from_table(["1", "i"], table)
        return CompositionAlgebra(alg=alg, norm_diag=[F(1), F(1)])
    if name == "H":
        idx, table = _quaternion_table()
        alg = _algebra_from_table(["1", "i", "j", "k"], table)
        return CompositionAlgebra(alg=alg, norm_diag=[F(1)] * 4)
    if name == "M2R":
        labels, table = _split_quaternion_table()
        alg = _algebra_from_table(labels, table)
        return CompositionAlgebra(alg=alg, norm_diag=[F(1), F(-1), F(-1), F(1)])
    if name == "O":
        return _cayley_dickson(hurwitz("H"))
    if name == "Os":
        return _cayley_dickson(hurwitz("M2R"))
    raise ValueError(f"unknown Hurwitz algebra {name!r}")


def d_ab(c: CompositionAlgebra, a, b) -> dict:
    """The standard derivation [l_a,l_b] + [l_a,r_b] + [r_a,r_b] of C, as a
    dim x dim matrix flattened row-major to {row * dim + col: x}."""
    mult = (c.alg.left_mult_matrix, c.alg.right_mult_matrix)
    return d_of_mult(*(m(v) for v in (a, b) for m in mult), c.dim)


def d_of_mult(la, ra, lb, rb, n: int) -> dict:
    """d_{a,b} = [la,lb] + [la,rb] + [ra,rb] from the multiplication matrices
    of a and b, sparse n x n, flattened row-major; entries keep their type."""
    out = {}
    for x, y in ((la, lb), (la, rb), (ra, rb)):
        linalg.sp_add_into(out, linalg.sp_bracket(x, y, n), 1)
    return out


OCTONION_DEGREES = {
    "1": (0, 0, 0),
    "i": (1, 0, 0),
    "j": (0, 1, 0),
    "k": (1, 1, 0),
    "l": (0, 0, 1),
    "il": (1, 0, 1),
    "jl": (0, 1, 1),
    "kl": (1, 1, 1),
}


def octonion_z23_grading() -> GradedDecomposition:
    """The Z2^3 grading of O: every basis line is homogeneous."""
    o = hurwitz("O")
    group = FinAbGroup(0, (2, 2, 2))
    comps = {}
    for i, lbl in enumerate(o.labels):
        comps.setdefault(OCTONION_DEGREES[lbl], []).append(o.alg.basis_vector(i))
    return GradedDecomposition(group=group, algebra=o.alg, components=comps)
