"""Exact scalars: the rationals Q.

Every number in this package is a rational, a ``fractions.Fraction``
(arbitrary precision, always stored reduced) or an int where a routine keeps
integer entries.  Complex quantities, such as the entries 0, +-1, +-i of the
symplectic frame in ``e6sp8``, are held as pairs of rationals.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

QONE = Fraction(1)
QZERO = Fraction(0)


def fmt_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


class Field:
    """Descriptor of the scalar field: its name, zero and one."""

    __slots__ = ("name", "zero", "one")

    def __init__(self, name, zero, one):
        self.name = name
        self.zero = zero
        self.one = one

    def __repr__(self):
        return f"Field({self.name})"

    def __eq__(self, other):
        return isinstance(other, Field) and self.name == other.name

    def __hash__(self):
        return hash(self.name)

    def inv(self, x: Fraction) -> Fraction:
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return QONE / x  # a Fraction for an int x too, where 1 / x is a float

    def to_json(self, x: Fraction):
        return fmt_rational(x)

    def from_json(self, data) -> Fraction:
        return parse_rational(data)


QQ = Field("Q", QZERO, QONE)

FIELDS = {"Q": QQ}
