"""Exact scalars: the rationals Q.

Every number in this package is a rational, a ``fractions.Fraction``
(arbitrary precision, always stored reduced) or an int where a routine keeps
integer entries.  Complex quantities, such as the entries 0, +-1, +-i of the
symplectic frame in ``e6sp8``, are held as pairs of rationals.  Q is the only
field, so no routine takes a field argument: its zero and one are the
Fractions ``QZERO`` and ``QONE``, and ``QQ`` is the tag "Q" that algebra
documents carry.
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


QQ = "Q"  # the field tag of algebra documents
