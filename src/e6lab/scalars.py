"""Exact scalars: the rationals Q and the Gaussian rationals Q(i).

Every number in this package is one of these two types.  Rationals are
``fractions.Fraction`` (arbitrary precision, always stored reduced).  Gaussian
rationals are a separate type on purpose: mixing Q into Q(i) requires an
explicit lift, which keeps real-form computations provably real.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

Rational = Fraction

QONE = Fraction(1)
QZERO = Fraction(0)


class GaussRational:
    """An element re + i*im of Q(i), with re, im exact rationals."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, GaussRational) or isinstance(im, GaussRational):
            raise TypeError("GaussRational components must be rational")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussRational is immutable")

    # -- arithmetic (Q(i) with Q(i) only; ints are unambiguous and allowed) --

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussRational):
            return other
        if isinstance(other, int):
            return GaussRational(other, 0)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return GaussRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def conjugate(self) -> "GaussRational":
        return GaussRational(self.re, -self.im)

    def inverse(self) -> "GaussRational":
        n = self.re * self.re + self.im * self.im
        if n == 0:
            raise ZeroDivisionError("inverse of 0 in Q(i)")
        return GaussRational(self.re / n, -self.im / n)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return fmt_rational(self.re)
        if not self.re:
            return f"{fmt_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{fmt_rational(self.re)} {sign} {fmt_rational(abs(self.im))}*i"


Scalar = Union[Fraction, GaussRational]

GI_ZERO = GaussRational(0)
GI_ONE = GaussRational(1)
GI_I = GaussRational(0, 1)


def lift(x: Fraction) -> GaussRational:
    """Explicit embedding Q -> Q(i)."""
    return GaussRational(x, 0)


def fmt_rational(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


class Field:
    """Descriptor for one of the two scalar fields used in the package."""

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

    def inv(self, x: Scalar) -> Scalar:
        if self.name == "Q":
            if x == 0:
                raise ZeroDivisionError("inverse of 0 in Q")
            return 1 / x
        return x.inverse()

    def to_json(self, x: Scalar):
        if self.name == "Q":
            return fmt_rational(x)
        return {"re": fmt_rational(x.re), "im": fmt_rational(x.im)}

    def from_json(self, data) -> Scalar:
        if self.name == "Q":
            return parse_rational(data)
        return GaussRational(parse_rational(data["re"]), parse_rational(data["im"]))


QQ = Field("Q", QZERO, QONE)
QI = Field("Qi", GI_ZERO, GI_ONE)

FIELDS = {"Q": QQ, "Qi": QI}
