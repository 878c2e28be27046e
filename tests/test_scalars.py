from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from e6lab.scalars import fmt_rational, parse_rational

rationals = st.builds(
    Fraction,
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=24),
)


def test_exact_addition():
    assert Fraction(1, 2) + Fraction(1, 3) == Fraction(5, 6)


@given(rationals, rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_order_compatible_with_addition(a, b, c):
    if a < b:
        assert a + c < b + c


@given(rationals)
@settings(max_examples=100, deadline=None)
def test_rational_serialization_roundtrip(a):
    assert parse_rational(fmt_rational(a)) == a


def test_serialization_formats():
    assert fmt_rational(Fraction(3)) == "3"
    assert fmt_rational(Fraction(-3, 7)) == "-3/7"
    assert fmt_rational(Fraction(5, 3)) == "5/3"
    assert parse_rational("-3/7") == Fraction(-3, 7)
