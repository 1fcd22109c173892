from __future__ import annotations

from fractions import Fraction

import pytest

from ratmap.errors import InputFormatError
from ratmap.scalars import GaussianRational, parse_scalar, scalar_str


def test_exact_arithmetic_stays_exact():
    a = GaussianRational(Fraction(1, 3), Fraction(1, 2))
    b = GaussianRational(Fraction(2, 3), Fraction(-1, 2))
    assert isinstance(a + b, GaussianRational)
    assert a + b == GaussianRational(1, 0)
    assert a * b == GaussianRational(Fraction(2, 9) + Fraction(1, 4), Fraction(1, 3) - Fraction(1, 6))


def test_division_exact():
    a = GaussianRational(1, 1)
    b = GaussianRational(0, 1)  # i
    q = a / b
    assert q == GaussianRational(1, -1)
    assert q * b == a


def test_float_contagion():
    a = GaussianRational(1, 2)
    assert isinstance(a + 0.5, complex)
    assert isinstance(a * (1 + 0j), complex)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", GaussianRational(3)),
        ("-1/2", GaussianRational(Fraction(-1, 2))),
        ("1+2i", GaussianRational(1, 2)),
        ("1/2-3/4i", GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
        ("2i", GaussianRational(0, 2)),
        ("-i", GaussianRational(0, -1)),
        ("i", GaussianRational(0, 1)),
    ],
)
def test_parse_exact(text, expected):
    assert parse_scalar(text) == expected


def test_parse_decimal_forces_floating():
    assert parse_scalar("0.5") == 0.5 + 0j
    assert isinstance(parse_scalar("0.5"), complex)
    assert parse_scalar("1.5+0.25i") == 1.5 + 0.25j
    assert isinstance(parse_scalar("1+0.5i"), complex)


def test_parse_rejects_garbage():
    with pytest.raises(InputFormatError):
        parse_scalar("")
    with pytest.raises(InputFormatError):
        parse_scalar("1+2")
    with pytest.raises(InputFormatError):
        parse_scalar("0.5/2")


@pytest.mark.parametrize("text", ["1/0", "0/0", "2/0i", "1/00", "1+3/0i", "-0/0"])
def test_parse_rejects_a_zero_denominator(text):
    with pytest.raises(InputFormatError, match="zero denominator"):
        parse_scalar(text)


def test_scalar_str_round_trips():
    for text in ["3", "-1/2", "1+2i", "1/2-3/4i", "2i", "0"]:
        v = parse_scalar(text)
        assert parse_scalar(scalar_str(v)) == v


def test_an_exact_value_beyond_float_range_equals_no_float():
    for huge in (GaussianRational(2**1100), GaussianRational(1, -(2**1100)),
                 GaussianRational(Fraction(2**1100, 3), 1)):
        for other in (1.0, 1j, 1e308, complex(1e308, -1e308)):
            assert not huge == other and not other == huge
            assert huge != other and other != huge
    # in float range the comparison is that of the rounded value, as before
    assert GaussianRational(Fraction(1, 2), -3) == complex(0.5, -3.0)
    assert GaussianRational(Fraction(1, 3)) == 1 / 3
