"""Exact and floating complex scalars.

Coefficients and point coordinates are carried in one of two modes:

* exact: a :class:`GaussianRational`, a pair of ``fractions.Fraction``;
* floating: a plain ``complex``.

Arithmetic between two exact values stays exact.  Any operation mixing an
exact value with a float or complex falls through to ``complex``, so a
single floating coefficient silently demotes a whole computation, which is
exactly the intended contagion.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputFormatError


class GaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) - other
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return other - complex(self)
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) / other
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / complex(self)
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return complex(self) ** k
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- predicates and conversions ------------------------------------

    def abs2(self):
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __abs__(self):
        return abs(complex(self))

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        if isinstance(other, (float, complex)):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        return hash(complex(self))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return scalar_str(self)


# A prime q = 1 (mod 4) and a square root of -1 modulo q.  a + bi -> a + b*MODULAR_I
# (mod q) is a ring map on the Gaussian rationals whose denominators are prime
# to q, so an exact identity between such numbers holds modulo q as well.
MODULAR_PRIME = 2**61 + 21
MODULAR_I = 1035093963448091331


def mod_prime(x: GaussianRational) -> int | None:
    """The image of x modulo MODULAR_PRIME; None when q divides a denominator."""
    q = MODULAR_PRIME
    den = x.re.denominator * x.im.denominator
    if den % q == 0:
        return None
    num = x.re.numerator * x.im.denominator + x.im.numerator * x.re.denominator * MODULAR_I
    return num * pow(den, -1, q) % q


def is_exact(value) -> bool:
    return isinstance(value, (GaussianRational, int, Fraction))


def as_scalar(value):
    """Normalize to a GaussianRational (exact inputs) or complex (floats)."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, (float, complex)):
        return complex(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise InputFormatError(f"cannot interpret {value!r} as a complex scalar")


def to_complex(value) -> complex:
    return complex(value)


def scalar_is_zero(value, tol=0.0, scale=1.0) -> bool:
    if isinstance(value, GaussianRational):
        return value.is_zero()
    return abs(value) <= tol * scale


_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?(?:/\d+)?"
_TERM_RE = re.compile(rf"\s*(?P<sign>[+-])?\s*(?:(?P<num>{_NUMBER})\s*(?P<imag>[ij])?|(?P<lone_i>[ij]))\s*")


def _parse_number(text):
    """Returns (Fraction, exact) or (float, inexact)."""
    if "/" in text:
        nums, dens = text.split("/")
        if "." in nums or "e" in nums.lower() or "." in dens or "e" in dens.lower():
            raise InputFormatError(f"mixed decimal/fraction notation in {text!r}")
        return Fraction(int(nums), int(dens)), True
    if "." in text or "e" in text.lower():
        return float(text), False
    return Fraction(int(text)), True


def parse_scalar(text: str):
    """Parse ``"3"``, ``"-1/2"``, ``"1+2i"``, ``"1/2-3/4i"``, ``"0.5"``, ``"2i"``...

    Decimal notation anywhere makes the result floating; otherwise the value
    is an exact GaussianRational.
    """
    s = text.strip()
    if not s:
        raise InputFormatError("empty scalar")
    pos = 0
    re_part = None
    im_part = None
    exact = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise InputFormatError(f"cannot parse scalar {text!r} at position {pos}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("lone_i"):
            value, value_exact = Fraction(1), True
            is_imag = True
        else:
            value, value_exact = _parse_number(m.group("num"))
            is_imag = m.group("imag") is not None
        exact = exact and value_exact
        if is_imag:
            if im_part is not None:
                raise InputFormatError(f"two imaginary terms in {text!r}")
            im_part = sign * value
        else:
            if re_part is not None:
                raise InputFormatError(f"two real terms in {text!r}")
            re_part = sign * value
        pos = m.end()
    re_part = re_part if re_part is not None else 0
    im_part = im_part if im_part is not None else 0
    if exact:
        return GaussianRational(Fraction(re_part), Fraction(im_part))
    return complex(float(re_part), float(im_part))


def _frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def scalar_str(value) -> str:
    """Deterministic display form, parseable back by parse_scalar."""
    if isinstance(value, (int, Fraction)):
        value = GaussianRational(value)
    if isinstance(value, GaussianRational):
        if value.im == 0:
            return _frac_str(value.re)
        im = _frac_str(abs(value.im)) + "i"
        if value.re == 0:
            return ("-" if value.im < 0 else "") + im
        return _frac_str(value.re) + ("-" if value.im < 0 else "+") + im
    z = complex(value)
    if z.imag == 0:
        return repr(z.real)
    im = repr(abs(z.imag)) + "i"
    if z.real == 0:
        return ("-" if z.imag < 0 else "") + im
    return repr(z.real) + ("-" if z.imag < 0 else "+") + im
