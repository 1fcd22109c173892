"""Exact and floating complex scalars.

Coefficients and point coordinates are carried in one of two modes:

* exact: a :class:`GaussianRational`, the triple of ints (a, b, d) that
  stands for (a + b i) / d with d > 0 and gcd(a, b, d) = 1;
* floating: a plain ``complex``.

The triple is canonical: equal values have equal triples, so equality is
three int comparisons.  Each +, -, * and / is a few int products and at
most one three-way ``math.gcd`` to put the result back in lowest terms
(none when both denominators are 1); no ``Fraction`` is built.  Only this
module reads the triple: the parts are offered as reduced Fractions
(``re``, ``im``) to cold readers, and the readers of the integers
(``mod_prime_rows``, ``height_bits``, ``GaussianRational.approximating``
and ``from_ratios``) live here, beside
``limit_ratios``, the walk of ``limit_denominator`` on a float array at once.

Arithmetic between two exact values stays exact.  Any operation mixing an
exact value with a float or complex falls through to ``complex``, so a
single floating coefficient silently demotes a whole computation, which is
exactly the intended contagion.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .errors import InputFormatError

_new = object.__new__


def _make(a: int, b: int, d: int) -> "GaussianRational":
    """The GaussianRational of a triple already in lowest terms."""
    z = _new(GaussianRational)
    z._a = a
    z._b = b
    z._d = d
    return z


def _reduced(a: int, b: int, d: int) -> "GaussianRational":
    """The GaussianRational (a + b i) / d for d > 0, by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _make(a, b, d)


def _limit_ratio(n: int, d: int, bound: int) -> tuple[int, int]:
    """Fraction(n, d).limit_denominator(bound) as a pair, for d > 0.

    The continued-fraction walk of CPython's Fraction.limit_denominator, in
    ints: the nearer of the last convergent p1/q1 and the best
    semiconvergent below the bound, p1/q1 on a tie.
    """
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    if d <= bound:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    num, den = n, d
    while True:
        a = num // den
        q2 = q0 + a * q1
        if q2 > bound:
            break
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        num, den = den, num - a * den
    k = (bound - q0) // q1
    p, q = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |p/q - n/d|, cleared of denominators
    if abs(p1 * d - n * q1) * q <= abs(p * d - n * q) * q1:
        return p1, q1
    return p, q


def limit_ratios(x: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """_limit_ratio(*v.as_integer_ratio(), bound) for each finite float v of x, as arrays (n, d).

    The walk of _limit_ratio runs on all parts at once in int64.  A part
    below 0.49 / bound in size is 0/1, the one fraction within 1/(2 bound)
    of it.  Each other part n/d (d a power of two) whose integers could pass
    int64 in the walk, that is d > 2^61 or |v| >= min(2^53, 2^60 / (bound + 1)),
    goes to _limit_ratio, and so does every part when bound >= 2^31.  The
    last convergent p1/q1 and the semiconvergent p/q both lie within d of
    n/d once cleared of denominators, so their distances |p1 d - n q1| and
    |p d - n q| are exact in wrapped int64 arithmetic; the choice between
    them is made in floats, and in Python ints where the two products are
    within 2^-40 of a tie.  n and d are int64 arrays, or object arrays of
    Python ints when a result passes int64.
    """
    x = np.asarray(x, dtype=float)
    n, d = np.zeros(len(x), np.int64), np.ones(len(x), np.int64)
    mant, e = np.frexp(x)
    mant, e = (mant * 2.0**53).astype(np.int64), e.astype(np.int64)  # v = mant / 2^(53 - e)
    # mant's trailing zero bits, at most 53 - e; 2^k is the reduced denominator
    shift = np.minimum(np.frexp((mant & -mant).astype(float))[1] - 1, 53 - e)
    k = 53 - e - shift
    size = np.abs(x)
    wide = size >= 0.49 / bound
    kernel = wide & (size < min(2.0**53, 2.0**60 / (bound + 1))) & (k <= 61) & (bound < 2**31)
    scalar = np.flatnonzero(wide & ~kernel)
    rows = np.flatnonzero(kernel)
    n[rows] = mant[rows] >> shift[rows]
    d[rows] = np.left_shift(1, k[rows])
    rows = rows[d[rows] > bound]
    if rows.size:
        a, den = np.divmod(n[rows], d[rows])
        num = d[rows]
        # convergents[k] = (p, q) of the k-th convergent, from (1, 0) and
        # (a0, 1).  A row walks on after its q passes bound, with its quotient
        # clipped and its products wrapped, until every row has passed.
        convergents = [np.stack([np.ones_like(a), np.zeros_like(a)]),
                       np.stack([a, np.ones_like(a)])]
        passed = np.zeros(len(rows), bool)
        with np.errstate(divide="ignore"):  # a finished fraction divides by 0, giving a = 0
            while np.count_nonzero(passed) < len(rows):
                a = num // den
                num, den = den, num - a * den
                convergents.append(convergents[-2] + np.minimum(a, bound + 1) * convergents[-1])
                passed |= convergents[-1][1] > bound
        convergents = np.stack(convergents)
        # the first convergent whose q passes bound is step; p1/q1 is the one before
        step, cols = np.argmax(convergents[:, 1] > bound, axis=0), np.arange(len(rows))
        (p0, q0), (p1, q1) = convergents[step - 2, :, cols].T, convergents[step - 1, :, cols].T
        j = (bound - q0) // q1
        p, q = p0 + j * p1, q0 + j * q1
        nn, dd = n[rows], d[rows]
        near_err = np.abs(p1 * dd - nn * q1).astype(float) * q
        semi_err = np.abs(p * dd - nn * q).astype(float) * q1
        convergent = near_err <= semi_err
        for i in np.flatnonzero(np.abs(near_err - semi_err) <= 2.0**-40 * semi_err).tolist():
            ni, di, a1, b1, a2, b2 = (int(v[i]) for v in (nn, dd, p1, q1, p, q))
            convergent[i] = abs(a1 * di - ni * b1) * b2 <= abs(a2 * di - ni * b2) * b1
        n[rows] = np.where(convergent, p1, p)
        d[rows] = np.where(convergent, q1, q)
    if scalar.size:
        pairs = [_limit_ratio(*v.as_integer_ratio(), bound) for v in x[scalar].tolist()]
        if any(not -2**63 <= v < 2**63 for pair in pairs for v in pair):
            n, d = n.astype(object), d.astype(object)
        n[scalar] = [pn for pn, _ in pairs]
        d[scalar] = [pd for _, pd in pairs]
    return n, d


class GaussianRational:
    """Complex number (a + b i) / d with exact integer a, b and d."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re = re if isinstance(re, Fraction) else Fraction(re)
        im = im if isinstance(im, Fraction) else Fraction(im)
        z = self.from_ratios(re.numerator, re.denominator, im.numerator, im.denominator)
        self._a, self._b, self._d = z._a, z._b, z._d

    @classmethod
    def from_ratios(cls, p1: int, q1: int, p2: int, q2: int) -> "GaussianRational":
        """p1/q1 + (p2/q2) i for two ratios in lowest terms with positive denominators.

        Over the common denominator lcm(q1, q2) the triple is already in lowest
        terms: a prime power that divides it exactly divides q1 or q2 exactly,
        and so leaves p1 or p2 times a cofactor prime to it.
        """
        if q1 == q2:
            return _make(p1, p2, q1)
        d = lcm(q1, q2)
        return _make(p1 * (d // q1), p2 * (d // q2), d)

    @classmethod
    def approximating(cls, z: complex, max_denominator: int) -> "GaussianRational":
        """Each part of the finite z as Fraction(part).limit_denominator(max_denominator)."""
        p1, q1 = _limit_ratio(*z.real.as_integer_ratio(), max_denominator)
        p2, q2 = _limit_ratio(*z.imag.as_integer_ratio(), max_denominator)
        return cls.from_ratios(p1, q1, p2, q2)

    def limit_denominator(self, max_denominator: int) -> "GaussianRational":
        """Each part limited as Fraction.limit_denominator limits it."""
        p1, q1 = _limit_ratio(self._a, self._d, max_denominator)
        p2, q2 = _limit_ratio(self._b, self._d, max_denominator)
        return self.from_ratios(p1, q1, p2, q2)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            d1, d2 = self._d, other._d
            if d1 == d2:
                if d1 == 1:
                    return _make(self._a + other._a, self._b + other._b, 1)
                return _reduced(self._a + other._a, self._b + other._b, d1)
            return _reduced(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)
        if isinstance(other, int):
            # gcd(a + k d, b, d) = gcd(a, b, d) = 1
            return _make(self._a + other * self._d, self._b, self._d)
        if isinstance(other, Fraction):
            return self + _make(other.numerator, 0, other.denominator)
        return complex(self) + other

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            d1, d2 = self._d, other._d
            if d1 == d2:
                if d1 == 1:
                    return _make(self._a - other._a, self._b - other._b, 1)
                return _reduced(self._a - other._a, self._b - other._b, d1)
            return _reduced(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)
        if isinstance(other, int):
            return _make(self._a - other * self._d, self._b, self._d)
        if isinstance(other, Fraction):
            return self - _make(other.numerator, 0, other.denominator)
        return complex(self) - other

    def __rsub__(self, other):
        if isinstance(other, int):
            return _make(other * self._d - self._a, -self._b, self._d)
        if isinstance(other, Fraction):
            return _make(other.numerator, 0, other.denominator) - self
        return other - complex(self)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a1, b1, a2, b2 = self._a, self._b, other._a, other._b
            d = self._d * other._d
            if d == 1:
                return _make(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, 1)
            return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, d)
        if isinstance(other, int):
            if self._d == 1:
                return _make(self._a * other, self._b * other, 1)
            return _reduced(self._a * other, self._b * other, self._d)
        if isinstance(other, Fraction):
            return self * _make(other.numerator, 0, other.denominator)
        return complex(self) * other

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = _make(other, 0, 1)
        elif isinstance(other, Fraction):
            other = _make(other.numerator, 0, other.denominator)
        elif not isinstance(other, GaussianRational):
            return complex(self) / other
        # (a1 + b1 i) d2 (a2 - b2 i) / (d1 (a2^2 + b2^2))
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by exact zero")
        d2 = other._d
        return _reduced(d2 * (a1 * a2 + b1 * b2), d2 * (b1 * a2 - a1 * b2), self._d * n)

    def __rtruediv__(self, other):
        if isinstance(other, int):
            return _make(other, 0, 1) / self
        if isinstance(other, Fraction):
            return _make(other.numerator, 0, other.denominator) / self
        return other / complex(self)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return complex(self) ** k
        out = _make(1, 0, 1)
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
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def is_zero(self):
        return self._a == 0 and self._b == 0

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        # int true division is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)

    def __abs__(self):
        return abs(complex(self))

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return self._b == 0 and self._d == other.denominator and self._a == other.numerator
        if isinstance(other, (float, complex)):
            try:
                return complex(self) == other
            except OverflowError:
                # beyond float range no float or complex equals the value
                return False
        return NotImplemented

    def __hash__(self):
        try:
            return hash(complex(self))
        except OverflowError:
            # beyond float range no float or complex equals the value
            return hash((self._a, self._b, self._d))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return scalar_str(self)


# A prime q = 1 (mod 4) below 2^30 and a square root of -1 modulo q.  a + bi ->
# a + b*MODULAR_I (mod q) is a ring map on the Gaussian integers, so an exact
# identity between Gaussian integers holds modulo q as well.  Residues are
# below 2^30, so a product of two residues plus another such product stays
# below 2^61: arrays of residues walk in int64.
MODULAR_PRIME = 2**30 - 35
MODULAR_I = 933053945


def mod_prime_rows(rows) -> list:
    """The rows of Gaussian rationals times D, the lcm of all their
    denominators, modulo MODULAR_PRIME, as rows of ints.

    Each D x is a Gaussian integer a + b i, which reduces to a + b MODULAR_I
    with no inverse: a ring map on Z[i], whatever D is.
    """
    q = MODULAR_PRIME
    d = lcm(*(x._d for row in rows for x in row))
    return [[(x._a + x._b * MODULAR_I) * (d // x._d) % q for x in row] for row in rows]


def mod_prime_pairs(p1, q1, p2, q2) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (c1 : c2) modulo MODULAR_PRIME of the points p1/q1 + (p2/q2) i.

    The arguments are arrays of ints (int64 or Python ints), and the pair is
    the homogeneous (p1 q2 + p2 q1 i : q1 q2) reduced, as two int64 arrays:
    no inverse is taken, so a denominator divisible by q needs no exception.
    """
    q = MODULAR_PRIME
    p1, q1, p2, q2 = (np.asarray(v) % q for v in (p1, q1, p2, q2))
    p1, q1, p2, q2 = (v.astype(np.int64) for v in (p1, q1, p2, q2))
    return (p1 * q2 % q + MODULAR_I * (p2 * q1 % q)) % q, q1 * q2 % q


def height_bits(x: GaussianRational) -> int:
    """max over the two parts of numerator bits + denominator bits, in lowest terms."""
    a, b, d = x._a, x._b, x._d
    if d == 1:
        return max(a.bit_length(), b.bit_length()) + 1
    g, h = gcd(a, d), gcd(b, d)
    return max((a // g).bit_length() + (d // g).bit_length(),
               (b // h).bit_length() + (d // h).bit_length())


def is_exact(value) -> bool:
    # a complex is told apart before isinstance reaches Fraction, an ABC
    # whose instance check is slow
    if type(value) is complex:
        return False
    return isinstance(value, (GaussianRational, int, Fraction))


def as_scalar(value):
    """Normalize to a GaussianRational (exact inputs) or complex (floats)."""
    if type(value) is complex:
        return value
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, (float, complex)):
        return complex(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise InputFormatError(f"cannot interpret {value!r} as a complex scalar")


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
        if int(dens) == 0:
            raise InputFormatError(f"zero denominator in {text!r}")
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


def _ratio_str(n: int, d: int) -> str:
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def scalar_str(value) -> str:
    """Deterministic display form, parseable back by parse_scalar."""
    if isinstance(value, (int, Fraction)):
        value = GaussianRational(value)
    if isinstance(value, GaussianRational):
        a, b, d = value._a, value._b, value._d
        if b == 0:
            return _ratio_str(a, d)
        im = _ratio_str(abs(b), d) + "i"
        if a == 0:
            return ("-" if b < 0 else "") + im
        return _ratio_str(a, d) + ("-" if b < 0 else "+") + im
    z = complex(value)
    if z.imag == 0:
        return repr(z.real)
    im = repr(abs(z.imag)) + "i"
    if z.real == 0:
        return ("-" if z.imag < 0 else "") + im
    return repr(z.real) + ("-" if z.imag < 0 else "+") + im
