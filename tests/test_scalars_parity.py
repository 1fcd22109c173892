"""Parity of the exact scalar kernel with a frozen reference copy.

The reference class below carried a Gaussian rational as a pair of
``fractions.Fraction``; ``ref_height_bits`` reads that pair, and
``ref_mod_prime_rows`` reduces rows of such pairs modulo the prime.  The
library now carries the integer triple (a + b i) / d in lowest terms.  On
random operands, every operation, predicate and conversion must agree with
== (and the hash, complex value and display text exactly), and
the integer ``limit_denominator`` walk must agree with
``Fraction.limit_denominator``, both the scalar walk and the int64 array walk
of ``limit_ratios`` (through ``roots.snap_many``).
"""

from __future__ import annotations

import math
import random
import struct
from fractions import Fraction

import numpy as np

import ratmap.scalars
from ratmap.rational import point_height_bits
from ratmap.roots import SNAP_DENOMINATOR_BOUND, snap, snap_many
from ratmap.scalars import (
    MODULAR_I,
    MODULAR_PRIME,
    GaussianRational,
    height_bits,
    limit_ratios,
    mod_prime_rows,
    scalar_str,
)
from ratmap.sphere import SpherePoint


class RefGaussianRational:
    """Complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = re if isinstance(re, Fraction) else Fraction(re)
        self.im = im if isinstance(im, Fraction) else Fraction(im)

    def _coerce(self, other):
        if isinstance(other, RefGaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return RefGaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) + other
        return RefGaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) - other
        return RefGaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return other - complex(self)
        return RefGaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return complex(self) * other
        return RefGaussianRational(
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
        return RefGaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return other / complex(self)
        return o / self

    def __neg__(self):
        return RefGaussianRational(-self.re, -self.im)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            return complex(self) ** k
        out = RefGaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def abs2(self):
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
        if isinstance(other, RefGaussianRational):
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


def ref_mod_prime_rows(rows) -> list:
    """Each (re, im) pair of Fractions in rows times D, the lcm of all their
    denominators, reduced as D re + D im MODULAR_I modulo MODULAR_PRIME."""
    d = math.lcm(*(part.denominator for row in rows for pair in row for part in pair))
    return [[int(re * d + im * d * MODULAR_I) % MODULAR_PRIME for re, im in row] for row in rows]


def _ref_bits(fr) -> int:
    return fr.numerator.bit_length() + fr.denominator.bit_length()


def ref_height_bits(z: RefGaussianRational) -> int:
    return max(_ref_bits(z.re), _ref_bits(z.im))


def _ref_frac_str(f: Fraction) -> str:
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def ref_scalar_str(value: RefGaussianRational) -> str:
    if value.im == 0:
        return _ref_frac_str(value.re)
    im = _ref_frac_str(abs(value.im)) + "i"
    if value.re == 0:
        return ("-" if value.im < 0 else "") + im
    return _ref_frac_str(value.re) + ("-" if value.im < 0 else "+") + im


def _part(rng: random.Random) -> Fraction:
    kind = rng.randrange(8)
    sign = rng.choice((-1, 1))
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(-9, 9))
    if kind == 2:
        return Fraction(rng.randint(-99, 99), rng.randint(1, 99))
    if kind == 3:
        # a numerator of at least 512 bits
        return Fraction(sign * (rng.getrandbits(600) | 1 << 599), rng.randint(1, 12))
    if kind == 4:
        return Fraction(rng.randint(-9, 9), rng.getrandbits(600) | 1 << 599)
    if kind == 5:
        return Fraction(sign * (rng.getrandbits(560) | 1 << 559), rng.getrandbits(530) | 1 << 529)
    if kind == 6:
        # a denominator divisible by the prime
        return Fraction(sign * rng.randint(1, 9), MODULAR_PRIME * rng.randint(1, 3))
    return Fraction(rng.randint(-2**20, 2**20), 2 ** rng.randint(0, 30))


def _operand(rng: random.Random) -> tuple[Fraction, Fraction]:
    re, im = _part(rng), _part(rng)
    shape = rng.randrange(6)
    if shape == 0:
        return Fraction(0), Fraction(0)
    if shape == 1:
        return re, Fraction(0)
    if shape == 2:
        return Fraction(0), im
    return re, im


def _partners(rng: random.Random):
    return [
        rng.randint(-5, 5),
        2**rng.randint(60, 700) * rng.choice((-1, 1)),
        Fraction(rng.randint(-50, 50), rng.randint(1, 50)),
        complex(rng.uniform(-3, 3), rng.uniform(-3, 3)),
        0j,
        rng.uniform(-3, 3),
    ]


def _outcome(fn):
    """What fn() gives, with both classes' exact values read as (re, im)."""
    try:
        v = fn()
    except (ZeroDivisionError, OverflowError) as err:
        return type(err).__name__
    if isinstance(v, GaussianRational):
        # == compares triples, so a triple not in lowest terms fails here
        assert v == GaussianRational(v.re, v.im)
    if isinstance(v, (GaussianRational, RefGaussianRational)):
        return ("exact", v.re, v.im)
    return (type(v).__name__, repr(v))


BINARY = [
    lambda x, y: x + y,
    lambda x, y: y + x,
    lambda x, y: x - y,
    lambda x, y: y - x,
    lambda x, y: x * y,
    lambda x, y: y * x,
    lambda x, y: x / y,
    lambda x, y: y / x,
    lambda x, y: x == y,
    lambda x, y: y == x,
    lambda x, y: x != y,
]


def _check_unary(x: GaussianRational, r: RefGaussianRational):
    assert _outcome(lambda: x) == _outcome(lambda: r)
    assert _outcome(lambda: -x) == _outcome(lambda: -r)
    for k in (0, 1, 2, 3, 5, -1, 0.5):
        assert _outcome(lambda: x**k) == _outcome(lambda: r**k)
    assert x.abs2() == r.abs2()
    assert x.is_zero() == r.is_zero()
    assert bool(x) == bool(r)
    assert x == x and not x != x
    assert _outcome(lambda: complex(x)) == _outcome(lambda: complex(r))
    assert _outcome(lambda: abs(x)) == _outcome(lambda: abs(r))
    want_hash = _outcome(lambda: hash(r))
    if want_hash != "OverflowError":
        assert _outcome(lambda: hash(x)) == want_hash
    else:
        # beyond float range the hash still exists, and equal values share it
        assert hash(x) == hash(GaussianRational(r.re, r.im))
    assert scalar_str(x) == ref_scalar_str(r) == str(x)
    assert repr(x) == repr(r)
    assert height_bits(x) == ref_height_bits(r)
    assert point_height_bits(SpherePoint.finite(x)) == ref_height_bits(r)


def test_the_integer_triple_matches_the_fraction_pair_reference():
    rng = random.Random(20261019)
    for _ in range(2000):
        xs, ys = _operand(rng), _operand(rng)
        x, rx = GaussianRational(*xs), RefGaussianRational(*xs)
        y, ry = GaussianRational(*ys), RefGaussianRational(*ys)
        _check_unary(x, rx)
        for op in BINARY:
            assert _outcome(lambda: op(x, y)) == _outcome(lambda: op(rx, ry))
            for other in rng.sample(_partners(rng), 3):
                assert _outcome(lambda: op(x, other)) == _outcome(lambda: op(rx, other))


def test_the_row_reduction_matches_the_fraction_reference():
    rng = random.Random(20261020)
    for _ in range(500):
        rows = [[_operand(rng), _operand(rng)] for _ in range(rng.randint(1, 6))]
        exact = [[GaussianRational(*pair) for pair in row] for row in rows]
        assert mod_prime_rows(exact) == ref_mod_prime_rows(rows)


def test_the_constructor_takes_ints_fractions_and_floats():
    rng = random.Random(5)
    for _ in range(300):
        parts = [rng.choice((rng.randint(-9, 9), Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                             rng.uniform(-5, 5), True))
                 for _ in range(2)]
        x, r = GaussianRational(*parts), RefGaussianRational(*parts)
        assert (x.re, x.im) == (r.re, r.im)
        assert x == GaussianRational(r.re, r.im)
    assert GaussianRational() == GaussianRational(0, 0) == 0


def _snap_floats(rng: random.Random) -> list[float]:
    out = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 2.0**53 + 2,
           -(2.0**60), 1e22, 1.7e308, -1.7e308, 0.5e-6, 1.5e-6, 1 / 3, -2 / 7]
    for _ in range(1000):
        out.append((rng.randrange(-10**7, 10**7) + 0.5) / 1e6)  # half-way between millionths
        out.append(rng.uniform(-10, 10))
        out.append(rng.randint(-999, 999) / rng.randint(1, 2 * SNAP_DENOMINATOR_BOUND)
                   + rng.uniform(-1e-13, 1e-13))
        out.append(rng.uniform(-1, 1) * 10.0 ** rng.randint(-320, 308))
        bits = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
        if math.isfinite(bits):
            out.append(bits)
    return out


def test_snap_matches_fraction_limit_denominator():
    rng = random.Random(11)
    xs = _snap_floats(rng)
    for re, im in zip(xs, xs[1:] + xs[:1]):
        got = snap(complex(re, im))
        want = (Fraction(re).limit_denominator(SNAP_DENOMINATOR_BOUND),
                Fraction(im).limit_denominator(SNAP_DENOMINATOR_BOUND))
        assert (got.re, got.im) == want
        assert got == GaussianRational(*want)
    assert snap(complex(math.inf, 0.0)) is None
    assert snap(complex(0.0, math.nan)) is None


def test_limit_denominator_matches_fraction_on_exact_values():
    rng = random.Random(13)
    for _ in range(1000):
        parts = _operand(rng)
        x = GaussianRational(*parts)
        for bound in (1, 7, SNAP_DENOMINATOR_BOUND, 10**15, 10**40):
            got = x.limit_denominator(bound)
            assert (got.re, got.im) == tuple(p.limit_denominator(bound) for p in parts)
    for re, im in zip(*[iter(_snap_floats(rng))] * 2):
        got = GaussianRational.approximating(complex(re, im), 10**15)
        assert (got.re, got.im) == (Fraction(re).limit_denominator(10**15),
                                    Fraction(im).limit_denominator(10**15))


def _golden_floats() -> list[float]:
    """The golden ratio, its reciprocal and their float neighbours: their
    continued fractions are all ones, the longest walk below the bound."""
    out = []
    for x in ((1 + 5**0.5) / 2, (5**0.5 - 1) / 2):
        for y in (x, -x):
            out += [y, math.nextafter(y, math.inf), math.nextafter(y, -math.inf)]
    return out


def _midpoints(rng: random.Random, n: int) -> list[float]:
    """Midpoints of two fractions with denominators up to 39: at a bound of
    10 or 30 some are near ties between a convergent and a semiconvergent,
    which limit_ratios settles in Python ints."""
    out = []
    for _ in range(n):
        b, d = rng.randint(1, 39), rng.randint(1, 39)
        halves = Fraction(rng.randint(-3 * b, 3 * b), b) + Fraction(rng.randint(-3 * d, 3 * d), d)
        out.append(float(halves / 2))
    return out


def _limited(x: float, bound: int = SNAP_DENOMINATOR_BOUND) -> tuple[int, int]:
    f = Fraction(x).limit_denominator(bound)
    return f.numerator, f.denominator


def test_the_batch_snap_matches_fraction_limit_denominator_row_for_row():
    xs = _snap_floats(random.Random(17)) + _golden_floats()
    centers = np.array([complex(re, im) for re, im in zip(xs, xs[1:] + xs[:1])])
    p1, q1, p2, q2 = (a.tolist() for a in snap_many(centers))
    for re, im, row in zip(xs, xs[1:] + xs[:1], zip(p1, q1, p2, q2)):
        assert row == _limited(re) + _limited(im)
    for n in (0, 1):  # the empty batch and a batch of one
        rows = [a.tolist() for a in snap_many(centers[:n])]
        assert rows == [[_limited(v)[i] for v in x] for x, i in
                        ((xs[:n], 0), (xs[:n], 1), (xs[1:n + 1], 0), (xs[1:n + 1], 1))]


def test_limit_ratios_matches_fraction_at_other_bounds():
    xs = (_snap_floats(random.Random(19))[:1500] + _golden_floats()
          + _midpoints(random.Random(23), 3000))
    for bound in (1, 7, 10, 30, 10**9, 2**31 - 1, 2**31, 10**15):
        n, d = limit_ratios(np.array(xs), bound)
        assert list(zip(n.tolist(), d.tolist())) == [_limited(x, bound) for x in xs]


def test_parts_past_the_int64_guard_take_the_scalar_walk(monkeypatch):
    bound = SNAP_DENOMINATOR_BOUND
    top = 2.0**60 / (bound + 1)
    # inside: below the size guard, and a reduced denominator of 2^61;
    # outside: at the size guard, and a reduced denominator of 2^62
    inside = [math.nextafter(top, 0.0), -math.nextafter(top, 0.0), (2**41 + 1) * 2.0**-61]
    outside = [top, -top, (2**42 + 1) * 2.0**-62]
    calls = []
    scalar = ratmap.scalars._limit_ratio
    monkeypatch.setattr(ratmap.scalars, "_limit_ratio",
                        lambda n, d, b: calls.append((n, d)) or scalar(n, d, b))
    for xs, walked in ((inside, 0), (outside, 3)):
        calls.clear()
        n, d = limit_ratios(np.array(xs), bound)
        assert list(zip(n.tolist(), d.tolist())) == [_limited(x) for x in xs]
        assert len(calls) == walked
    # a numerator past int64 comes back as a Python int
    n, d = limit_ratios(np.array([1.7e308, 0.5]), bound)
    assert (n.tolist(), d.tolist()) == ([int(1.7e308), 1], [1, 2])
