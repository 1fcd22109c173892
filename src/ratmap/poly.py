"""Polynomials over the two scalar modes.

Coefficients are stored highest degree first, matching the written
convention and all I/O.  The zero polynomial is the empty tuple and has
degree -1.  Construction strips exactly-zero leading coefficients only;
tolerance-based degree decisions belong to the call sites that own a
tolerance (degree drops in preimage computations, for instance).
"""

from __future__ import annotations

import numpy as np

from .errors import InputFormatError
from .scalars import GaussianRational, as_scalar, is_exact, scalar_is_zero


def _normalize_coeff(c):
    c = as_scalar(c)
    if isinstance(c, GaussianRational):
        return c
    return complex(c)


def horner(coeffs, x):
    """sum(coeffs[i] x^(n-i)) for the coefficients highest degree first, by Horner."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


class Polynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_normalize_coeff(c) for c in coeffs]
        i = 0
        while i < len(cs) and scalar_is_zero(cs[i]):
            i += 1
        self.coeffs = tuple(cs[i:])

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def from_roots(cls, roots, leading=1):
        p = cls((leading,))
        for r in roots:
            p = p * cls((1, -as_scalar(r)))
        return p

    # -- structure ------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_exact(self) -> bool:
        return all(isinstance(c, GaussianRational) for c in self.coeffs)

    @property
    def leading(self):
        return self.coeffs[0]

    def coeff_scale(self) -> float:
        """Largest coefficient magnitude; 0 for the zero polynomial."""
        if self.is_zero:
            return 0.0
        return max(abs(complex(c)) for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(a == b for a, b in zip(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash(tuple(complex(c) for c in self.coeffs))

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        a = (0,) * (n - len(a)) + a
        b = (0,) * (n - len(b)) + b
        return Polynomial(x + y for x, y in zip(a, b))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Polynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            if self.is_zero or other.is_zero:
                return Polynomial.zero()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Polynomial(out)
        s = as_scalar(other)
        return Polynomial(c * s for c in self.coeffs)

    __rmul__ = __mul__

    def evaluate(self, x):
        """Horner evaluation; exact when both the poly and x are exact."""
        if self.is_zero:
            return GaussianRational(0) if is_exact(x) else complex(0)
        return horner(self.coeffs, as_scalar(x))

    def derivative(self) -> "Polynomial":
        n = self.degree
        if n <= 0:
            return Polynomial.zero()
        return Polynomial(c * (n - i) for i, c in enumerate(self.coeffs[:-1]))

    # -- exact-only operations -------------------------------------------

    def divmod_exact(self, other):
        if not (self.is_exact and other.is_exact):
            raise ValueError("exact division requires exact polynomials")
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        div = other.coeffs
        qlen = len(rem) - len(div) + 1
        if qlen <= 0:
            return Polynomial.zero(), Polynomial(rem)
        quot = [GaussianRational(0)] * qlen
        for i in range(qlen):
            f = rem[i] / div[0]
            quot[i] = f
            for j, d in enumerate(div):
                rem[i + j] = rem[i + j] - f * d
        return Polynomial(quot), Polynomial(rem[qlen:])

    def monic_exact(self) -> "Polynomial":
        if self.is_zero:
            return self
        lead = self.coeffs[0]
        return Polynomial(c / lead for c in self.coeffs)

    def gcd_exact(self, other) -> "Polynomial":
        """Monic gcd by the Euclidean algorithm over Gaussian rationals."""
        a, b = self, other
        if not (a.is_exact and b.is_exact):
            raise ValueError("exact gcd requires exact polynomials")
        while not b.is_zero:
            _, r = a.divmod_exact(b)
            a, b = b, r
        if a.is_zero:
            return a
        return a.monic_exact()

    # -- numeric helpers ----------------------------------------------------

    def to_complex(self) -> "Polynomial":
        """The polynomial with complex coefficients.

        Raises InputFormatError when an exact coefficient has no finite
        floating value.
        """
        try:
            return Polynomial(complex(c) for c in self.coeffs)
        except OverflowError:
            raise InputFormatError("a coefficient has no finite floating value") from None

    def to_complex_array(self) -> np.ndarray:
        return np.array([complex(c) for c in self.coeffs], dtype=complex)

    def resultant_magnitude(self, other) -> float:
        """|res(p, q)| normalized by coefficient scales; 0 means a shared root.

        Uses the Sylvester matrix determinant; intended for coprimality
        checks on floating maps of modest degree.
        """
        if self.is_zero or other.is_zero:
            return 0.0
        m, n = self.degree, other.degree
        if m == 0 or n == 0:
            return 1.0
        a = self.to_complex_array() / self.coeff_scale()
        b = other.to_complex_array() / other.coeff_scale()
        size = m + n
        s = np.zeros((size, size), dtype=complex)
        for i in range(n):
            s[i, i : i + m + 1] = a
        for i in range(m):
            s[n + i, i : i + n + 1] = b
        return abs(np.linalg.det(s))

    def strip_leading(self, tol_abs: float) -> "Polynomial":
        """Drop leading coefficients below an absolute floating threshold."""
        cs = list(self.coeffs)
        while cs and scalar_is_zero(cs[0], tol=1.0, scale=tol_abs):
            cs.pop(0)
        return Polynomial(cs)


def squarefree_decomposition_exact(p: Polynomial):
    """Yun's algorithm: p = lead * prod(factor_i ^ i) with square-free factors.

    Returns (leading coefficient, [(monic factor, multiplicity), ...]).
    Exact polynomials only; this is what makes root multiplicities of exact
    inputs a matter of algebra rather than clustering.
    """
    if not p.is_exact:
        raise ValueError("square-free decomposition requires an exact polynomial")
    lead = p.leading
    p = p.monic_exact()
    out = []
    g = p.gcd_exact(p.derivative())
    if g.degree <= 0:
        return lead, [(p, 1)]
    b, _ = p.divmod_exact(g)
    c, _ = p.derivative().divmod_exact(g)
    d = c - b.derivative()
    i = 1
    while b.degree > 0:
        a = b.gcd_exact(d)
        if a.degree > 0:
            out.append((a, i))
            b, _ = b.divmod_exact(a)
            c, _ = d.divmod_exact(a)
        else:
            c = d
        d = c - b.derivative()
        i += 1
    return lead, out


def vanishing_order_exact(p: Polynomial, x) -> int:
    """Order of x as a zero of p, by exact successive differentiation."""
    k = 0
    g = p
    while not g.is_zero and g.evaluate(x).is_zero():
        k += 1
        g = g.derivative()
    return k

