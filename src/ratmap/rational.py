"""Rational maps on the Riemann sphere.

A map is a coprime pair of polynomials P/Q of degree d >= 2.  Everything
runs through homogeneous coordinates: evaluation uses the degree-d
homogenizations of P and Q, infinity is the homogeneous zero of the
denominator side (an exact zero or a verified degree drop), never a
magnitude threshold on a chart value.

Valency is read from one critical table, built once per map from the
roots of the derivative numerator W = P'Q - PQ': 1 + multiplicity at each
root and 1 + (2d - 2 - deg W) at infinity.  An exact point of an exact map
keeps its exact valency, 1 + the vanishing order of W there; any other
point takes the valency of the nearest table entry when it coincides with
it at the map's tolerance, or 1.  Preimage multiplicities come from the
roots of P - yQ, so the identity sum(val(R,x) for x in R^-1(y)) = d is a
cross-check between two polynomials, not a definition.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .errors import (
    DegenerateMapError,
    IndeterminateEvaluationError,
    InputFormatError,
    MapDegreeError,
    RatmapError,
)
from .poly import Polynomial, vanishing_order_exact
from .roots import find_roots
from .scalars import GaussianRational, is_exact, mod_prime, to_complex
from .sphere import INFINITY, SpherePoint, coincide

DEFAULT_TOLERANCE = 1e-9

# beyond this many bits in a coordinate, exact orbit iteration switches to floating
EXACT_HEIGHT_CAP_BITS = 512


def _bits(fr) -> int:
    return fr.numerator.bit_length() + fr.denominator.bit_length()


def point_height_bits(p: SpherePoint) -> int:
    if p.is_infinity or not p.is_exact:
        return 0
    z = p.value()
    return max(_bits(z.re), _bits(z.im))


def _padded(f: Polynomial, d: int) -> list:
    """The d + 1 coefficients of f, highest degree first, with leading zeros."""
    return [0] * (d + 1 - len(f.coeffs)) + list(f.coeffs)


class RationalMap:
    def __init__(self, p: Polynomial, q: Polynomial, *, tolerance: float = DEFAULT_TOLERANCE,
                 verified_coprime: bool = False):
        if q.is_zero:
            raise MapDegreeError("denominator is identically zero")
        if p.is_zero:
            raise MapDegreeError("numerator is identically zero (constant map)")
        self.reduced_from_input = False
        if p.is_exact and q.is_exact:
            g = p.gcd_exact(q)
            if g.degree > 0:
                p, _ = p.divmod_exact(g)
                q, _ = q.divmod_exact(g)
                self.reduced_from_input = True
        elif not verified_coprime:
            res = p.resultant_magnitude(q)
            if res <= tolerance:
                raise DegenerateMapError(
                    "numerator and denominator share a root within tolerance",
                    resultant=res,
                )
        self.p = p
        self.q = q
        self.degree = max(p.degree, q.degree)
        if self.degree < 2:
            raise MapDegreeError(
                "rational map must have degree at least 2", degree=self.degree
            )
        self.tolerance = tolerance
        self.is_exact = p.is_exact and q.is_exact
        d = self.degree
        self._p_rev = p.reversed_padded(d)
        self._q_rev = q.reversed_padded(d)
        # W = P'Q - PQ', the numerator of the derivative
        self.wronskian = p.derivative() * q - p * q.derivative()
        # the same object for the conjugated map S = q_rev / p_rev at w = 0
        self._wronskian_rev = (
            self._q_rev.derivative() * self._p_rev - self._q_rev * self._p_rev.derivative()
        )
        # the coefficients of P_h and Q_h modulo MODULAR_PRIME, padded to d + 1;
        # None for a floating map or when MODULAR_PRIME divides a denominator
        self.coeffs_mod_prime = None
        if self.is_exact:
            reduced = [[0] * (d - f.degree) + [mod_prime(c) for c in f.coeffs] for f in (p, q)]
            if None not in reduced[0] + reduced[1]:
                self.coeffs_mod_prime = reduced
        self._floating = None
        self._scale = None
        # memoization only: entries are write-once per key and recomputation
        # is harmless, so concurrent readers stay safe
        self._preimage_cache = {}
        self._critical_table = None
        self._critical_values = None
        self._exact_valencies = {}

    # -- basics ----------------------------------------------------------

    @property
    def is_polynomial(self) -> bool:
        return self.q.degree == 0

    def floating(self) -> "RationalMap":
        """A floating-coefficient copy (self when already floating)."""
        if not self.is_exact:
            return self
        if self._floating is None:
            # coprimality was established exactly; do not re-check in floats
            self._floating = RationalMap(
                self.p.to_complex(),
                self.q.to_complex(),
                tolerance=self.tolerance,
                verified_coprime=True,
            )
        return self._floating

    def __repr__(self):
        return f"RationalMap(degree={self.degree}, exact={self.is_exact})"

    def _coeff_scale(self) -> float:
        if self._scale is None:
            self._scale = max(self.p.coeff_scale(), self.q.coeff_scale())
        return self._scale

    # -- evaluation --------------------------------------------------------

    def evaluate(self, x: SpherePoint) -> SpherePoint:
        """R(x) through the homogeneous pair; poles and infinity need no cases."""
        d = self.degree
        if x.is_infinity:
            exact_out = self.is_exact and x.is_exact
            u = self.p.coeffs[0] if self.p.degree == d else GaussianRational(0)
            v = self.q.coeffs[0] if self.q.degree == d else GaussianRational(0)
            if not exact_out:
                u, v = complex(u), complex(v)
            return SpherePoint(u, v)
        z = x.value()
        if is_exact(z) and self.is_exact:
            u = self.p.evaluate(z)
            v = self.q.evaluate(z)
            # coprimality rules out a common homogeneous zero in exact mode
            return SpherePoint(u, v)
        zc = to_complex(z)
        if abs(zc) <= 1.0:
            u = self.floating().p.evaluate(zc)
            v = self.floating().q.evaluate(zc)
        else:
            # balanced chart: evaluate the reversed pair at 1/z (homogeneous rescale)
            t = 1.0 / zc
            u = self.floating()._p_rev.evaluate(t)
            v = self.floating()._q_rev.evaluate(t)
        scale = self._coeff_scale()
        if max(abs(u), abs(v)) <= self.tolerance * scale:
            raise IndeterminateEvaluationError(
                "both homogeneous components vanished below tolerance",
                point=str(x),
            )
        return SpherePoint(u, v)

    # -- preimages -----------------------------------------------------------

    def _target_polynomial(self, y: SpherePoint) -> Polynomial:
        """The polynomial whose sphere roots are R^-1(y): P - y Q, or Q for y = inf.

        A floating target drops the leading coefficients that are rounding:
        for Q, those within the tolerance times the coefficient scale; for
        P - yQ, each a_k = p_k - y q_k with |a_k| <= tol (|p_k| + |y| |q_k|),
        so a coefficient where q_k = 0, equal to p_k, stays however large y is.
        """
        if y.is_infinity:
            if self.q.is_exact:
                return self.q
            return self.q.strip_leading(
                self.tolerance * max(self._coeff_scale(), self.q.coeff_scale()))
        yv = y.value()
        if is_exact(yv) and self.is_exact:
            return self.p - self.q * yv
        fl = self.floating()
        yc = to_complex(yv)
        a = Polynomial(
            [complex(c) for c in fl.p.coeffs]
        ) - Polynomial([complex(c) for c in fl.q.coeffs]) * yc
        n = len(a.coeffs)
        scales = [
            abs(pk) + abs(yc) * abs(qk)
            for pk, qk in zip(_padded(fl.p, self.degree)[-n:], _padded(fl.q, self.degree)[-n:])
        ]
        k = 0
        while k < n and abs(a.coeffs[k]) <= self.tolerance * scales[k]:
            k += 1
        return Polynomial(a.coeffs[k:])

    def preimages(self, y: SpherePoint):
        """Multiset R^-1(y) as (point, multiplicity); multiplicities sum to d."""
        key = y
        cached = self._preimage_cache.get(key)
        if cached is not None:
            return cached
        a = self._target_polynomial(y)
        if a.is_zero:
            raise DegenerateMapError("target polynomial vanished identically")
        inf_mult = self.degree - a.degree
        out = []
        if a.degree >= 1:
            for root, mult, _ in find_roots(a):
                out.append((SpherePoint.finite(root), mult))
        if inf_mult > 0:
            out.append((INFINITY if a.is_exact else SpherePoint.infinity(exact=False), inf_mult))
        total = sum(m for _, m in out)
        if total != self.degree:
            raise DegenerateMapError(
                "preimage multiplicities do not sum to the degree",
                found=total, degree=self.degree,
            )
        self._preimage_cache[key] = out
        return out

    # -- valency ---------------------------------------------------------------

    def critical_table(self):
        """[(point, val(R, point))] at each root of W, then at infinity; built once.

        A root of W of multiplicity m has valency 1 + m and infinity has
        1 + (2d - 2 - deg W), so the valencies less one sum to 2d - 2.  A
        floating W first drops leading coefficients below the tolerance, the
        rounding left where the leading terms of P'Q and PQ' cancel.  A root
        so large that its floating point is infinity (|z| above about 1e14)
        cannot be told apart from infinity's own entry, so it is left out:
        the divisor then falls short of 2d - 2 and the report warns
        critical-divisor-mismatch.  Raises InputFormatError when W has no
        finite floating value.
        """
        if self._critical_table is None:
            w = self.wronskian
            if not all(cmath.isfinite(c) for c in w.to_complex().coeffs):
                raise InputFormatError("a coefficient of W has no finite floating value")
            if not w.is_exact:
                w = w.strip_leading(self.tolerance * w.coeff_scale())
            table = []
            if w.degree >= 1:
                roots = [(SpherePoint.finite(root), 1 + mult) for root, mult, _ in find_roots(w)]
                table = [entry for entry in roots if not entry[0].is_infinity]
            table.append((INFINITY, 1 + 2 * self.degree - 2 - w.degree))
            self._critical_table = table
        return self._critical_table

    def critical_values(self):
        """[(R(c), val(R, c))] for each critical-table entry c of valency > 1,
        with None for R(c) where evaluation raises RatmapError; built once."""
        if self._critical_values is None:
            values = []
            for c, val in self.critical_table():
                if val > 1:
                    try:
                        values.append((self.evaluate(c), val))
                    except RatmapError:
                        values.append((None, val))
            self._critical_values = values
        return self._critical_values

    def valency_at(self, x: SpherePoint) -> int:
        """Local degree val(R, x), read from the critical table.

        For an exact map, an exact finite point has 1 + the exact vanishing
        order of W there and infinity the table's exact entry.  Any other
        point has the valency of the nearest table entry when it coincides
        with it at the tolerance, and 1 otherwise: a point near a critical
        point but not on it is not critical.
        """
        if self.is_exact and x.is_exact and not x.is_infinity:
            # orbits come back to the same exact points, the critical ones above all
            key = (x.z.re, x.z.im)
            if key not in self._exact_valencies:
                self._exact_valencies[key] = 1 + vanishing_order_exact(self.wronskian, x.z)
            return self._exact_valencies[key]
        table = self.critical_table()
        if self.is_exact and x.is_infinity:
            return table[-1][1]
        nearest, val = min(table, key=lambda entry: x.chordal(entry[0]))
        return val if coincide(x, nearest, self.tolerance) else 1

    # -- derivative in charts ----------------------------------------------------

    def local_derivative(self, x: SpherePoint):
        """Derivative at x in charts moving x and R(x) to finite positions.

        Around a cycle these chart factors multiply to the multiplier,
        because the chart choices cancel on the return to the start.
        """
        rx = self.evaluate(x)
        if not x.is_infinity:
            z = x.value()
            w_val = self.wronskian.evaluate(z)
            if not rx.is_infinity:
                qv = self.q.evaluate(z)
                return w_val / (qv * qv)
            pv = self.p.evaluate(z)
            return -w_val / (pv * pv)
        w_val = self._wronskian_rev.evaluate(
            GaussianRational(0) if self.is_exact else 0j
        )
        if rx.is_infinity:
            pv = self._p_rev.evaluate(GaussianRational(0) if self.is_exact else 0j)
            return w_val / (pv * pv)
        qv = self._q_rev.evaluate(GaussianRational(0) if self.is_exact else 0j)
        return -w_val / (qv * qv)

    def cycle_multiplier(self, points):
        """Multiplier of the cycle through the given orbit points."""
        m = GaussianRational(1) if self.is_exact else complex(1.0)
        for pt in points:
            m = m * self.local_derivative(pt)
        return m


@dataclass(frozen=True)
class CriticalPoint:
    point: SpherePoint
    local_valency: int

    @property
    def multiplicity(self) -> int:
        """Weight in the critical divisor; these sum to 2d - 2."""
        return self.local_valency - 1
