"""Rational maps on the Riemann sphere.

A map is a coprime pair of polynomials P/Q of degree d >= 2.  Everything
runs through homogeneous coordinates: evaluation uses the degree-d
homogenizations of P and Q, infinity is the homogeneous zero of the
denominator side (an exact zero or a verified degree drop), never a
magnitude threshold on a chart value.

The homogeneous form is one table, RationalMap.homogeneous, built once per
map: the d + 1 rows (P_i, Q_i) of P_h(u, v) = sum P_i u^(d-i) v^i and Q_h.
Row 0 is R at infinity, the columns read backwards are the pair in the 1/z
chart, and the fixed-point walk, the modular screen and the preimage
targets read the same rows.  The derivative at x is read as the chart
factor W_h(x) / s^2, where s = Q_h(x) when R(x) is finite and P_h(x) when
it is infinity, W_h(z : 1) = W(z) for W = P'Q - PQ', and
W_h(1 : 0) = Q_1 P_0 - Q_0 P_1 is stored as one value.  That is the
derivative in the charts z and 1/z, negated on a step onto or off
infinity; such steps come in pairs around a cycle, so the factors multiply
to the multiplier.  Around a cycle each point's image is taken to be the
next cycle point, so each factor ends in the chart where the next begins.
At a floating point W, P and Q are evaluated by Horner over the complex
images of their coefficients, built once per map: the operations that
Horner mixing exact coefficients with a floating point performs.
image_rows evaluates R at many points in one array pass, in evaluate's
balanced chart and with its rule for a vanishing pair.

Valency is read from one critical table, built once per map from the
roots of the derivative numerator W = P'Q - PQ': 1 + multiplicity at each
root and 1 + (2d - 2 - deg W) at infinity.  An exact point of an exact map
keeps its exact valency, 1 + the vanishing order of W there; any other
point takes the valency of the nearest table entry when it coincides with
it at the map's tolerance, or 1; valencies finds the nearest entries of
many points in one key screen, by the sphere's nearest-match rule
(sphere.nearest_rows), and valency_at is its one-point case.  Preimage
multiplicities come from the roots of P - yQ, so the identity
sum(val(R,x) for x in R^-1(y)) = d is a cross-check between two
polynomials, not a definition.  preimages_many
solves the polynomials of many targets in one roots.find_roots_many call,
whose roots have the bits of lone solves, and memoizes each target's
preimages or the RatmapError of its solve; preimages reads that memo.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateMapError,
    IndeterminateEvaluationError,
    InputFormatError,
    MapDegreeError,
    RatmapError,
)
from .poly import Polynomial, horner, vanishing_order_exact
from .roots import find_roots, find_roots_many
from .scalars import GaussianRational, height_bits, is_exact, scalar_is_zero
from .sphere import INFINITY, SCREEN_SLACK, SpherePoint, coincide, nearest_rows, normalized_pairs

DEFAULT_TOLERANCE = 1e-9

# beyond this many bits in a coordinate, exact orbit iteration switches to floating
EXACT_HEIGHT_CAP_BITS = 512


def point_height_bits(p: SpherePoint) -> int:
    if p.is_infinity or not p.is_exact:
        return 0
    return height_bits(p.value())


def _reversed_horner(rows, j: int, t):
    """sum(rows[i][j] t^i) by Horner from the last nonzero entry of column j.

    That is column j of the homogeneous table in the 1/z chart, evaluated
    in the operations of Polynomial.evaluate, which drops leading zeros.
    """
    k = len(rows) - 1
    while k > 0 and scalar_is_zero(rows[k][j]):
        k -= 1
    acc = rows[k][j]
    for i in range(k - 1, -1, -1):
        acc = acc * t + rows[i][j]
    return acc


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
        # the rows (P_i, Q_i) of P_h(u, v) = sum P_i u^(d-i) v^i and of Q_h
        self.homogeneous = tuple(zip(*(
            (GaussianRational(0),) * (self.degree - f.degree) + f.coeffs for f in (p, q)
        )))
        # W = P'Q - PQ', the numerator of the derivative, and W_h(1 : 0)
        self.wronskian = p.derivative() * q - p * q.derivative()
        (p0, q0), (p1, q1) = self.homogeneous[:2]
        self._wronskian_at_infinity = q1 * p0 - q0 * p1
        self._floating = None
        self._floating_horner = None
        self._scale = None
        # memoization only: entries are write-once per key and recomputation
        # is harmless, so concurrent readers stay safe
        self._preimage_cache = {}
        # period -> the floating fixed-point solve of R^p (dynamics._fixed_points)
        self._fixed_point_cache = {}
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
        if x.is_infinity:
            u, v = self.homogeneous[0]
            if not (self.is_exact and x.is_exact):
                u, v = complex(u), complex(v)
            return SpherePoint(u, v)
        if x.is_exact and self.is_exact:
            u = self.p.evaluate(x.z)
            v = self.q.evaluate(x.z)
            # coprimality rules out a common homogeneous zero in exact mode
            return SpherePoint(u, v)
        zc = complex(x.z)
        if abs(zc) <= 1.0:
            u = self.floating().p.evaluate(zc)
            v = self.floating().q.evaluate(zc)
        else:
            # balanced chart: the 1/z-chart pair at t = 1/z (homogeneous rescale)
            t = 1.0 / zc
            rows = self.floating().homogeneous
            u, v = _reversed_horner(rows, 0, t), _reversed_horner(rows, 1, t)
        scale = self._coeff_scale()
        if max(abs(u), abs(v)) <= self.tolerance * scale:
            raise IndeterminateEvaluationError(
                "both homogeneous components vanished below tolerance",
                point=str(x),
            )
        return SpherePoint(u, v)

    def image_rows(self, points) -> np.ndarray:
        """The normalized_pairs rows of R(x) for the points x, NaN where R has none.

        The floating finite points are evaluated in one array pass, in the
        operations of evaluate up to rounding: (u, v) by Horner in z on
        |z| <= 1 and in t = 1/z beyond, and no image where
        max(|u|, |v|) <= tolerance * scale.  Infinity and the exact points of
        an exact map take evaluate, a RatmapError giving no image.
        """
        rows = np.full((len(points), 2), np.nan, complex)
        floating = np.array([not (x.is_infinity or (x.is_exact and self.is_exact))
                             for x in points], bool)
        images = {}
        for i in np.flatnonzero(~floating).tolist():
            try:
                images[i] = self.evaluate(points[i])
            except RatmapError:
                pass
        if images:
            rows[list(images)] = normalized_pairs(list(images.values()))
        if floating.any():
            z = np.array([complex(x.z) for x, f in zip(points, floating) if f])
            table = np.array(self.floating().homogeneous, complex)
            inner = (np.abs(z) <= 1.0)[:, None]
            # an overflow, or a NaN from inf / inf, leaves a row with no image
            with np.errstate(all="ignore"):
                t = np.where(inner, z[:, None], 1.0 / z[:, None])
                # (P_h, Q_h)(z, 1) by Horner from row 0 inside, (P_h, Q_h)(1, t) from row d outside
                uv = np.where(inner, table[0], table[-1])
                for head, tail in zip(table[1:], table[-2::-1]):
                    uv = uv * t + np.where(inner, head, tail)
                u, v = np.abs(uv).T
                uv /= np.hypot(u, v)[:, None]
                uv[np.maximum(u, v) <= self.tolerance * self._coeff_scale()] = np.nan
            rows[floating] = uv
        return rows

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
        yc = complex(yv)
        a = fl.p - fl.q * yc
        n = len(a.coeffs)
        scales = [abs(pk) + abs(yc) * abs(qk) for pk, qk in fl.homogeneous[-n:]]
        k = 0
        while k < n and abs(a.coeffs[k]) <= self.tolerance * scales[k]:
            k += 1
        return Polynomial(a.coeffs[k:])

    def preimages(self, y: SpherePoint):
        """Multiset R^-1(y) as (point, multiplicity); multiplicities sum to d.

        Read from the memo that preimages_many fills; a failed solve raises
        its RatmapError again.
        """
        if y not in self._preimage_cache:
            self.preimages_many([y])
        out = self._preimage_cache[y]
        if isinstance(out, RatmapError):
            raise out.with_traceback(None)
        return out

    def preimages_many(self, targets):
        """Fill the preimage memo for every target not yet in it.

        The target polynomials are solved in one find_roots_many call, so a
        floating one gets the roots of its lone solve.  A target whose
        polynomial vanishes or whose solve fails is memoized with its
        RatmapError.  The multiplicities of the roots of a target polynomial
        of degree k sum to k, and infinity takes the other d - k.
        """
        fresh = [y for y in dict.fromkeys(targets) if y not in self._preimage_cache]
        if not fresh:
            return
        polys = {}
        for y in fresh:
            a = self._target_polynomial(y)
            if a.is_zero:
                self._preimage_cache[y] = DegenerateMapError("target polynomial vanished identically")
            else:
                polys[y] = a
        solving = [y for y, a in polys.items() if a.degree >= 1]
        solved = dict(zip(solving, find_roots_many([polys[y] for y in solving])))
        for y, a in polys.items():
            roots = solved.get(y, [])
            if isinstance(roots, RatmapError):
                self._preimage_cache[y] = roots
                continue
            out = [(SpherePoint.finite(root), mult) for root, mult, _ in roots]
            if a.degree < self.degree:
                point = INFINITY if a.is_exact else SpherePoint.infinity(exact=False)
                out.append((point, self.degree - a.degree))
            self._preimage_cache[y] = out

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
        """Local degree val(R, x): valencies' one-point case."""
        return self.valencies([x])[0]

    def valencies(self, points) -> list:
        """[val(R, x) for x in points], read from the critical table.

        For an exact map, an exact finite point has 1 + the exact vanishing
        order of W there and infinity the table's exact entry.  Any other
        point has the valency of the nearest table entry within
        tolerance + SCREEN_SLACK (sphere.nearest_rows), when it coincides
        with it at the tolerance, and 1 otherwise: a point near a critical
        point but not on it is not critical.
        """
        vals = [self._exact_valency(x) for x in points]
        rest = [i for i, val in enumerate(vals) if val is None]
        if rest:
            table = self.critical_table()
            nearest = nearest_rows(normalized_pairs([points[i] for i in rest]),
                                   normalized_pairs([c for c, _ in table]),
                                   self.tolerance + SCREEN_SLACK)
            for i, k in zip(rest, nearest):
                coincides = k is not None and coincide(points[i], table[k][0], self.tolerance)
                vals[i] = table[k][1] if coincides else 1
        return vals

    def _exact_valency(self, x: SpherePoint):
        """val(R, x) where exactness decides it, else None."""
        if self.is_exact and x.is_exact and not x.is_infinity:
            # orbits come back to the same exact points, the critical ones above all
            z = x.z
            if z not in self._exact_valencies:
                self._exact_valencies[z] = 1 + vanishing_order_exact(self.wronskian, z)
            return self._exact_valencies[z]
        if self.is_exact and x.is_infinity:
            return self.critical_table()[-1][1]
        return None

    # -- derivative in charts ----------------------------------------------------

    def local_derivative(self, x: SpherePoint, image: SpherePoint):
        """The chart factor W_h(x) / s^2 at x, with s = Q_h(x) when image = R(x)
        is finite and P_h(x) when it is infinity; around a cycle these
        factors multiply to the multiplier."""
        if x.is_infinity:
            w = self._wronskian_at_infinity
            s = self.homogeneous[0][0 if image.is_infinity else 1]
        else:
            w, p, q = ((self.wronskian.coeffs, self.p.coeffs, self.q.coeffs) if x.is_exact
                       else self._horner_coeffs())
            w = horner(w, x.z)
            s = horner(p if image.is_infinity else q, x.z)
        return w / (s * s)

    def _horner_coeffs(self):
        """The coefficients of W, P and Q for Horner at a floating point; built once.

        Each is the complex image of the coefficient, the operand that the
        mixed arithmetic of an exact coefficient and a complex value takes,
        but a constant is kept as it is: Horner returns it unchanged, so an
        exact constant keeps s * s exact.
        """
        if self._floating_horner is None:
            self._floating_horner = tuple(
                f.coeffs if len(f.coeffs) == 1 else tuple(complex(c) for c in f.coeffs)
                for f in (self.wronskian, self.p, self.q))
        return self._floating_horner

    def cycle_multiplier(self, points):
        """Multiplier of the cycle through points, listed in orbit order.

        The image of each point is taken to be the next one, the last point's
        the first, so each chart factor ends in the chart where the next
        begins.
        """
        m = GaussianRational(1) if self.is_exact else complex(1.0)
        for pt, image in zip(points, (*points[1:], points[0])):
            m = m * self.local_derivative(pt, image)
        return m


@dataclass(frozen=True)
class CriticalPoint:
    point: SpherePoint
    local_valency: int

    @property
    def multiplicity(self) -> int:
        """Weight in the critical divisor; these sum to 2d - 2."""
        return self.local_valency - 1
