"""Points of the Riemann sphere in homogeneous coordinates.

A point is a pair (z : w), not both zero, canonicalized to w = 1 for
finite points and (1 : 0) for infinity.  Infinity is always stored with
exact components; it never arises from a magnitude threshold on a chart
value, only from homogeneous bookkeeping (an exact zero denominator, a
degree drop, or the representation epsilon below).

Floating canonicalization uses a representation epsilon of 1e-14: a pair
whose second component is that far below the first is within 1e-14 of
infinity in the chordal metric, far inside every tolerance this package
works at, and flipping it to (1 : 0) keeps chart values bounded, also for
a floating z past float range.  floating_value is that rule on a pair,
for a caller that needs the chart value before it builds the point.  A
pair of two builtin complex values goes straight to floating_value; any
other input is first normalized by as_scalar, and a pair that is not
exact then becomes two complex values and takes the same branch.  A
point decides is_infinity and is_exact when it is built, and its floating
pair and norm (norm_pair, which chordal, normalized_pairs and near_rows
read) when first asked.

near_row_pairs is the one key screen: it keys the rows of two
normalized_pairs arrays on an axis through the unit sphere of R^3
(row_keys), sorts the keys of one and takes each row of the other its
searchsorted window, so it never drops a pair within the reach and builds
no n x m matrix.  near_partners pairs a set of points on it, for
dedup_indices and roots._cluster (every pair up to DIRECT_MAX_POINTS
points); dynamics' seeds screen their starts (rows_apart) and their
critical values on it; and nearest_rows, the one nearest-match rule (the
nearest row within a reach, the lowest index on a tie), matches solved
points' images in dynamics and points to the critical table in
RationalMap.valencies.
near_rows screens one point, from its own norm_pair, against the rows of a
normalized_pairs table, for orbit_fate.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .scalars import (
    GaussianRational,
    as_scalar,
    is_exact,
    parse_scalar,
    scalar_str,
)

REPRESENTATION_EPS = 1e-14
# the largest set whose near_partners are all earlier points; above it a
# numpy screen picks them, whose fixed cost of about 40-60 us per call the
# quadratic pairwise loop reaches at about 8 points
DIRECT_MAX_POINTS = 8


def _exact(value: complex) -> GaussianRational:
    """The finite floating value, exactly; ValueError for NaN or inf parts."""
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise ValueError("non-finite component; points never store NaN or inf")
    return GaussianRational(value.real, value.imag)


def floating_value(z: complex, w: complex) -> complex | None:
    """The chart value z / w of the floating pair (z : w), None for infinity.

    This is the canonicalization of a floating SpherePoint: the pair is
    infinity when |w| <= REPRESENTATION_EPS |z|.  ValueError for a NaN or
    infinite component and for (0 : 0).
    """
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        raise ValueError("non-finite component; points never store NaN or inf")
    if z == 0 and w == 0:
        raise ValueError("(0 : 0) is not a point of the sphere")
    try:
        at_infinity = abs(w) <= REPRESENTATION_EPS * abs(z)
    except OverflowError:
        # a modulus past float range: quarters keep the ratio, and their
        # moduli and quotient stay in range
        z, w = z / 4, w / 4
        at_infinity = abs(w) <= REPRESENTATION_EPS * abs(z)
    return None if at_infinity else z / w


class SpherePoint:
    __slots__ = ("z", "w", "is_infinity", "is_exact", "_chart")

    def __init__(self, z, w):
        self._chart = None
        if type(z) is not complex or type(w) is not complex:
            z, w = as_scalar(z), as_scalar(w)
            if isinstance(z, GaussianRational) and isinstance(w, GaussianRational):
                self.is_exact, self.is_infinity = True, w.is_zero()
                if self.is_infinity:
                    if z.is_zero():
                        raise ValueError("(0 : 0) is not a point of the sphere")
                    self.z, self.w = GaussianRational(1), GaussianRational(0)
                else:
                    self.z, self.w = z / w, GaussianRational(1)
                return
            try:
                z, w = complex(z), complex(w)
            except OverflowError:
                # an exact component past float range beside a floating one:
                # the point to_float makes of the pair read exactly, floating
                # infinity included
                p = SpherePoint(*(v if is_exact(v) else _exact(v) for v in (z, w))).to_float()
                z, w = (complex(1.0), 0j) if p.is_infinity else (p.z, p.w)
        value = floating_value(z, w)
        self.is_exact = False
        self.is_infinity = value is None
        if self.is_infinity:
            # infinity reached through floating data stays floating: it is
            # numerical knowledge, and must not pass exact-equality checks
            self.z, self.w = complex(1.0), complex(0.0)
        else:
            self.z, self.w = value, complex(1.0)

    @classmethod
    def finite(cls, value):
        return cls(value, 1)

    @classmethod
    def infinity(cls, exact: bool = True):
        if exact:
            return cls(GaussianRational(1), GaussianRational(0))
        return cls(complex(1.0), complex(0.0))

    def value(self):
        """Chart value z/w; only defined for finite points."""
        if self.is_infinity:
            raise ValueError("infinity has no finite chart value")
        return self.z

    def to_float(self) -> "SpherePoint":
        if self.is_infinity or not self.is_exact:
            return self
        try:
            zc = complex(self.z)
        except OverflowError:
            # beyond float range means chordally indistinguishable from infinity
            return SpherePoint.infinity(exact=False)
        if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
            return SpherePoint.infinity(exact=False)
        return SpherePoint(zc, complex(1.0))

    def norm_pair(self):
        """((z, w), |(z, w)|), computed once: (z : 1) for a finite point whose
        floating value and norm are in float range, else (1 : 0)."""
        if self._chart is None:
            try:
                zc = complex(self.z)
                norm = math.hypot(abs(zc), 1.0)
            except OverflowError:  # beyond float range: chordally indistinguishable from infinity
                norm = math.inf
            finite = not self.is_infinity and math.isfinite(norm)
            self._chart = ((zc, 1.0 + 0.0j), norm) if finite else ((1.0 + 0.0j, 0.0j), 1.0)
        return self._chart

    def chordal(self, other: "SpherePoint") -> float:
        """Chordal metric d(p,q) = 2|z1 w2 - z2 w1| / (|p| |q|), diameter 2."""
        (z1, w1), n1 = self.norm_pair()
        (z2, w2), n2 = other.norm_pair()
        return 2.0 * abs(z1 * w2 - z2 * w1) / (n1 * n2)

    def __eq__(self, other):
        if not isinstance(other, SpherePoint):
            return NotImplemented
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        return self.z == other.z

    def __hash__(self):
        if self.is_infinity:
            return hash("inf-point")
        # a GaussianRational hashes as its complex value while that is in range
        return hash(self.z)

    def __repr__(self):
        return f"SpherePoint({point_str(self)})"

    def __str__(self):
        return point_str(self)


INFINITY = SpherePoint.infinity()


def point_str(p: SpherePoint) -> str:
    return "inf" if p.is_infinity else scalar_str(p.z)


def parse_point(text: str) -> SpherePoint:
    s = text.strip().lower()
    if s in ("inf", "infinity", "oo", "∞"):
        return SpherePoint.infinity()
    return SpherePoint.finite(parse_scalar(text))


def coincide(p: SpherePoint, q: SpherePoint, tol: float) -> bool:
    """Point equality: exact when both sides are exact, chordal otherwise."""
    if p.is_exact and q.is_exact:
        return p == q
    return p.chordal(q) <= tol


def point_sort_key(p: SpherePoint):
    """Finite points by real part, then imaginary part; infinity last.

    Real parts that agree to 12 significant digits tie, so a last-place
    rounding of the real part does not reorder two points that the
    imaginary part tells apart, such as the conjugates -0.5 +- 0.866i,
    unless it crosses a 12-digit rounding boundary; the exact real part
    breaks what is left of a tie.  A real part of at most 1e-12 max(1, |z|)
    is rounding dust and counts as 0, so the sign of the dust does not
    order points on the imaginary axis, such as +-2i, or a point at the
    origin within rounding.
    """
    if p.is_infinity:
        return (1, 0.0, 0.0, 0.0)
    z = complex(p.z)
    re = 0.0 if abs(z.real) <= 1e-12 * max(1.0, abs(z)) else z.real
    return (0, float(f"{re:.12e}"), z.imag, re)


def dedup_points(points, tol):
    """Greedy dedup preserving first occurrences."""
    points = list(points)
    return [points[i] for i in dedup_indices(points, tol)]


def dedup_indices(points, tol):
    """The indices of the points dedup_points keeps, in order.

    A point is kept when it coincides with no point kept before it; only
    its near_partners at reach 2 tol can.
    """
    keep = []
    for p, partners in zip(points, near_partners(points, 2.0 * tol)):
        keep.append(not any(keep[j] and coincide(p, points[j], tol) for j in partners))
    return [i for i, kept in enumerate(keep) if kept]


def near_partners(points, reach):
    """For each point (SpherePoints or chart values), the earlier points
    that may lie within chordal distance reach of it: all of them for at
    most DIRECT_MAX_POINTS points, else those that near_row_pairs pairs
    with it on their normalized_pairs rows, found in n log n.  A NaN value,
    whose row is NaN, is paired with the NaN values only.
    """
    n = len(points)
    if n <= DIRECT_MAX_POINTS:
        return [range(i) for i in range(n)]
    with np.errstate(all="ignore"):  # a NaN, infinite or zero chart value is paired silently
        rows = normalized_pairs(points)
    i, j, _ = near_row_pairs(rows, rows, reach)
    earlier = j < i
    partners = [[] for _ in range(n)]
    for k, m in zip(i[earlier].tolist(), j[earlier].tolist()):
        partners[k].append(m)
    return partners


def contains_point(points, p, tol) -> bool:
    return any(coincide(p, q, tol) for q in points)


def normalized_pairs(points) -> np.ndarray:
    """The (n, 2) complex array of the points' pairs (z : w), each row of norm 1.

    A complex array of chart values z gives (z : 1), or (1 : 1/z) outside
    the unit disc, where |z| may overflow; a NaN value gives a NaN row.

    The chordal distance of rows a and b is 2|a0 b1 - a1 b0|.  Two points
    that are equal exactly have identical rows, hence distance exactly 0; any
    other difference from SpherePoint.chordal is rounding, a few units in
    the last place of 2.  So a pair whose array distance is above
    2 tol + SCREEN_SLACK cannot pass coincide at tol: a screen with that
    margin (near_rows) leaves only what needs coincide.
    """
    if isinstance(points, np.ndarray):
        outer = np.abs(points) > 1.0
        a = np.stack([np.where(outer, 1.0, points), np.where(outer, 1.0 / points, 1.0)], axis=1)
    else:
        a = np.array([x.norm_pair()[0] for x in points], dtype=complex).reshape(-1, 2)
    # hypot, unlike the norm's sum of squares, does not overflow past |z| = 1e154
    return a / np.hypot(np.abs(a[:, :1]), np.abs(a[:, 1:]))


# far above the rounding of either chordal evaluation (a few units in the last place of 2)
SCREEN_SLACK = 1e-14
# the key of a row is X . (0.48, 0.6, 0.64), a unit vector off every
# coordinate plane, so that points sharing a coordinate (conjugates, points
# of one modulus) do not share a key.  In the real coordinates
# r = (Re a0, Im a0, Re a1, Im a1) of the row it is r S r^T, S being this matrix
SCREEN_FORM = np.array([[0.64, 0.0, 0.48, -0.6],
                        [0.0, 0.64, 0.6, 0.48],
                        [0.48, 0.6, -0.64, 0.0],
                        [-0.6, 0.48, 0.0, -0.64]])


def row_keys(a: np.ndarray) -> np.ndarray:
    """The screen key of each row of a normalized_pairs array; NaN for a NaN row.

    A row (a0, a1) lies over the point
    X = (2 Re a0 conj(a1), 2 Im a0 conj(a1), |a0|^2 - |a1|^2) of the unit
    sphere, and |X - Y| is the chordal distance 2|a0 b1 - a1 b0|.  So the
    keys of two rows differ by at most their chordal distance, up to
    rounding far below SCREEN_SLACK.
    """
    r = np.ascontiguousarray(a).view(float).reshape(-1, 4)
    return ((r @ SCREEN_FORM) * r).sum(axis=1)


def array_chordal(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The chordal distances between the rows of two normalized_pairs arrays."""
    return 2.0 * np.abs(np.outer(a[:, 0], b[:, 1]) - np.outer(a[:, 1], b[:, 0]))


def near_row_pairs(a: np.ndarray, b: np.ndarray, reach: float):
    """(i, j, distances): the pairs of a row a[i] and a row b[j] of two
    normalized_pairs arrays whose row_keys differ by at most
    reach + SCREEN_SLACK, found in (n + m) log m, and the chordal distance
    of each pair by the formula of array_chordal.

    So every pair within chordal distance reach is among them, and no n x m
    matrix is built.  A NaN row, whose key is NaN, is paired with the NaN
    rows only, at distance NaN.
    """
    keys = row_keys(b)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    query = row_keys(a)
    margin = reach + SCREEN_SLACK
    lo = np.searchsorted(sorted_keys, query - margin, "left")
    counts = np.searchsorted(sorted_keys, query + margin, "right") - lo
    i = np.repeat(np.arange(len(a)), counts)
    # row i's window order[lo[i]:lo[i] + counts[i]], all windows in one gather
    j = order[np.arange(len(i)) + np.repeat(lo - np.cumsum(counts) + counts, counts)]
    ai, bj = a[i], b[j]
    return i, j, 2.0 * np.abs(ai[:, 0] * bj[:, 1] - ai[:, 1] * bj[:, 0])


def rows_apart(a: np.ndarray, reach: float) -> bool:
    """Whether the rows of a normalized_pairs array are pairwise more than
    chordal distance reach apart; False when a row is NaN.

    Sorted row_keys whose neighbours all lie more than reach + SCREEN_SLACK
    apart decide it alone; otherwise the pairs of near_row_pairs decide.
    """
    keys = np.sort(row_keys(a))
    if np.isnan(keys).any():
        return False
    if (keys[1:] - keys[:-1] > reach + SCREEN_SLACK).all():
        return True
    i, j, distances = near_row_pairs(a, a, reach)
    return bool((distances[i != j] > reach).all())


def nearest_rows(a: np.ndarray, b: np.ndarray, reach: float, sizes=None) -> list:
    """For each row of a, the index of the nearest row of b within chordal
    distance reach, or None; of rows at one distance the lowest index is
    taken, and a NaN row has none.  Both are normalized_pairs arrays, and
    only the pairs that near_row_pairs screens in are measured.  Given
    sizes, both arrays are consecutive blocks of those sizes, and each
    row's nearest is sought in its own block and indexed within it.
    """
    i, j, distances = near_row_pairs(a, b, reach)
    within = distances <= reach
    if sizes is not None:
        block = np.repeat(np.arange(len(sizes)), sizes)
        within &= block[i] == block[j]
        j = j - (np.cumsum(sizes) - sizes)[block[j]]
    i, j, distances = i[within], j[within], distances[within]
    nearest = [None] * len(a)
    # by row, then distance, then index: each row's first pair is its nearest
    order = np.lexsort((j, distances, i))
    for k, m in zip(i[order].tolist(), j[order].tolist()):
        if nearest[k] is None:
            nearest[k] = m
    return nearest


def near_rows(pair, rows: np.ndarray, tol: float) -> np.ndarray:
    """The indices of the rows of a normalized_pairs array that may coincide
    at tol with the point whose norm_pair() is pair.

    The chordal distance 2|z b1 - w b0| / |(z, w)| is computed from the
    point's own pair, without normalizing it; it differs from that of the
    normalized rows by rounding far below SCREEN_SLACK.  So the screen at
    2 tol + 2 SCREEN_SLACK passes every row that the margin of
    normalized_pairs, 2 tol + SCREEN_SLACK, passes, hence every row that
    coincides with the point at tol.
    """
    (z, w), norm = pair
    return np.flatnonzero(np.abs(z * rows[:, 1] - w * rows[:, 0]) <= (tol + SCREEN_SLACK) * norm)

