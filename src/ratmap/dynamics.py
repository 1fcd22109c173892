"""Critical points, periodic cycles, orbit fates, asymptotic valency.

The critical points are the entries of the map's critical table of valency
2 or more.  Every valency used here is a lookup in that table through
RationalMap.valencies, so each is decided once per map: those of all cycle
points at once (criticality of a cycle), and the cumulative valency along
an orbit, asymptotic valency included, through Orbit.valency alone, which
looks up each block of newly walked points in one call.  Cycles are
classified only in periodic_cycles, the one caller of make_cycle.

Orbit steps every forward orbit of the analysis under one height guard: an
exact orbit steps exactly until a coordinate passes EXACT_HEIGHT_CAP_BITS
(512) bits, then in floating point.  Those walks are orbit_fate's and its
perturbed re-run, the exact check of each fixed-point candidate that passes
the modular screen, and restricted's RO witnesses and invariance search;
restricted's closures read their forward images off the cycles' points and
the critical fates' walks.  Only the render steps otherwise: it iterates its
pixel grid in floating arrays of its own.  Each orbit is walked once:
orbit_fate's floating tail extends the walk of its exact prefix, and the
fate keeps that walk for asymptotic_valency and the other readers.

Each PeriodicCycle is its own capture model; tol is the map's tolerance,
and each distance is a module constant.  lands: R^n(x) lands on
a cycle point when n = 0 and the two coincide, or when both are exact,
exactly when they are equal; else, unless the cycle holds a critical point
(where convergence underflows to an exact hit), when they lie within
tol * LANDING_RATIO and x is infinity or R^n(x + REVERIFY_OFFSET) lies
within tol * REVERIFY_RATIO of the cycle.  orbit_fate asks it on the first
64 steps, for each distinct point only about the cycle points that its
norm_pair passes in the table of the cycles' normalized_pairs rows
(sphere.near_rows), whose margin drops none within the tolerance.
captured: a (super)attracting cycle captures the floating tail at its
3 * period-th point in a row within CAPTURE_DISTANCE; a parabolic one,
once the tail has run its whole budget, when at least 8 distances sampled
every budget // 256 steps fall from the quarter to the half to the last,
which is below PARABOLIC_COLLAR.  stop_distance: asymptotic_valency reads
a converging orbit up to its first point within min(collar / 2,
STOP_DISTANCE) of the cycle, the collar being the distance to the nearest
critical point off it (2 when there is none).

The cycles of period p come from the fixed points of R^p, found by Aberth
on the orbit recursion in a fixed Möbius chart (never on an expanded
polynomial), merged where multiple and snapped to exact points where exact
iteration verifies them.  Aberth starts period p from the chart values of
the d^p points of R^-p(SEED_POINT), which are distributed like the fixed
points of R^p, and of infinity (_seeds).  The preimage tree is solved level
by level, each level in one batched eigenvalue call on the companion
matrices of its targets' polynomials (roots.preimages).  From the first
degenerate level on, the periods start on a circle, as all did before: a
level is degenerate when a target lies within DEFAULT_CLUSTER_RADIUS of a
critical value of R, where its preimages are multiple, or when its starts
are not all finite and pairwise more than DISTINCT_STARTS (1e-12) apart.
Each test is one sphere.near_row_pairs call over all levels (the starts
of each level against each other, the targets against the critical
values), so neither builds an n x n matrix, and the chart basis of a
degree is built once.
The seeds only start Aberth: its stop test, residual bar, clustering, merge
and polish decide every root.  In each step of the recursion P, Q, the
power v^i of Horner's scheme and their derivatives advance as the rows of
one array.  All periods that are needed are solved in lock step: their
points are the rows of one array by descending period, and step k of the
recursion advances only the rows of period at least k, so each Aberth sweep
and each Newton step is one walk for all periods.  Each period keeps its
own Aberth sum and stop test, and at most 200 sweeps; its residual check,
clustering and failure are its own.  Simple fixed points are polished in
the balanced charts, (w : 1) on |z| <= 1 and (1 : w) beyond, by one walk
per Newton step for all periods, whose chart holds one coefficient per
point.
On an exact map the candidates of all periods are decided
together (_exact_fixed_points): every finite candidate is snapped in one
int64 array pass (roots.snap_many), and every snap is walked p steps modulo
a prime in one int64 array walk (_screen_passes), as a homogeneous pair of
Gaussian integers under the map's rows times the lcm of their denominators.
Reduction modulo the prime is a ring map on the Gaussian integers, so an
exact fixed point is one modulo the prime too, and only a snap that passes
is built and walked exactly by Orbit; the screen cannot change a verdict,
it only spares the exact walk of most non-fixed snaps.  Each solved point is
built as a SpherePoint once: a simple point goes to the polish as its chart
value.  R maps each solved point to the solved point nearest its image,
and the chains of p points that close are the cycles of period p.  The
images of all solved points of all periods are computed in one array pass
(RationalMap.image_rows), infinity and exact points excepted, and matched
to the points of their period by the sphere's nearest-match rule
(sphere.nearest_rows), which reads the pairs of near_row_pairs; no image
is built as a point, and no n x n distance matrix is.  A cycle's chart factors take each point's
successor as its image, and the valencies of all cycle points come from
one lookup in the critical table (RationalMap.valencies).  Each period is certified by the rational
fixed-point formula sum 1/(1 - mu) = 1; a failed or uncertified
period is a coded warning, and the search goes on.  The floating solve of
each period is memoized on the floating map, a failure too, so an analysis
and a render of the same map solve it once; the snaps are made per call.

Cycle classification never guesses: super-attraction is decided by
criticality of the cycle (exactly, when the map is exact), attracting and
repelling come from |multiplier| against a band of width 1e-6 around 1,
and a floating multiplier inside the band is recorded as ambiguous rather
than forced into a class.  An exact multiplier of modulus 1 is rationally
indifferent exactly when it is 1, -1, i or -i, the roots of unity of Q(i);
a floating one within 1e-12 of modulus 1 is when one of the first
ROOT_OF_UNITY_CAP powers of its direction is within 1e-9 of 1.
"""

from __future__ import annotations

import cmath
import functools
import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymptoticValencyUndeterminedError,
    ClassificationAmbiguousError,
    RatmapError,
    RootFindingFailedError,
)
from .rational import EXACT_HEIGHT_CAP_BITS, CriticalPoint, RationalMap, point_height_bits
from .roots import (
    DEFAULT_CLUSTER_RADIUS,
    EPSILON,
    companion_roots,
    find_zeros,
    polish,
    preimages,
    snap_many,
    start_circle,
)
from .scalars import MODULAR_PRIME, GaussianRational, mod_prime_pairs, mod_prime_rows
from .sphere import (
    INFINITY,
    SpherePoint,
    coincide,
    contains_point,
    floating_value,
    near_row_pairs,
    near_rows,
    nearest_rows,
    normalized_pairs,
    point_sort_key,
)

INDIFFERENT_BAND = 1e-6
ROOT_OF_UNITY_CAP = 64
DEFAULT_ORBIT_BUDGET = 10_000
DEFAULT_MAX_PERIOD = 4
# skip periods whose sphere solve would exceed this many points; reported as truncation
DEFAULT_PERIOD_WORK_CAP = 200

INFINITE = float("inf")

# the capture model's distances, chordal or relative to the map's tolerance
LANDING_RATIO = 1e-3  # a floating landing lies within tol * LANDING_RATIO
REVERIFY_OFFSET = complex(1e-12, 1e-12)  # moves the start of a landing's re-run
REVERIFY_RATIO = 1e4  # the re-run lands within tol * REVERIFY_RATIO
CAPTURE_DISTANCE = 1e-8  # a (super)attracting cycle's hits in the tail
PARABOLIC_COLLAR = 1e-2  # where a parabolic cycle's sampled trend must end
STOP_DISTANCE = 1e-6  # asymptotic_valency's farthest stop

# the roots of unity of Q(i), which holds no other, and their orders
EXACT_ROOT_OF_UNITY_ORDERS = {GaussianRational(1): 1, GaussianRational(-1): 2,
                              GaussianRational(0, 1): 4, GaussianRational(0, -1): 4}


def critical_points(r: RationalMap):
    """The entries of the critical table of valency >= 2; sum(val - 1) = 2d - 2."""
    crit = [CriticalPoint(pt, val) for pt, val in r.critical_table() if val >= 2]
    return sorted(crit, key=lambda c: point_sort_key(c.point))


def critical_divisor_degree(crits) -> int:
    return sum(c.local_valency - 1 for c in crits)


@dataclass
class PeriodicCycle:
    period: int
    points: tuple
    multiplier: object
    classification: str
    contains_critical: bool
    local_degree: int = 1
    root_of_unity_order: int | None = None
    rotation_estimate: float | None = None
    cycle_id: int = -1

    def sort_key(self):
        return (self.period,) + point_sort_key(self.points[0])

    def contains(self, x: SpherePoint, tol: float) -> bool:
        return contains_point(self.points, x, tol)

    def distance(self, z: SpherePoint) -> float:
        return min(z.chordal(pt) for pt in self.points)

    def lands(self, walk: Orbit, n: int, cpt: SpherePoint) -> bool:
        """Whether the orbit walk lands at step n on cpt, a point of the cycle."""
        r, pt = walk.r, walk.point(n)
        if n == 0 and coincide(pt, cpt, r.tolerance):
            return True  # identity case: the queried point is a cycle point
        if pt.is_exact and cpt.is_exact:
            return pt == cpt
        # floating leg: landings on critical cycles are not decidable
        # (convergence underflows to an exact hit); report convergence
        return (not self.contains_critical and pt.chordal(cpt) <= r.tolerance * LANDING_RATIO
                and _reverify_landing(r, walk.points[0], self, n, r.tolerance))

    def captured(self, walk: Orbit, first: int, n: int, ended: bool = False) -> bool:
        """Whether the orbit walk, whose tail starts at point first, is captured
        at its tail point n, or, when ended, once the tail has run to n."""
        if self.classification in ("superattracting", "attracting"):
            # the newest point first: most tail points are not hits
            run = 3 * self.period
            if ended or n - run + 1 < first or self.distance(walk.points[n]) >= CAPTURE_DISTANCE:
                return False
            return all(self.distance(walk.points[j]) < CAPTURE_DISTANCE
                       for j in range(n - run + 1, n))
        if not ended or self.classification != "rationally_indifferent":
            return False
        # parabolic attraction is slow; accept a decreasing trend into a small
        # collar, sampled after the tail steps s with s % every == 0
        every = max(1, n // 256)
        sampled = range(first - 1, n)[(1 - first) % every::every]
        if len(sampled) < 8:
            return False
        q1, q2, q3 = (self.distance(walk.points[sampled[i] + 1])
                      for i in (len(sampled) // 4, len(sampled) // 2, -1))
        return q3 < PARABOLIC_COLLAR and q3 < q2 < q1

    def stop_distance(self, crit_pts, tol: float) -> float:
        """min(collar / 2, STOP_DISTANCE), the collar being the distance to the
        nearest critical point off the cycle, or the sphere's diameter 2."""
        off_cycle = [p for p in crit_pts if not self.contains(p, tol)]
        collar = min((self.distance(p) for p in off_cycle), default=2.0)
        return min(collar / 2, STOP_DISTANCE)

    @property
    def has_basin(self) -> bool:
        """True when the cycle attracts an open set: superattracting, attracting or parabolic."""
        return self.classification in ("superattracting", "attracting", "rationally_indifferent")


def _classify(multiplier, contains_critical: bool):
    """Returns (classification, root-of-unity order, rotation estimate)."""
    if contains_critical:
        return "superattracting", None, None
    if isinstance(multiplier, GaussianRational):
        a2 = multiplier.abs2()
        if a2 < 1:
            return "attracting", None, None
        if a2 > 1:
            return "repelling", None, None
        if multiplier in EXACT_ROOT_OF_UNITY_ORDERS:
            return "rationally_indifferent", EXACT_ROOT_OF_UNITY_ORDERS[multiplier], None
        theta = cmath.phase(complex(multiplier)) / (2 * math.pi) % 1.0
        return "irrationally_indifferent", None, theta
    mod = abs(complex(multiplier))
    if abs(mod - 1.0) < INDIFFERENT_BAND:
        lam = complex(multiplier) / mod
        if abs(mod - 1.0) < 1e-12:
            for k in range(1, ROOT_OF_UNITY_CAP + 1):
                if abs(lam**k - 1.0) < 1e-9:
                    return "rationally_indifferent", k, None
            theta = cmath.phase(lam) / (2 * math.pi) % 1.0
            return "irrationally_indifferent", None, theta
        raise ClassificationAmbiguousError(
            "multiplier modulus inside the indifferent band", modulus=mod
        )
    if mod < 1.0:
        return "attracting", None, None
    return "repelling", None, None


def make_cycle(r: RationalMap, pts, vals, warnings) -> PeriodicCycle:
    """The classified cycle through pts, listed in orbit order; vals[k] is val(R, pts[k]).

    R maps each point to the next and the last to the first, which is what
    the chart factors of the multiplier read.  The cycle starts at its least
    point; cycle_id is left at -1.  An ambiguous multiplier classifies the
    cycle as indifferent_ambiguous and appends a coded record to warnings.
    """
    contains_crit = any(v >= 2 for v in vals)
    if contains_crit:
        multiplier = GaussianRational(0) if r.is_exact else complex(0.0)
    else:
        multiplier = r.cycle_multiplier(pts)
    try:
        classification, order, theta = _classify(multiplier, contains_crit)
    except ClassificationAmbiguousError as err:
        classification, order, theta = "indifferent_ambiguous", None, None
        warnings.append(
            {
                "code": err.code,
                "message": str(err),
                "period": len(pts),
                "point": str(pts[0]),
            }
        )
    start = min(range(len(pts)), key=lambda i: point_sort_key(pts[i]))
    return PeriodicCycle(
        period=len(pts),
        points=pts[start:] + pts[:start],
        multiplier=multiplier,
        classification=classification,
        contains_critical=contains_crit,
        local_degree=math.prod(vals),
        root_of_unity_order=order,
        rotation_estimate=theta,
    )


# Charts w -> (alpha w + beta : gamma w + delta) for the fixed points of R^p.
# Aberth solves in SOLVE_CHART, whose non-real coefficients keep every
# periodic point off w = infinity; simple roots are then polished in the
# chart of the balanced evaluation, (w : 1) on |x| <= 1 and (1 : w) beyond,
# where a real map keeps real arithmetic on real points.
SOLVE_CHART = (1.0, 0.3 + 0.2j, -0.37 + 0.11j, 1.0)
INNER_CHART = (1.0, 0.0, 0.0, 1.0)
OUTER_CHART = (0.0, 1.0, 1.0, 0.0)
# a generic point: its iterated preimages R^-p(SEED_POINT) are distributed
# like the fixed points of R^p (Lyubich 1983), so they seed the solve of period p
SEED_POINT = 0.3716 + 0.5283j
# radius of the Aberth start circle in SOLVE_CHART, where seeding falls back
CHART_START_RADIUS = 1.0
# the chordal distance beyond which two seeds are distinct starts
DISTINCT_STARTS = 1e-12
# how many member spreads from a cluster's centroid its merged root may lie
MERGE_REACH = 10.0


def _step_rows(periods) -> list:
    """For periods in non-increasing order, the number of leading rows whose
    period passes k, for each step k < max(periods): the rows that step k of
    a walk of R^p advances."""
    descending = [-p for p in periods]
    return [bisect_left(descending, -k) for k in range(periods[0])] if periods else []


class _FixedPointEquation:
    """f(w) = u m2 - v m1 = 0 for the fixed points of R^p in a chart.

    (m1 : m2) = (alpha w + beta : gamma w + delta), and (u : v) = R^p(m1 : m2)
    is walked through the homogeneous pair with chain-rule derivatives,
    never through an expanded polynomial.  Each step rescales u, v and both
    derivatives by max(|u|, |v|); a step is homogeneous of degree d in all
    four, so f/f' is unchanged and nothing overflows.  A chart coefficient
    may be an array, one entry per point, and so may the period p, in
    non-increasing order: recursion step k then advances only the leading
    rows, whose period is at least k, so each row sees the operations of a
    walk of its own period.
    """

    def __init__(self, rf: RationalMap, p, chart=SOLVE_CHART):
        self.p = p
        self.chart = chart
        # coef[i] is the row (P_i, Q_i) of P_h(u, v) = sum P_i u^(d-i) v^i
        self.coef = np.array(rf.homogeneous, complex)[:, :, None]
        # steps[k] is the number of leading rows that step k advances, None for all
        self.steps = None if np.ndim(p) == 0 else _step_rows(p)

    def walk(self, w, shared_scale=False):
        """(m1, m2, u, v, f, f'); one rescaling per step for the rows it advances when shared_scale.

        Each step evaluates (P, Q) by Horner in u in one (2, 3, n) array
        y = ((P, Q, v^i), (P', Q', (v^i)')), whose rows have the multipliers
        (u, u, v) and derivatives (u', u', v'): a term is one
        product-rule update of all three rows, then (P, Q) += (P_i, Q_i) v^i.
        Every entry sees the operations, in the same order, of a walk that
        keeps P, Q, v^i and their derivatives apart, for n = 1 too.
        """
        alpha, beta, gamma, delta = self.chart
        # a row that overflows, or whose P and Q both vanish, gives inf or NaN,
        # which fails the residual check
        with np.errstate(all="ignore"):
            m1, m2 = alpha * w + beta, gamma * w + delta
            # ((u, v), (u', v')), whose leading rows each step overwrites
            state = np.array([[m1, m2], [np.full_like(w, alpha), np.full_like(w, gamma)]])
            for n in self.steps or [len(w)] * self.p:
                m, dm = state[:, [0, 0, 1], :n]
                y = np.zeros((2, 3, n), complex)
                y[0, :2] = self.coef[0]
                y[0, 2] = 1.0
                x, vi, y0, y1 = y[:, :2], y[:, 2:], y[0], y[1]
                tmp, term = np.empty((3, n), complex), np.empty((2, 2, n), complex)
                for c in self.coef[1:]:
                    np.multiply(y0, dm, out=tmp)
                    y *= m
                    y1 += tmp
                    x += np.multiply(c, vi, out=term)
                s = np.maximum(*np.abs(x[0]))
                if shared_scale:
                    s = s.max()
                np.divide(x, s, out=state[:, :, :n])
            (u, v), (du, dv) = state
            return m1, m2, u, v, u * m2 - v * m1, du * m2 + u * gamma - dv * m1 - v * alpha

    def evaluate(self, w):
        return self.walk(w)[4:]

    def measure(self, w):
        """(residual, uncertainty) from one walk, for _settle.

        The residual is the chordal distance from M(w) to R^p(M(w)).  The
        uncertainty is |f| plus the rounding error of its final difference,
        over |f'|: about 1/m of the distance to a root of multiplicity m that
        the iteration has not reached, and no less than rounding allows.
        """
        m1, m2, u, v, f, df = self.walk(w)
        with np.errstate(all="ignore"):
            residual = 2.0 * np.abs(f) / (np.hypot(np.abs(u), np.abs(v))
                                          * np.hypot(np.abs(m1), np.abs(m2)))
            uncertainty = (np.abs(f) + EPSILON * (np.abs(u * m2) + np.abs(v * m1))) / np.abs(df)
        return residual, uncertainty

    def merge(self, members: np.ndarray) -> complex:
        """One root for a cluster of m approximations of an m-fold root w0.

        Near w0, f' ~ c (w - w0)^(m-1), and so is the interpolant of f'
        through the members (under one scale); w0 is the zero of its
        (m-2)-th derivative.  In Newton's divided differences a_k that is the
        mean of the first m-1 members minus a_(m-2) / ((m-1) a_(m-1)).  It is
        taken when it lies within MERGE_REACH member spreads of the centroid;
        the centroid, the fallback, keeps about eps^(1/m) of noise, so an
        accurate interpolant may lie just beyond one spread.
        """
        m = len(members)
        if m == 1:
            # the bits of the mean of one finite member, a signed zero turned +0
            return complex(members[0]) + 0.0
        center = complex(members.mean())
        a = self.walk(members, shared_scale=True)[5]
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(1, m):
                a[k:] = (a[k:] - a[k - 1:-1]) / (members[k:] - members[:-k])
            root = complex(members[:-1].mean() - a[m - 2] / ((m - 1) * a[m - 1]))
        if abs(root - center) <= MERGE_REACH * max(abs(members - center)):  # False for NaN
            return root
        return center


def _chart_point(chart, w) -> SpherePoint:
    alpha, beta, gamma, delta = chart
    return SpherePoint(alpha * w + beta, gamma * w + delta)


def _polish_in_balanced_charts(rf: RationalMap, p, values):
    """Newton-polished simple fixed points of R^p from their finite chart values z.

    p is the period of every point, or one period per point in
    non-increasing order.  Each point is polished in its balanced chart,
    (w : 1) with w = z on |z| <= 1 and (1 : w) with w = 1/z beyond, and one
    walk per Newton step serves every point: the equation's chart holds
    INNER_CHART's coefficients at the inner points and OUTER_CHART's at the
    others.
    """
    if not values:
        return []
    inner = np.array([abs(z) <= 1.0 for z in values])
    w = np.array(values, complex)
    w[~inner] = 1.0 / w[~inner]
    chart = tuple(np.where(inner, a, b) for a, b in zip(INNER_CHART, OUTER_CHART))
    eq = _FixedPointEquation(rf, p, chart)
    return [_chart_point(INNER_CHART if inside else OUTER_CHART, wi)
            for inside, wi in zip(inner, polish(eq.evaluate, w))]


def _screen_passes(r: RationalMap, periods, c1: np.ndarray, c2: np.ndarray) -> np.ndarray:
    """Whether R^p(c) = c may hold for each row, c = (c1 : c2) modulo MODULAR_PRIME.

    periods gives each row's p in non-increasing order, and (c1, c2) are the
    rows' residue pairs (scalars.mod_prime_pairs; infinity is (1 : 0)).  The
    map's rows are taken times the lcm D of their denominators, so D R_h and
    the pairs are over the Gaussian integers (scalars.mod_prime_rows).  The
    homogeneous pair (u : v) = (D R_h)^p(c1 : c2) is walked modulo the prime q
    in int64 arrays, step k advancing the leading rows whose period passes k
    (_step_rows), and a row is rejected when u c2 - v c1 != 0.  Reduction mod
    q is a ring map on the Gaussian integers, and an exact fixed point has
    u c2 - v c1 = 0 there, hence 0 mod q: a fixed point is never rejected,
    whatever D is.  A D prime to q is a unit, which changes no verdict.
    """
    q = MODULAR_PRIME
    # coef[i] is the row (P_i, Q_i) of D P_h(u, v) = sum D P_i u^(d-i) v^i, as a column
    coef = np.array(mod_prime_rows(r.homogeneous), np.int64)[:, :, None]
    u, v = np.array(c1, np.int64), np.array(c2, np.int64)
    for n in _step_rows(periods):
        un, vn = u[:n], v[:n]
        pair, vi = coef[0].repeat(n, axis=1), np.ones(n, np.int64)  # (P, Q) by Horner in u
        for c in coef[1:]:
            vi = vi * vn % q
            pair = (pair * un + c * vi) % q
        u[:n], v[:n] = pair
    return (u * c2 - v * c1) % q == 0


def _exact_fixed_points(r: RationalMap, found: dict) -> dict:
    """found with each candidate replaced by its snap where that is exactly a fixed point of R^p.

    found maps each period p to the floating candidates for the fixed points
    of R^p; a candidate within DEFAULT_CLUSTER_RADIUS of infinity stands for
    infinity.  All candidates of all periods are decided together, rows by
    descending period: every finite one is snapped in one array pass
    (roots.snap_many), every snap is screened modulo the prime in one walk
    (_screen_passes), and each distinct snap that passes is built as a
    Gaussian rational and walked by one Orbit, read at each of its periods
    p.  A snap is verified when R^p of it is exact and equal to it: past
    EXACT_HEIGHT_CAP_BITS the walk goes on in floating point, where a
    verified fixed point, which comes back to its own height, never goes.
    The screen never rejects a fixed point, so every verdict is that of the
    exact walk alone.
    """
    periods = sorted(found, reverse=True)
    points = [x for p in periods for x in found[p]]
    row_periods = [p for p in periods for _ in found[p]]
    values = np.array([0j if x.is_infinity else x.z for x in points], complex)
    at_infinity = np.array([x.is_infinity for x in points], bool)
    # only a value beyond about 2e6 can be that near infinity
    for i in np.flatnonzero(np.abs(values) > 1e6).tolist():
        at_infinity[i] = points[i].chordal(INFINITY) <= DEFAULT_CLUSTER_RADIUS
    ratios = snap_many(np.where(at_infinity, 0j, values))
    c1, c2 = mod_prime_pairs(*ratios)
    c1[at_infinity], c2[at_infinity] = 1, 0
    exact, walks = list(points), {}
    for i in np.flatnonzero(_screen_passes(r, row_periods, c1, c2)).tolist():
        if at_infinity[i]:
            cand = INFINITY
        else:
            cand = SpherePoint.finite(GaussianRational.from_ratios(*(int(a[i]) for a in ratios)))
        try:
            y = walks.setdefault(cand, Orbit(r, cand)).point(row_periods[i])
        except RatmapError:  # only a floating step can fail
            continue
        # a floating point can compare equal to an exact one
        if y.is_exact and y == cand:
            exact[i] = cand
    out, start = {}, 0
    for p in periods:
        out[p] = exact[start:start + len(found[p])]
        start += len(found[p])
    return out


def _critical_value_rows(table: np.ndarray) -> np.ndarray:
    """The normalized_pairs rows of R's critical values, from the chart table of _seeds.

    The critical points of R in the chart are the roots of A'B - AB' for the
    columns A and B of table (its terms of degree 2d - 1 cancel), and their
    images are (A, B) there.  A NaN row, from a vanishing leading
    coefficient (companion_roots) or an image that overflows, is near no
    target.
    """
    a, b = table.T
    d = len(a) - 1
    da, db = a[:-1] * np.arange(d, 0, -1), b[:-1] * np.arange(d, 0, -1)
    [c] = companion_roots((np.convolve(da, b) - np.convolve(a, db))[None, 1:])
    # (A, B) at every critical point by one Horner walk
    pairs = np.repeat(table[:1], len(c), axis=0)
    for row in table[1:]:
        pairs = pairs * c[:, None] + row
    return pairs / np.hypot(np.abs(pairs[:, :1]), np.abs(pairs[:, 1:]))


@functools.cache
def _chart_basis(chart, d: int) -> np.ndarray:
    """The read-only (d + 1) x (d + 1) array whose column i holds the
    coefficients of u^(d-i) v^i at (u : v) = (alpha w + beta : gamma w + delta),
    for chart = (alpha, beta, gamma, delta), in descending powers of w."""
    alpha, beta, gamma, delta = chart
    basis = []
    for i in range(d + 1):
        f = np.ones(1, complex)
        for factor in [(alpha, beta)] * (d - i) + [(gamma, delta)] * i:
            f = np.convolve(f, factor)
        basis.append(f)
    basis = np.array(basis).T
    basis.flags.writeable = False
    return basis


def _seeds(rf: RationalMap, periods) -> list:
    """Aberth starts for the fixed points of R^p, one array per period of periods.

    The starts of period p are the SOLVE_CHART values of the d^p points of
    R^-p(SEED_POINT) and of infinity, the extra fixed point of a
    polynomial.  The tree is solved level by level in the chart: the
    preimages of M(w) = (alpha w + beta : gamma w + delta) are the roots of
    y2 P_h(M) - y1 Q_h(M), a polynomial in w of degree d whose roots are all
    finite, a preimage at infinity being w = -delta / gamma, and each level
    is one batched eigenvalue solve (roots.preimages).  So the starts depend
    only on the map and p.  From the first level that is degenerate on, the
    periods start on the circle of radius CHART_START_RADIUS: a level is
    degenerate when one of its targets lies within DEFAULT_CLUSTER_RADIUS of
    a critical value of R (_critical_value_rows), where its preimages are
    multiple, or when its starts are not all finite and pairwise more than
    DISTINCT_STARTS apart on the sphere.  That happens where SEED_POINT is
    exceptional, its tree meets a critical value, or a preimage lies at
    infinity within rounding.  Close simple preimages are normal where R^p
    expands strongly, and Aberth separates them.  All levels are solved,
    then each test screens all of them in one near_row_pairs call, and the
    levels from the first that fails are dropped, so every decision is that
    of a test per level.
    """
    alpha, beta, gamma, delta = SOLVE_CHART
    d = rf.degree
    # row i of the homogeneous table is (P_i, Q_i) of P_h(u, v) = sum P_i u^(d-i) v^i
    table = _chart_basis(SOLVE_CHART, d) @ np.array(rf.homogeneous, complex)
    seed_row = np.array([[SEED_POINT, 1.0]]) / math.hypot(abs(SEED_POINT), 1.0)
    seeds, targets, rows = [], [], []
    with np.errstate(all="ignore"):
        for _ in range(max(periods)):
            # the targets of level p: SEED_POINT, then the start rows of level p - 1 but infinity
            targets.append(rows[-1][:-1] if rows else seed_row)
            starts = np.append(preimages(table, targets[-1]), -delta / gamma)
            pairs = np.stack([alpha * starts + beta, gamma * starts + delta], axis=1)
            # a start that is not finite has a NaN row
            rows.append(pairs / np.hypot(np.abs(pairs[:, :1]), np.abs(pairs[:, 1:])))
            seeds.append(starts)
        # the levels with two starts within DISTINCT_STARTS, or with a NaN
        # row, which lies at distance NaN from itself
        level = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        start_rows = np.concatenate(rows)
        i, j, distances = near_row_pairs(start_rows, start_rows, DISTINCT_STARTS)
        near = ~(distances > DISTINCT_STARTS) & ((i != j) | np.isnan(distances))
        failed = level[i[near & (level[i] == level[j])]].tolist()
        # the levels with a target within DEFAULT_CLUSTER_RADIUS of a critical value
        level = np.repeat(np.arange(len(targets)), [len(t) for t in targets])
        i, _, distances = near_row_pairs(np.concatenate(targets), _critical_value_rows(table),
                                         DEFAULT_CLUSTER_RADIUS)
        failed += level[i[distances <= DEFAULT_CLUSTER_RADIUS]].tolist()
    # the first level that fails falls back, and so do the levels past it
    del seeds[min(failed, default=len(seeds)):]
    return [seeds[p - 1] if p <= len(seeds) else start_circle(d**p + 1, CHART_START_RADIUS)
            for p in periods]


def _solve_periods(rf: RationalMap, periods):
    """{p: (points, ambiguity)} over the given periods: the floating fixed points of R^p.

    All periods are solved in one lock-step solve on the orbit recursion of
    the floating map rf: each period is a group of find_zeros, and its rows
    come by descending period, so each sweep, each Newton step and each
    polish step is one walk for all periods.  The points of a period come in
    solve order, the simple ones polished; ambiguity is the
    MultiplicityAmbiguousError that find_zeros reports, or None.  A period
    whose solve fails maps to its RootFindingFailedError instead, which is
    not raised.
    """
    periods = sorted(periods, reverse=True)
    sizes = [rf.degree**p + 1 for p in periods]
    everything = tuple(range(len(periods)))
    # one equation per set of periods still running; the set only shrinks
    equations = {}

    def equation(active):
        if active not in equations:
            equations[active] = _FixedPointEquation(
                rf, [periods[g] for g in active for _ in range(sizes[g])])
        return equations[active]

    settled = find_zeros(lambda w, active: equation(active).evaluate(w),
                         equation(everything).measure,
                         _seeds(rf, periods),
                         [{"period": p} for p in periods])
    alpha, beta, gamma, delta = SOLVE_CHART
    solved, points, ambiguities = {}, {}, {}
    simple = []  # (period, index, chart value) of each finite simple point, by descending period
    for p, result in zip(periods, settled):
        if isinstance(result, RootFindingFailedError):
            solved[p] = result
            continue
        clusters, ambiguities[p] = result
        eq = _FixedPointEquation(rf, p)
        points[p] = []
        for members in clusters:
            w = eq.merge(members)
            pair = alpha * w + beta, gamma * w + delta
            z = floating_value(*pair) if len(members) == 1 else None
            if z is None:
                points[p].append(SpherePoint(*pair))
            else:
                simple.append((p, len(points[p]), z))
                points[p].append(None)  # its polished point comes below
    polished = _polish_in_balanced_charts(rf, [p for p, _, _ in simple], [z for _, _, z in simple])
    for (p, i, _), x in zip(simple, polished):
        points[p][i] = x
    for p, found in points.items():
        solved[p] = (tuple(found), ambiguities[p])
    return solved


def _fixed_points(r: RationalMap, periods) -> dict:
    """{p: the d^p + 1 fixed points of R^p, sorted by point, or the error} over periods.

    The floating solves are those of r.floating(), memoized on it per
    period, a RootFindingFailedError too: the periods it lacks are solved
    together (_solve_periods), and a period already solved is never solved
    again.  A memoized error is returned with a fresh traceback, so the memo
    keeps no solver frames alive.  On an exact map the candidates of all
    periods are decided together (_exact_fixed_points), and a point is exact
    when its snap is verified exactly.  A period maps to its
    RootFindingFailedError, or to its MultiplicityAmbiguousError unless
    every point is exact.
    """
    rf = r.floating()
    missing = [p for p in periods if p not in rf._fixed_point_cache]
    if missing:
        rf._fixed_point_cache.update(_solve_periods(rf, missing))
    solved = {p: rf._fixed_point_cache[p] for p in periods}
    found = {p: s[0] for p, s in solved.items() if not isinstance(s, RootFindingFailedError)}
    if r.is_exact:
        found = _exact_fixed_points(r, found)
    out = {}
    for p, s in solved.items():
        if p not in found:
            out[p] = s.with_traceback(None)  # it is memoized with the solve
        elif s[1] is not None and not all(x.is_exact for x in found[p]):
            out[p] = s[1].with_traceback(None)
        else:
            out[p] = sorted(found[p], key=point_sort_key)
    return out


def fixed_points(r: RationalMap, p: int):
    """The d^p + 1 fixed points of R^p, multiple ones merged, sorted by point.

    On an exact map a point is exact when its snap is verified exactly.
    Raises RootFindingFailedError, or MultiplicityAmbiguousError unless
    every point is exact.
    """
    out = _fixed_points(r, [p])[p]
    if isinstance(out, RatmapError):
        raise out
    return out


def _closed_chains(succ, p: int):
    """The chains of p indices that close under succ, each from its least index.

    succ[i] is the solved point that follows point i, or None.  A chain
    that closes sooner belongs to a smaller period.
    """
    chains = []
    for i in range(len(succ)):
        chain = [i]
        while len(chain) <= p and chain[-1] is not None:
            chain.append(succ[chain[-1]])
        if chain[p:] == [i] and i not in chain[1:p] and i == min(chain):
            chains.append(chain[:p])
    return chains


def _certificate_residual(cycles, p: int):
    """|sum 1/(1 - mu) - 1| over the fixed points of R^p, relative to the largest term.

    By the rational fixed-point formula the sum is 1 when every fixed point
    of R^p is found and none is multiple.  None when some mu is within 1e-6
    of 1, where the formula does not apply.
    """
    terms = []
    for c in cycles:
        if p % c.period:
            continue
        one_minus = 1.0 - complex(c.multiplier) ** (p // c.period)
        if abs(one_minus) < 1e-6:
            return None
        terms.append(c.period / one_minus)
    return abs(sum(terms) - 1.0) / max([1.0] + [abs(t) for t in terms])


def periodic_cycles(r: RationalMap, max_period: int = DEFAULT_MAX_PERIOD,
                    work_cap: int = DEFAULT_PERIOD_WORK_CAP):
    """All cycles of exact period <= max_period, read off the fixed points of R^p.

    Returns (cycles, truncated_periods, warnings).  Periods whose
    fixed-point solve would exceed work_cap sphere points are skipped and
    reported in truncated_periods.  A period whose solve fails is a
    cycle-search-failed warning; a period whose cycles fail the fixed-point
    formula (a lost cycle point, say) is a cycle-search-uncertified warning.
    """
    cycles = []
    truncated = [p for p in range(1, max_period + 1) if r.degree**p + 1 > work_cap]
    warnings = []
    solvable = [p for p in range(1, max_period + 1) if p not in truncated]
    found, failed = {}, {}
    for p, out in _fixed_points(r, solvable).items():
        if isinstance(out, RatmapError):
            failed[p] = out
        else:
            found[p] = out
    # R at every solved point in one pass, R's successor of each in its
    # period from one screen, and the valencies of every cycle point in one lookup
    solved = [x for points in found.values() for x in points]
    succ = iter(nearest_rows(r.image_rows(solved), normalized_pairs(solved),
                             DEFAULT_CLUSTER_RADIUS, [len(points) for points in found.values()]))
    chains = {}
    for p, points in found.items():
        block = [next(succ) for _ in points]
        chains[p] = [tuple(points[k] for k in chain) for chain in _closed_chains(block, p)]
    vals = iter(r.valencies([x for period in chains.values() for pts in period for x in pts]))
    for p in solvable:
        if p in failed:
            warnings.append({
                "code": "cycle-search-failed",
                "message": f"fixed points of period {p} not found: {failed[p]}",
                "period": p,
                "error": failed[p].code,
            })
            continue
        cycles.extend(make_cycle(r, pts, [next(vals) for _ in pts], warnings)
                      for pts in chains[p])
        residual = _certificate_residual(cycles, p)
        if residual is not None and residual > 1e-8:
            warnings.append({
                "code": "cycle-search-uncertified",
                "message": f"cycles of period dividing {p} fail the fixed-point formula",
                "period": p,
                "residual": residual,
            })
    cycles.sort(key=PeriodicCycle.sort_key)
    for i, c in enumerate(cycles):
        c.cycle_id = i
    return cycles, truncated, warnings


def _step_with_height_guard(r: RationalMap, x: SpherePoint) -> SpherePoint:
    if x.is_exact and point_height_bits(x) > EXACT_HEIGHT_CAP_BITS:
        x = x.to_float()
    return r.evaluate(x)


def _same_bits(a: SpherePoint, b: SpherePoint) -> bool:
    """Whether two points are stored alike: exactness, infinity and every bit
    of a floating value, the sign of a zero part included (it prints)."""
    if a is b:
        return True
    if a.is_exact or b.is_exact:
        return a.is_exact and b.is_exact and a == b
    return (a.is_infinity == b.is_infinity and a.z == b.z
            and math.copysign(1.0, a.z.real) == math.copysign(1.0, b.z.real)
            and math.copysign(1.0, a.z.imag) == math.copysign(1.0, b.z.imag))


class Orbit:
    """The forward orbit of x, walked once and extended on demand.

    points[j] is R^j(x).  The RatmapError of a failed step ends the walk and
    is kept in error; asking for a point past it raises it again, so each
    caller applies its own rule.  Cumulative valencies are memoized.  A step
    from a point that the step before mapped to itself bit for bit appends
    that point again without evaluating R.
    """

    def __init__(self, r: RationalMap, x: SpherePoint):
        self.r = r
        self.points = [x]
        self.error = None
        self._valencies = [1]

    def point(self, n: int) -> SpherePoint:
        """R^n(x), walking on as far as needed."""
        pts = self.points
        while len(pts) <= n and self.error is None:
            self._step(pts[-1])
        if len(pts) <= n:
            raise self.error
        return pts[n]

    def step_floating(self):
        """Walk one step on from the floating value of the last point.

        The new point is floating, so every later step is floating too.
        Nothing happens once the walk has failed.
        """
        if self.error is None:
            self._step(self.points[-1].to_float())

    def _step(self, x: SpherePoint):
        pts = self.points
        # R is a function: a point that a step mapped to itself bit for bit
        # maps to itself again
        if len(pts) > 1 and _same_bits(x, pts[-1]) and _same_bits(pts[-1], pts[-2]):
            pts.append(pts[-1])
            return
        try:
            pts.append(_step_with_height_guard(self.r, x))
        except RatmapError as err:
            self.error = err

    def truncate(self, n: int):
        """Forget R^j(x) for j >= n; point(j) walks them again."""
        if len(self.points) > n:
            del self.points[n:]
            self.error = None  # it came from a step past n

    def valency(self, n: int) -> int:
        """val(R^n, x): the product of local valencies at R^0(x)..R^(n-1)(x).

        The products not yet memoized are extended over the points they
        need by one RationalMap.valencies call.
        """
        vals = self._valencies
        if len(vals) <= n:
            self.point(n - 1)
            for val in self.r.valencies(self.points[len(vals) - 1:n]):
                vals.append(vals[-1] * val)
        return vals[n]

    def with_valencies(self, depth: int):
        """[(R^j(x), val(R^j, x))] for j = 0..depth, cut short at a failure."""
        try:
            self.valency(depth)  # the whole depth in one block where the walk gets there
        except RatmapError:
            pass
        out = []
        for j in range(depth + 1):
            try:
                out.append((self.point(j), self.valency(j)))
            except RatmapError:
                break
        return out


@dataclass(frozen=True)
class OrbitFate:
    kind: str  # "preperiodic" | "converges" | "unresolved"
    cycle_id: int | None = None
    step: int | None = None
    steps_used: int = 0
    # the walk the fate was read from, for callers that read the orbit again
    walk: Orbit = field(kw_only=True, compare=False, repr=False)

    def lands_on_critical_cycle(self, cycles) -> bool:
        """True when the orbit lands exactly on a cycle holding a critical point."""
        return self.kind == "preperiodic" and cycles[self.cycle_id].contains_critical


def _reverify_landing(r: RationalMap, x: SpherePoint, cyc, n: int, tol: float) -> bool:
    """Floating landings must survive a perturbed re-run (preperiodicity is
    too consequential downstream to accept from a single pass)."""
    x = x.to_float()  # an exact point beyond float range becomes infinity
    if x.is_infinity:
        return True
    rerun = Orbit(r, SpherePoint.finite(complex(x.z) + REVERIFY_OFFSET))
    try:
        return any(rerun.point(n).chordal(pt) <= REVERIFY_RATIO * tol for pt in cyc.points)
    except RatmapError:
        return False


def orbit_fate(r: RationalMap, x: SpherePoint, cycles,
               budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitFate:
    """Fate of the forward orbit of x against the known cycles, as their
    capture models decide it.

    Landings are searched on a short prefix, after which the same walk goes
    on in floating point, from the prefix's last point, to detect capture.
    An unresolved fate keeps only the prefix of its walk.
    """
    walk = Orbit(r, x)
    members = [(cyc, cpt) for cyc in cycles for cpt in cyc.points]
    table = normalized_pairs([cpt for _, cpt in members])
    # the screen reads only the point's pair, and an orbit that rests on a
    # point (infinity, say) repeats it at every step
    screened = {}
    for n in range(min(budget, 64) + 1):
        try:
            key = walk.point(n).norm_pair()
        except RatmapError:
            break
        if key not in screened:
            screened[key] = near_rows(key, table, r.tolerance)
        # only the screened members can land, tested in the same order
        for k in screened[key]:
            cyc, cpt = members[k]
            if cyc.lands(walk, n, cpt):
                return OrbitFate("preperiodic", cyc.cycle_id, n, n, walk=walk)

    # the tail steps in floating point from the prefix's last point: an
    # unresolved orbit may run the whole budget
    prefix = len(walk.points)
    targets = [c for c in cycles if c.has_basin]
    end = budget if targets else prefix - 1
    if end >= prefix:
        walk.step_floating()
    for step in range(prefix - 1, end):
        try:
            walk.point(step + 1)
        except RatmapError:
            end = step
            break
        for cyc in targets:
            if cyc.captured(walk, prefix, step + 1):
                return OrbitFate("converges", cyc.cycle_id, steps_used=step + 1, walk=walk)
    else:
        for cyc in targets:
            if cyc.captured(walk, prefix, budget, ended=True):
                return OrbitFate("converges", cyc.cycle_id, steps_used=budget, walk=walk)
    walk.truncate(prefix)  # no reader looks past the prefix of an unresolved walk
    return OrbitFate("unresolved", steps_used=end, walk=walk)


def asymptotic_valency(r: RationalMap, fate: OrbitFate, *, cycles, crit_points):
    """lim val(R^k, x) for the x whose fate this is, read along fate.walk.

    Finite unless the orbit lands exactly on a cycle containing a critical
    point, in which case it is INFINITE.  A converging orbit is read up to
    its first step within its cycle's stop_distance.
    """
    tol = r.tolerance
    crit_pts = [c.point for c in crit_points]
    walk = fate.walk

    if fate.kind == "preperiodic":
        # a failing valency wins; past a non-critical cycle every valency is 1
        product = walk.valency(fate.step)
        return INFINITE if fate.lands_on_critical_cycle(cycles) else product

    if fate.kind == "converges":
        cyc = cycles[fate.cycle_id]
        stop = cyc.stop_distance(crit_pts, tol)
        k = fate.steps_used
        for step in range(fate.steps_used):
            current = walk.points[step]
            # an exact hit has chordal distance 0.0 too
            if contains_point(crit_pts, current, tol) and not any(
                    current.chordal(p) == 0 for p in crit_pts):
                raise AsymptoticValencyUndeterminedError(
                    "orbit approaches a critical point within tolerance "
                    "without an exact hit",
                    step=step,
                )
            if cyc.distance(walk.point(step + 1)) < stop:
                k = step + 1
                break
        return walk.valency(k)

    raise AsymptoticValencyUndeterminedError(
        "orbit fate unresolved with critical points still reachable",
        fate=fate.kind,
    )


@dataclass(frozen=True)
class CriticalFate:
    """A critical point's orbit fate and asymptotic valency, computed once."""

    fate: OrbitFate
    asymptotic_valency: object  # int, INFINITE, or None when error is set
    error: RatmapError | None = None


def critical_fate(r: RationalMap, x: SpherePoint, cycles, crit_points,
                  budget: int) -> CriticalFate:
    """orbit_fate of x, then its asymptotic_valency or the coded error."""
    fate = orbit_fate(r, x, cycles, budget)
    try:
        aval = asymptotic_valency(r, fate, cycles=cycles, crit_points=crit_points)
    except RatmapError as err:
        return CriticalFate(fate, None, err)
    return CriticalFate(fate, aval)


def critical_fates(r: RationalMap, cycles, budget: int) -> dict:
    """The CriticalFate of every critical point, in the order of critical_points."""
    crit = critical_points(r)
    return {c.point: critical_fate(r, c.point, cycles, crit, budget) for c in crit}
