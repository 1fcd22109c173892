"""Critical points, periodic cycles, orbit fates, asymptotic valency.

The critical points are the entries of the map's critical table of valency
2 or more.  Every valency used here (criticality of a cycle, cumulative
valency along an orbit, asymptotic valency) is a lookup in that table
through RationalMap.valency_at, so each is decided once per map.

Forward orbits are stepped only by Orbit, under one height guard: an exact
orbit steps exactly until a coordinate passes EXACT_HEIGHT_CAP_BITS (512)
bits, then in floating point.  Each orbit is walked once: orbit_fate's
floating tail extends the walk of its exact prefix, and the fate keeps that
walk for asymptotic_valency and the other readers.

The cycles of period p come from the fixed points of R^p, found by Aberth
on the orbit recursion in a fixed Möbius chart (never on an expanded
polynomial), merged where multiple and snapped to exact points where exact
iteration verifies them.  In each step of the recursion P, Q and their
derivatives advance as the rows of one array.  Simple fixed points are
polished in the balanced charts, (w : 1) on |z| <= 1 and (1 : w) beyond,
by one walk per Newton step whose chart holds one coefficient per point.
A snap is first walked p steps modulo a prime
(_screen_rejects): reduction modulo the prime is a ring map, so an exact
fixed point is one modulo the prime too, and only a snap that passes is
iterated in Fraction arithmetic; the screen cannot change a verdict, it
only spares the exact walk of most non-fixed snaps.  R maps each solved
point to the solved point nearest its image, and the chains of p points
that close are the cycles of period p.  Each period is certified by the
rational fixed-point formula sum 1/(1 - mu) = 1; a failed or uncertified
period is a coded warning, and the search goes on.

Cycle classification never guesses: super-attraction is decided by
criticality of the cycle (exactly, when the map is exact), attracting and
repelling come from |multiplier| against a band of width 1e-6 around 1,
and a floating multiplier inside the band is recorded as ambiguous rather
than forced into a class.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AsymptoticValencyUndeterminedError,
    ClassificationAmbiguousError,
    MultiplicityAmbiguousError,
    RatmapError,
    RootFindingFailedError,
)
from .rational import EXACT_HEIGHT_CAP_BITS, CriticalPoint, RationalMap, point_height_bits
from .roots import DEFAULT_CLUSTER_RADIUS, find_zeros, polish, snap, start_circle
from .scalars import MODULAR_PRIME, GaussianRational, mod_prime
from .sphere import (
    INFINITY,
    SpherePoint,
    chordal_matrix,
    coincide,
    contains_point,
    near_pairs,
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
        lam = GaussianRational(1)
        for k in range(1, ROOT_OF_UNITY_CAP + 1):
            lam = lam * multiplier
            if lam == GaussianRational(1):
                return "rationally_indifferent", k, None
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


def make_cycle(r: RationalMap, pts, warnings) -> PeriodicCycle:
    """The classified cycle through pts, listed in orbit order.

    The cycle starts at its least point; cycle_id is left at -1.  An
    ambiguous multiplier classifies the cycle as indifferent_ambiguous and
    appends a coded record to warnings.
    """
    vals = [r.valency_at(pt) for pt in pts]
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
# radius of the Aberth start circle in SOLVE_CHART
CHART_START_RADIUS = 1.0
EPSILON = float(np.finfo(float).eps)


def _times(x, m, dm):
    """(f, f') <- (f m, f' m + f m') in place, for x = (f, f')."""
    tmp = x[0] * dm
    x *= m
    x[1] += tmp


class _FixedPointEquation:
    """f(w) = u m2 - v m1 = 0 for the fixed points of R^p in a chart.

    (m1 : m2) = (alpha w + beta : gamma w + delta), and (u : v) = R^p(m1 : m2)
    is walked through the homogeneous pair with chain-rule derivatives,
    never through an expanded polynomial.  Each step rescales u, v and both
    derivatives by max(|u|, |v|); a step is homogeneous of degree d in all
    four, so f/f' is unchanged and nothing overflows.  A chart coefficient
    may be an array, one entry per point.
    """

    def __init__(self, rf: RationalMap, p: int, chart=SOLVE_CHART):
        d = rf.degree
        self.p = p
        self.chart = chart
        # coef[i] is the column (P_i, Q_i) of P_h(u, v) = sum P_i u^(d-i) v^i
        self.coef = np.stack([
            np.concatenate([np.zeros(d - poly.degree, complex), poly.to_complex_array()])
            for poly in (rf.p, rf.q)
        ], axis=1)[:, :, None]

    def walk(self, w, shared_scale=False):
        """(m1, m2, u, v, f, f'); one rescaling for the whole array when shared_scale."""
        alpha, beta, gamma, delta = self.chart
        # a row that overflows, or whose P and Q both vanish, gives inf or NaN,
        # which fails the residual check
        with np.errstate(all="ignore"):
            m1, m2 = alpha * w + beta, gamma * w + delta
            u, v, du, dv = m1, m2, np.full_like(w, alpha), np.full_like(w, gamma)
            for _ in range(self.p):
                # x = ((P, Q), (P', Q')) by Horner in u, carrying vi = (v^i, (v^i)').
                # vi is (2, n), not (2, 1, n): numpy multiplies a (1, 1) by a (1,)
                # array in a loop that rounds differently, which would make n = 1
                # walks differ in the last bit from the same points in a longer array
                x = np.zeros((2, 2) + w.shape, complex)
                x[0] = self.coef[0]
                vi = np.zeros((2,) + w.shape, complex)
                vi[0] = 1.0
                for c in self.coef[1:]:
                    _times(vi, v, dv)
                    _times(x, u, du)
                    x += c * vi[:, None]
                s = np.maximum(*np.abs(x[0]))
                if shared_scale:
                    s = s.max()
                (u, v), (du, dv) = x / s
            return m1, m2, u, v, u * m2 - v * m1, du * m2 + u * gamma - dv * m1 - v * alpha

    def evaluate(self, w):
        return self.walk(w)[4:]

    def residual(self, w):
        """The chordal distance from M(w) to R^p(M(w))."""
        m1, m2, u, v, f, _ = self.walk(w)
        return 2.0 * np.abs(f) / (np.hypot(np.abs(u), np.abs(v)) * np.hypot(np.abs(m1), np.abs(m2)))

    def uncertainty(self, w):
        """|f| plus the rounding error of its final difference, over |f'|.

        About 1/m of the distance to a root of multiplicity m that the
        iteration has not reached, and no less than rounding allows.
        """
        m1, m2, u, v, f, df = self.walk(w)
        with np.errstate(divide="ignore"):
            return (np.abs(f) + EPSILON * (np.abs(u * m2) + np.abs(v * m1))) / np.abs(df)

    def merge(self, members: np.ndarray) -> complex:
        """One root for a cluster of m approximations of an m-fold root w0.

        Near w0, f' ~ c (w - w0)^(m-1), and so is the interpolant of f'
        through the members (under one scale); w0 is the zero of its
        (m-2)-th derivative.  In Newton's divided differences a_k that is the
        mean of the first m-1 members minus a_(m-2) / ((m-1) a_(m-1)).  The
        centroid, the fallback, keeps about eps^(1/m) of noise.
        """
        m = len(members)
        center = complex(members.mean())
        if m == 1:
            return center
        a = self.walk(members, shared_scale=True)[5]
        with np.errstate(divide="ignore", invalid="ignore"):
            for k in range(1, m):
                a[k:] = (a[k:] - a[k - 1:-1]) / (members[k:] - members[:-k])
            root = complex(members[:-1].mean() - a[m - 2] / ((m - 1) * a[m - 1]))
        if abs(root - center) <= max(abs(members - center)):  # False for NaN
            return root
        return center


def _chart_point(chart, w) -> SpherePoint:
    alpha, beta, gamma, delta = chart
    return SpherePoint(alpha * w + beta, gamma * w + delta)


def _polish_in_balanced_charts(rf: RationalMap, p: int, points):
    """Newton-polished simple fixed points of R^p, each in its balanced chart.

    One walk per Newton step serves both charts: the equation's chart holds
    INNER_CHART's coefficients at the points with |z| <= 1 and OUTER_CHART's
    at the others.
    """
    out = list(points)
    idx = [i for i, x in enumerate(points) if not x.is_infinity]
    if not idx:
        return out
    z = [complex(points[i].z) for i in idx]
    inner = np.array([abs(zi) <= 1.0 for zi in z])
    w = np.array(z)
    w[~inner] = 1.0 / w[~inner]
    chart = tuple(np.where(inner, a, b) for a, b in zip(INNER_CHART, OUTER_CHART))
    eq = _FixedPointEquation(rf, p, chart)
    for i, inside, wi in zip(idx, inner, polish(eq.evaluate, w)):
        out[i] = _chart_point(INNER_CHART if inside else OUTER_CHART, wi)
    return out


def _screen_rejects(r: RationalMap, value, p: int) -> bool:
    """True when R^p(c) != c shows modulo MODULAR_PRIME, for c = value (infinity for None).

    The homogeneous pair (u : v) = R^p_h(c1 : c2) is walked modulo the prime
    q.  Reduction mod q is a ring map on the Gaussian rationals whose
    denominators are prime to q, and an exact fixed point has
    u c2 - v c1 = 0, hence 0 mod q: a fixed point is never rejected.  The
    screen declines (False) when q divides a denominator of c or of a
    coefficient; a pair that vanishes mod q gives 0 and passes too.
    """
    coeffs = r.coeffs_mod_prime
    c1, c2 = (1, 0) if value is None else (mod_prime(value), 1)
    if coeffs is None or c1 is None:
        return False
    q = MODULAR_PRIME
    (p0, *pc), (q0, *qc) = coeffs
    u, v = c1, c2
    for _ in range(p):
        pu, qu, vi = p0, q0, 1
        for a, b in zip(pc, qc):
            vi = vi * v % q
            pu = (pu * u + a * vi) % q
            qu = (qu * u + b * vi) % q
        u, v = pu, qu
    return (u * c2 - v * c1) % q != 0


def _exact_fixed_point(r: RationalMap, x: SpherePoint, p: int) -> SpherePoint | None:
    """The snap of x when it is exactly a fixed point of R^p, else None.

    The modular screen (_screen_rejects) turns most snaps away before any
    Fraction arithmetic.  It never rejects a fixed point, and every snap it
    passes is checked by exact iteration, so the verdict is that of the exact
    iteration alone.
    """
    if x.chordal(INFINITY) <= DEFAULT_CLUSTER_RADIUS:
        value = None  # the candidate is infinity
    else:
        value = snap(complex(x.z))
        if value is None:
            return None
    if _screen_rejects(r, value, p):
        return None
    cand = INFINITY if value is None else SpherePoint.finite(value)
    y = cand
    for _ in range(p):
        if point_height_bits(y) > EXACT_HEIGHT_CAP_BITS:
            return None  # a verified fixed point would come back to cand's height
        y = r.evaluate(y)
    return cand if y == cand else None


def fixed_points(r: RationalMap, p: int):
    """The d^p + 1 fixed points of R^p, multiple ones merged, sorted by point.

    Aberth runs on the orbit recursion of the floating map.  On an exact map
    a point is exact when its snap is verified exactly.  Raises
    RootFindingFailedError, or MultiplicityAmbiguousError unless every point
    is exact.
    """
    rf = r.floating()
    eq = _FixedPointEquation(rf, p)
    start = start_circle(r.degree**p + 1, CHART_START_RADIUS)
    clusters, ambiguity = find_zeros(eq.evaluate, eq.residual, eq.uncertainty, start, period=p)
    simple = [i for i, members in enumerate(clusters) if len(members) == 1]
    points = [_chart_point(SOLVE_CHART, eq.merge(members)) for members in clusters]
    for i, x in zip(simple, _polish_in_balanced_charts(rf, p, [points[i] for i in simple])):
        points[i] = x
    if r.is_exact:
        points = [_exact_fixed_point(r, x, p) or x for x in points]
    if ambiguity is not None and not all(x.is_exact for x in points):
        raise ambiguity
    return sorted(points, key=point_sort_key)


def _closed_chains(r: RationalMap, points, p: int):
    """The chains of p solved points that close under R, from their least points.

    A point is followed by the solved point nearest its image within
    DEFAULT_CLUSTER_RADIUS (the solver's residual bar), or by none.  A chain
    that closes sooner belongs to a smaller period.
    """
    images = {}
    for i, x in enumerate(points):
        try:
            images[i] = r.evaluate(x)
        except RatmapError:
            pass
    succ = [None] * len(points)
    for i, row in zip(images, chordal_matrix(list(images.values()), points)):
        if row.min() <= DEFAULT_CLUSTER_RADIUS:
            succ[i] = int(row.argmin())
    chains = []
    for i in range(len(points)):
        chain = [i]
        while len(chain) <= p and chain[-1] is not None:
            chain.append(succ[chain[-1]])
        if chain[p:] == [i] and i not in chain[1:p] and i == min(chain):
            chains.append(tuple(points[k] for k in chain[:p]))
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
    truncated = []
    warnings = []
    for p in range(1, max_period + 1):
        if r.degree**p + 1 > work_cap:
            truncated.append(p)
            continue
        try:
            points = fixed_points(r, p)
        except (RootFindingFailedError, MultiplicityAmbiguousError) as err:
            warnings.append({
                "code": "cycle-search-failed",
                "message": f"fixed points of period {p} not found: {err}",
                "period": p,
                "error": err.code,
            })
            continue
        cycles.extend(make_cycle(r, pts, warnings) for pts in _closed_chains(r, points, p))
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


class Orbit:
    """The forward orbit of x, walked once and extended on demand.

    points[j] is R^j(x).  The RatmapError of a failed step ends the walk and
    is kept in error; asking for a point past it raises it again, so each
    caller applies its own rule.  Cumulative valencies are memoized.
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
            try:
                pts.append(_step_with_height_guard(self.r, pts[-1]))
            except RatmapError as err:
                self.error = err
        if len(pts) <= n:
            raise self.error
        return pts[n]

    def truncate(self, n: int):
        """Forget R^j(x) for j >= n; point(j) walks them again."""
        if len(self.points) > n:
            del self.points[n:]
            self.error = None  # it came from a step past n

    def valency(self, n: int) -> int:
        """val(R^n, x): the product of local valencies at R^0(x)..R^(n-1)(x)."""
        vals = self._valencies
        while len(vals) <= n:
            vals.append(vals[-1] * self.r.valency_at(self.point(len(vals) - 1)))
        return vals[n]

    def with_valencies(self, depth: int):
        """[(R^j(x), val(R^j, x))] for j = 0..depth, cut short at a failure."""
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


def _reverify_landing(r: RationalMap, x: SpherePoint, cyc, n: int, tol: float) -> bool:
    """Floating landings must survive a perturbed re-run (preperiodicity is
    too consequential downstream to accept from a single pass)."""
    x = x.to_float()  # an exact point beyond float range becomes infinity
    if x.is_infinity:
        return True
    rerun = Orbit(r, SpherePoint.finite(complex(x.z) + complex(1e-12, 1e-12)))
    try:
        return any(rerun.point(n).chordal(pt) <= 1e4 * tol for pt in cyc.points)
    except RatmapError:
        return False


def orbit_fate(r: RationalMap, x: SpherePoint, cycles,
               budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitFate:
    """Fate of the forward orbit of x against the known cycles.

    Exact landings are searched on a short prefix (they are exact-arithmetic
    facts for exact inputs, tolerance plus re-verification otherwise), after
    which the same walk goes on, floating once past the height cap, to detect
    convergence.  An unresolved fate keeps only the prefix of its walk.
    """
    tol = r.tolerance
    walk = Orbit(r, x)
    members = [(cyc, cpt) for cyc in cycles for cpt in cyc.points]
    table = normalized_pairs([cpt for _, cpt in members])
    for n in range(min(budget, 64) + 1):
        try:
            pt = walk.point(n)
        except RatmapError:
            break
        # only the screened members can pass the tests below, in the same order
        for k in np.flatnonzero(near_pairs(normalized_pairs([pt]), table, tol)[0]):
            cyc, cpt = members[k]
            if n == 0 and coincide(pt, cpt, tol):
                # identity case: the queried point is a cycle point
                return OrbitFate("preperiodic", cyc.cycle_id, 0, 0, walk=walk)
            if pt.is_exact and cpt.is_exact:
                if pt == cpt:
                    return OrbitFate("preperiodic", cyc.cycle_id, n, n, walk=walk)
                continue
            # floating leg: landings on critical cycles are not decidable
            # (convergence underflows to an exact hit); report convergence
            if cyc.contains_critical:
                continue
            if pt.chordal(cpt) <= tol * 1e-3:
                if _reverify_landing(r, x, cyc, n, tol):
                    return OrbitFate("preperiodic", cyc.cycle_id, n, n, walk=walk)

    # the tail: an unresolved orbit may run the whole budget
    prefix = len(walk.points)
    targets = [c for c in cycles if c.has_basin]
    hits = {c.cycle_id: 0 for c in targets}
    dist_history = {c.cycle_id: [] for c in targets}
    sample_every = max(1, budget // 256)
    end = budget if targets else prefix - 1
    for step in range(prefix - 1, end):
        try:
            z = walk.point(step + 1)
        except RatmapError:
            end = step
            break
        for cyc in targets:
            d = min(z.chordal(pt) for pt in cyc.points)
            if cyc.classification in ("superattracting", "attracting"):
                if d < 1e-8:
                    hits[cyc.cycle_id] += 1
                    if hits[cyc.cycle_id] >= 3 * cyc.period:
                        return OrbitFate("converges", cyc.cycle_id, steps_used=step + 1, walk=walk)
                else:
                    hits[cyc.cycle_id] = 0
            elif step % sample_every == 0:
                dist_history[cyc.cycle_id].append(d)
    else:
        # parabolic attraction is slow; accept a decreasing trend into a small collar
        for cyc in targets:
            if cyc.classification != "rationally_indifferent":
                continue
            h = dist_history[cyc.cycle_id]
            if len(h) >= 8:
                q1, q2, q3 = h[len(h) // 4], h[len(h) // 2], h[-1]
                if q3 < 1e-2 and q3 < q2 < q1:
                    return OrbitFate("converges", cyc.cycle_id, steps_used=budget, walk=walk)
    walk.truncate(prefix)  # no reader looks past the prefix of an unresolved walk
    return OrbitFate("unresolved", steps_used=end, walk=walk)


def asymptotic_valency(r: RationalMap, fate: OrbitFate, *, cycles, crit_points):
    """lim val(R^k, x) for the x whose fate this is, read along fate.walk.

    Finite unless the orbit lands exactly on a cycle containing a critical
    point, in which case it is INFINITE.
    """
    tol = r.tolerance
    crit_pts = [c.point for c in crit_points]
    walk = fate.walk

    if fate.kind == "preperiodic":
        # a failing valency wins; past a non-critical cycle every valency is 1
        product = walk.valency(fate.step)
        return INFINITE if cycles[fate.cycle_id].contains_critical else product

    if fate.kind == "converges":
        cyc = cycles[fate.cycle_id]
        off_cycle = [p for p in crit_pts if not cyc.contains(p, tol)]
        collar = min(
            (min(p.chordal(cp) for cp in cyc.points) for p in off_cycle),
            default=2.0,
        )
        stop_dist = min(collar / 2, 1e-6)
        product = 1
        for step in range(fate.steps_used):
            current = walk.points[step]
            if contains_point(crit_pts, current, tol):
                # an exact hit has chordal distance 0.0 too
                if any(current.chordal(p) == 0.0 for p in crit_pts):
                    product *= r.valency_at(current)
                else:
                    raise AsymptoticValencyUndeterminedError(
                        "orbit approaches a critical point within tolerance "
                        "without an exact hit",
                        step=step,
                    )
            if min(walk.point(step + 1).chordal(pt) for pt in cyc.points) < stop_dist:
                break
        return product

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
