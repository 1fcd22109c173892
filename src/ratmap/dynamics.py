"""Critical points, periodic cycles, orbit fates, asymptotic valency.

Cycle classification never guesses: super-attraction is decided by
criticality of the cycle (exactly, when the map is exact), attracting and
repelling come from |multiplier| against a band of width 1e-6 around 1,
and a floating multiplier inside the band is recorded as ambiguous rather
than forced into a class.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import (
    AsymptoticValencyUndeterminedError,
    ClassificationAmbiguousError,
    RatmapError,
)
from .poly import Polynomial
from .rational import EXACT_HEIGHT_CAP_BITS, CriticalPoint, RationalMap, point_height_bits
from .roots import find_roots
from .scalars import GaussianRational
from .sphere import INFINITY, SpherePoint, coincide, contains_point, point_sort_key

INDIFFERENT_BAND = 1e-6
ROOT_OF_UNITY_CAP = 64
DEFAULT_ORBIT_BUDGET = 10_000
DEFAULT_MAX_PERIOD = 4
# skip periods whose sphere solve would exceed this many points; reported as truncation
DEFAULT_PERIOD_WORK_CAP = 200

INFINITE = float("inf")


def critical_points(r: RationalMap):
    """All critical points with local valencies; sum(val - 1) = 2d - 2."""
    out = []
    w = r.wronskian
    if w.degree >= 1:
        for root, _mult, _res in find_roots(w):
            pt = SpherePoint.finite(root)
            val = r.valency_at(pt)
            if val >= 2:
                out.append(CriticalPoint(pt, val))
    val_inf = r.valency_at(INFINITY)
    if val_inf >= 2:
        out.append(CriticalPoint(INFINITY, val_inf))
    out.sort(key=lambda c: point_sort_key(c.point))
    return out


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


def periodic_cycles(r: RationalMap, max_period: int = DEFAULT_MAX_PERIOD,
                    work_cap: int = DEFAULT_PERIOD_WORK_CAP):
    """All cycles of exact period <= max_period.

    Returns (cycles, truncated_periods, warnings).  Periods whose
    fixed-point solve would exceed work_cap sphere points are skipped and
    reported in truncated_periods.
    """
    tol = r.tolerance
    cycles = []
    truncated = []
    warnings = []
    for p in range(1, max_period + 1):
        target_degree = r.degree**p + 1
        if target_degree > work_cap:
            truncated.append(p)
            continue
        p_n, q_n, _ = r.iterated_pair(p)
        fixed = p_n - Polynomial((1, 0)) * q_n
        if not fixed.is_exact:
            fixed = fixed.strip_leading(tol * max(p_n.coeff_scale(), q_n.coeff_scale()))
        if fixed.is_zero:
            raise RatmapError("fixed-point polynomial vanished identically")
        inf_mult = target_degree - fixed.degree
        candidates = []
        if fixed.degree >= 1:
            for root, _mult, _res in find_roots(fixed):
                candidates.append(SpherePoint.finite(root))
        if inf_mult > 0:
            candidates.append(INFINITY if fixed.is_exact else SpherePoint.infinity(exact=False))
        for x in candidates:
            try:
                orbit = [x]
                for _ in range(p):
                    orbit.append(r.evaluate(orbit[-1]))
            except RatmapError:
                continue
            if not r.is_exact and not coincide(orbit[p], x, 10 * tol):
                continue  # phantom root introduced by floating composition
            ret = None
            for t in range(1, p + 1):
                if coincide(orbit[t], x, tol):
                    ret = t
                    break
            if ret != p:
                continue  # belongs to a strictly smaller period
            pts = tuple(orbit[:p])
            if any(c.contains(x, tol) for c in cycles):
                continue
            cycles.append(make_cycle(r, pts, warnings))
    cycles.sort(key=PeriodicCycle.sort_key)
    for i, c in enumerate(cycles):
        c.cycle_id = i
    return cycles, truncated, warnings


@dataclass(frozen=True)
class OrbitFate:
    kind: str  # "preperiodic" | "converges" | "unresolved"
    cycle_id: int | None = None
    step: int | None = None
    steps_used: int = 0

    @property
    def resolved(self) -> bool:
        return self.kind != "unresolved"


def _step_with_height_guard(r: RationalMap, x: SpherePoint) -> SpherePoint:
    if x.is_exact and point_height_bits(x) > EXACT_HEIGHT_CAP_BITS:
        x = x.to_float()
    return r.evaluate(x)


def _reverify_landing(r: RationalMap, x: SpherePoint, cyc, n: int, tol: float) -> bool:
    """Floating landings must survive a perturbed re-run (preperiodicity is
    too consequential downstream to accept from a single pass)."""
    if x.is_infinity:
        return True
    z = complex(x.z) + complex(1e-12, 1e-12)
    current = SpherePoint.finite(z)
    try:
        for _ in range(n):
            current = r.evaluate(current)
    except RatmapError:
        return False
    return any(current.chordal(pt) <= 1e4 * tol for pt in cyc.points)


def orbit_fate(r: RationalMap, x: SpherePoint, cycles,
               budget: int = DEFAULT_ORBIT_BUDGET) -> OrbitFate:
    """Fate of the forward orbit of x against the known cycles.

    Exact landings are searched on a short prefix (they are exact-arithmetic
    facts for exact inputs, tolerance plus re-verification otherwise), after
    which the orbit is continued in floating point to detect convergence.
    """
    tol = r.tolerance
    prefix_len = min(budget, 64)
    prefix = [x]
    current = x
    for _ in range(prefix_len):
        try:
            current = _step_with_height_guard(r, current)
        except RatmapError:
            break
        prefix.append(current)

    for n, pt in enumerate(prefix):
        for cyc in cycles:
            for cpt in cyc.points:
                if n == 0 and coincide(pt, cpt, tol):
                    # identity case: the queried point is a cycle point
                    return OrbitFate("preperiodic", cyc.cycle_id, 0, 0)
                if pt.is_exact and cpt.is_exact:
                    if pt == cpt:
                        return OrbitFate("preperiodic", cyc.cycle_id, n, n)
                    continue
                # floating leg: landings on critical cycles are not decidable
                # (convergence underflows to an exact hit); report convergence
                if cyc.contains_critical:
                    continue
                if pt.chordal(cpt) <= tol * 1e-3:
                    if _reverify_landing(r, x, cyc, n, tol):
                        return OrbitFate("preperiodic", cyc.cycle_id, n, n)

    rf = r.floating()
    z = prefix[-1].to_float()
    steps_done = len(prefix) - 1
    targets = [
        c
        for c in cycles
        if c.classification in ("superattracting", "attracting", "rationally_indifferent")
    ]
    if not targets:
        return OrbitFate("unresolved", steps_used=steps_done)
    hits = {c.cycle_id: 0 for c in targets}
    dist_history = {c.cycle_id: [] for c in targets}
    sample_every = max(1, budget // 256)
    for step in range(steps_done, budget):
        try:
            z = rf.evaluate(z)
        except RatmapError:
            return OrbitFate("unresolved", steps_used=step)
        for cyc in targets:
            d = min(z.chordal(pt) for pt in cyc.points)
            if cyc.classification in ("superattracting", "attracting"):
                if d < 1e-8:
                    hits[cyc.cycle_id] += 1
                    if hits[cyc.cycle_id] >= 3 * cyc.period:
                        return OrbitFate("converges", cyc.cycle_id, steps_used=step + 1)
                else:
                    hits[cyc.cycle_id] = 0
            elif step % sample_every == 0:
                dist_history[cyc.cycle_id].append(d)
    # parabolic attraction is slow; accept a decreasing trend into a small collar
    for cyc in targets:
        if cyc.classification != "rationally_indifferent":
            continue
        h = dist_history[cyc.cycle_id]
        if len(h) >= 8:
            q1, q2, q3 = h[len(h) // 4], h[len(h) // 2], h[-1]
            if q3 < 1e-2 and q3 < q2 < q1:
                return OrbitFate("converges", cyc.cycle_id, steps_used=budget)
    return OrbitFate("unresolved", steps_used=budget)


def asymptotic_valency(r: RationalMap, x: SpherePoint, fate: OrbitFate, *,
                       cycles, crit_points):
    """lim val(R^k, x): the product of local valencies along the forward orbit.

    Finite unless the orbit lands exactly on a cycle containing a critical
    point, in which case it is INFINITE.
    """
    tol = r.tolerance
    crit_pts = [c.point for c in crit_points]

    if fate.kind == "preperiodic":
        cyc = cycles[fate.cycle_id]
        product = 1
        current = x
        for _ in range(fate.step):
            product *= r.valency_at(current)
            current = _step_with_height_guard(r, current)
        if cyc.contains_critical:
            return INFINITE
        return product  # on a non-critical cycle every further valency is 1

    if fate.kind == "converges":
        cyc = cycles[fate.cycle_id]
        off_cycle = [p for p in crit_pts if not cyc.contains(p, tol)]
        collar = min(
            (min(p.chordal(cp) for cp in cyc.points) for p in off_cycle),
            default=2.0,
        )
        stop_dist = min(collar / 2, 1e-6)
        product = 1
        current = x
        for step in range(fate.steps_used):
            if contains_point(crit_pts, current, tol):
                exact_hit = current.is_exact and any(
                    current == p for p in crit_pts if p.is_exact
                )
                float_hit = any(current.chordal(p) == 0.0 for p in crit_pts)
                if exact_hit or float_hit:
                    product *= r.valency_at(current)
                else:
                    raise AsymptoticValencyUndeterminedError(
                        "orbit approaches a critical point within tolerance "
                        "without an exact hit",
                        step=step,
                    )
            current = _step_with_height_guard(r, current)
            if min(current.chordal(pt) for pt in cyc.points) < stop_dist:
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
        aval = asymptotic_valency(r, x, fate, cycles=cycles, crit_points=crit_points)
    except RatmapError as err:
        return CriticalFate(fate, None, err)
    return CriticalFate(fate, aval)
