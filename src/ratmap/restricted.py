"""Restricted-orbit queries and the exposed-orbit enumerator.

Two points are related when forward iterates of each meet at a common
point with equal local valencies.  The relation is semi-decidable: a
search to a given depth either produces a witness or reports that none
was found within the depth.

A finite set is emitted as an exposed orbit only after verification:
sets without critical points must satisfy the exact preimage identity
characterizing type 1; sets with critical points are checked for
invariance by a bounded backward search with valency matching, pruned by
the fact that cumulative valency never decreases along a backward path.
Forward orbits come from dynamics.Orbit: exact steps until a coordinate
passes 512 bits, floating after.  All coincidence decisions are exact when
the inputs are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dynamics import (
    DEFAULT_ORBIT_BUDGET,
    Orbit,
    critical_fate,
    critical_points,
    make_cycle,
)
from .errors import JuliaMembershipUndeterminedError, RatmapError
from .rational import RationalMap
from .sphere import SpherePoint, coincide, contains_point, dedup_points, point_sort_key

RO_DEPTH_DEFAULT = 12
MAX_SEED_PERIOD_DEFAULT = 4
PREIMAGE_DEPTH_DEFAULT = 6
CRITICAL_ORBIT_SEED_STEPS = 8
VERIFY_NODE_CAP = 50_000

TYPE3_LABELING_NOTE = (
    "type assignment follows the definitions: a critical point that is not "
    "pre-periodic makes its orbit type 3, whose quotient formula drops the "
    "circle factor; published worked examples have labeled such an orbit "
    "type 2 while displaying the type 3 formula."
)


@dataclass(frozen=True)
class ROWitness:
    n: int
    m: int
    valency: int


def ro_witness(x_walk: Orbit, y_walk: Orbit, depth: int, tol: float) -> ROWitness | None:
    """First witness in (n+m, n) order between two forward orbits walked to
    depth; None when either walk fails before depth."""
    ox = x_walk.with_valencies(depth)
    oy = y_walk.with_valencies(depth) if len(ox) > depth else []
    if len(oy) <= depth:
        return None
    for total in range(0, 2 * depth + 1):
        for n in range(max(0, total - depth), min(depth, total) + 1):
            m = total - n
            px, vx = ox[n]
            py, vy = oy[m]
            if vx == vy and coincide(px, py, tol):
                return ROWitness(n=n, m=m, valency=vx)
    return None


def ro_related(r: RationalMap, x: SpherePoint, y: SpherePoint,
               depth: int = RO_DEPTH_DEFAULT) -> ROWitness | None:
    """First witness of restricted-orbit equivalence in (n+m, n) order.

    None means no witness within the depth, not non-equivalence.
    """
    return ro_witness(Orbit(r, x), Orbit(r, y), depth, r.tolerance)


@dataclass
class ExposedOrbit:
    points: tuple
    orbit_type: int  # 1, 2 or 3
    contains_critical: bool
    in_julia: bool | None
    asymptotic_valency: object  # int, INFINITE, or None for type 1
    landing_cycle_id: int | None = None

    @property
    def size(self) -> int:
        return len(self.points)


@dataclass
class UndecidedCandidate:
    points: tuple
    reason: str


@dataclass
class ExposedScan:
    orbits: list
    undecided: list
    union: list
    truncation: dict
    warnings: list = field(default_factory=list)
    notes: list = field(default_factory=list)


def _closure(r: RationalMap, seed: SpherePoint, crit_pts, tol, max_size=4):
    """Minimal superset of the seed closed under forward images at
    non-critical members and non-critical preimages of all members.

    Any finite restricted-orbit-invariant set containing the seed contains
    this closure, so a closure that grows past max_size rules the seed out.
    """
    pts = [seed]
    queue = [seed]
    while queue:
        a = queue.pop()
        if not contains_point(crit_pts, a, tol):
            try:
                fa = r.evaluate(a)
            except RatmapError:
                return None
            if not contains_point(pts, fa, tol):
                pts.append(fa)
                queue.append(fa)
                if len(pts) > max_size:
                    return None
        try:
            pres = r.preimages(a)
        except RatmapError:
            return None
        for pre, mult in pres:
            if mult > 1:
                continue  # critical preimage: not forced into the set
            if not contains_point(pts, pre, tol):
                pts.append(pre)
                queue.append(pre)
                if len(pts) > max_size:
                    return None
    return pts


def brute_force_preimage_check(r: RationalMap, pts) -> bool:
    """Independent one-step re-check: every non-critical preimage of every
    member lies in the set (the containment that bounds exposed sets)."""
    tol = r.tolerance
    for a in pts:
        for pre, mult in r.preimages(a):
            if mult == 1 and not contains_point(pts, pre, tol):
                return False
    return True


def _verify_type1(r: RationalMap, pts, tol) -> bool:
    """Exact characterization of type 1: non-critical preimages of the set
    equal the set."""
    collected = []
    for a in pts:
        for pre, mult in r.preimages(a):
            if mult == 1:
                if not contains_point(pts, pre, tol):
                    return False
                if not contains_point(collected, pre, tol):
                    collected.append(pre)
    return len(collected) == len(pts) and all(
        contains_point(collected, a, tol) for a in pts
    )


def _verify_critical_invariance(r: RationalMap, pts, depth, tol,
                                node_cap=VERIFY_NODE_CAP, fates=None):
    """Bounded invariance check for sets containing a critical point.

    For every member a and every m <= depth, walks the backward tree of
    R^m(a) matching the cumulative valency val(R^m, a), read from the walk
    of a's fate when fates has one; a match outside the set witnesses
    non-invariance.  Cumulative valency never decreases along a backward
    path, which prunes the tree.

    Returns True (no witness found), False (witness found) or None
    (node budget exhausted before the depth was covered).
    """
    nodes = 0
    for a in pts:
        walk = fates[a].fate.walk if a in (fates or {}) else Orbit(r, a)
        for t, v in walk.with_valencies(depth):
            frontier = [(t, 1)]
            for _ in range(depth):
                new = []
                for y, cum in frontier:
                    try:
                        pres = r.preimages(y)
                    except RatmapError:
                        return None
                    for pre, mult in pres:
                        c2 = cum * mult
                        nodes += 1
                        if nodes > node_cap:
                            return None
                        if c2 > v:
                            continue
                        if c2 == v and not contains_point(pts, pre, tol):
                            return False
                        dup = any(
                            c2 == c0 and coincide(pre, p0, tol) for p0, c0 in new
                        )
                        if not dup:
                            new.append((pre, c2))
                frontier = new
                if not frontier:
                    break
    return True


def _find_or_make_cycle(r: RationalMap, pts, cycles, tol, warnings):
    """The cycle inside a forward-closed finite set, as a known cycle when
    one matches, otherwise classified on the spot (warnings collects what
    the classification records)."""
    for cyc in cycles:
        if any(cyc.contains(a, tol) for a in pts):
            return cyc
    walk = Orbit(r, pts[0])
    for n in range(1, len(pts) + 2):
        for i in range(n):
            if coincide(walk.point(n), walk.points[i], tol):
                return make_cycle(r, tuple(walk.points[i:n]), warnings)
    return None


def _cycle_in_julia(cycle, declarations, tol) -> bool | None:
    cls = cycle.classification
    if cls in ("superattracting", "attracting"):
        return False
    if cls in ("repelling", "rationally_indifferent"):
        return True
    if cls == "irrationally_indifferent":
        for dec in declarations:
            if dec.get("kind") == "siegel":
                anchor = dec.get("anchor_point")
                if anchor is not None and cycle.contains(anchor, tol):
                    return False
        return None
    return None


def exposed_orbits(r: RationalMap, cycles,
                   max_seed_period: int = MAX_SEED_PERIOD_DEFAULT,
                   preimage_depth: int = PREIMAGE_DEPTH_DEFAULT, *,
                   crit=None, fates=None, declarations=(),
                   budget=DEFAULT_ORBIT_BUDGET) -> ExposedScan:
    """Enumerate the minimal finite restricted-orbit-invariant sets.

    Seeds are critical points, cycle points up to max_seed_period, and the
    forward orbits (up to 8 steps) of critical points that land on cycles.
    The search scope is part of the result's truncation metadata: absence
    of further exposed sets is only claimed within these bounds.

    fates maps critical points to CriticalFate records, as
    dynamics.critical_fate computes them.  A critical member of a verified
    candidate missing from it gets its record computed here, with budget;
    the caller's mapping is left unchanged.
    """
    tol = r.tolerance
    if crit is None:
        crit = critical_points(r)
    crit_pts = [c.point for c in crit]
    # records are only needed for critical members of verified candidates;
    # computing the missing ones lazily keeps bulk scans cheap
    fates = dict(fates or {})

    pool = list(crit_pts)
    for cyc in cycles:
        if cyc.period <= max_seed_period:
            pool.extend(cyc.points)
    for c in crit:
        fate = fates[c.point].fate if c.point in fates else None
        if fate and fate.kind == "preperiodic" and fate.step <= CRITICAL_ORBIT_SEED_STEPS:
            pool.extend(fate.walk.points[:fate.step])
    pool = dedup_points(pool, tol)

    candidates = []
    for seed in pool:
        closure = _closure(r, seed, crit_pts, tol)
        if closure is None:
            continue
        closure_sorted = sorted(closure, key=point_sort_key)
        if not any(
            len(c) == len(closure_sorted)
            and all(contains_point(c, p, tol) for p in closure_sorted)
            for c in candidates
        ):
            candidates.append(closure_sorted)

    orbits = []
    undecided = []
    warnings = []
    notes = []
    for pts in candidates:
        crit_members = [a for a in pts if contains_point(crit_pts, a, tol)]
        contains_crit = bool(crit_members)

        # structural bounds; a candidate past them is a numerical artifact
        if len(pts) > 4 or (contains_crit and len(pts) > 3):
            warnings.append({
                "code": "exposed-bound-violation",
                "message": "candidate set exceeds the size bound; discarded",
                "points": [str(p) for p in pts],
            })
            continue
        if r.is_polynomial:
            finite = [p for p in pts if not p.is_infinity]
            finite_crit = [p for p in crit_members if not p.is_infinity]
            if finite and (len(finite) > 2 or (finite_crit and len(finite) > 1)):
                warnings.append({
                    "code": "exposed-bound-violation",
                    "message": "polynomial finite-plane bound violated; discarded",
                    "points": [str(p) for p in pts],
                })
                continue

        if not contains_crit:
            if not _verify_type1(r, pts, tol):
                continue
            cyc = _find_or_make_cycle(r, pts, cycles, tol, warnings)
            if cyc is None:
                undecided.append(UndecidedCandidate(tuple(pts), "no cycle found inside the set"))
                continue
            in_julia = _cycle_in_julia(cyc, declarations, tol)
            orbits.append(ExposedOrbit(
                points=tuple(pts),
                orbit_type=1,
                contains_critical=False,
                in_julia=in_julia,
                asymptotic_valency=None,
                landing_cycle_id=cyc.cycle_id if cyc.cycle_id >= 0 else None,
            ))
            continue

        verdict = _verify_critical_invariance(r, pts, preimage_depth, tol, fates=fates)
        if verdict is False:
            continue
        if verdict is None:
            undecided.append(UndecidedCandidate(tuple(pts), "verification budget exhausted"))
            continue
        member_fates = []
        for cm in crit_members:
            if cm not in fates:
                fates[cm] = critical_fate(r, cm, cycles, crit, budget)
            member_fates.append(fates[cm])
        if any(cf.fate.kind == "unresolved" for cf in member_fates):
            undecided.append(UndecidedCandidate(
                tuple(pts),
                "critical orbit fate unresolved within budget",
            ))
            continue
        orbit_type = 2 if any(cf.fate.kind == "preperiodic" for cf in member_fates) else 3
        first = member_fates[0]
        if first.error is not None:
            undecided.append(UndecidedCandidate(tuple(pts), str(first.error)))
            continue
        fate0 = first.fate
        if fate0.kind == "preperiodic":
            in_julia = _cycle_in_julia(cycles[fate0.cycle_id], declarations, tol)
        else:
            in_julia = False  # converges into a basin, hence the Fatou set
        if orbit_type == 3:
            notes.append({
                "code": "type3-labeling",
                "message": TYPE3_LABELING_NOTE,
                "points": [str(p) for p in pts],
            })
        orbits.append(ExposedOrbit(
            points=tuple(pts),
            orbit_type=orbit_type,
            contains_critical=True,
            in_julia=in_julia,
            asymptotic_valency=first.asymptotic_valency,
            landing_cycle_id=fate0.cycle_id,
        ))

    # minimality: an emitted orbit must not strictly contain another
    orbits.sort(key=lambda o: (o.size,) + point_sort_key(o.points[0]))
    minimal = []
    for o in orbits:
        if any(
            all(contains_point(o.points, p, tol) for p in small.points)
            and small.size < o.size
            for small in minimal
        ):
            continue
        minimal.append(o)

    union = dedup_points([p for o in minimal for p in o.points], tol)
    if len(union) > 4:
        warnings.append({
            "code": "exposed-bound-violation",
            "message": "total exposed points exceed 4; output truncated to smallest orbits",
        })
        # keep smallest orbits until the global bound holds
        kept = []
        count = 0
        for o in minimal:
            if count + o.size > 4:
                break
            kept.append(o)
            count += o.size
        minimal = kept
        union = dedup_points([p for o in minimal for p in o.points], tol)

    return ExposedScan(
        orbits=minimal,
        undecided=undecided,
        union=sorted(union, key=point_sort_key),
        truncation={
            "max_seed_period": max_seed_period,
            "preimage_depth": preimage_depth,
            "critical_orbit_seed_steps": CRITICAL_ORBIT_SEED_STEPS,
            "orbit_budget": budget,
        },
        warnings=warnings,
        notes=notes,
    )


def julia_exposed_partition(orbits):
    """Split exposed orbits by Julia membership; undetermined blocks."""
    for o in orbits:
        if o.in_julia is None:
            raise JuliaMembershipUndeterminedError(
                "exposed orbit with undetermined Julia membership",
                points=[str(p) for p in o.points],
            )
    return (
        [o for o in orbits if o.in_julia],
        [o for o in orbits if not o.in_julia],
    )
