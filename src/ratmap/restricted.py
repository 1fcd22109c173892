"""Restricted-orbit queries and the exposed-orbit enumerator.

Two points are related when forward iterates of each meet at a common
point with equal local valencies.  The relation is semi-decidable: a
search to a given depth either produces a witness or reports that none
was found within the depth.

A finite set is emitted as an exposed orbit only after verification.  A
completed closure E (see _closure_walk) with no critical member is of type 1,
R^-1(E) minus the critical points = E, as the closure itself checked: it
added every simple preimage of every member, and checked that every member
came back as a simple preimage of its image, a member.  That last check is
void when the points are exact, whose preimage multiplicities are exact.  A
floating solve merges roots within DEFAULT_CLUSTER_RADIUS, so a member
whose sibling preimage lies that near comes back double, the sibling is
never added, and the closure is given up.  Its cycle is a known one: a
critical-free closure holds a cycle point its seed was taken from, or,
seeded from a point of a critical orbit's prefix, the point where that
orbit lands on a known cycle (in exact arithmetic); a set that holds no
point of a known cycle is undecided.  Sets with critical points are checked
for invariance by a bounded backward search with valency matching, pruned
by the fact that cumulative valency never decreases along a backward path.
Forward orbits come from dynamics.Orbit: exact steps until a coordinate
passes 512 bits, floating after.  All coincidence decisions are exact when
the inputs are exact.

The scan computes no critical fate: it reads the record the caller computed
for every critical point, the same records the atlas reads.  A verified
orbit's Julia side is that of the cycle it holds or lands on, by the one
rule DeclaredStructures.in_julia, which the atlas reads too.

Candidates are closures of seeds (see _closure_walk), and a cycle with no
critical member is seeded once.  Nothing is lost: the closure of a
non-critical x holds R(x), so the closure of any point of such a cycle holds
the whole cycle; being the least set that holds its seed and is closed under
the rules, it is the same set (or the same None past 4 points) for every
point of the cycle.  A cycle with a critical member keeps one seed per point.

Each closure is budgeted by simple preimages.  A point a has
s(a) = d - sum(val(c) for critical c with R(c) = a) simple preimages, and
the simple preimages of distinct members of a closure E are distinct
members of E, so sum(s(a) for a in E) <= |E|.  The closure is given up as
soon as that sum over the members found so far passes 4.  A seed's
forward orbit, read off its cycle or its critical point's walk, is taken
before any preimage is solved, so a seed whose forward orbit passes the
budget costs no solve: on a degree-2 map, every point of a critical-free
cycle of period 3 or more.  The count taken is a lower bound: a critical
value within DEFAULT_CLUSTER_RADIUS of a counts as over a, and so does
one whose evaluation failed.

The preimages are solved in batches (RationalMap.preimages_many, one
find_roots_many call each), which give every root the bits of its lone
solve.  All seeds' closures advance together in rounds (_closures): each
round solves the next member of every live closure at once, and each
closure asks for the members it would solve alone, in the same order.
The invariance check solves each level of a backward tree at once, then
walks it node by node as before.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count

from .dynamics import Orbit
from .errors import JuliaMembershipUndeterminedError, RatmapError
from .rational import RationalMap
from .roots import DEFAULT_CLUSTER_RADIUS
from .sphere import (
    SpherePoint,
    coincide,
    contains_point,
    dedup_indices,
    dedup_points,
    point_sort_key,
)

RO_DEPTH_DEFAULT = 12
MAX_SEED_PERIOD_DEFAULT = 4
PREIMAGE_DEPTH_DEFAULT = 6
CRITICAL_ORBIT_SEED_STEPS = 8
VERIFY_NODE_CAP = 50_000
# exposed orbits hold at most this many points together, so a closure past it holds none
EXPOSED_BOUND = 4

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
    lands_on_critical_cycle: bool = False

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def preperiodic(self) -> bool:
        return self.orbit_type == 2


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


def _simple_preimage_count(r: RationalMap, a: SpherePoint) -> int:
    """At most the number of simple preimages of a: d less the valencies of
    the critical points whose image lies within DEFAULT_CLUSTER_RADIUS of a,
    a critical point whose image raised counting as near every point."""
    near = sum(val for v, val in r.critical_values()
               if v is None or v.chordal(a) <= DEFAULT_CLUSTER_RADIUS)
    return max(0, r.degree - near)


def _closure_walk(r: RationalMap, orbit, crit_pts):
    """The closure of the seed that starts orbit, its forward orbit, as a
    generator that yields each member before it reads the member's
    preimages; it returns the closure or None.

    The closure is the minimal superset of the seed closed under forward
    images at non-critical members and non-critical preimages of all members.
    Any finite restricted-orbit-invariant set containing the seed contains
    this closure, so a closure that grows past EXPOSED_BOUND rules the seed out.
    The simple preimages of distinct members are distinct members, so the
    members' simple-preimage counts sum to at most the closure's size: the
    seed is ruled out once that sum over the members found so far passes
    EXPOSED_BOUND.  The set and its None do not depend on the order in which
    members are processed, so orbit is read to its first member or critical
    point before any preimage is solved: a seed whose forward orbit passes
    the budget yields nothing.  orbit may end where its next point is a
    member, a cycle at its last point and a critical seed at the seed, and a
    simple preimage's image is the member it was solved from.  A closure in
    which a non-critical member is not among the simple preimages solved is
    given up too: a floating solve merged it with a sibling, which is missing.
    """
    tol = r.tolerance
    pts = []
    simple = 0

    def ruled_out(points):
        """Add the points up to the first member or critical point; True
        once they rule the seed out."""
        nonlocal simple
        for p in points:
            if contains_point(pts, p, tol):
                return False
            pts.append(p)
            simple += _simple_preimage_count(r, p)
            if len(pts) > EXPOSED_BOUND or simple > EXPOSED_BOUND:
                return True
            if contains_point(crit_pts, p, tol):
                return False
        return False

    simple_pres = []
    try:
        if ruled_out(orbit):
            return None
        for a in pts:  # pts grows as it is walked
            yield a
            for pre, mult in r.preimages(a):
                if mult != 1:
                    continue  # a critical preimage is not forced into the set
                simple_pres.append(pre)
                if ruled_out((pre,)):
                    return None
    except RatmapError:
        return None
    # a non-critical member is a simple preimage of its image, a member; one
    # that came back merged with a sibling (floating roots within
    # DEFAULT_CLUSTER_RADIUS) hid that sibling from the closure
    if not all(contains_point(crit_pts, b, tol) or contains_point(simple_pres, b, tol)
               for b in pts):
        return None
    return pts


def _closures(r: RationalMap, orbits, crit_pts) -> list:
    """The closure of the seed of each forward orbit (see _closure_walk), or
    None, in rounds.

    Every walk first reads its seed's forward orbit.  Each round then
    solves, in one preimages_many call, the members that the live walks
    yield next, and steps each of those walks on to its next member.  Each
    walk yields the members it would solve alone, in the same order.
    """
    walks = [_closure_walk(r, orbit, crit_pts) for orbit in orbits]
    closures = [None] * len(walks)
    asked = {}  # index of a live walk -> the member whose preimages it reads next

    def advance(i):
        try:
            asked[i] = next(walks[i])
        except StopIteration as stop:
            closures[i] = stop.value

    for i in range(len(walks)):
        advance(i)
    while asked:
        r.preimages_many(list(asked.values()))
        for i in list(asked):
            del asked[i]
            advance(i)
    return closures


def brute_force_preimage_check(r: RationalMap, pts) -> bool:
    """Independent one-step re-check: every non-critical preimage of every
    member lies in the set (the containment that bounds exposed sets)."""
    tol = r.tolerance
    for a in pts:
        for pre, mult in r.preimages(a):
            if mult == 1 and not contains_point(pts, pre, tol):
                return False
    return True


def _verify_critical_invariance(r: RationalMap, pts, depth, fates=None):
    """Bounded invariance check for sets containing a critical point.

    For every member a and every m <= depth, walks the backward tree of
    R^m(a) matching the cumulative valency val(R^m, a), read from the walk
    of a's fate when fates has one; a match outside the set witnesses
    non-invariance.  Cumulative valency never decreases along a backward
    path, which prunes the tree.

    Returns True (no witness found), False (witness found) or None
    (node budget exhausted before the depth was covered).
    """
    tol = r.tolerance
    nodes = 0
    for a in pts:
        walk = fates[a].fate.walk if a in (fates or {}) else Orbit(r, a)
        for t, v in walk.with_valencies(depth):
            frontier = [(t, 1)]
            for _ in range(depth):
                r.preimages_many([y for y, _ in frontier])
                new = []
                for y, cum in frontier:
                    try:
                        pres = r.preimages(y)
                    except RatmapError:
                        return None
                    for pre, mult in pres:
                        c2 = cum * mult
                        nodes += 1
                        if nodes > VERIFY_NODE_CAP:
                            return None
                        if c2 > v:
                            continue
                        if c2 == v and not contains_point(pts, pre, tol):
                            return False
                        new.append((pre, c2))
                frontier = _dedup_by_valency(new, tol)
                if not frontier:
                    break
    return True


def _dedup_by_valency(nodes, tol):
    """The (point, cumulative valency) nodes left, in order, when each is
    dropped that coincides with a kept earlier node of the same valency."""
    classes = {}
    for i, (_, cum) in enumerate(nodes):
        classes.setdefault(cum, []).append(i)
    kept = sorted(idx[k] for idx in classes.values()
                  for k in dedup_indices([nodes[i][0] for i in idx], tol))
    return [nodes[i] for i in kept]


@dataclass(frozen=True)
class DeclaredStructures:
    siegel: dict = field(default_factory=dict)  # cycle_id -> its Siegel Declaration
    herman: tuple = ()  # the Herman Declarations, in the order given

    def in_julia(self, cycle) -> bool | None:
        """True for a repelling or parabolic cycle, False for a
        (super)attracting one or one a Siegel declaration is bound to, None
        for any other."""
        if cycle.classification in ("repelling", "rationally_indifferent"):
            return True
        if cycle.classification in ("superattracting", "attracting"):
            return False
        return False if cycle.cycle_id in self.siegel else None


def exposed_orbits(r: RationalMap, cycles, fates,
                   max_seed_period: int = MAX_SEED_PERIOD_DEFAULT,
                   preimage_depth: int = PREIMAGE_DEPTH_DEFAULT, *,
                   declared=DeclaredStructures()) -> ExposedScan:
    """Enumerate the minimal finite restricted-orbit-invariant sets.

    Seeds are critical points, cycle points up to max_seed_period, and the
    forward orbits (up to 8 steps) of critical points that land on cycles.
    A cycle none of whose points is critical (not contains_critical, the
    valency rule of make_cycle) gives one seed: each of its points has the
    same closure, since each closure holds the whole cycle.
    A critical-free closure is of type 1 as it stands, and its cycle is the
    first known cycle holding one of its members: every seed is a point of
    a known cycle or on the way to one (see the module docstring).
    The search scope is part of the result's truncation metadata: absence
    of further exposed sets is only claimed within these bounds.

    fates maps every critical point, in the order of critical_points, to
    its CriticalFate record, as dynamics.critical_fate computes it; its keys
    are the critical points the scan seeds and tests against, and a critical
    member of a candidate reads the record of the critical point it
    coincides with.  declared holds the declarations bind_declarations bound
    to the cycles, and decides each landing cycle's Julia side.

    The orbits come sorted by size, then by least point.
    """
    tol = r.tolerance
    crit_pts = list(fates)

    # each seed with its forward orbit and the critical-free cycle it lies on,
    # or None; a cycle lists its points in orbit order (make_cycle)
    pool = [(p, (p,), None) for p in crit_pts]
    for cyc in cycles:
        if cyc.period <= max_seed_period:
            pts = cyc.points
            pool.extend((a, pts[i:] + pts[:i], None if cyc.contains_critical else cyc)
                        for i, a in enumerate(pts))
    for c in crit_pts:
        fate = fates[c].fate
        if fate.kind == "preperiodic" and fate.step <= CRITICAL_ORBIT_SEED_STEPS:
            pool.extend((p, map(fate.walk.point, count(k)), None)
                        for k, p in enumerate(fate.walk.points[:fate.step]))
    pool = [pool[i] for i in dedup_indices([p for p, _, _ in pool], tol)]

    seeds = []
    closed = set()  # ids of the critical-free cycles already seeded
    for _, orbit, cyc in pool:
        if cyc is not None:
            # every point of a critical-free cycle has the same closure
            if id(cyc) in closed:
                continue
            closed.add(id(cyc))
        seeds.append(orbit)
    candidates = []
    for closure in _closures(r, seeds, crit_pts):
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
        # the critical points in the set, in the set's order (both sort by point_sort_key)
        crit_members = [c for c in crit_pts if contains_point(pts, c, tol)]
        contains_crit = bool(crit_members)

        # structural bounds; a candidate past them is a numerical artifact
        # (no closure passes EXPOSED_BOUND points)
        if contains_crit and len(pts) > 3:
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
            # a type-1 set (see the module docstring); its cycle is a known one
            cyc = next((c for c in cycles if any(c.contains(a, tol) for a in pts)), None)
            if cyc is None:
                undecided.append(UndecidedCandidate(tuple(pts), "no cycle found inside the set"))
                continue
            orbits.append(ExposedOrbit(
                points=tuple(pts),
                orbit_type=1,
                contains_critical=False,
                in_julia=declared.in_julia(cyc),
                asymptotic_valency=None,
            ))
            continue

        verdict = _verify_critical_invariance(r, pts, preimage_depth, fates=fates)
        if verdict is False:
            continue
        if verdict is None:
            undecided.append(UndecidedCandidate(tuple(pts), "verification budget exhausted"))
            continue
        member_fates = [fates[c] for c in crit_members]
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
            in_julia = declared.in_julia(cycles[fate0.cycle_id])
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
            lands_on_critical_cycle=fate0.lands_on_critical_cycle(cycles),
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
    if len(union) > EXPOSED_BOUND:
        warnings.append({
            "code": "exposed-bound-violation",
            "message": "total exposed points exceed 4; output truncated to smallest orbits",
        })
        # keep smallest orbits until the global bound holds
        kept = []
        size = 0
        for o in minimal:
            if size + o.size > EXPOSED_BOUND:
                break
            kept.append(o)
            size += o.size
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
        },
        warnings=warnings,
        notes=notes,
    )


def julia_exposed_partition(orbits):
    """Split exposed orbits by Julia membership; undetermined blocks, and
    the error lists the points of every undetermined orbit."""
    undetermined = [o for o in orbits if o.in_julia is None]
    if undetermined:
        raise JuliaMembershipUndeterminedError(
            "exposed orbit with undetermined Julia membership blocks the Julia quotient",
            orbits=[[str(p) for p in o.points] for o in undetermined],
        )
    return (
        [o for o in orbits if o.in_julia],
        [o for o in orbits if not o.in_julia],
    )
