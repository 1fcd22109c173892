from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import count

import pytest

import ratmap.dynamics
import ratmap.restricted
import ratmap.roots
from ratmap.dynamics import (
    DEFAULT_ORBIT_BUDGET,
    INFINITE,
    Orbit,
    critical_fates,
    critical_points,
    periodic_cycles,
)
from ratmap.errors import RatmapError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import parse_map, run_analysis
from ratmap.restricted import (
    VERIFY_NODE_CAP,
    _closures,
    _dedup_by_valency,
    _verify_critical_invariance,
    brute_force_preimage_check,
    exposed_orbits,
    julia_exposed_partition,
    ro_related,
)
from ratmap.scalars import GaussianRational
from ratmap.sphere import INFINITY, SpherePoint, coincide, contains_point, point_sort_key

from .test_pipeline_corpus import SPARSE_QUINTIC, _sparse_map
from .test_report import DECIMAL_TWINS, WORKED_MAPS, _corpus_map, _decimal_twin


def _forward(r, x):
    """The forward orbit of x, seed first, walked as far as it is read."""
    return map(Orbit(r, x).point, count())


def cheb():
    return RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))


def rees_shape():
    return RationalMap(Polynomial([1, -4, 4]), Polynomial([1, 0, 0]))


def zsq():
    return RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))


def test_ro_reflexive():
    r = cheb()
    w = ro_related(r, SpherePoint.finite(5), SpherePoint.finite(5), depth=3)
    assert w is not None and (w.n, w.m, w.valency) == (0, 0, 1)


def test_ro_chebyshev_pair():
    r = cheb()
    w = ro_related(r, SpherePoint.finite(-2), SpherePoint.finite(2), depth=3)
    assert w is not None and (w.n, w.m, w.valency) == (1, 0, 1)


def test_ro_square_pair():
    # both 1 and -1 map regularly to 1; the first witness in (n+m, n) order
    # is (0, 1) since R^0(1) = R^1(-1) already matches with valency 1
    r = zsq()
    w = ro_related(r, SpherePoint.finite(1), SpherePoint.finite(-1), depth=3)
    assert w is not None and (w.n, w.m, w.valency) == (0, 1, 1)


def test_ro_symmetry_via_swap():
    r = cheb()
    a, b = SpherePoint.finite(-2), SpherePoint.finite(2)
    w1 = ro_related(r, a, b, depth=4)
    w2 = ro_related(r, b, a, depth=4)
    assert w1 is not None and w2 is not None
    assert (w1.n, w1.m) == (w2.m, w2.n)


def test_ro_simpleobs_property():
    # whenever val(R^n, x) = 1, the n-th image is RO-related to x
    rng = random.Random(5)
    r = cheb()
    checked = 0
    for _ in range(40):
        x = SpherePoint.finite(GaussianRational(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
        ))
        n = rng.randint(1, 3)
        walk = Orbit(r, x)
        if walk.valency(n) != 1:
            continue
        xn = walk.point(n)
        w = ro_related(r, xn, x, depth=n)
        assert w is not None
        checked += 1
    assert checked > 10


def test_exposed_chebyshev():
    r = cheb()
    cycles, _, _ = periodic_cycles(r, 4)
    scan = exposed_orbits(r, cycles, critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET))
    by_size = sorted(
        (sorted(str(p) for p in o.points), o.orbit_type, o.in_julia) for o in scan.orbits
    )
    assert by_size == [
        (["-2", "2"], 1, True),
        (["inf"], 2, False),
    ]
    assert sorted(str(p) for p in scan.union) == ["-2", "2", "inf"]
    for o in scan.orbits:
        assert brute_force_preimage_check(r, o.points)


def test_exposed_rees_shape():
    r = rees_shape()
    cycles, _, _ = periodic_cycles(r, 4)
    scan = exposed_orbits(r, cycles, critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET))
    table = {tuple(sorted(str(p) for p in o.points)): o for o in scan.orbits}
    assert set(table) == {("1", "inf"), ("0",)}
    assert table[("1", "inf")].orbit_type == 1
    assert table[("1", "inf")].in_julia is True
    o0 = table[("0",)]
    assert o0.orbit_type == 2
    assert o0.in_julia is True
    assert o0.asymptotic_valency == 2
    assert sorted(str(p) for p in scan.union) == ["0", "1", "inf"]


def test_exposed_zsq():
    r = zsq()
    cycles, _, _ = periodic_cycles(r, 4)
    scan = exposed_orbits(r, cycles, critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET))
    table = {tuple(sorted(str(p) for p in o.points)): o for o in scan.orbits}
    assert set(table) == {("0",), ("inf",)}
    for o in scan.orbits:
        assert o.orbit_type == 2
        assert o.in_julia is False
        assert o.asymptotic_valency == INFINITE
    in_j, in_f = julia_exposed_partition(scan.orbits)
    assert in_j == []
    assert len(in_f) == 2


def test_partition_examples():
    r = cheb()
    cycles, _, _ = periodic_cycles(r, 4)
    scan = exposed_orbits(r, cycles, critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET))
    in_j, in_f = julia_exposed_partition(scan.orbits)
    assert [sorted(str(p) for p in o.points) for o in in_j] == [["-2", "2"]]
    assert [sorted(str(p) for p in o.points) for o in in_f] == [["inf"]]


def test_exposed_bounds_never_violated():
    for r in (cheb(), rees_shape(), zsq()):
        cycles, _, _ = periodic_cycles(r, 3)
        scan = exposed_orbits(r, cycles, critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET))
        total = 0
        for o in scan.orbits:
            assert o.size <= 4
            if o.contains_critical:
                assert o.size <= 3
            if r.is_polynomial:
                finite = [p for p in o.points if not p.is_infinity]
                assert len(finite) <= 2
            total += o.size
        assert total <= 4


def test_partition_blocks_on_undetermined_membership():
    from ratmap.errors import JuliaMembershipUndeterminedError
    from ratmap.restricted import ExposedOrbit

    def orbit(points, in_julia):
        return ExposedOrbit(points=tuple(SpherePoint.finite(p) for p in points), orbit_type=2,
                            contains_critical=True, in_julia=in_julia, asymptotic_valency=2)

    with pytest.raises(JuliaMembershipUndeterminedError) as err:
        julia_exposed_partition([orbit([0], None), orbit([2], True), orbit([1, -1], None)])
    # the error names every undetermined orbit, as the report's obstruction does
    assert str(err.value) == ("exposed orbit with undetermined Julia membership blocks "
                              "the Julia quotient")
    assert err.value.context == {"orbits": [["0"], ["1", "-1"]]}


def test_no_exposed_set_for_generic_quadratic():
    # z^2 + 1/4 (parabolic); nothing in the plane is exposed, infinity is
    r = RationalMap(Polynomial([1, 0, GaussianRational(Fraction(1, 4))]), Polynomial([1]))
    cycles, _, _ = periodic_cycles(r, 2)
    scan = exposed_orbits(r, cycles, critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET))
    assert [sorted(str(p) for p in o.points) for o in scan.orbits] == [["inf"]]


# z^2 + eps - eps^2 at eps = 1e-8: its attracting fixed point eps lies 1e-8
# from the critical point 0, outside the tolerance, and the preimages +-eps of
# eps merge into one double root, as the solved fixed point is floating in
# either mode
NEAR_SUPERATTRACTING = [
    {"numerator": ["1", "0", "99999999/10000000000000000"], "denominator": ["1"]},
    {"numerator": ["1", "0", "0.0000000099999999"], "denominator": ["1"]},
]


@pytest.mark.parametrize("doc", NEAR_SUPERATTRACTING)
def test_a_member_whose_sibling_preimage_merged_into_it_gives_no_type_1_set(doc):
    # {eps} would pass for a type-1 set, but -eps is a non-critical preimage
    # outside it
    r = parse_map(doc)
    cycles, _, _ = periodic_cycles(r)
    fates = critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET)
    eps = cycles[0].points[0]
    assert eps.chordal(SpherePoint.finite(1e-8)) < 1e-20
    assert [(str(pre), mult) for pre, mult in r.preimages(eps)] == [("0.0", 2)]
    assert _closures(r, [_forward(r, eps)], list(fates)) == [None]
    scan = exposed_orbits(r, cycles, fates)
    assert [o.points for o in scan.orbits] == [(INFINITY,)]
    assert scan.undecided == []


def _scan_of_closures(r, closures, monkeypatch):
    """exposed_orbits of r over its cycles up to period 2, with closures as the seeds' closures."""
    cycles, _, _ = periodic_cycles(r, 2)
    fates = critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET)
    monkeypatch.setattr(ratmap.restricted, "_closures", lambda r, orbits, crit_pts: closures)
    return exposed_orbits(r, cycles, fates)


def _bound_violations(scan):
    return [(w["message"], w.get("points")) for w in scan.warnings
            if w["code"] == "exposed-bound-violation"]


def test_a_candidate_with_a_critical_point_past_three_points_is_discarded(monkeypatch):
    # the critical points of (z - 2)^2 / z^2 are 0 and 2
    r = rees_shape()
    pts = [SpherePoint.finite(GaussianRational(x)) for x in (0, 2, 5, 7)]
    scan = _scan_of_closures(r, [pts], monkeypatch)
    assert _bound_violations(scan) == [
        ("candidate set exceeds the size bound; discarded", ["0", "2", "5", "7"])]
    assert scan.orbits == [] and scan.undecided == []


@pytest.mark.parametrize("values", [(1, 3, 5), (0, 5)])
def test_a_polynomial_candidate_past_the_finite_plane_bound_is_discarded(values, monkeypatch):
    # z^2 - 2: three finite points, or two with the critical point 0
    r = cheb()
    pts = [SpherePoint.finite(GaussianRational(x)) for x in values]
    scan = _scan_of_closures(r, [pts], monkeypatch)
    assert _bound_violations(scan) == [
        ("polynomial finite-plane bound violated; discarded", [str(x) for x in values])]
    assert scan.orbits == [] and scan.undecided == []


def test_minimal_orbits_past_four_points_are_truncated_to_the_smallest(monkeypatch):
    # the three fixed points and the 2-cycle of (z - 2)^2 / z^2, each a type-1 set
    r = rees_shape()
    cycles, _, _ = periodic_cycles(r, 2)
    closures = [sorted(cyc.points, key=point_sort_key) for cyc in cycles]
    assert [len(c) for c in closures] == [1, 1, 1, 2]
    scan = _scan_of_closures(r, closures[::-1], monkeypatch)
    assert _bound_violations(scan) == [
        ("total exposed points exceed 4; output truncated to smallest orbits", None)]
    assert [o.points for o in scan.orbits] == [tuple(c) for c in closures[:3]]
    assert all(o.orbit_type == 1 and o.in_julia is True for o in scan.orbits)
    assert scan.union == [c[0] for c in closures[:3]]
    # an orbit holding a smaller one is not minimal
    pair = sorted(closures[0] + closures[1], key=point_sort_key)
    scan = _scan_of_closures(r, [pair, closures[0]], monkeypatch)
    assert [o.points for o in scan.orbits] == [tuple(closures[0])]
    assert _bound_violations(scan) == []


def test_a_type_1_set_holding_no_known_cycle_is_undecided():
    # the critical orbit 0 -> -2 -> 2 seeds {-2, 2}, a type-1 set, but no
    # cycle is passed in, so its cycle and Julia side are not known
    r = cheb()
    cycles, _, _ = periodic_cycles(r, 4)
    fates = critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET)
    finite = {c: f for c, f in fates.items() if not c.is_infinity}
    scan = exposed_orbits(r, [], finite)
    assert scan.orbits == []
    assert [(sorted(str(p) for p in u.points), u.reason) for u in scan.undecided] == [
        (["-2", "2"], "no cycle found inside the set")]


def test_invariance_check_steps_each_member_depth_times(monkeypatch):
    # targets R^m(a) for m = 0..depth need depth forward steps, not depth + 1
    steps = []
    original = ratmap.dynamics._step_with_height_guard

    def counted(r, t):
        steps.append(t)
        return original(r, t)

    monkeypatch.setattr(ratmap.dynamics, "_step_with_height_guard", counted)
    r = cheb()
    _verify_critical_invariance(r, [SpherePoint.finite(0)], 3)
    assert len(steps) == 3


def _same_set(a, b, tol):
    return (len(a) == len(b) and all(contains_point(b, p, tol) for p in a)
            and all(contains_point(a, p, tol) for p in b))


@pytest.mark.parametrize("source, index, twin", [
    ("worked", i, t) for i in range(3) for t in (False, True)
] + [("corpus", i, t) for i in range(4) for t in (False, True)])
def test_every_point_of_a_critical_free_cycle_has_one_closure(source, index, twin):
    # exposed_orbits seeds such a cycle once, on this property
    if source == "worked":
        r = parse_map((DECIMAL_TWINS if twin else WORKED_MAPS)[index])
    else:
        r = _corpus_map(index, twin)
    tol = r.tolerance
    crit_pts = [c.point for c in critical_points(r)]
    cycles, _, _ = periodic_cycles(r, 4)
    free = [c for c in cycles if not any(contains_point(crit_pts, a, tol) for a in c.points)]
    assert free
    for cyc in free:
        pts = cyc.points
        first, *rest = _closures(r, [pts[i:] + pts[:i] for i in range(len(pts))],
                                 crit_pts)
        if first is None:
            assert rest == [None] * len(rest)
        else:
            assert all(c is not None and _same_set(c, first, tol) for c in rest)


@pytest.mark.parametrize("index, calls", enumerate((11, 12, 9) * 2))
def test_closure_runs_once_per_critical_free_cycle(index, calls, recorded_analyses):
    # with one closure per seed point the counts were 25, 26 and 23
    record = recorded_analyses("worked")[index]
    assert sum(len(seeds) for seeds, _, _ in record.closures) == calls


def _type1_identity(r, pts) -> bool:
    """Reference check of type 1: the non-critical preimages of the set are the set."""
    tol = r.tolerance
    collected = []
    for a in pts:
        for pre, mult in r.preimages(a):
            if mult == 1:
                if not contains_point(pts, pre, tol):
                    return False
                if not contains_point(collected, pre, tol):
                    collected.append(pre)
    return len(collected) == len(pts) and all(contains_point(collected, a, tol) for a in pts)


# T_3(z) = 4z^3 - 3z, whose fixed points 1 and -1 are each a type-1 set
CHEBYSHEV_CUBIC = {"numerator": ["4", "0", "-3", "0"], "denominator": ["1"]}
# the maps whose scan completes a critical-free closure
HAS_FREE_CLOSURES = {("worked", 0), ("worked", 1), ("chebyshev3", 0)}


@pytest.mark.parametrize("twin", [False, True])
@pytest.mark.parametrize("source, index", [("worked", i) for i in range(3)]
                         + [("chebyshev3", 0)] + [("corpus", i) for i in range(10)]
                         + [("sparse", i) for i in range(20)])
def test_a_critical_free_closure_is_type_1_and_holds_a_known_cycle(source, index, twin,
                                                                   monkeypatch):
    # exposed_orbits takes such a closure as type 1 without a check, and reads
    # its cycle off the known cycles
    if source == "worked":
        r = parse_map((DECIMAL_TWINS if twin else WORKED_MAPS)[index])
    elif source == "chebyshev3":
        r = parse_map(_decimal_twin(CHEBYSHEV_CUBIC) if twin else CHEBYSHEV_CUBIC)
    elif source == "corpus":
        r = _corpus_map(index, twin)
    else:
        r = _sparse_map(index, twin)
    tol = r.tolerance
    cycles, _, _ = periodic_cycles(r)
    closures = ratmap.restricted._closures
    free = []

    def recorded(r, seeds, crit_pts):
        got = closures(r, seeds, crit_pts)
        free.extend(pts for pts in got if pts is not None
                    and not any(contains_point(pts, c, tol) for c in crit_pts))
        return got

    monkeypatch.setattr(ratmap.restricted, "_closures", recorded)
    exposed_orbits(r, cycles, critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET))
    assert bool(free) == ((source, index) in HAS_FREE_CLOSURES)
    for pts in free:
        assert _type1_identity(r, pts)
        assert any(cyc.contains(a, tol) for cyc in cycles for a in pts)


def _unbudgeted_closure(r, seed, crit_pts, tol, max_size=4):
    """The closure of _closure_walk as it was before the simple-preimage budget."""
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
                continue
            if not contains_point(pts, pre, tol):
                pts.append(pre)
                queue.append(pre)
                if len(pts) > max_size:
                    return None
    return pts


def _quadratic_invariance_check(r, pts, depth, tol, fates=None):
    """_verify_critical_invariance as it was before the screened frontier dedup."""
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
                        if nodes > VERIFY_NODE_CAP:
                            return None
                        if c2 > v:
                            continue
                        if c2 == v and not contains_point(pts, pre, tol):
                            return False
                        if not any(c2 == c0 and coincide(pre, p0, tol) for p0, c0 in new):
                            new.append((pre, c2))
                frontier = new
                if not frontier:
                    break
    return True


@pytest.mark.parametrize("source, index, twin", [
    ("worked", i, t) for i in range(3) for t in (False, True)
] + [("corpus", i, t) for i in range(20) for t in (False, True)])
def test_pruned_closures_and_linear_dedup_match_the_old_rules(source, index, twin,
                                                            recorded_analyses):
    # a seed the budget rules out has no closure under the old rule either,
    # every other closure is the same set, and every verdict is the same
    if source == "worked":
        record = recorded_analyses("worked")[index + 3 * twin]
    else:
        record = recorded_analyses("twins" if twin else "corpus")[index]
    r = record.r
    tol = r.tolerance
    compared = []
    for seeds, got, crit_pts in record.closures:
        for seed, pts in zip(seeds, got, strict=True):
            old = _unbudgeted_closure(r, seed, crit_pts, tol)
            assert (pts is None) == (old is None) and (pts is None or _same_set(pts, old, tol))
            compared.append(pts)
    for pts, depth, fates, got in record.verifications:
        assert got == _quadratic_invariance_check(r, pts, depth, tol, fates=fates)
    assert compared


def test_a_seed_that_is_no_critical_value_of_a_quintic_costs_no_solve(monkeypatch):
    # z^5 + 2: its 5 simple preimages of 7 already pass 4 points
    r = RationalMap(Polynomial([1, 0, 0, 0, 0, 2]), Polynomial([1]))
    crit_pts = [c.point for c in critical_points(r)]
    r.critical_values()
    calls = []
    solve = ratmap.roots._roots_numeric
    monkeypatch.setattr(ratmap.roots, "_roots_numeric", lambda *a: calls.append(a) or solve(*a))
    assert _closures(r, [_forward(r, SpherePoint.finite(7))], crit_pts) == [None]
    assert calls == []
    # the critical value infinity, of valency 5, keeps its one-point closure
    assert _closures(r, [_forward(r, INFINITY)], crit_pts) == [[INFINITY]]


def test_a_period_3_point_of_a_quadratic_costs_no_solve(monkeypatch):
    # z^2 - 2 has no critical value in the 3-cycle of 2 cos(2 pi / 7), so its
    # forward orbit alone holds 3 points of 2 simple preimages each
    r = RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))
    crit_pts = [c.point for c in critical_points(r)]
    r.critical_values()
    calls = []
    solve = ratmap.roots._roots_numeric
    monkeypatch.setattr(ratmap.roots, "_roots_numeric", lambda *a: calls.append(a) or solve(*a))
    assert _closures(r, [_forward(r, SpherePoint.finite(2.0 * math.cos(2.0 * math.pi / 7.0)))],
                     crit_pts) == [None]
    assert calls == []


def _ten_corpus_maps(recorded_analyses, twin):
    return recorded_analyses("twins" if twin else "corpus")[:10]


@pytest.mark.parametrize("twin", [False, True])
def test_uncached_preimage_solves_over_ten_corpus_maps(twin, recorded_analyses):
    # 398 in either mode before closures were budgeted by simple preimages,
    # 62 before forward images were taken ahead of every preimage solve
    assert sum(record.target_solves for record in _ten_corpus_maps(recorded_analyses, twin)) == 47


@pytest.mark.parametrize("source, total", [("worked", 98), ("corpus", 533), ("twins", 527)])
def test_the_closures_read_every_forward_image_off_a_cycle_or_a_fate_walk(source, total,
                                                                        recorded_analyses):
    # 204, 681 and 675 calls when each closure stepped its own points, 108,
    # 148 and 148 of them from restricted; the walk of the critical orbit of
    # z^2 - 2 and of its twin takes one step more, R(2) = 2, for the prefix
    # seed -2
    if source == "worked":
        records = recorded_analyses("worked")
    else:
        records = _ten_corpus_maps(recorded_analyses, source == "twins")
    callers = sum((record.evaluate_callers for record in records), Counter())
    assert callers["ratmap.restricted"] == 0
    assert sum(callers.values()) == total


def _count_batches(monkeypatch, stage_name):
    """Per stage, the _aberth calls and their groups, and the preimages_many calls."""
    counts = Counter()
    stage = [None]
    aberth = ratmap.roots._aberth
    preimages_many = RationalMap.preimages_many

    def counted_aberth(evaluate, starts):
        counts[stage[-1], "aberth"] += 1
        counts[stage[-1], "groups"] += len(starts)
        return aberth(evaluate, starts)

    def counted_preimages_many(self, targets):
        counts[stage[-1], "batches"] += 1
        return preimages_many(self, targets)

    def staged(function):
        def run(*args, **kwargs):
            stage.append(stage_name)
            try:
                return function(*args, **kwargs)
            finally:
                stage.pop()
        return run

    monkeypatch.setattr(ratmap.roots, "_aberth", counted_aberth)
    monkeypatch.setattr(RationalMap, "preimages_many", counted_preimages_many)
    monkeypatch.setattr(ratmap.restricted, stage_name,
                        staged(getattr(ratmap.restricted, stage_name)))
    return counts


@pytest.mark.parametrize("twin", [False, True])
def test_the_invariance_check_of_the_sparse_quintic_makes_one_aberth_call_per_level(
        twin, monkeypatch):
    # its 781 degree-5 preimage solves were 781 lone _aberth calls
    counts = _count_batches(monkeypatch, "_verify_critical_invariance")
    run_analysis(parse_map(_decimal_twin(SPARSE_QUINTIC) if twin else SPARSE_QUINTIC))
    stage = "_verify_critical_invariance"
    assert counts[stage, "groups"] == 781
    assert counts[stage, "aberth"] == 5
    assert counts[stage, "aberth"] <= counts[stage, "batches"]


@pytest.mark.parametrize("twin", [False, True])
def test_the_closures_of_ten_corpus_maps_make_at_most_one_aberth_call_per_round(
        twin, recorded_analyses):
    # their 17 preimage solves of degree 3 or more were 17 lone _aberth calls
    records = _ten_corpus_maps(recorded_analyses, twin)
    assert all(record.closure_aberth <= record.closure_batches for record in records)
    assert sum(record.closure_groups for record in records) == 17
    assert sum(record.closure_aberth for record in records) == 3


def test_frontier_dedup_keeps_the_first_node_of_each_point_and_valency():
    tol = 1e-9
    p = SpherePoint.finite(GaussianRational(1))
    near_p = SpherePoint.finite(1.0 + 0.5e-9j)
    q = SpherePoint.finite(0.25 - 3j)
    nodes = [(near_p, 1), (q, 2), (p, 2), (p, 1), (q, 2), (INFINITY, 1),
             (SpherePoint.infinity(exact=False), 1), (q, 1)]
    assert _dedup_by_valency(nodes, tol) == [nodes[i] for i in (0, 1, 2, 5, 7)]
