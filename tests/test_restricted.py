from __future__ import annotations

import random
from fractions import Fraction

import pytest

import ratmap.dynamics
import ratmap.rational
import ratmap.restricted
from ratmap.dynamics import INFINITE, Orbit, critical_points, periodic_cycles
from ratmap.errors import RatmapError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import parse_map, run_analysis
from ratmap.restricted import (
    VERIFY_NODE_CAP,
    _closure,
    _dedup_by_valency,
    _verify_critical_invariance,
    brute_force_preimage_check,
    exposed_orbits,
    julia_exposed_partition,
    ro_related,
)
from ratmap.scalars import GaussianRational
from ratmap.sphere import INFINITY, SpherePoint, coincide, contains_point

from .test_report import DECIMAL_TWINS, WORKED_MAPS, _corpus_map


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
    scan = exposed_orbits(r, cycles)
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
    scan = exposed_orbits(r, cycles)
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
    scan = exposed_orbits(r, cycles)
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
    scan = exposed_orbits(r, cycles)
    in_j, in_f = julia_exposed_partition(scan.orbits)
    assert [sorted(str(p) for p in o.points) for o in in_j] == [["-2", "2"]]
    assert [sorted(str(p) for p in o.points) for o in in_f] == [["inf"]]


def test_exposed_bounds_never_violated():
    for r in (cheb(), rees_shape(), zsq()):
        cycles, _, _ = periodic_cycles(r, 3)
        scan = exposed_orbits(r, cycles)
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

    orbit = ExposedOrbit(
        points=(SpherePoint.finite(0),),
        orbit_type=2,
        contains_critical=True,
        in_julia=None,
        asymptotic_valency=2,
    )
    with pytest.raises(JuliaMembershipUndeterminedError):
        julia_exposed_partition([orbit])


def test_no_exposed_set_for_generic_quadratic():
    # z^2 + 1/4 (parabolic); nothing in the plane is exposed, infinity is
    r = RationalMap(Polynomial([1, 0, GaussianRational(Fraction(1, 4))]), Polynomial([1]))
    cycles, _, _ = periodic_cycles(r, 2)
    scan = exposed_orbits(r, cycles)
    assert [sorted(str(p) for p in o.points) for o in scan.orbits] == [["inf"]]


def test_invariance_check_steps_each_member_depth_times(monkeypatch):
    # targets R^m(a) for m = 0..depth need depth forward steps, not depth + 1
    steps = []
    original = ratmap.dynamics._step_with_height_guard

    def counted(r, t):
        steps.append(t)
        return original(r, t)

    monkeypatch.setattr(ratmap.dynamics, "_step_with_height_guard", counted)
    r = cheb()
    _verify_critical_invariance(r, [SpherePoint.finite(0)], 3, r.tolerance)
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
        first, *rest = [_closure(r, a, crit_pts, tol) for a in cyc.points]
        if first is None:
            assert rest == [None] * len(rest)
        else:
            assert all(c is not None and _same_set(c, first, tol) for c in rest)


@pytest.mark.parametrize("doc, calls", zip(WORKED_MAPS + DECIMAL_TWINS, (11, 12, 9) * 2))
def test_closure_runs_once_per_critical_free_cycle(doc, calls, monkeypatch):
    # with one closure per seed point the counts were 25, 26 and 23
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return closure(*args, **kwargs)

    closure = ratmap.restricted._closure
    monkeypatch.setattr(ratmap.restricted, "_closure", counted)
    run_analysis(parse_map(doc))
    assert count[0] == calls


def _unbudgeted_closure(r, seed, crit_pts, tol, max_size=4):
    """_closure as it was before the simple-preimage budget."""
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
def test_pruned_closures_and_linear_dedup_match_the_old_rules(source, index, twin, monkeypatch):
    # a seed the budget rules out has no closure under the old rule either,
    # every other closure is the same set, and every verdict is the same
    if source == "worked":
        r = parse_map((DECIMAL_TWINS if twin else WORKED_MAPS)[index])
    else:
        r = _corpus_map(index, twin)
    closure = ratmap.restricted._closure
    verify = ratmap.restricted._verify_critical_invariance
    closures = []

    def compared_closure(r, seed, crit_pts, tol):
        got = closure(r, seed, crit_pts, tol)
        old = _unbudgeted_closure(r, seed, crit_pts, tol)
        assert (got is None) == (old is None) and (got is None or _same_set(got, old, tol))
        closures.append(got)
        return got

    def compared_verify(r, pts, depth, tol, fates=None):
        got = verify(r, pts, depth, tol, fates=fates)
        assert got == _quadratic_invariance_check(r, pts, depth, tol, fates=fates)
        return got

    monkeypatch.setattr(ratmap.restricted, "_closure", compared_closure)
    monkeypatch.setattr(ratmap.restricted, "_verify_critical_invariance", compared_verify)
    run_analysis(r)
    assert closures


def test_a_seed_that_is_no_critical_value_of_a_quintic_costs_no_solve(monkeypatch):
    # z^5 + 2: its 5 simple preimages of 7 already pass 4 points
    r = RationalMap(Polynomial([1, 0, 0, 0, 0, 2]), Polynomial([1]))
    crit_pts = [c.point for c in critical_points(r)]
    r.critical_values()
    calls = []
    find_roots = ratmap.rational.find_roots
    monkeypatch.setattr(ratmap.rational, "find_roots", lambda *a: calls.append(a) or find_roots(*a))
    assert _closure(r, SpherePoint.finite(7), crit_pts, r.tolerance) is None
    assert calls == []
    # the critical value infinity, of valency 5, keeps its one-point closure
    assert _closure(r, INFINITY, crit_pts, r.tolerance) == [INFINITY]


@pytest.mark.parametrize("twin", [False, True])
def test_uncached_preimage_solves_over_ten_corpus_maps(twin, monkeypatch):
    # 398 in either mode before closures were budgeted by simple preimages
    solves = []
    target = RationalMap._target_polynomial
    monkeypatch.setattr(RationalMap, "_target_polynomial",
                        lambda self, y: solves.append(y) or target(self, y))
    for index in range(10):
        run_analysis(_corpus_map(index, twin))
    assert len(solves) == 62


def test_frontier_dedup_keeps_the_first_node_of_each_point_and_valency():
    tol = 1e-9
    p = SpherePoint.finite(GaussianRational(1))
    near_p = SpherePoint.finite(1.0 + 0.5e-9j)
    q = SpherePoint.finite(0.25 - 3j)
    nodes = [(near_p, 1), (q, 2), (p, 2), (p, 1), (q, 2), (INFINITY, 1),
             (SpherePoint.infinity(exact=False), 1), (q, 1)]
    assert _dedup_by_valency(nodes, tol) == [nodes[i] for i in (0, 1, 2, 5, 7)]
