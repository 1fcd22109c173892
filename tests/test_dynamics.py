from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest

import ratmap.dynamics
from ratmap.dynamics import (
    CAPTURE_DISTANCE,
    DEFAULT_ORBIT_BUDGET,
    INFINITE,
    LANDING_RATIO,
    PARABOLIC_COLLAR,
    REVERIFY_OFFSET,
    REVERIFY_RATIO,
    STOP_DISTANCE,
    Orbit,
    PeriodicCycle,
    _classify,
    _reverify_landing,
    asymptotic_valency,
    critical_divisor_degree,
    critical_fates,
    critical_points,
    orbit_fate,
    periodic_cycles,
)
from ratmap.errors import AsymptoticValencyUndeterminedError, IndeterminateEvaluationError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import parse_map
from ratmap.scalars import GaussianRational
from ratmap.sphere import INFINITY, SpherePoint, coincide

from .test_report import _corpus_map, _decimal_twin
from .test_sphere import SCREEN_CASES


def cheb():
    return RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))


def rees_shape():
    return RationalMap(Polynomial([1, -4, 4]), Polynomial([1, 0, 0]))


def zsq():
    return RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))


def test_critical_points_examples():
    crit = critical_points(cheb())
    got = {(str(c.point), c.local_valency) for c in crit}
    assert got == {("0", 2), ("inf", 2)}

    crit2 = critical_points(rees_shape())
    got2 = {(str(c.point), c.local_valency) for c in crit2}
    assert got2 == {("0", 2), ("2", 2)}

    r3 = RationalMap(Polynomial([1, 0, 0, 0]), Polynomial([1]))  # z^3
    crit3 = critical_points(r3)
    got3 = {(str(c.point), c.local_valency) for c in crit3}
    assert got3 == {("0", 3), ("inf", 3)}
    assert critical_divisor_degree(crit3) == 4


def test_critical_divisor_identity():
    for r in (cheb(), rees_shape(), zsq()):
        assert critical_divisor_degree(critical_points(r)) == 2 * r.degree - 2


def test_cycles_zsq():
    cycles, _, _ = periodic_cycles(zsq(), 1)
    table = {str(c.points[0]): c for c in cycles}
    assert table["0"].classification == "superattracting"
    assert table["inf"].classification == "superattracting"
    assert table["1"].classification == "repelling"
    assert table["1"].multiplier == GaussianRational(2)


def test_cycles_chebyshev():
    cycles, _, _ = periodic_cycles(cheb(), 1)
    table = {str(c.points[0]): c for c in cycles}
    assert table["2"].multiplier == GaussianRational(4)
    assert table["2"].classification == "repelling"
    assert table["-1"].multiplier == GaussianRational(-2)
    assert table["inf"].classification == "superattracting"


def test_cycles_exact_period_two():
    # z^2 - 1 has the superattracting 2-cycle {0, -1}
    r = RationalMap(Polynomial([1, 0, -1]), Polynomial([1]))
    cycles, _, _ = periodic_cycles(r, 2)
    two = [c for c in cycles if c.period == 2]
    assert len(two) == 1
    assert two[0].classification == "superattracting"
    pts = {str(p) for p in two[0].points}
    assert pts == {"0", "-1"}


def test_fixed_point_count_with_multiplicity():
    # the sphere carries d + 1 fixed points with multiplicity; for z^2 the
    # solutions of the homogeneous fixed-point form are 0, 1, inf
    cycles, _, _ = periodic_cycles(zsq(), 1)
    assert sum(c.period for c in cycles) == 3


def _classify_by_powers(multiplier: GaussianRational):
    """The exact unit-modulus verdict from up to 64 exact powers of the multiplier."""
    power = GaussianRational(1)
    for k in range(1, 65):
        power = power * multiplier
        if power == GaussianRational(1):
            return "rationally_indifferent", k, None
    return "irrationally_indifferent", None, cmath.phase(complex(multiplier)) / (2 * math.pi) % 1.0


@pytest.mark.parametrize("multiplier, order", [
    (GaussianRational(1), 1), (GaussianRational(-1), 2),
    (GaussianRational(0, 1), 4), (GaussianRational(0, -1), 4),
])
def test_the_roots_of_unity_of_q_i_are_rationally_indifferent(multiplier, order):
    assert _classify(multiplier, False) == ("rationally_indifferent", order, None)
    assert _classify(multiplier, False) == _classify_by_powers(multiplier)


@pytest.mark.parametrize("re, im", [(3, 4), (-3, 4), (4, -3), (5, 12), (-8, -15), (20, 21)])
def test_other_exact_unit_multipliers_are_irrationally_indifferent(re, im):
    norm = math.isqrt(re * re + im * im)
    multiplier = GaussianRational(Fraction(re, norm), Fraction(im, norm))
    assert multiplier.abs2() == 1
    assert _classify(multiplier, False) == _classify_by_powers(multiplier)
    assert _classify(multiplier, False)[:2] == ("irrationally_indifferent", None)
    if (re, im) == (3, 4):
        assert math.isclose(_classify(multiplier, False)[2], math.atan2(4, 3) / (2 * math.pi))


def test_orbit_fate_examples():
    r = cheb()
    cycles, _, _ = periodic_cycles(r, 1)
    f = orbit_fate(r, SpherePoint.finite(-2), cycles)
    assert f.kind == "preperiodic" and f.step == 1
    landing = cycles[f.cycle_id]
    assert str(landing.points[0]) == "2"

    r2 = rees_shape()
    cycles2, _, _ = periodic_cycles(r2, 1)
    f2 = orbit_fate(r2, SpherePoint.finite(0), cycles2)
    assert f2.kind == "preperiodic" and f2.step == 2
    assert str(cycles2[f2.cycle_id].points[0]) == "1"

    rf = RationalMap(Polynomial([1, 0, -0.5]), Polynomial([1.0]))
    cyclesf, _, _ = periodic_cycles(rf, 1)
    ff = orbit_fate(rf, SpherePoint.finite(0.0), cyclesf)
    assert ff.kind == "converges"
    target = cyclesf[ff.cycle_id]
    assert complex(target.points[0].z).real == pytest.approx(-0.36602540378)


def test_orbit_fate_identity_case():
    r = zsq()
    cycles, _, _ = periodic_cycles(r, 1)
    one = next(c for c in cycles if str(c.points[0]) == "1")
    f = orbit_fate(r, SpherePoint.finite(1), cycles)
    assert f.kind == "preperiodic" and f.step == 0 and f.cycle_id == one.cycle_id


@pytest.mark.parametrize("twin", [False, True])
def test_orbit_fate_screens_each_distinct_prefix_point_once(twin, monkeypatch):
    # 0 -> 1 -> 2 -> 5 -> 26 -> ... escapes and rests on infinity, which the
    # 65-step prefix used to screen again at every step
    r = RationalMap(Polynomial([1, 0, 1]), Polynomial([1]))
    if twin:
        r = r.floating()
    cycles, _, _ = periodic_cycles(r)
    calls = []

    def counted(pair, rows, tol, _near=ratmap.dynamics.near_rows):
        calls.append(pair)
        return _near(pair, rows, tol)

    monkeypatch.setattr(ratmap.dynamics, "near_rows", counted)
    fate = orbit_fate(r, SpherePoint.finite(0.0 if twin else 0), cycles)
    prefix = fate.walk.points[:65]
    assert len(prefix) == 65 and prefix[-1].is_infinity
    assert len(calls) == len({x.norm_pair() for x in prefix}) == (9 if twin else 13)


def _scalar_landing(r, x, cycles):
    """(cycle_id, step) of the first landing on the 64-step prefix, compared
    pair by pair as orbit_fate did before it screened the cycle points."""
    tol = r.tolerance
    walk = Orbit(r, x)
    for n in range(65):
        pt = walk.point(n)
        for cyc in cycles:
            for cpt in cyc.points:
                if n == 0 and coincide(pt, cpt, tol):
                    return cyc.cycle_id, 0
                if pt.is_exact and cpt.is_exact:
                    if pt == cpt:
                        return cyc.cycle_id, n
                    continue
                if cyc.contains_critical:
                    continue
                if pt.chordal(cpt) <= tol * 1e-3 and _reverify_landing(r, x, cyc, n, tol):
                    return cyc.cycle_id, n
    return None


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("name, p, q, same", SCREEN_CASES, ids=[c[0] for c in SCREEN_CASES])
def test_orbit_fate_screen_matches_the_scalar_rule(name, p, q, same, swap):
    x, cpt = (q, p) if swap else (p, q)
    r = zsq()
    far = SpherePoint.finite(GaussianRational(-7, 5))
    # two fake repelling cycles: the landing one comes second in the scan
    cycles = [PeriodicCycle(1, (far,), GaussianRational(2), "repelling", False, cycle_id=0),
              PeriodicCycle(2, (far, cpt), GaussianRational(2), "repelling", False, cycle_id=1)]
    fate = orbit_fate(r, x, cycles)
    landing = _scalar_landing(r, x, cycles)
    if same:
        assert landing == (1, 0)
    if landing is None:
        assert fate.kind != "preperiodic"
    else:
        assert fate.kind == "preperiodic" and (fate.cycle_id, fate.step) == landing


def test_orbit_fate_walks_the_whole_prefix_without_cycles():
    fate = orbit_fate(cheb(), SpherePoint.finite(0.5 + 0j), [])
    assert fate.kind == "unresolved" and fate.steps_used == 64


def test_the_fate_tail_takes_no_exact_step_past_the_prefix(monkeypatch):
    # z^2 - 1 at max_period 1: the critical point 0 lies on the unlisted exact
    # 2-cycle {0, -1}, so its orbit stays exact, and unresolved, for the whole
    # budget; only the 64 steps of the prefix may be taken exactly
    steps = []

    def counted(r, x, _step=ratmap.dynamics._step_with_height_guard):
        steps.append(x.is_exact)
        return _step(r, x)

    r = RationalMap(Polynomial([1, 0, -1]), Polynomial([1]))
    cycles, _, _ = periodic_cycles(r, 1)
    monkeypatch.setattr(ratmap.dynamics, "_step_with_height_guard", counted)
    fate = orbit_fate(r, SpherePoint.finite(0), cycles)
    assert (fate.kind, fate.steps_used) == ("unresolved", DEFAULT_ORBIT_BUDGET)
    assert steps == [True] * 64 + [False] * (DEFAULT_ORBIT_BUDGET - 64)
    # the walk keeps its exact prefix; a reader past it walks exactly again
    assert len(fate.walk.points) == 65 and fate.walk.points[-1] == SpherePoint.finite(0)
    assert fate.walk.point(65).is_exact and fate.walk.point(65) == SpherePoint.finite(-1)


# The capture model of PeriodicCycle on fake cycles of z^2, at the default tolerance 1e-9.
# Each case is checked to lie on the intended side of the constant it tests.


def _fake_cycle(points, classification="repelling", critical=False, cycle_id=0):
    pts = tuple(SpherePoint.finite(z) for z in points)
    return PeriodicCycle(len(pts), pts, GaussianRational(2), classification, critical,
                         cycle_id=cycle_id)


def _walk(r, points):
    """An Orbit whose points are the given ones, not R's: the model only reads them."""
    walk = Orbit(r, SpherePoint.finite(points[0]))
    walk.points = [SpherePoint.finite(z) for z in points]
    return walk


@pytest.mark.parametrize("ratio, lands", [(0.5, True), (2.0, False)])
def test_a_floating_point_lands_within_the_landing_ratio_of_the_tolerance(ratio, lands):
    r = zsq().floating()
    tol = r.tolerance
    walk = Orbit(r, SpherePoint.finite(2.0 + 0j))  # 2 -> 4 -> 16
    pt = walk.point(1)
    # chordal distance from 4 to 4 + delta i is about 2 delta / 17
    cpt = SpherePoint.finite(4.0 + ratio * tol * LANDING_RATIO * 8.5j)
    assert (pt.chordal(cpt) <= tol * LANDING_RATIO) == lands
    assert _fake_cycle([cpt.z]).lands(walk, 1, cpt) == lands
    # on a cycle that holds a critical point, no floating landing is taken
    assert not _fake_cycle([cpt.z], critical=True).lands(walk, 1, cpt)


@pytest.mark.parametrize("n, lands", [(20, True), (26, False)])
def test_a_floating_landing_stands_when_its_rerun_lands_within_the_reverify_ratio(n, lands):
    # on the unit circle z^2 doubles the perturbed start's distance at every step
    r = zsq().floating()
    x = SpherePoint.finite(cmath.exp(0.3j))
    walk = Orbit(r, x)
    cpt = walk.point(n)
    rerun = Orbit(r, SpherePoint.finite(complex(x.z) + REVERIFY_OFFSET)).point(n)
    assert (rerun.chordal(cpt) <= REVERIFY_RATIO * r.tolerance) == lands
    assert _fake_cycle([cpt.z]).lands(walk, n, cpt) == lands


def test_exact_points_land_only_on_an_equal_point_and_any_point_at_step_zero():
    r = zsq()
    near = SpherePoint.finite(GaussianRational(1 + Fraction(1, 10**30)))
    walk = Orbit(r, SpherePoint.finite(1))
    cycle = _fake_cycle([near.z])
    assert not cycle.lands(walk, 1, near)
    assert cycle.lands(walk, 1, SpherePoint.finite(1))
    # at step 0 a floating point lands on a point it coincides with at the tolerance
    start = Orbit(r.floating(), SpherePoint.finite(1.0 + 0j))
    for ratio, lands in [(0.9, True), (1.5, False)]:
        cpt = SpherePoint.finite(1.0 + ratio * r.tolerance * 1j)
        assert _fake_cycle([cpt.z]).lands(start, 0, cpt) == lands


def _counted_run(distances, first, period):
    """The first tail point n at which a run of 3 period points within
    CAPTURE_DISTANCE ends, counted step by step as orbit_fate once did."""
    hits = 0
    for n in range(first, len(distances)):
        hits = hits + 1 if distances[n] < CAPTURE_DISTANCE else 0
        if hits >= 3 * period:
            return n
    return None


# (pattern of hits h and misses m from point 1 on, the tail's first point, the
# capture point) as functions of the run length k = 3 period
RUNS = {
    "a-whole-run": (lambda k: "h" * k, 1, lambda k: k),
    "a-run-broken-short-then-restarted": (lambda k: "m" + "h" * (k - 1) + "m" + "h" * k, 1,
                                          lambda k: 2 * k + 1),
    "hits-before-the-tail-do-not-count": (lambda k: "h" * (k + 5), 4, lambda k: k + 3),
    "alternating": (lambda k: "mh" * k, 1, lambda k: None),
    "misses": (lambda k: "m" * k, 1, lambda k: None),
}


@pytest.mark.parametrize("period", [1, 2])
@pytest.mark.parametrize("name", RUNS)
def test_an_attracting_cycle_captures_at_the_end_of_a_run_within_the_capture_distance(
        name, period):
    # a hit lies about 0.8 CAPTURE_DISTANCE from the cycle point 0, and a miss about 1.2
    pattern, first, capture_at = RUNS[name]
    k = 3 * period
    cycle = _fake_cycle([0j, 10.0 + 0j][:period], "attracting")
    offset = {"h": 0.4 * CAPTURE_DISTANCE, "m": 0.6 * CAPTURE_DISTANCE}
    walk = _walk(zsq().floating(), [0.5 + 0j] + [offset[c] + 0j for c in pattern(k)])
    distances = [cycle.distance(p) for p in walk.points]
    assert [d < CAPTURE_DISTANCE for d in distances[1:]] == [c == "h" for c in pattern(k)]
    got = [n for n in range(first, len(walk.points)) if cycle.captured(walk, first, n)]
    assert got[:1] == ([] if capture_at(k) is None else [capture_at(k)])
    assert _counted_run(distances, first, period) == capture_at(k)
    assert not cycle.captured(walk, first, len(walk.points) - 1, ended=True)


def _sampled_trend(distances, first, budget):
    """The parabolic trend read as orbit_fate once read it: each sampled
    distance appended step by step, the quartiles read at the end."""
    every = max(1, budget // 256)
    h = [distances[step + 1] for step in range(first - 1, budget) if step % every == 0]
    if len(h) < 8:
        return False
    q1, q2, q3 = h[len(h) // 4], h[len(h) // 2], h[-1]
    return q3 < PARABOLIC_COLLAR and q3 < q2 < q1


@pytest.mark.parametrize("scale, decreasing, captured", [
    (0.4, True, True),  # falls to about 0.8 PARABOLIC_COLLAR
    (0.6, True, False),  # falls to about 1.2 PARABOLIC_COLLAR
    (0.4, False, False),  # rises
])
@pytest.mark.parametrize("first, budget", [(65, 1000), (65, 10_000), (1, 9), (2, 9), (3, 9)])
def test_a_parabolic_cycle_captures_a_tail_whose_sampled_trend_ends_in_its_collar(
        scale, decreasing, captured, first, budget):
    # distances of about 2 scale PARABOLIC_COLLAR s from the cycle point 0, s from 2 to 1 or back
    cycle = _fake_cycle([0j], "rationally_indifferent")
    sizes = [1 + ((budget - j) if decreasing else j) / budget for j in range(budget + 1)]
    walk = _walk(zsq().floating(), [scale * PARABOLIC_COLLAR * s + 0j for s in sizes])
    distances = [cycle.distance(p) for p in walk.points]
    # the trend is read only once the tail has run to its end
    assert not any(cycle.captured(walk, first, n) for n in range(first, budget + 1))
    expected = _sampled_trend(distances, first, budget)
    assert cycle.captured(walk, first, budget, ended=True) == expected
    # from the first point 3, a budget of 9 leaves 7 samples, one short of a trend
    assert expected == (captured and (first, budget) != (3, 9))


@pytest.mark.parametrize("offset, stop", [(0.4 * STOP_DISTANCE, 0.4 * STOP_DISTANCE),
                                          (4 * STOP_DISTANCE, STOP_DISTANCE)])
def test_the_stop_distance_is_half_the_collar_up_to_the_stop_distance(offset, stop):
    # a critical point at offset lies about 2 offset from the cycle point 0,
    # and the critical point 5 lies on the cycle
    cycle = _fake_cycle([0j, 5.0 + 0j], "attracting")
    crit = [SpherePoint.finite(offset + 0j), SpherePoint.finite(5.0 + 0j)]
    tol = zsq().tolerance
    assert cycle.stop_distance(crit, tol) == pytest.approx(stop, rel=1e-6)
    # a cycle with no critical point off it has the whole sphere, of diameter 2, as its collar
    assert cycle.stop_distance(crit[1:], tol) == STOP_DISTANCE


def test_each_exact_fixed_point_candidate_is_walked_once_for_all_its_periods(monkeypatch):
    # z^2 - 2 at max_period 4: the exact fixed points -1, 2 and infinity are
    # candidates of every period; one walk of each serves all four, and it
    # steps a fixed point once
    steps = []

    def counted(r, x, _step=ratmap.dynamics._step_with_height_guard):
        steps.append(str(x))
        return _step(r, x)

    monkeypatch.setattr(ratmap.dynamics, "_step_with_height_guard", counted)
    periodic_cycles(cheb(), 4)
    assert sorted(steps) == ["-1", "2", "inf"]


@pytest.mark.parametrize("start", [GaussianRational(0), 0.25 + 0j, GaussianRational(3)])
def test_a_walk_that_rests_on_a_point_evaluates_it_once(start, monkeypatch):
    # z^2: 0 rests on 0 at once, 0.25 underflows to 0.0 after a few squarings,
    # and 3 rests on infinity; a step from a resting point repeats it
    steps = []

    def counted(r, x, _step=ratmap.dynamics._step_with_height_guard):
        steps.append(x)
        return _step(r, x)

    monkeypatch.setattr(ratmap.dynamics, "_step_with_height_guard", counted)
    walk = Orbit(zsq(), SpherePoint.finite(start))
    walk.point(40)
    rest = next(j for j in range(40) if walk.points[j] == walk.points[j + 1])
    assert len(steps) == rest + 1
    assert all(p is walk.points[rest + 1] for p in walk.points[rest + 1:])
    reference = Orbit(zsq(), SpherePoint.finite(start))
    for _ in range(40):
        reference.points.append(ratmap.dynamics._step_with_height_guard(reference.r,
                                                                         reference.points[-1]))
    assert [repr(p) for p in walk.points] == [repr(p) for p in reference.points]


def test_points_stored_alike_are_told_apart_by_every_bit():
    same_bits = ratmap.dynamics._same_bits
    finite = SpherePoint.finite
    assert same_bits(finite(1.5 - 2j), finite(1.5 - 2j))
    assert same_bits(finite(GaussianRational(3, -1)), finite(GaussianRational(3, -1)))
    # a zero part of either sign, as a division stores it
    real_sign = SpherePoint(complex(-0.0, -0.0), complex(1.0, 0.0))
    imag_sign = SpherePoint(complex(-0.0, 0.0), complex(-1.0, 0.0))
    assert (math.copysign(1.0, real_sign.z.real), math.copysign(1.0, real_sign.z.imag)) == (-1, 1)
    assert (math.copysign(1.0, imag_sign.z.real), math.copysign(1.0, imag_sign.z.imag)) == (1, -1)
    assert str(real_sign) == "-0.0" and str(finite(0j)) == "0.0"
    assert not same_bits(finite(0j), real_sign)
    assert not same_bits(finite(0j), imag_sign)
    assert not same_bits(finite(2.0 + 0j), finite(GaussianRational(2)))
    assert not same_bits(INFINITY, SpherePoint.infinity(exact=False))
    assert not same_bits(finite(1.0 + 0j), SpherePoint.infinity(exact=False))


def test_asymptotic_valency_examples():
    r2 = rees_shape()
    cycles2, _, _ = periodic_cycles(r2, 1)
    crit2 = critical_points(r2)
    f0 = orbit_fate(r2, SpherePoint.finite(0), cycles2)
    assert asymptotic_valency(r2, f0, cycles=cycles2, crit_points=crit2) == 2

    r = zsq()
    cycles, _, _ = periodic_cycles(r, 1)
    crit = critical_points(r)
    f = orbit_fate(r, SpherePoint.finite(0), cycles)
    assert asymptotic_valency(r, f, cycles=cycles, crit_points=crit) == INFINITE

    rc = cheb()
    cyclesc, _, _ = periodic_cycles(rc, 1)
    critc = critical_points(rc)
    f3 = orbit_fate(rc, SpherePoint.finite(3), cyclesc)
    assert asymptotic_valency(rc, f3, cycles=cyclesc, crit_points=critc) == 1


# z^3 - 3z + 1: the critical point 1 maps onto the critical point -1, and both
# orbits go on to the superattracting fixed point at infinity
CUBIC_THROUGH_CRITICAL = {"numerator": ["1", "0", "-3", "1"], "denominator": ["1"]}


def _converging_fates(doc):
    r = parse_map(doc)
    cycles, _, _ = periodic_cycles(r, 1)
    return {str(c): cf for c, cf in critical_fates(r, cycles, DEFAULT_ORBIT_BUDGET).items()}


@pytest.mark.parametrize("doc", [CUBIC_THROUGH_CRITICAL, _decimal_twin(CUBIC_THROUGH_CRITICAL)])
def test_converging_orbit_through_a_critical_point_multiplies_its_valency(doc):
    fates = _converging_fates(doc)
    got = {p: (cf.fate.kind, cf.asymptotic_valency, cf.error) for p, cf in fates.items()
           if cf.fate.kind == "converges"}
    one, minus_one = ("1", "-1") if doc is CUBIC_THROUGH_CRITICAL else ("1.0", "-1.0")
    assert got == {one: ("converges", 4, None), minus_one: ("converges", 2, None)}


def test_converging_orbit_near_a_critical_point_is_undetermined(analyzed):
    # z^3 - 3z + 1 + 1e-12: R(1) = -1 + 1e-12 lies within tolerance of the
    # critical point -1 without being it
    doc = _decimal_twin(CUBIC_THROUGH_CRITICAL)
    doc["numerator"][-1] = "1.000000000001"
    cf = _converging_fates(doc)["1.0"]
    assert cf.fate.kind == "converges" and cf.asymptotic_valency is None
    assert isinstance(cf.error, AsymptoticValencyUndeterminedError)
    assert cf.error.code == "asymptotic-valency-undetermined"
    warnings = analyzed(parse_map(doc)).data["warnings"]
    assert {"code": "asymptotic-valency-undetermined", "point": "1.0",
            "message": str(cf.error)} in warnings


def test_attracting_multiplier_value():
    # fixed point of z^2 - 1/2 at (1 - sqrt(3))/2 with multiplier 2 z*
    r = RationalMap(Polynomial([1, 0, GaussianRational(-1, 0) / 2]), Polynomial([1]))
    cycles, _, _ = periodic_cycles(r, 1)
    att = [c for c in cycles if c.classification == "attracting"]
    assert len(att) == 1
    z = complex(att[0].points[0].z)
    assert complex(att[0].multiplier) == pytest.approx(2 * z)


def test_orbit_valencies_are_running_products_of_valency_at_one_block_per_call(monkeypatch):
    docs = [CUBIC_THROUGH_CRITICAL, _decimal_twin(CUBIC_THROUGH_CRITICAL)]
    maps = [parse_map(doc) for doc in docs] + [zsq(), rees_shape()]
    maps += [_corpus_map(index, twin) for index in range(6) for twin in (False, True)]
    blocks = []

    def counted(self, points, _valencies=RationalMap.valencies):
        blocks.append(len(points))
        return _valencies(self, points)

    monkeypatch.setattr(RationalMap, "valencies", counted)
    for r, x in [(r, c.point) for r in maps for c in critical_points(r)]:
        walk = Orbit(r, x)
        blocks.clear()
        assert walk.valency(0) == 1 and blocks == []
        walk.valency(40)
        assert blocks == [40]
        pairs = walk.with_valencies(60)
        assert blocks == [40, 20]
        for j, (point, val) in enumerate(pairs):
            assert point is walk.points[j] and val == walk.valency(j)
        assert len(pairs) == 61 and blocks == [40, 20]
        product = 1
        for point, val in pairs:
            assert val == product
            product *= r.valency_at(point)


def test_a_failing_walk_has_the_valencies_up_to_the_failure():
    # (z - 1)(z + 2) / ((z - 1 - 1e-12) z): both components of R(1) vanish below the tolerance
    r = RationalMap(Polynomial([1.0, 1.0, -2.0]), Polynomial([1.0, -(1.0 + 1e-12), 0.0]),
                    verified_coprime=True)
    x = SpherePoint.finite(1.0)
    walk = Orbit(r, x)
    assert walk.with_valencies(5) == [(x, 1)]
    with pytest.raises(IndeterminateEvaluationError):
        walk.valency(3)
