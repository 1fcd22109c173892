from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from ratmap.dynamics import DEFAULT_MAX_PERIOD, Orbit, critical_points, periodic_cycles
from ratmap.errors import MapDegreeError
from ratmap.poly import Polynomial, vanishing_order_exact
from ratmap.rational import RationalMap
from ratmap.report import parse_map
from ratmap.roots import DEFAULT_CLUSTER_RADIUS
from ratmap.scalars import GaussianRational, is_exact
from ratmap.sphere import INFINITY, SpherePoint, array_chordal, coincide, normalized_pairs

from .test_report import DECIMAL_TWINS, WORKED_MAPS, _corpus_map


def cheb():
    return RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))


def rees_shape():
    # (z - 2)^2 / z^2
    return RationalMap(Polynomial([1, -4, 4]), Polynomial([1, 0, 0]))


def zsq():
    return RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))


def test_degree_guard():
    with pytest.raises(MapDegreeError):
        RationalMap(Polynomial([1, 0]), Polynomial([1]))


def test_auto_reduce_common_factor():
    # (z-1) z^2 / (z-1) reduces to z^2 with a notice recorded
    p = Polynomial([1, -1]) * Polynomial([1, 0, 0])
    q = Polynomial([1, -1])
    r = RationalMap(p, q)
    assert r.degree == 2
    assert r.reduced_from_input
    assert r.q.degree == 0


def test_a_map_prints_its_degree_and_mode():
    assert repr(RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))) == (
        "RationalMap(degree=2, exact=True)")
    assert repr(RationalMap(Polynomial([1.0, 0.0, 0.0, 1.0]), Polynomial([1.0, 0.0]))) == (
        "RationalMap(degree=3, exact=False)")


def test_evaluate_examples():
    # z^2 fixes infinity
    assert zsq().evaluate(INFINITY).is_infinity
    # (z-2)^2/z^2: pole of order 2 at 0; value at infinity is the ratio of
    # leading coefficients
    r = rees_shape()
    assert r.evaluate(SpherePoint.finite(0)).is_infinity
    assert r.evaluate(INFINITY).value() == GaussianRational(1)


def test_evaluate_chart_consistency():
    # evaluating in the z-chart and the 1/z-chart agrees in chordal distance
    rng = random.Random(3)
    r = RationalMap(
        Polynomial([1.0, 0.5, -2.0]), Polynomial([0.5, 1.0, 1.0])
    )
    for _ in range(50):
        z = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
        if abs(z) < 1e-3:
            continue
        direct = r.evaluate(SpherePoint.finite(z))
        # w-chart: R(z) computed through the reversed pair at 1/z
        via_w = r.evaluate(SpherePoint(complex(1.0), 1.0 / z))
        assert direct.chordal(via_w) < 1e-9


def test_valency_examples():
    assert Orbit(zsq(), SpherePoint.finite(0)).valency(1) == 2
    assert Orbit(zsq(), SpherePoint.finite(1)).valency(1) == 1
    # (z-2)^2/z^2 at the double pole: val(R,0)=2, val(R,inf)=1
    assert Orbit(rees_shape(), SpherePoint.finite(0)).valency(2) == 2
    assert rees_shape().valency_at(INFINITY) == 1


def test_valency_chain_rule():
    rng = random.Random(11)
    r = cheb()
    for _ in range(20):
        x = SpherePoint.finite(GaussianRational(rng.randint(-3, 3), rng.randint(-2, 2)))
        n, m = rng.randint(1, 3), rng.randint(1, 3)
        walk = Orbit(r, x)
        assert walk.valency(n + m) == walk.valency(n) * Orbit(r, walk.point(n)).valency(m)


def _reversed(f, d):
    """w^d f(1/w), the 1/w-chart companion of f."""
    return Polynomial(tuple(reversed(f.coeffs)) + (0,) * (d - f.degree))


def _wronskian_rev(r):
    """W of the conjugated map q_rev / p_rev, whose vanishing order at w = 0 is R's at infinity."""
    p_rev, q_rev = _reversed(r.p, r.degree), _reversed(r.q, r.degree)
    return q_rev.derivative() * p_rev - q_rev * p_rev.derivative()


def _valency_from_scratch(r, x):
    """val(R, x) from W built afresh: its exact vanishing order at an exact
    point of an exact map, its floating one otherwise."""
    if x.is_infinity:
        w, z = _wronskian_rev(r), (GaussianRational(0) if r.is_exact else 0j)
    else:
        w, z = r.wronskian, x.value()
    if r.is_exact and is_exact(z):
        return 1 + vanishing_order_exact(w, z)
    g, z = Polynomial(complex(c) for c in w.coeffs), complex(z)
    k = 0
    while not g.is_zero and (abs(complex(g.evaluate(z)))
                             <= 1000 * r.tolerance * g.coeff_scale() * max(1.0, abs(z)) ** g.degree):
        k += 1
        g = g.derivative()
    return 1 + k


@pytest.mark.parametrize("doc", WORKED_MAPS + DECIMAL_TWINS)
def test_valency_at_matches_a_fresh_computation(doc):
    r = parse_map(doc)
    cycles, _, _ = periodic_cycles(r, DEFAULT_MAX_PERIOD)
    crit = [c.point for c in critical_points(r)]
    points = crit + [x for c in cycles for x in c.points]
    assert crit and any(not x.is_exact for x in points)
    expected = [_valency_from_scratch(r, x) for x in points]
    # the second pass reads the memoized table and exact valencies
    for _ in range(2):
        assert [r.valency_at(x) for x in points] == expected


def test_close_critical_points_of_an_exact_map_stay_apart():
    # z^3 - 3 a^2 z with a = 1/10000019: W = 3 (z - a)(z + a) is square-free,
    # so its roots +-a, 2e-7 apart and not snapped, are two simple roots
    a = GaussianRational(Fraction(1, 10000019))
    r = RationalMap(Polynomial([1, 0, -3 * a * a, 0]), Polynomial([1]))
    crit = critical_points(r)
    assert [c.local_valency for c in crit] == [2, 2, 3]
    assert crit[0].point.chordal(SpherePoint.finite(-a)) < 1e-12
    assert crit[1].point.chordal(SpherePoint.finite(a)) < 1e-12
    assert crit[2].point.is_infinity
    assert r.valency_at(SpherePoint.finite(a)) == 2
    assert r.valency_at(SpherePoint.finite(a + GaussianRational(Fraction(1, 10**20)))) == 1


def test_valency_at_an_exact_point_beyond_float_range():
    # the height guard floats a point only before stepping from it, so the
    # orbit of 2^400 under z^3 + z holds the exact point 2^1200 + 2^400
    r = RationalMap(Polynomial([1, 0, 1, 0]), Polynomial([1]))
    y = Orbit(r, SpherePoint.finite(2**400)).point(1)
    assert y.is_exact and y == SpherePoint.finite(2**1200 + 2**400)
    for _ in range(2):
        assert r.valency_at(y) == 1


def _reference_valencies(r, points):
    """The rule valencies replaced, kept as the reference: the nearest table
    entry by argmin over the n x m matrix of chordal distances, whose
    valency a point takes when it coincides with it."""
    vals = [r._exact_valency(x) for x in points]
    rest = [i for i, val in enumerate(vals) if val is None]
    if rest:
        table = r.critical_table()
        distances = array_chordal(normalized_pairs([points[i] for i in rest]),
                                  normalized_pairs([c for c, _ in table]))
        for i, k in zip(rest, distances.argmin(axis=1).tolist()):
            c, val = table[k]
            vals[i] = val if coincide(points[i], c, r.tolerance) else 1
    return vals


def test_the_valencies_of_an_analysis_match_the_matrix_rule(recorded_analyses):
    # every valency query of the analyses of the worked maps and corpus maps
    # 0-9, exact and decimal twin
    records = (recorded_analyses("worked") + recorded_analyses("corpus")[:10]
               + recorded_analyses("twins")[:10])
    looked_up = 0
    for record in records:
        r = record.r
        for points, got in record.valencies:
            assert got == _reference_valencies(r, points)
            looked_up += sum(r._exact_valency(x) is None for x in points)
    assert looked_up > 100


def test_the_valency_lookup_matches_the_matrix_rule_at_its_edges():
    # P' = (z - 1)(z + 1)^2: valency 2 at 1, 3 at -1 and 4 at infinity;
    # 0 is equidistant from 1 and -1, at chordal distance sqrt 2
    coeffs = [Fraction(1, 4), Fraction(1, 3), Fraction(-1, 2), -1, 0]
    near_one = SpherePoint.finite(1.0 + 1e-10j)
    points = [SpherePoint.finite(0.0), near_one, SpherePoint.finite(-1.0 + 3e-10),
              SpherePoint.finite(0.5 - 0.5j), SpherePoint.finite(1e13j),
              SpherePoint.infinity(exact=False), INFINITY, SpherePoint.finite(GaussianRational(1)),
              # past |z| = 1e154, where |z|^2 overflows, and past float range
              SpherePoint.finite(GaussianRational(10**160)),
              SpherePoint.finite(GaussianRational(3 * 10**200)),
              SpherePoint.finite(GaussianRational(10**400))]
    # near_one exactly tol from the entry at 1, and just closer than tol
    at_tol = near_one.chordal(SpherePoint.finite(1))
    tolerances = [1e-9, at_tol, math.nextafter(at_tol, 0.0), 1.5, 2.0, 2.5]
    for exact in (True, False):
        for tol in tolerances:
            p = Polynomial([GaussianRational(c) if exact else float(c) for c in coeffs])
            r = RationalMap(p, Polynomial([GaussianRational(1) if exact else 1.0]),
                            tolerance=tol, verified_coprime=True)
            assert r.valencies(points) == _reference_valencies(r, points)
    r = RationalMap(Polynomial([GaussianRational(c) for c in coeffs]),
                    Polynomial([GaussianRational(1)]))
    table = r.critical_table()
    assert sorted(val for _, val in table) == [2, 3, 4]
    assert r.valencies(points[:2] + points[5:6]) == [1, 2, 4]
    first = next(k for k, (c, _) in enumerate(table) if c.chordal(points[0]) < 1.5)
    for tol, val in ((at_tol, 2), (math.nextafter(at_tol, 0.0), 1)):
        r.tolerance = tol
        assert r.valencies([near_one]) == [val]
    r.tolerance = 2.0
    # of two entries at one distance the lower index wins
    assert r.valencies(points[:1]) == [table[first][1]]


def _cross_check_maps():
    docs = [parse_map(doc) for doc in WORKED_MAPS + DECIMAL_TWINS]
    return docs + [_corpus_map(i, twin) for i in range(20) for twin in (False, True)]


def test_critical_valencies_match_preimage_multiplicities():
    # the multiplicity of c in R^-1(R(c)) comes from the roots of P - yQ, not W
    for r in _cross_check_maps():
        for c in critical_points(r):
            fiber = r.preimages(r.evaluate(c.point))
            mults = [m for x, m in fiber if coincide(x, c.point, DEFAULT_CLUSTER_RADIUS)]
            assert mults == [c.local_valency], (r.p, r.q, c)


def test_preimages_examples():
    r = cheb()
    pts = r.preimages(SpherePoint.finite(2))
    vals = sorted((complex(p.z).real, m) for p, m in pts)
    assert vals == [(-2.0, 1), (2.0, 1)]

    # degree drop forces infinity into the fiber of (z-2)^2/z^2 over 1
    got = rees_shape().preimages(SpherePoint.finite(1))
    keys = sorted(("inf" if p.is_infinity else "fin", m) for p, m in got)
    assert keys == [("fin", 1), ("inf", 1)]

    got0 = zsq().preimages(SpherePoint.finite(0))
    assert len(got0) == 1 and got0[0][1] == 2


# floating polynomials whose P - yQ at large y once lost its leading
# coefficients to a threshold scaled by y: each gave (inf, 3) as the fiber
# of a finite point, and false exposed-bound-violation warnings
SMALL_LEADING_POLYNOMIALS = [
    ([-8e-4, 2e-5, 30, 8e-6], [-9e4]),
    ([2e-4, -0.9, 3e-5, 6e-2], [7e4]),
]


@pytest.mark.parametrize("p, q", SMALL_LEADING_POLYNOMIALS)
@pytest.mark.parametrize("y", [335385.1975563968, -2.5e7 + 4e6j, 1e12, 0.5])
def test_no_finite_point_of_a_polynomial_has_infinity_as_preimage(p, q, y):
    r = RationalMap(Polynomial(complex(c) for c in p), Polynomial(complex(c) for c in q))
    fiber = r.preimages(SpherePoint.finite(y))
    assert sum(m for _, m in fiber) == r.degree
    assert not any(x.is_infinity for x, _ in fiber)


def test_preimage_valency_sum_is_degree():
    # the valency of each preimage, computed by the derivative route,
    # must sum to the degree, computed by the multiplicity route
    rng = random.Random(23)
    r = rees_shape()
    for _ in range(10):
        y = SpherePoint.finite(GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4)))
        pts = r.preimages(y)
        assert sum(m for _, m in pts) == r.degree
        assert sum(r.valency_at(p) for p, _ in pts) == r.degree
        for p, m in pts:
            assert r.valency_at(p) == m


def test_multiplier_at_infinity():
    # z + 1/z style map: R = (z^2+1)/z has a parabolic-type fixed infinity
    r = RationalMap(Polynomial([1, 0, 1]), Polynomial([1, 0]))
    lam = r.local_derivative(INFINITY, r.evaluate(INFINITY))
    assert complex(lam) == pytest.approx(1.0)


def _four_chart_derivative(r, x):
    """The derivative at x in charts moving x and R(x) to finite positions,
    in the four cases of finite or infinite x and R(x)."""
    rx = r.evaluate(x)
    if not x.is_infinity:
        z = x.value()
        w_val = r.wronskian.evaluate(z)
        if not rx.is_infinity:
            qv = r.q.evaluate(z)
            return w_val / (qv * qv)
        pv = r.p.evaluate(z)
        return -w_val / (pv * pv)
    zero = GaussianRational(0) if r.is_exact else 0j
    w_val = _wronskian_rev(r).evaluate(zero)
    if rx.is_infinity:
        pv = _reversed(r.p, r.degree).evaluate(zero)
        return w_val / (pv * pv)
    qv = _reversed(r.q, r.degree).evaluate(zero)
    return -w_val / (qv * qv)


def _four_chart_multiplier(r, points):
    m = GaussianRational(1) if r.is_exact else complex(1.0)
    for pt in points:
        m = m * _four_chart_derivative(r, pt)
    return m


# maps with a cycle through infinity, each exact and as its decimal twin:
# the non-critical 2-cycle {inf, 7/10 + i/5}, a parabolic fixed infinity and
# a fixed infinity with multiplier 1/3
INFINITY_CYCLE_MAPS = [
    ({"numerator": ["7/10+1/5i", "0", "13/10"], "denominator": ["1", "-7/10-1/5i", "0"]},
     {"numerator": ["0.7+0.2i", "0.0", "1.3"], "denominator": ["1.0", "-0.7-0.2i", "0.0"]}),
    ({"numerator": ["1", "0", "1"], "denominator": ["1", "0"]},
     {"numerator": ["1.0", "0.0", "1.0"], "denominator": ["1.0", "0.0"]}),
    ({"numerator": ["3", "1", "0", "2"], "denominator": ["1", "5", "0"]},
     {"numerator": ["3.0", "1.0", "0.0", "2.0"], "denominator": ["1.0", "5.0", "0.0"]}),
]


def _parity_maps():
    docs = WORKED_MAPS + DECIMAL_TWINS + [doc for pair in INFINITY_CYCLE_MAPS for doc in pair]
    return [parse_map(doc) for doc in docs] + [
        _corpus_map(i, twin) for i in range(10) for twin in (False, True)]


def test_multipliers_match_the_four_chart_derivative():
    # the chart factors W_h / s^2 differ from the four-chart derivative by a
    # sign on each step onto or off infinity; those cancel around a cycle,
    # and IEEE negation is exact, so the products are equal
    through_infinity = 0
    for r in _parity_maps():
        cycles, _, _ = periodic_cycles(r, 3)
        for c in cycles:
            if c.contains_critical:
                continue
            assert c.multiplier == _four_chart_multiplier(r, c.points), (r.p, r.q, c.points)
            through_infinity += any(x.is_infinity for x in c.points)
    # {inf, 7/10 + i/5} and the fixed infinity of multiplier 1/3, exact and
    # twin, and the exact parabolic fixed infinity (the twin's is finite)
    assert through_infinity == 5


def _mixed_local_derivative(r, x, image):
    """local_derivative at a finite point as it was: W, P and Q by
    Polynomial.evaluate at the chart value, which mixes exact coefficients
    with a floating point.  Infinity keeps its branch."""
    if x.is_infinity:
        return r.local_derivative(x, image)
    z = x.value()
    w = r.wronskian.evaluate(z)
    s = (r.p if image.is_infinity else r.q).evaluate(z)
    return w / (s * s)


def _complex_bits(value):
    if isinstance(value, GaussianRational):  # a cycle of exact points only
        return value
    assert type(value) is complex
    return repr(value.real), repr(value.imag)


# a constant denominator and a constant numerator 5/3, whose floating square
# is not the float of 25/9, so an exact constant must keep s * s exact; and
# (z + 1)/(z^2 + 2z), whose pole 0 maps to infinity
CONSTANT_SIDE_MAPS = [{"numerator": ["1", "0", "1/3"], "denominator": ["5/3"]},
                      {"numerator": ["5/3"], "denominator": ["1", "1/7", "0"]},
                      {"numerator": ["1", "1"], "denominator": ["1", "2", "0"]}]


def test_floating_points_of_an_exact_map_have_the_mixed_chart_factors_bit_for_bit():
    maps = [r for r in _parity_maps() if r.is_exact] + [parse_map(d) for d in CONSTANT_SIDE_MAPS]
    rng = random.Random(5)
    cycles_seen = 0
    for r in maps:
        # n = 1: a floating point and its image, a pole's image infinity among them
        poles = [x for x, _ in r.preimages(INFINITY) if not x.is_infinity]
        points = [SpherePoint.finite(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)))
                  for _ in range(8)] + [x.to_float() for x in poles]
        for x in points:
            image = r.evaluate(x)
            assert not x.is_exact
            assert (_complex_bits(r.local_derivative(x, image))
                    == _complex_bits(_mixed_local_derivative(r, x, image)))
        # at cycle length: the chart product around each cycle, its points floating
        cycles, _, _ = periodic_cycles(r, 3)
        for c in cycles:
            if c.contains_critical:
                continue
            pts = [x.to_float() for x in c.points]
            want = GaussianRational(1)
            for x, image in zip(pts, pts[1:] + pts[:1]):
                want = want * _mixed_local_derivative(r, x, image)
            assert _complex_bits(r.cycle_multiplier(pts)) == _complex_bits(want)
            cycles_seen += 1
    assert cycles_seen > 100
