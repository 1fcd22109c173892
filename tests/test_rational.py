from __future__ import annotations

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
from ratmap.sphere import INFINITY, SpherePoint, coincide

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


def _valency_from_scratch(r, x):
    """val(R, x) from W built afresh: its exact vanishing order at an exact
    point of an exact map, its floating one otherwise."""
    if x.is_infinity:
        w, z = r._wronskian_rev, (GaussianRational(0) if r.is_exact else 0j)
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
    lam = r.local_derivative(INFINITY)
    assert complex(lam) == pytest.approx(1.0)
