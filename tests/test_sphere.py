from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ratmap.scalars import GaussianRational
from ratmap.sphere import (
    INFINITY,
    SpherePoint,
    chordal_matrix,
    coincide,
    dedup_points,
    near_pairs,
    normalized_pairs,
    parse_point,
    screen_keys,
)


def test_canonical_form():
    p = SpherePoint(GaussianRational(6), GaussianRational(2))
    assert p.value() == GaussianRational(3)
    assert p.w == GaussianRational(1)
    q = SpherePoint(GaussianRational(5), GaussianRational(0))
    assert q.is_infinity


def test_scaling_invariance():
    a = SpherePoint(GaussianRational(1), GaussianRational(2))
    b = SpherePoint(GaussianRational(3), GaussianRational(6))
    assert a == b


def test_zero_zero_rejected():
    with pytest.raises(ValueError):
        SpherePoint(0, 0)


def test_chordal_metric():
    zero = SpherePoint.finite(0)
    one = SpherePoint.finite(1)
    inf = INFINITY
    assert zero.chordal(inf) == pytest.approx(2.0)
    assert zero.chordal(zero) == 0.0
    assert zero.chordal(one) == pytest.approx(2.0 / math.sqrt(2.0))
    # symmetric
    assert one.chordal(inf) == pytest.approx(inf.chordal(one))


def test_chordal_matrix_matches_the_pointwise_metric():
    points = [
        INFINITY,
        SpherePoint.infinity(exact=False),
        SpherePoint.finite(0),
        SpherePoint.finite(GaussianRational(-1, 2)),
        SpherePoint.finite(GaussianRational(10**400)),  # beyond float range
        SpherePoint.finite(0.3 - 2.5j),
        SpherePoint.finite(-1.5e7 + 3j),
        SpherePoint.finite(1e-9j),
        SpherePoint.finite(GaussianRational(3 * 10**200)),  # |z|^2 beyond float range
    ]
    dist = chordal_matrix(points[:5], points)
    assert dist.shape == (5, len(points))
    for i, p in enumerate(points[:5]):
        for j, q in enumerate(points):
            # both sides stay below 2; the order of operations differs
            assert abs(dist[i, j] - p.chordal(q)) <= 8 * 2.0**-52
    assert chordal_matrix([], points).shape == (0, len(points))


def test_screen_keys_differ_by_at_most_the_chordal_distance():
    # dedup_indices compares only the points whose keys are within 2 tol
    points = [
        INFINITY,
        SpherePoint.infinity(exact=False),
        SpherePoint.finite(0),
        SpherePoint.finite(GaussianRational(-1, 2)),
        SpherePoint.finite(GaussianRational(10**400)),
        SpherePoint.finite(GaussianRational(3 * 10**200)),
        SpherePoint.finite(-1.5e7 + 3j),
        SpherePoint.finite(1e-9j),
        SpherePoint.finite(1.0 + 0.9e-9j),
        SpherePoint.finite(1.0),
    ] + [SpherePoint.finite(complex(math.cos(k), math.sin(3 * k)) * 10 ** (k % 7 - 3))
         for k in range(40)]
    keys = screen_keys(points)
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            assert abs(keys[i] - keys[j]) <= p.chordal(q) + 1e-15
    assert screen_keys([]).shape == (0,)


def test_floating_infinity_is_not_exact():
    p = SpherePoint(1e20 + 0j, 1.0 + 0j)
    assert p.is_infinity
    assert not p.is_exact
    assert p == INFINITY  # same sphere point
    assert coincide(p, INFINITY, 1e-9)


def test_coincide_exact_vs_tolerance():
    a = SpherePoint.finite(GaussianRational(1))
    b = SpherePoint.finite(GaussianRational(1))
    assert coincide(a, b, 0.0)
    c = SpherePoint.finite(1.0 + 1e-12j)
    assert coincide(a, c, 1e-9)
    assert not coincide(a, SpherePoint.finite(1.0 + 1e-6j), 1e-9)


def test_parse_point():
    assert parse_point("inf").is_infinity
    assert parse_point("-1/2").value() == GaussianRational(-0.5)


TOL = 1e-9
# (name, p, q, whether coincide(p, q, TOL) holds)
SCREEN_CASES = [
    ("exact-equal", SpherePoint.finite(GaussianRational(Fraction(1, 3))),
     SpherePoint.finite(GaussianRational(Fraction(1, 3))), True),
    ("exact-1e-30-apart", SpherePoint.finite(GaussianRational(1)),
     SpherePoint.finite(GaussianRational(1 + Fraction(1, 10**30))), False),
    ("exact-beyond-float-range", SpherePoint.finite(GaussianRational(10**400)),
     SpherePoint.finite(GaussianRational(10**400 + 1)), False),
    ("exact-and-floating-infinity", INFINITY, SpherePoint.infinity(exact=False), True),
    ("0.9-tol", SpherePoint.finite(1.0 + 0j), SpherePoint.finite(1.0 + 0.9 * TOL * 1j), True),
    ("1.5-tol", SpherePoint.finite(1.0 + 0j), SpherePoint.finite(1.0 + 1.5 * TOL * 1j), False),
]


def _scalar_dedup(points, tol):
    out = []
    for p in points:
        if not any(coincide(p, q, tol) for q in out):
            out.append(p)
    return out


@pytest.mark.parametrize("name, p, q, same", SCREEN_CASES, ids=[c[0] for c in SCREEN_CASES])
def test_dedup_screen_matches_the_scalar_rule(name, p, q, same):
    assert coincide(p, q, TOL) == same
    # the screen passes every pair that coincides
    assert near_pairs(normalized_pairs([p]), normalized_pairs([q]), TOL)[0, 0] or not same
    kept = dedup_points([p, q], TOL)
    assert [id(x) for x in kept] == ([id(p)] if same else [id(p), id(q)])


def test_dedup_of_a_mixed_list_matches_the_scalar_rule():
    points = [x for _, p, q, _ in SCREEN_CASES for x in (p, q)]
    points += [SpherePoint.finite(0.3 - 2.5j), SpherePoint.finite(-1.5e7 + 3j)]
    points = points + points[::-1]
    assert [id(x) for x in dedup_points(points, TOL)] == \
        [id(x) for x in _scalar_dedup(points, TOL)]
