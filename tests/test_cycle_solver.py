"""Periodic points from the orbit recursion, checked against classical counts.

For every solved period p the cycles of period q | p must hold all d^p + 1
fixed points of R^p, each cycle point must return at exactly its period, and
the rational fixed-point formula sum 1/(1 - mu) = 1 over the fixed points of
R^p must hold (Milnor, Dynamics in One Complex Variable, Thm 12.4).
"""

from __future__ import annotations

from collections import Counter

import pytest

from ratmap.dynamics import DEFAULT_MAX_PERIOD, periodic_cycles
from ratmap.report import parse_map
from ratmap.sphere import INFINITY, SpherePoint, coincide

from .test_report import DECIMAL_TWINS, WORKED_MAPS, _corpus_map

WORKED = [(doc, twin) for docs, twin in ((WORKED_MAPS, False), (DECIMAL_TWINS, True))
          for doc in docs]


def _check_period(r, cycles, p):
    divisors = [c for c in cycles if p % c.period == 0]
    assert sum(c.period for c in divisors) == r.degree**p + 1

    terms = [c.period / (1 - complex(c.multiplier) ** (p // c.period)) for c in divisors]
    assert abs(sum(terms) - 1) <= 1e-8 * max([1.0] + [abs(t) for t in terms])

    for c in cycles:
        if c.period != p:
            continue
        for x in c.points:
            orbit = [x]
            for _ in range(p):
                orbit.append(r.evaluate(orbit[-1]))
            if x.is_exact:
                assert orbit[p] == x and x not in orbit[1:p]
            else:
                assert coincide(orbit[p], x, r.tolerance)
                assert not any(coincide(y, x, r.tolerance) for y in orbit[1:p])


def _check_all_periods(r, max_period):
    cycles, truncated, warnings = periodic_cycles(r, max_period)
    assert warnings == []
    solved = [p for p in range(1, max_period + 1) if p not in truncated]
    assert solved
    for p in solved:
        _check_period(r, cycles, p)


@pytest.mark.parametrize("doc, twin", WORKED)
def test_worked_maps_to_period_four(doc, twin):
    _check_all_periods(parse_map(doc), 4)


@pytest.mark.parametrize("index", range(10))
@pytest.mark.parametrize("twin", [False, True])
def test_corpus_maps_at_the_default_config(index, twin):
    _check_all_periods(_corpus_map(index, twin), DEFAULT_MAX_PERIOD)


def test_exact_fixed_points_stay_exact():
    r = parse_map(WORKED_MAPS[0])  # z^2 - 2
    cycles, _, _ = periodic_cycles(r, 1)
    points = [c.points[0] for c in cycles]
    assert all(x.is_exact for x in points)
    assert points == [SpherePoint.finite(-1), SpherePoint.finite(2), INFINITY]


@pytest.mark.parametrize("index", [6, 16])
@pytest.mark.parametrize("twin", [False, True])
def test_no_period_two_point_is_dropped(index, twin):
    # the expanded degree-37 polynomial located roots far from 0 to about
    # 1e-9 only, so they failed the return check and their 2-cycle was lost
    cycles, _, _ = periodic_cycles(_corpus_map(index, twin), 2)
    assert sum(c.period for c in cycles) == 37


@pytest.mark.parametrize("twin", [False, True])
def test_a_multiple_fixed_point_of_r4_is_one_cycle(twin):
    # corpus map 23 fixes 0 with multiplier -i, so 0 is a 5-fold fixed point
    # of R^4; it must close at period 1 and start no cycle of period 2 or 4
    r = _corpus_map(23, twin)
    cycles, truncated, warnings = periodic_cycles(r, 4)
    assert truncated == [] and warnings == []
    assert Counter(c.period for c in cycles) == {1: 4, 2: 3, 3: 8, 4: 17}
    zero = SpherePoint.finite(0)
    assert [c.period for c in cycles if c.contains(zero, r.tolerance)] == [1]
