"""Periodic points from the orbit recursion, checked against classical counts.

For every solved period p the cycles of period q | p must hold all d^p + 1
fixed points of R^p, each cycle point must return at exactly its period, and
the rational fixed-point formula sum 1/(1 - mu) = 1 over the fixed points of
R^p must hold (Milnor, Dynamics in One Complex Variable, Thm 12.4).
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from ratmap.dynamics import (
    DEFAULT_MAX_PERIOD,
    INNER_CHART,
    OUTER_CHART,
    SOLVE_CHART,
    _FixedPointEquation,
    _polish_in_balanced_charts,
    fixed_points,
    periodic_cycles,
)
from ratmap.report import parse_map
from ratmap.roots import polish, start_circle
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


def _reference_walk(rf, p, chart, w, shared_scale=False):
    """The fixed-point walk with P, Q, P' and Q' as separate arrays, one
    ufunc call per term; the array walk must match it bit for bit."""
    d = rf.degree
    pc = np.concatenate([np.zeros(d - rf.p.degree, complex), rf.p.to_complex_array()])
    qc = np.concatenate([np.zeros(d - rf.q.degree, complex), rf.q.to_complex_array()])
    # the overflow row would print RuntimeWarnings here
    with np.errstate(all="ignore"):
        alpha, beta, gamma, delta = chart
        m1, m2 = alpha * w + beta, gamma * w + delta
        u, v, du, dv = m1, m2, np.full_like(w, alpha), np.full_like(w, gamma)
        for _ in range(p):
            # P_h(u, v) = sum c_i u^(d-i) v^i by Horner in u, carrying v^i
            pu, qu = np.full_like(w, pc[0]), np.full_like(w, qc[0])
            dpu, dqu = np.zeros_like(w), np.zeros_like(w)
            vi, dvi = np.ones_like(w), np.zeros_like(w)
            for i in range(1, d + 1):
                vi, dvi = vi * v, dvi * v + vi * dv
                pu, dpu = pu * u + pc[i] * vi, dpu * u + pu * du + pc[i] * dvi
                qu, dqu = qu * u + qc[i] * vi, dqu * u + qu * du + qc[i] * dvi
            s = np.maximum(np.abs(pu), np.abs(qu))
            if shared_scale:
                s = s.max()
            u, v, du, dv = pu / s, qu / s, dpu / s, dqu / s
        return m1, m2, u, v, u * m2 - v * m1, du * m2 + u * gamma - dv * m1 - v * alpha


def _assert_bitwise_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a, complex), np.asarray(b, complex)
        assert a.shape == b.shape
        assert np.array_equal(a.view(float), b.view(float), equal_nan=True)


def _walk_points(r, p):
    # the Aberth start circle (capped), points near |w| = 1e3 and 1e-3, and
    # one point whose walk overflows to inf and NaN
    n = min(r.degree**p + 1, 130)
    return np.concatenate([start_circle(n, 1.0), start_circle(4, 1e3), start_circle(4, 1e-3),
                           [1e200 + 1e200j]])


PARITY_MAPS = WORKED + [(index, twin) for index in range(10) for twin in (False, True)]


def _parity_map(key, twin):
    return parse_map(key) if isinstance(key, dict) else _corpus_map(key, twin)


@pytest.mark.parametrize("key, twin", PARITY_MAPS)
def test_the_array_walk_matches_the_reference_walk(key, twin):
    rf = _parity_map(key, twin).floating()
    for p in range(1, 5):
        w = _walk_points(rf, p)
        inner = np.arange(len(w)) % 3 != 0
        mixed = tuple(np.where(inner, a, b) for a, b in zip(INNER_CHART, OUTER_CHART))
        for chart in (SOLVE_CHART, INNER_CHART, OUTER_CHART):
            eq = _FixedPointEquation(rf, p, chart)
            for shared in (False, True):
                _assert_bitwise_equal(eq.walk(w, shared), _reference_walk(rf, p, chart, w, shared))
            # one point at a time: numpy may pick other loops for n = 1
            for x in np.concatenate([w[:-9:5], w[-9:]]):
                _assert_bitwise_equal(eq.walk(np.array([x])), _reference_walk(rf, p, chart, np.array([x])))
        # a per-point chart walks each point as its own chart would
        got = _FixedPointEquation(rf, p, mixed).walk(w)
        for chart, mask in ((INNER_CHART, inner), (OUTER_CHART, ~inner)):
            want = _reference_walk(rf, p, chart, w[mask])
            _assert_bitwise_equal([np.broadcast_to(x, w.shape)[mask] for x in got], want)


def _reference_polish(rf, p, points):
    """Balanced-chart polish as two passes, one chart each."""
    out = list(points)
    for chart, inner in ((INNER_CHART, True), (OUTER_CHART, False)):
        idx = [i for i, x in enumerate(points)
               if not x.is_infinity and (abs(complex(x.z)) <= 1.0) == inner]
        if not idx:
            continue
        w = np.array([complex(points[i].z) for i in idx])
        if not inner:
            w = 1.0 / w
        alpha, beta, gamma, delta = chart
        for i, wi in zip(idx, polish(lambda w: _reference_walk(rf, p, chart, w)[4:], w)):
            out[i] = SpherePoint(alpha * wi + beta, gamma * wi + delta)
    return out


def _point_bits(x):
    return x if x.is_exact else np.array([x.z, x.w], complex).tobytes()


@pytest.mark.parametrize("index", range(6))
@pytest.mark.parametrize("twin", [False, True])
def test_one_polish_walk_matches_a_pass_per_chart(index, twin):
    r = _corpus_map(index, twin)
    rf = r.floating()
    on_circle = [SpherePoint.finite(z) for z in (1.0, -1.0, 1j, -1j)]
    for p in (1, 2):
        points = [x.to_float() for x in fixed_points(r, p)] + on_circle + [INFINITY]
        want = _reference_polish(rf, p, points)
        got = _polish_in_balanced_charts(rf, p, points)
        assert [_point_bits(x) for x in got] == [_point_bits(x) for x in want]
