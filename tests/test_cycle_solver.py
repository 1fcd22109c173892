"""Periodic points from the orbit recursion, checked against classical counts.

For every solved period p the cycles of period q | p must hold all d^p + 1
fixed points of R^p, each cycle point must return at exactly its period, and
the rational fixed-point formula sum 1/(1 - mu) = 1 over the fixed points of
R^p must hold (Milnor, Dynamics in One Complex Variable, Thm 12.4).
"""

from __future__ import annotations

import json
import warnings
from collections import Counter

import numpy as np
import pytest

import ratmap.dynamics
import ratmap.roots
import ratmap.sphere
from ratmap import cli
from ratmap.dynamics import (
    CHART_START_RADIUS,
    DEFAULT_MAX_PERIOD,
    DEFAULT_PERIOD_WORK_CAP,
    DISTINCT_STARTS,
    EPSILON,
    INNER_CHART,
    MERGE_REACH,
    OUTER_CHART,
    SEED_POINT,
    SOLVE_CHART,
    _FixedPointEquation,
    _polish_in_balanced_charts,
    _seeds,
    _solve_periods,
    fixed_points,
    periodic_cycles,
)
from ratmap.errors import IndeterminateEvaluationError, RatmapError, RootFindingFailedError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import AnalysisConfig, parse_map, run_analysis
from ratmap.roots import (
    ABERTH_MAX_ITER,
    DEFAULT_CLUSTER_RADIUS,
    NEWTON_POLISH_STEPS,
    _aberth,
    _cluster,
    _link_reach,
    _pairwise_sums,
    _profile,
    polish,
    start_circle,
)
from ratmap.scalars import GaussianRational
from ratmap.sphere import (
    DIRECT_MAX_POINTS,
    INFINITY,
    SpherePoint,
    array_chordal,
    coincide,
    near_partners,
    near_row_pairs,
    nearest_rows,
    normalized_pairs,
    rows_apart,
)

from .test_pipeline_corpus import PARABOLIC_MAPS, POLE_CYCLE_MAP, _sparse_map
from .test_report import DECIMAL_TWINS, OVERFLOW_MAP, WORKED_MAPS, _corpus_map, _decimal_twin

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


@pytest.mark.parametrize("doc", [WORKED_MAPS[0], DECIMAL_TWINS[0]])
def test_the_cycle_points_of_a_real_julia_set_are_real(doc):
    # every cycle of z^2 - 2 lies on [-2, 2]; Newton steps leave imaginary
    # parts such as 1.6e-84 beside 1.97, which the polish clears
    cycles, _, _ = periodic_cycles(parse_map(doc), 4)
    points = [complex(x.z) for c in cycles for x in c.points if not x.is_infinity]
    assert len(points) == 22 and all(z.imag == 0.0 for z in points)


@pytest.mark.parametrize("doc, twin", WORKED)
def test_no_cycle_point_or_multiplier_keeps_an_imaginary_residue(doc, twin):
    # the polish stops once its step passes the stop test, which can leave
    # an imaginary part about 1e-30 of the real one: worked map 1 printed its
    # real 4-cycle point as 53.49096121841152-9.698709641697055e-29i
    cycles, _, _ = periodic_cycles(parse_map(doc), 4)
    values = [complex(x.z) for c in cycles for x in c.points if not x.is_infinity]
    values += [complex(c.multiplier) for c in cycles]
    assert not [z for z in values if 0 < abs(z.imag) < 1e-20 * abs(z.real)]


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
    ufunc call per term; the array walk must match it bit for bit.  p is one
    period or one period per row: step k advances the rows whose period
    passes k, on their own arrays, and the shared scale is theirs."""
    d = rf.degree
    pc = np.concatenate([np.zeros(d - rf.p.degree, complex), rf.p.to_complex_array()])
    qc = np.concatenate([np.zeros(d - rf.q.degree, complex), rf.q.to_complex_array()])
    # step k advances the rows whose period passes k: every row for one period
    steps = [slice(None)] * p if np.ndim(p) == 0 else [np.asarray(p) > k for k in range(max(p))]
    # the overflow row would print RuntimeWarnings here
    with np.errstate(all="ignore"):
        alpha, beta, gamma, delta = chart
        m1, m2 = alpha * w + beta, gamma * w + delta
        u, v, du, dv = m1.copy(), m2.copy(), np.full_like(w, alpha), np.full_like(w, gamma)
        for rows in steps:
            uk, vk, duk, dvk = u[rows], v[rows], du[rows], dv[rows]
            # P_h(u, v) = sum c_i u^(d-i) v^i by Horner in u, carrying v^i
            pu, qu = np.full_like(uk, pc[0]), np.full_like(uk, qc[0])
            dpu, dqu = np.zeros_like(uk), np.zeros_like(uk)
            vi, dvi = np.ones_like(uk), np.zeros_like(uk)
            for i in range(1, d + 1):
                vi, dvi = vi * vk, dvi * vk + vi * dvk
                pu, dpu = pu * uk + pc[i] * vi, dpu * uk + pu * duk + pc[i] * dvi
                qu, dqu = qu * uk + qc[i] * vi, dqu * uk + qu * duk + qc[i] * dvi
            s = np.maximum(np.abs(pu), np.abs(qu))
            if shared_scale:
                s = s.max()
            u[rows], v[rows], du[rows], dv[rows] = pu / s, qu / s, dpu / s, dqu / s
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


OVERFLOW = np.array([1e200 + 1e200j])


def _one_period_walks(rf):
    for p in range(1, 5):
        w = _walk_points(rf, p)
        inner = np.arange(len(w)) % 3 != 0
        mixed = tuple(np.where(inner, a, b) for a, b in zip(INNER_CHART, OUTER_CHART))
        for chart in (SOLVE_CHART, INNER_CHART, OUTER_CHART):
            eq = _FixedPointEquation(rf, p, chart)
            for shared in (False, True):
                _assert_bitwise_equal(eq.walk(w, shared), _reference_walk(rf, p, chart, w, shared))
            # the merge of a cluster walks its members under one scale
            for x in (w[:3], w[:1], OVERFLOW):
                _assert_bitwise_equal(eq.walk(x, True), _reference_walk(rf, p, chart, x, True))
            # one point at a time: numpy may pick other loops for n = 1
            for x in np.concatenate([w[:-9:5], w[-9:]]):
                _assert_bitwise_equal(eq.walk(np.array([x])), _reference_walk(rf, p, chart, np.array([x])))
        # a per-point chart walks each point as its own chart would
        got = _FixedPointEquation(rf, p, mixed).walk(w)
        for chart, mask in ((INNER_CHART, inner), (OUTER_CHART, ~inner)):
            want = _reference_walk(rf, p, chart, w[mask])
            _assert_bitwise_equal([np.broadcast_to(x, w.shape)[mask] for x in got], want)
        # the per-point charts of the balanced polish, one period per row
        rows = [p] * len(w)
        _assert_bitwise_equal(_FixedPointEquation(rf, rows, mixed).walk(w),
                              _reference_walk(rf, rows, mixed, w))


def _lock_step_walks(rf):
    # the rows of a lock-step solve, by descending period, and a row that overflows
    for periods in PERIOD_SETS:
        periods = sorted((p for p in periods if rf.degree**p + 1 <= DEFAULT_PERIOD_WORK_CAP),
                         reverse=True)
        if not periods:
            continue
        w = np.concatenate([start_circle(rf.degree**p + 1, CHART_START_RADIUS) for p in periods]
                           + [OVERFLOW])
        rows = [p for p in periods for _ in range(rf.degree**p + 1)] + [periods[-1]]
        _assert_bitwise_equal(_FixedPointEquation(rf, rows).walk(w),
                              _reference_walk(rf, rows, SOLVE_CHART, w))


def _start_circle_walks(rf):
    # non-increasing periods over the start circle, with rows that overflow for n > 1
    for n in (1, 2, 17, 158):
        w = start_circle(n, CHART_START_RADIUS)
        w[1::16] = OVERFLOW
        rows = sorted((1 + k % 3 for k in range(n)), reverse=True)
        for p in (3, rows):
            for shared in (False, True):
                _assert_bitwise_equal(_FixedPointEquation(rf, p).walk(w, shared),
                                      _reference_walk(rf, p, SOLVE_CHART, w, shared))


@pytest.mark.parametrize("walks", [_one_period_walks, _lock_step_walks, _start_circle_walks],
                         ids=["one-period", "lock-step", "start-circle"])
@pytest.mark.parametrize("key, twin", PARITY_MAPS)
def test_the_array_walk_matches_the_reference_walk(key, twin, walks):
    walks(_parity_map(key, twin).floating())


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
        # the polish takes the finite points' chart values; infinity stays as it is
        polished = iter(_polish_in_balanced_charts(
            rf, p, [complex(x.z) for x in points if not x.is_infinity]))
        got = [x if x.is_infinity else next(polished) for x in points]
        assert [_point_bits(x) for x in got] == [_point_bits(x) for x in want]


def _count_solves(monkeypatch):
    """The periods of each floating fixed-point solve from here on, one tuple per solve."""
    periods = []

    def counted(rf, solved, _solve=ratmap.dynamics._solve_periods):
        periods.append(tuple(solved))
        return _solve(rf, solved)

    monkeypatch.setattr(ratmap.dynamics, "_solve_periods", counted)
    return periods


@pytest.mark.parametrize("config, solved", [(None, [(1, 2, 3, 4)]),
                                            ({"max_period": 1}, [(1,), (2,)])])
def test_the_cli_render_reuses_the_solves_of_the_analysis(tmp_path, monkeypatch, config, solved):
    # the analysis solves periods 1 to max_period in one solve and the
    # render periods 1 and 2, both on the same floating map
    periods = _count_solves(monkeypatch)
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(WORKED_MAPS[0]))
    argv = ["analyze", str(map_file), "--out", str(tmp_path / "report.json"),
            "--render", str(tmp_path / "julia.ppm")]
    if config is not None:
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        argv += ["--config", str(config_file)]
    assert cli.main(argv) == 0
    assert periods == solved


@pytest.mark.parametrize("doc, twin", WORKED)
def test_fixed_points_returns_a_fresh_list_on_every_call(doc, twin, monkeypatch):
    periods = _count_solves(monkeypatch)
    r = parse_map(doc)
    first = fixed_points(r, 2)
    expected = list(first)
    first.clear()
    second = fixed_points(r, 2)
    assert second == expected and second is not first
    # the floating map shares the solve, without the exact snap
    floating = fixed_points(r.floating(), 2)
    assert floating is not second and not any(x.is_exact for x in floating)
    assert len(floating) == len(second)
    assert all(any(coincide(x, y, 1e-6) for y in second) for x in floating)
    assert periods == [(2,)]


def test_a_failed_solve_raises_the_same_error_again(monkeypatch):
    periods = _count_solves(monkeypatch)
    r = parse_map({"numerator": ["1e-5", "1e7", "-2e-5"], "denominator": ["2e-8"]})
    errors, depths = [], []
    for _ in range(3):
        with pytest.raises(RootFindingFailedError) as info:
            fixed_points(r, 1)
        errors.append(info.value)
        depths.append(len(info.traceback))
    assert errors[0] is errors[1] is errors[2] and errors[0].code == "roots-no-convergence"
    assert periods == [(1,)]
    # each raise of the memoized error starts a fresh traceback
    assert depths[0] == depths[1] == depths[2]


def _reference_aberth(evaluate, z):
    """Aberth for one group alone, with a fresh pairwise matrix every sweep."""
    with np.errstate(all="ignore"):
        for _ in range(ABERTH_MAX_ITER):
            p, d = evaluate(z)
            d = np.where(d == 0, 1e-300, d)
            newton = p / d
            diff = z[:, None] - z[None, :]
            np.fill_diagonal(diff, 1.0)
            inv = 1.0 / diff
            np.fill_diagonal(inv, 0.0)
            s = inv.sum(axis=1)
            denom = 1.0 - newton * s
            denom = np.where(denom == 0, 1e-300, denom)
            corr = newton / denom
            z = z - corr
            if np.all(np.abs(corr) <= 1e-14 * (1.0 + np.abs(z))):
                break
    return z


def _reference_newton(evaluate, z):
    """Newton steps on all points, each point until its step is at most
    1e-14 (1 + |z|) or z is not finite, at most NEWTON_POLISH_STEPS steps."""
    moving = np.ones(len(z), bool)
    with np.errstate(all="ignore"):
        for _ in range(NEWTON_POLISH_STEPS):
            p, d = evaluate(z)
            safe = np.abs(d) > 1e-300
            step = np.where(safe, p / np.where(safe, d, 1.0), 0.0)
            z = np.where(moving, z - step, z)
            moving &= (np.abs(step) > 1e-14 * (1.0 + np.abs(z))) & np.isfinite(z)
    return z


def _reference_merge(rf, p, members):
    """The interpolant merge of one cluster, on the reference walk, taken within
    MERGE_REACH member spreads of the centroid."""
    m = len(members)
    center = complex(members.mean())
    if m == 1:
        return center
    a = _reference_walk(rf, p, SOLVE_CHART, members, shared_scale=True)[5]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(1, m):
            a[k:] = (a[k:] - a[k - 1:-1]) / (members[k:] - members[:-k])
        root = complex(members[:-1].mean() - a[m - 2] / ((m - 1) * a[m - 1]))
    if abs(root - center) <= MERGE_REACH * max(abs(members - center)):
        return root
    return center


def _reference_solve(rf, p):
    """The floating solve of period p alone, as bits: (error code, residuals)
    or (points, ambiguity profiles)."""
    def evaluate(w):
        return _reference_walk(rf, p, SOLVE_CHART, w)[4:]

    # the seeds of period p depend only on the map and p
    [starts] = _seeds(rf, [p])
    z = _reference_aberth(evaluate, starts)
    z = _reference_newton(evaluate, z)
    m1, m2, u, v, f, df = _reference_walk(rf, p, SOLVE_CHART, z)
    with np.errstate(all="ignore"):
        residuals = 2.0 * np.abs(f) / (np.hypot(np.abs(u), np.abs(v)) * np.hypot(np.abs(m1), np.abs(m2)))
        radii = (np.abs(f) + EPSILON * (np.abs(u * m2) + np.abs(v * m1))) / np.abs(df)
    if not all(res <= 1e-6 for res in residuals):
        return "roots-no-convergence", residuals.tobytes()
    radii = np.minimum(radii, 100.0 * DEFAULT_CLUSTER_RADIUS)
    partners = near_partners(z, _link_reach(10.0 * DEFAULT_CLUSTER_RADIUS, radii))
    clusters = _cluster(z, DEFAULT_CLUSTER_RADIUS, radii, partners)
    wide = _cluster(z, 10.0 * DEFAULT_CLUSTER_RADIUS, radii, partners)
    alpha, beta, gamma, delta = SOLVE_CHART
    points = []
    for group in clusters:
        w = _reference_merge(rf, p, z[group])
        points.append(SpherePoint(alpha * w + beta, gamma * w + delta))
    simple = [i for i, group in enumerate(clusters) if len(group) == 1]
    for i, x in zip(simple, _reference_polish(rf, p, [points[i] for i in simple])):
        points[i] = x
    profiles = None if _profile(clusters) == _profile(wide) else (_profile(clusters), _profile(wide))
    return [_point_bits(x) for x in points], profiles


def _solved_bits(solved):
    if isinstance(solved, RootFindingFailedError):
        return solved.code, np.array(solved.residuals).tobytes()
    points, ambiguity = solved
    return [_point_bits(x) for x in points], ambiguity and ambiguity.context["profiles"]


MIXED_FAILURE_MAPS = [
    # periods 3 and 4 fail to converge, 1 and 2 solve
    {"numerator": ["-5e0", "-8e-5", "8e-5", "2e3"], "denominator": ["7e-3"]},
    # period 4 fails to converge
    {"numerator": ["1e5", "2e3", "6e3", "5e-5"], "denominator": ["-1e1"]},
]
SOLVER_MAPS = (PARITY_MAPS + [(("sparse", i), twin) for i in range(6) for twin in (False, True)]
               + [(doc, False) for doc in MIXED_FAILURE_MAPS])
PERIOD_SETS = [(1,), (2,), (1, 2), (1, 2, 3, 4), (3, 4)]


def _solver_map(key, twin):
    return _sparse_map(key[1], twin) if isinstance(key, tuple) else _parity_map(key, twin)


@pytest.mark.parametrize("key, twin", SOLVER_MAPS)
def test_the_lock_step_solve_matches_a_solve_per_period(key, twin):
    rf = _solver_map(key, twin).floating()
    reference = {}
    for periods in PERIOD_SETS:
        periods = [p for p in periods if rf.degree**p + 1 <= DEFAULT_PERIOD_WORK_CAP]
        if not periods:
            continue
        solved = _solve_periods(rf, periods)
        assert sorted(solved) == periods
        for p in periods:
            if p not in reference:
                reference[p] = _reference_solve(rf, p)
            assert _solved_bits(solved[p]) == reference[p]


def _circle_starts(rf, periods):
    """The Aberth starts of every period on the circle, as before seeding."""
    return [start_circle(rf.degree**p + 1, CHART_START_RADIUS) for p in periods]


def _solve_with_multiplicities(rf, periods, monkeypatch):
    """{p: [(point, multiplicity)]}, or the error code, from _solve_periods."""
    sizes = {}

    def recorded(evaluate, measure, starts, contexts, _find_zeros=ratmap.dynamics.find_zeros):
        results = _find_zeros(evaluate, measure, starts, contexts)
        for context, result in zip(contexts, results):
            if not isinstance(result, RootFindingFailedError):
                sizes[context["period"]] = [len(members) for members in result[0]]
        return results

    with monkeypatch.context() as patch:
        patch.setattr(ratmap.dynamics, "find_zeros", recorded)
        solved = _solve_periods(rf, periods)
    return {p: s.code if isinstance(s, RootFindingFailedError) else list(zip(s[0], sizes[p]))
            for p, s in solved.items()}


@pytest.mark.parametrize("key, twin", SOLVER_MAPS)
def test_the_seeded_solve_finds_the_fixed_points_of_a_circle_start_solve(key, twin, monkeypatch):
    # the oracle is the solve from the start circle that seeding replaced.
    # A point of multiplicity m is determined to about eps^(1/m) only: on
    # sparse map 5, whose parabolic 2-cycle is a triple fixed point of R^2,
    # the two solves put it 2.7e-6 apart
    rf = _solver_map(key, twin).floating()
    periods = [p for p in (1, 2, 3, 4) if rf.degree**p + 1 <= DEFAULT_PERIOD_WORK_CAP]
    seeded = _solve_with_multiplicities(rf, periods, monkeypatch)
    monkeypatch.setattr(ratmap.dynamics, "_seeds", _circle_starts)
    oracle = _solve_with_multiplicities(rf, periods, monkeypatch)
    for p in periods:
        if isinstance(oracle[p], str):
            assert seeded[p] == oracle[p]
            continue
        assert sorted(m for _, m in seeded[p]) == sorted(m for _, m in oracle[p])
        unmatched = list(oracle[p])
        for x, m in seeded[p]:
            distance, i = min((x.chordal(y), i) for i, (y, n) in enumerate(unmatched) if n == m)
            assert distance <= (1e-9 if m == 1 else EPSILON ** (1 / m))
            del unmatched[i]


def _map_of(numerator, denominator=(1.0,)):
    return RationalMap(Polynomial([complex(c) for c in numerator]),
                       Polynomial([complex(c) for c in denominator]))


SEED_POINT_MAPS = {
    # a preimage of z0 lies near 1e308, at infinity in floating point
    "overflow": parse_map(OVERFLOW_MAP),
    "z^2": _map_of([1, 0, 0]),
    # (z - z0)^2 + z0: z0 is exceptional, R^-p(z0) is z0 alone
    "exceptional": _map_of([1, -2 * SEED_POINT, SEED_POINT**2 + SEED_POINT]),
    # z^2 + z0: z0 is the critical value, a double preimage of R^-1(z0)
    "critical value": _map_of([1, 0, SEED_POINT]),
}


@pytest.mark.parametrize("name", SEED_POINT_MAPS)
def test_seeding_is_silent_and_gives_distinct_finite_starts(name):
    rf = SEED_POINT_MAPS[name].floating()
    periods = [1, 2, 3, 4, 5]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            seeds = _seeds(rf, periods)
    for p, w in zip(periods, seeds):
        assert len(w) == rf.degree**p + 1
        assert np.isfinite(w).all()
        distances = np.abs(w[:, None] - w[None, :])
        assert distances[~np.eye(len(w), dtype=bool)].min() > 0
    circles = [np.array_equal(w, start) for w, start in zip(seeds, _circle_starts(rf, periods))]
    # a tree that meets infinity or a critical value, and the exceptional
    # point, fall back to the circle; z^2 is seeded at every period
    assert circles == [name != "z^2"] * len(periods)


def test_the_seeds_of_z_squared_are_its_preimage_tree():
    # the 8 distinct eighth roots of z0, then infinity, in SOLVE_CHART
    alpha, beta, gamma, delta = SOLVE_CHART
    [w] = _seeds(SEED_POINT_MAPS["z^2"].floating(), [3])
    x = (alpha * w + beta) / (gamma * w + delta)
    assert np.abs(x[:-1] ** 8 - SEED_POINT).max() <= 1e-12
    assert abs(x[-1]) > 1e12


def test_a_target_at_the_image_of_chart_infinity_falls_back_silently(monkeypatch):
    # at the target (A_0, B_0), the image of w = infinity, y2 A - y1 B loses
    # its leading coefficient: its roots are NaN, where eigvals would raise.
    # Under a chart with real alpha and gamma, A_0 and B_0 of a real map are
    # real, so the leading coefficient B_0 A_0 - A_0 B_0 is exactly 0
    def level(table, targets):
        return ratmap.roots.preimages(table, np.vstack([targets[:-1], table[:1]]))

    rf = SEED_POINT_MAPS["z^2"].floating()
    monkeypatch.setattr(ratmap.dynamics, "SOLVE_CHART", (1.0, 0.3 + 0.2j, -0.37, 1.0))
    monkeypatch.setattr(ratmap.dynamics, "preimages", level)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(all="raise"):
            seeds = _seeds(rf, [1, 2])
    assert all(np.array_equal(w, start) for w, start in zip(seeds, _circle_starts(rf, [1, 2])))


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("k", [1, 7])
def test_a_level_solved_in_one_batch_has_the_bits_of_each_target_solved_alone(d, k):
    rng = np.random.default_rng(d * 10 + k)
    table = rng.standard_normal((d + 1, 2)) + 1j * rng.standard_normal((d + 1, 2))
    targets = rng.standard_normal((k, 2)) + 1j * rng.standard_normal((k, 2))
    if k > 1:
        # the image of w = infinity, whose roots are NaN, among the others; a
        # real (A_0, B_0) makes the leading coefficient B_0 A_0 - A_0 B_0 exactly 0
        table[0] = table[0].real
        targets[k // 2] = table[0]
    got = ratmap.roots.preimages(table, targets)
    alone = [ratmap.roots.preimages(table, targets[i:i + 1]) for i in range(k)]
    _assert_bitwise_equal([got], [np.concatenate(alone)])
    assert np.isnan(got).any() == (k > 1)
    # each lone root set is the spectrum of its own companion matrix
    for y, roots in zip(targets, alone):
        a = y[1] * table[:, 0] - y[0] * table[:, 1]
        a = a / np.abs(a).max()
        if a[0] == 0:
            assert np.isnan(roots).all()
            continue
        companion = np.diag(np.ones(d - 1, complex), -1)
        companion[0] = -a[1:] / a[0]
        _assert_bitwise_equal([roots], [np.linalg.eigvals(companion)])


@pytest.mark.parametrize("index", [9, 26])
@pytest.mark.parametrize("twin", [False, True])
def test_period_4_of_a_quintic_solves_from_its_preimage_seeds_at_cap_700(index, twin,
                                                                      monkeypatch):
    # 626 points, which the preimage tree seeds although 10 and 13 pairs of
    # them lie within DEFAULT_CLUSTER_RADIUS of each other; from the start
    # circle Aberth needs 468 and 335 sweeps, beyond ABERTH_MAX_ITER
    r = _corpus_map(index, twin)
    cycles, truncated, warnings = periodic_cycles(r, 4, work_cap=700)
    # certified by the fixed-point formula, with all fixed points of R^4
    assert truncated == [] and warnings == []
    assert sum(c.period for c in cycles if 4 % c.period == 0) == 626
    sweeps = []
    aberth = ratmap.roots._aberth

    def counted(evaluate, starts):
        return aberth(lambda *w: sweeps.append(1) or evaluate(*w), starts)

    monkeypatch.setattr(ratmap.roots, "_aberth", counted)
    _solve_periods(r.floating(), [4])
    assert len(sweeps) == 5


@pytest.mark.parametrize("twin", [False, True])
def test_the_lock_step_solve_of_the_corpus_takes_70_aberth_sweeps(twin, monkeypatch):
    # from the start circle the same solves took 454 sweeps.  Each polish
    # walk steps a point only until it converges; at NEWTON_POLISH_STEPS
    # walks per polish, _settle and the balanced charts took 50 walks each
    walks = Counter()
    stage = [None]

    def staged(name, function):
        def run(*args):
            stage.append(name)
            try:
                return function(*args)
            finally:
                stage.pop()
        return run

    def counted(name, function):
        def run(evaluate, *args):
            def counting(*w):
                walks[stage[-1], name] += 1
                return evaluate(*w)
            return function(counting, *args)
        return run

    monkeypatch.setattr(ratmap.dynamics, "find_zeros", staged("solve", ratmap.dynamics.find_zeros))
    monkeypatch.setattr(ratmap.dynamics, "_polish_in_balanced_charts",
                        staged("balanced", ratmap.dynamics._polish_in_balanced_charts))
    monkeypatch.setattr(ratmap.roots, "_aberth", counted("aberth", ratmap.roots._aberth))
    monkeypatch.setattr(ratmap.roots, "_newton_polish", counted("newton", ratmap.roots._newton_polish))
    for index in range(10):
        rf = _corpus_map(index, twin).floating()
        _solve_periods(rf, [p for p in range(1, DEFAULT_MAX_PERIOD + 1)
                            if rf.degree**p + 1 <= DEFAULT_PERIOD_WORK_CAP])
    # the sweeps of the seeds' preimage trees come outside any stage
    del walks[None, "aberth"]
    assert walks == {("solve", "aberth"): 70, ("solve", "newton"): 10, ("balanced", "newton"): 10}


def _counted_walks(evaluate):
    """evaluate, and the list to which each of its calls appends its number of points."""
    walks = []

    def counted(z):
        walks.append(len(z))
        return evaluate(z)

    return counted, walks


def _near_and_far(roots):
    # a point 1e-9 off each root, points off any root, one whose step
    # overflows and a NaN: each stops after its own number of walks
    return np.concatenate([roots * (1 + 1e-9j), [0.3 - 0.2j, 2.0 + 0.5j, 1e200 + 1e200j,
                                                 complex("nan")]])


@pytest.mark.parametrize("key, twin", WORKED[:3] + [(index, True) for index in (0, 3)])
def test_points_polished_together_match_each_point_polished_alone(key, twin):
    # each point stops on its own step, so its bits never depend on the
    # points that share its walks, for n = 1 too
    coeffs = np.array([1.0, -0.5 + 0.25j, 0.0, 2.0, -1.0 + 1.0j])
    horner = ratmap.roots._horner(coeffs)
    z = _near_and_far(np.roots(coeffs))
    got = ratmap.roots._newton_polish(horner, z)
    want = [ratmap.roots._newton_polish(horner, z[i:i + 1]) for i in range(len(z))]
    _assert_bitwise_equal([got], [np.concatenate(want)])
    # the balanced-chart walk, one chart and one period per point, from the
    # chart values of the fixed points of R^2
    rf = _parity_map(key, twin).floating()
    x = np.array([complex(x.z) for x in fixed_points(rf, 2) if not x.is_infinity])
    inner = np.abs(np.append(x, [0.3, 2.0, 1e200, 0.0])) <= 1.0
    w = _near_and_far(np.array([xi if inside else 1.0 / xi for xi, inside in zip(x, inner)]))
    periods = sorted((1 + k % 2 for k in range(len(w))), reverse=True)
    chart = tuple(np.where(inner, a, b) for a, b in zip(INNER_CHART, OUTER_CHART))
    got = ratmap.roots._newton_polish(_FixedPointEquation(rf, periods, chart).evaluate, w)
    for i, (p, inside) in enumerate(zip(periods, inner)):
        alone = _FixedPointEquation(rf, p, INNER_CHART if inside else OUTER_CHART)
        _assert_bitwise_equal([got[i:i + 1]], [ratmap.roots._newton_polish(alone.evaluate, w[i:i + 1])])


def test_a_nan_row_stops_and_keeps_no_finite_row_walking():
    horner = ratmap.roots._horner(np.array([1.0, 0.0, 0.0, -2.0]))
    start = np.array([1.26 + 1e-3j])
    evaluate, alone = _counted_walks(horner)
    want = ratmap.roots._newton_polish(evaluate, start)
    evaluate, walks = _counted_walks(horner)
    got = ratmap.roots._newton_polish(evaluate, np.append(start, complex("nan")))
    assert 1 < len(alone) < NEWTON_POLISH_STEPS and len(walks) == len(alone)
    _assert_bitwise_equal([got[:1]], [want])
    assert np.isnan(got[1])


def test_a_point_at_a_double_root_steps_up_to_the_cap():
    # (z - 1)^2 (z + 2): Newton about halves the distance to the double root per
    # step, so no step passes the stop test; the simple root stops at once
    horner = ratmap.roots._horner(np.array([1.0, 0.0, -3.0, 2.0]))
    evaluate, walks = _counted_walks(horner)
    got = ratmap.roots._newton_polish(evaluate, np.array([1.0 + 1e-6, -2.0]))
    assert len(walks) == NEWTON_POLISH_STEPS
    assert abs(got[0] - 1.0) == pytest.approx(1e-6 / 2**NEWTON_POLISH_STEPS, rel=1e-2)
    assert got[1] == -2.0


def _nudged(x, ulps):
    """x with its real part moved by ulps units in the last place."""
    z = complex(x.z)
    re = z.real
    for _ in range(abs(ulps)):
        re = np.nextafter(re, np.inf if ulps > 0 else -np.inf)
    return SpherePoint.finite(complex(re, z.imag))


@pytest.mark.parametrize("upper, lower", [(4, -4), (-4, 4), (4, 0), (0, -4), (4, 4), (-4, -4)])
def test_a_last_place_rounding_of_real_parts_moves_no_cycle_start_or_order(upper, lower):
    # the cycles of z^2 through period 4 come in conjugate pairs, such as
    # -1/2 +- sqrt(3)/2 i, whose real parts agree up to rounding; the points
    # above the real axis move by upper ulps and those below by lower
    r = parse_map(DECIMAL_TWINS[2])
    cycles, _, _ = periodic_cycles(r, 4)

    def listing(nudge):
        rebuilt = []
        for c in cycles:
            points = [nudge(x) for x in c.points]
            # start the orbit elsewhere, so the start is chosen afresh
            orbit = points[1:] + points[:1]
            cycle = ratmap.dynamics.make_cycle(r, orbit, r.valencies(orbit), [])
            rebuilt.append((cycle.sort_key(), cycles.index(c), points.index(cycle.points[0])))
        return [(c, start) for _, c, start in sorted(rebuilt)]

    def nudge(x):
        if x.is_infinity or complex(x.z).imag == 0:
            return x
        return _nudged(x, upper if complex(x.z).imag > 0 else lower)

    assert listing(nudge) == listing(lambda x: x)
    assert [start for _, start in listing(lambda x: x)] == [0] * len(cycles)


@pytest.mark.parametrize("doc, failed", zip(MIXED_FAILURE_MAPS, [[3, 4], [4]]))
def test_a_period_that_fails_leaves_the_others_of_its_solve(doc, failed):
    solved = _solve_periods(parse_map(doc).floating(), [1, 2, 3, 4])
    assert sorted(p for p, s in solved.items() if isinstance(s, RootFindingFailedError)) == failed
    assert all(isinstance(solved[p], tuple) for p in {1, 2, 3, 4} - set(failed))


def test_a_group_of_one_point_matches_its_lone_solve():
    # numpy may pick other loops for n = 1, so a group of one row is checked
    # against its lone solve, in Aberth and in the balanced-chart polish
    rf = _corpus_map(0, True).floating()
    starts = [start_circle(rf.degree**2 + 1, 1.0), np.array([0.3 - 0.2j]), np.array([2.0 + 0.5j]),
              start_circle(rf.degree + 1, 1.0)]
    periods = [2, 2, 1, 1]

    def evaluate(w, active):
        return _FixedPointEquation(rf, [periods[g] for g in active for _ in starts[g]]).evaluate(w)

    for got, start, p in zip(_aberth(evaluate, starts), starts, periods):
        want = _reference_aberth(lambda w, p=p: _reference_walk(rf, p, SOLVE_CHART, w)[4:], start)
        _assert_bitwise_equal([got], [want])
    points = [x.to_float() for x in fixed_points(rf, 2)[:1] + fixed_points(rf, 1)[:2]]
    got = _polish_in_balanced_charts(rf, [2, 1, 1], [complex(x.z) for x in points])
    want = _reference_polish(rf, 2, points[:1]) + _reference_polish(rf, 1, points[1:])
    assert [_point_bits(x) for x in got] == [_point_bits(x) for x in want]


def test_blocks_of_groups_of_one_size_match_a_solve_per_group():
    # consecutive groups of one size share a (k, n, n) pairwise block; each
    # group must still see the sweeps of its own solve, bit for bit
    rng = np.random.default_rng(5)
    sizes = [3, 3, 3, 5, 5, 1, 1, 3, 2]
    coeffs = np.zeros((len(sizes), 6), complex)
    for g, n in enumerate(sizes):
        coeffs[g, 5 - n:] = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
    dcoeffs = coeffs[:, :-1] * np.arange(5, 0, -1)

    def evaluate(w, active):
        rows = np.repeat(active, [sizes[g] for g in active])
        return ratmap.roots._horner_pair(coeffs[rows].T, dcoeffs[rows].T, w)

    starts = [start_circle(n, 2.0 + g) for g, n in enumerate(sizes)]
    for g, got in enumerate(_aberth(evaluate, starts)):
        want = _reference_aberth(lambda w, g=g: evaluate(w, (g,)), starts[g])
        _assert_bitwise_equal([got], [want])


@pytest.mark.parametrize("n", [1, 3, 9, 17, 26, 65, 82, 126])
def test_the_pairwise_sums_in_one_buffer_match_a_fresh_matrix(n):
    rng = np.random.default_rng(n)
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    diff = z[:, None] - z[None, :]
    np.fill_diagonal(diff, 1.0)
    inv = 1.0 / diff
    np.fill_diagonal(inv, 0.0)
    buf = np.empty((n, n), complex)
    for _ in range(2):  # the buffer is reused
        _assert_bitwise_equal([_pairwise_sums(z, buf)], [inv.sum(axis=1)])


@pytest.mark.parametrize("doc, twin", WORKED)
def test_an_analysis_screens_only_the_sets_above_the_crossover(doc, twin, monkeypatch):
    # of about 40 dedups and 25 clusterings per worked map, only the dedup of
    # the exposure seed pool (25 to 30 points) and the clusterings of periods
    # 3 and 4 (9 and 17 points, both radii from one screen) are above it
    sizes = {"dedup": [], "cluster": [], "screen": []}
    inside = []

    def counting(module, name, key):
        counted_function = getattr(module, name)

        def counted(points, *args):
            sizes[key].append(len(points))
            inside.append(key)
            try:
                return counted_function(points, *args)
            finally:
                inside.pop()

        monkeypatch.setattr(module, name, counted)

    screen = ratmap.sphere.near_row_pairs

    def counted_screen(a, b, reach):
        if inside:  # a screen that near_partners runs, not dynamics' or valencies'
            sizes["screen"].append(len(a))
        return screen(a, b, reach)

    # dedup_indices reads near_partners from sphere, roots its own import
    counting(ratmap.sphere, "near_partners", "dedup")
    counting(ratmap.roots, "near_partners", "cluster")
    monkeypatch.setattr(ratmap.sphere, "near_row_pairs", counted_screen)
    run_analysis(parse_map(doc))
    screened = {key: [n for n in sizes[key] if n > DIRECT_MAX_POINTS] for key in ("dedup", "cluster")}
    assert (len(screened["dedup"]), len(screened["cluster"])) == (1, 2)
    assert sorted(sizes["screen"]) == sorted(screened["dedup"] + screened["cluster"])
    assert all(n > DIRECT_MAX_POINTS for n in sizes["screen"])


@pytest.mark.parametrize("doc, twin", WORKED)
def test_an_analysis_walks_the_fixed_point_equation_at_most_30_times(doc, twin, monkeypatch):
    # each Aberth sweep, Newton step and polish step walks all periods at
    # once; with a solve per period a worked map took 84 to 89 walks
    calls = []
    walk = _FixedPointEquation.walk

    def counted(self, *args, **kwargs):
        calls.append(self)
        return walk(self, *args, **kwargs)

    monkeypatch.setattr(_FixedPointEquation, "walk", counted)
    run_analysis(parse_map(doc))
    assert 0 < len(calls) <= 30


@pytest.mark.parametrize("value", [0.3 - 0.2j, -1.7320508075688772 + 0j, complex(-0.0, 0.0),
                                   complex(0.0, -0.0), complex(-0.0, -0.0), 5e-324 - 1e308j,
                                   complex(-5e-324, -0.0), 1e-300 + 3e200j])
def test_the_merge_of_one_member_has_the_bits_of_its_mean(value):
    # a cluster's members are finite; the mean of one turns a signed zero into +0
    members = np.array([value])
    merged = _FixedPointEquation(_corpus_map(0, True), 1).merge(members)
    assert type(merged) is complex
    assert np.array([merged]).tobytes() == np.array([complex(members.mean())]).tobytes()


# OVERFLOW_MAP with exact coefficients
EXACT_OVERFLOW_MAP = {"numerator": [str(10**154), "1"],
                      "denominator": [f"1/{10**154}", "0", "1"]}


def _successor_map(source, index, twin):
    if source == "corpus":
        return _corpus_map(index, twin)
    if source == "sparse":
        return _sparse_map(index, twin)
    if source == "overflow":
        return parse_map(OVERFLOW_MAP if twin else EXACT_OVERFLOW_MAP)
    doc = PARABOLIC_MAPS[index]
    return parse_map(_decimal_twin(doc) if twin else doc)


SUCCESSOR_MAPS = [(source, index, twin) for twin in (False, True)
                  for source, count in (("corpus", 10), ("sparse", 20), ("parabolic", 3),
                                        ("overflow", 1))
                  for index in range(count)]


def _scalar_successors(r, points):
    """The successor rule on scalar images: r.evaluate, then the n x n array_chordal."""
    images = {}
    for i, x in enumerate(points):
        try:
            images[i] = r.evaluate(x)
        except RatmapError:
            pass
    succ = [None] * len(points)
    distances = array_chordal(normalized_pairs(list(images.values())), normalized_pairs(points))
    for i, row in zip(images, distances):
        if row.min() <= DEFAULT_CLUSTER_RADIUS:
            succ[i] = int(row.argmin())
    return succ


@pytest.mark.parametrize("source, index, twin", SUCCESSOR_MAPS)
def test_the_array_successors_and_valencies_match_the_scalar_rule(source, index, twin):
    r = _successor_map(source, index, twin)
    solved = {}
    for p in range(1, DEFAULT_MAX_PERIOD + 1):
        if r.degree**p + 1 <= DEFAULT_PERIOD_WORK_CAP:
            try:
                solved[p] = fixed_points(r, p)
            except RatmapError:
                pass
    everything = [x for points in solved.values() for x in points]
    # R at every solved point of every period in one pass, as periodic_cycles takes it
    image_rows, start = r.image_rows(everything), 0
    for points in solved.values():
        rows = normalized_pairs(points)
        want = _scalar_successors(r, points)
        got = nearest_rows(image_rows[start:start + len(points)], rows, DEFAULT_CLUSTER_RADIUS)
        assert got == want
        start += len(points)
        # a block of one point: numpy may pick other loops for n = 1
        for i, x in enumerate(points):
            assert nearest_rows(r.image_rows([x]), rows, DEFAULT_CLUSTER_RADIUS) == want[i:i + 1]
            assert r.valencies([x]) == [r.valency_at(x)]
    assert r.valencies(everything) == [r.valency_at(x) for x in everything]


def test_a_nan_or_indeterminate_image_row_has_no_successor():
    # (z - 1)(z + 2) / ((z - 1 - 1e-12) z): both components of R(1) vanish below the tolerance
    r = RationalMap(Polynomial([1.0, 1.0, -2.0]), Polynomial([1.0, -(1.0 + 1e-12), 0.0]),
                    verified_coprime=True)
    x = SpherePoint.finite(0.5)
    points = [SpherePoint.finite(1.0), x, r.evaluate(x)]
    with pytest.raises(IndeterminateEvaluationError):
        r.evaluate(points[0])
    rows = r.image_rows(points)
    assert np.isnan(rows[0]).all() and np.isfinite(rows[1:]).all()
    point_rows = normalized_pairs(points)
    reach = DEFAULT_CLUSTER_RADIUS
    assert nearest_rows(rows, point_rows, reach) == [None, 2, None]
    assert nearest_rows(rows[:1], point_rows, reach) == [None]
    nan_rows = np.full((2, 2), complex("nan"))
    assert nearest_rows(nan_rows, point_rows, reach) == [None, None]
    assert nearest_rows(nan_rows[:1], point_rows[:1], reach) == [None]


@pytest.mark.parametrize("twin", [False, True])
def test_a_two_cycle_through_a_pole_and_infinity(twin):
    # (z + 1)/(z^2 + 2z) maps the pole 0 to infinity and infinity back to 0:
    # one chart factor steps onto infinity and the next off it
    r = parse_map(_decimal_twin(POLE_CYCLE_MAP) if twin else POLE_CYCLE_MAP)
    cycles, _, warnings = periodic_cycles(r, 2)
    [cycle] = [c for c in cycles if c.contains(INFINITY, r.tolerance)]
    assert warnings == []
    assert cycle.period == 2 and cycle.classification == "repelling"
    assert cycle.points == (SpherePoint.finite(0), INFINITY)
    assert all(x.is_exact != twin for x in cycle.points)
    if twin:
        assert type(cycle.multiplier) is complex
        assert repr(cycle.multiplier) == "(2-0j)"
    else:
        assert cycle.multiplier == GaussianRational(2)


def test_periodic_cycles_evaluates_r_only_at_infinity_and_builds_each_point_once(monkeypatch):
    # over the corpus twins 0-9 the scalar path took 955 evaluations, one
    # per solved point, and built three points per simple solved point
    maps = [_corpus_map(index, True) for index in range(10)]
    for r in maps:
        r.critical_table()  # its roots are points too, built once per map
    counts = Counter()
    evaluate, init = RationalMap.evaluate, SpherePoint.__init__

    def counted_evaluate(self, x):
        counts["evaluate"] += 1
        counts["at infinity"] += x.is_infinity
        return evaluate(self, x)

    def counted_init(self, z, w):
        counts["points"] += 1
        init(self, z, w)

    monkeypatch.setattr(RationalMap, "evaluate", counted_evaluate)
    monkeypatch.setattr(SpherePoint, "__init__", counted_init)
    for r in maps:
        periodic_cycles(r)
    solved = sum(len(s[0]) for r in maps for s in r._fixed_point_cache.values())
    assert solved == 955
    # infinity is a solved point of each period of each map
    assert counts["evaluate"] == counts["at infinity"] == 30
    # each evaluation builds its image
    assert counts["points"] == solved + counts["evaluate"]


# the n x n rules the screened pairing replaced, kept as references
def _reference_nearest(a, b, reach, sizes=None):
    if sizes is not None:  # one block per period
        out, start = [], 0
        for n in sizes:
            out += _reference_nearest(a[start:start + n], b[start:start + n], reach)
            start += n
        return out
    distances = array_chordal(a, b)
    nearest = distances.argmin(axis=1)
    within = distances[np.arange(len(nearest)), nearest] <= reach
    return [k if ok else None for k, ok in zip(nearest.tolist(), within.tolist())]


def _reference_apart(rows, reach):
    distances = array_chordal(rows, rows)
    np.fill_diagonal(distances, np.inf)
    return bool(np.isfinite(rows).all() and (distances > reach).all())


def _reference_pairs(a, b, reach):
    """Every pair, as near_row_pairs returns the screened ones."""
    i, j = (x.ravel() for x in np.indices((len(a), len(b))))
    return i, j, array_chordal(a, b).ravel()


INFINITE_ROW = np.array([1.0 + 0j, 0j])
NAN_ROW = np.full(2, complex("nan"))


def _row(s):
    """The row (1 : s), at chordal distance exactly 2|s| from (1 : 0) for a real s."""
    return np.array([1.0 + 0j, complex(s)])


def _random_rows(n, seed):
    rng = np.random.default_rng(seed)
    z = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-4, 4, n)
    return normalized_pairs(z)


def _distinct_cases(n):
    """Row sets of n rows: random rows, then with (1 : 0), a pair exactly and
    one twice DISTINCT_STARTS apart, an exact duplicate and a NaN row planted."""
    base = _random_rows(n, n)
    plants = [{0: INFINITE_ROW}, {n // 2: NAN_ROW}]
    if n >= 2:
        plants += [{0: INFINITE_ROW, n - 1: _row(DISTINCT_STARTS / 2)},
                   {0: INFINITE_ROW, n - 1: _row(DISTINCT_STARTS)},
                   {n - 1: base[0]}]
    cases = [base]
    for plant in plants:
        rows = base.copy()
        for k, row in plant.items():
            rows[k] = row
        cases.append(rows)
    return cases


def _successor_case(n, seed):
    """(image_rows, point_rows): n random points, and images that are points
    moved by about 10 DEFAULT_CLUSTER_RADIUS, with planted an image at
    (1 : 0) between two points at equal distance, one at (0 : 1) exactly
    DEFAULT_CLUSTER_RADIUS from a point, one at an exactly duplicated point,
    and NaN images."""
    rng = np.random.default_rng(seed)
    points = _random_rows(n, seed)
    moved = points[rng.permutation(n)] + 5 * DEFAULT_CLUSTER_RADIUS * (
        rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2)))
    images = moved / np.hypot(np.abs(moved[:, :1]), np.abs(moved[:, 1:]))
    if n >= 9:
        points[1], points[2], images[0] = _row(3e-7), _row(-3e-7), INFINITE_ROW
        # (s : 1) lies exactly 2|s| from (0 : 1)
        points[3], images[1] = _row(DEFAULT_CLUSTER_RADIUS / 2)[::-1], INFINITE_ROW[::-1]
        points[5], images[2] = points[4], points[4]
        images[6:8] = NAN_ROW
    images[-1] = NAN_ROW
    return images, points


@pytest.mark.parametrize("n", [1, 2, 9, 126, 1297])
def test_the_screened_pairing_matches_the_n_by_n_reference(n):
    for rows in _distinct_cases(n):
        for reach in (DISTINCT_STARTS, DEFAULT_CLUSTER_RADIUS):
            assert rows_apart(rows, reach) == _reference_apart(rows, reach)
            # every pair within reach is screened in, measured with the bits of the matrix
            i, j, distances = near_row_pairs(rows, rows, reach)
            _assert_bitwise_equal([distances], [array_chordal(rows, rows)[i, j]])
            ri, rj, rd = _reference_pairs(rows, rows, reach)
            assert set(zip(ri[rd <= reach].tolist(), rj[rd <= reach].tolist())) <= set(
                zip(i.tolist(), j.tolist()))
    if n >= 2:
        # (1 : 0) and a row exactly DISTINCT_STARTS from it are not apart
        exact = _distinct_cases(n)[3]
        assert array_chordal(exact[:1], exact[-1:])[0, 0] == DISTINCT_STARTS
        assert not rows_apart(exact, DISTINCT_STARTS)
    for seed in range(3):
        images, points = _successor_case(n, seed)
        got = nearest_rows(images, points, DEFAULT_CLUSTER_RADIUS)
        assert got == _reference_nearest(images, points, DEFAULT_CLUSTER_RADIUS)
        assert got[-1] is None
        if n >= 9:
            assert got[:3] == [1, 3, 4] and got[6:8] == [None, None]
            assert array_chordal(images[1:2], points[3:4])[0, 0] == DEFAULT_CLUSTER_RADIUS
        # blocks of the sizes of periods 1-3 of a quintic, and what is left
        sizes = [k for k in (6, 26, 126) if k < n]
        sizes.append(n - sum(sizes))
        assert (nearest_rows(images, points, DEFAULT_CLUSTER_RADIUS, sizes)
                == _reference_nearest(images, points, DEFAULT_CLUSTER_RADIUS, sizes))


def test_the_critical_value_screen_matches_the_matrix_test():
    # the seeds of each map fall back at the same level with every pair measured
    for name in SEED_POINT_MAPS:
        rf = SEED_POINT_MAPS[name].floating()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ratmap.dynamics, "near_row_pairs", _reference_pairs)
            want = _seeds(rf, [1, 2, 3, 4, 5])
        _assert_bitwise_equal(_seeds(rf, [1, 2, 3, 4, 5]), want)


@pytest.mark.parametrize("index", range(10))
@pytest.mark.parametrize("twin", [False, True])
def test_the_screened_cycle_search_gives_the_reports_of_the_matrices_at_cap_700(index, twin,
                                                                               monkeypatch,
                                                                               analyzed):
    config = AnalysisConfig(period_work_cap=700)
    got = analyzed(_corpus_map(index, twin), config).to_json_bytes()
    monkeypatch.setattr(ratmap.dynamics, "nearest_rows", _reference_nearest)
    monkeypatch.setattr(ratmap.dynamics, "rows_apart", _reference_apart)
    monkeypatch.setattr(ratmap.dynamics, "near_row_pairs", _reference_pairs)
    assert run_analysis(_corpus_map(index, twin), config).to_json_bytes() == got


def test_the_clusters_of_roots_with_no_screened_pair_are_those_of_both_passes(recorded_analyses):
    # _clusters returns singletons without clustering where near_partners
    # pairs no roots: the large period groups of the corpus twins
    clusters = ratmap.roots._clusters
    wide = 10.0 * DEFAULT_CLUSTER_RADIUS
    lone = 0
    for record in recorded_analyses("twins")[:10]:
        for z, radii in record.clusterings:
            partners = near_partners(z, _link_reach(wide, radii))
            lone += not any(partners)
            got, ambiguity = clusters(z, radii)
            assert got == _cluster(z, DEFAULT_CLUSTER_RADIUS, radii, partners)
            assert (ambiguity is None) == (_profile(got) == _profile(_cluster(z, wide, radii, partners)))
    assert lone > 0


