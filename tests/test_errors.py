"""The contractual error paths: never a silent 0/0, never a guessed verdict."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

import ratmap.dynamics
from ratmap.dynamics import periodic_cycles
from ratmap.errors import (
    DegenerateMapError,
    IndeterminateEvaluationError,
    InputFormatError,
    MultiplicityAmbiguousError,
    RootFindingFailedError,
    ValencyAmbiguousError,
)
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import AnalysisConfig, parse_map, run_analysis
from ratmap.restricted import _find_or_make_cycle
from ratmap.roots import _snap_root, find_roots, snap
from ratmap.scalars import GaussianRational
from ratmap.sphere import SpherePoint


def test_floating_shared_root_rejected():
    p = Polynomial([1.0, -3.0, 2.0])  # (z-1)(z-2)
    q = Polynomial([1.0, 0.0, -1.0])  # (z-1)(z+1)
    with pytest.raises(DegenerateMapError):
        RationalMap(p, q)


def test_indeterminate_evaluation_never_silent():
    # exactly coprime pair whose roots sit 1e-8 apart; with a deliberately
    # coarse tolerance, a floating evaluation between the roots has both
    # homogeneous components below threshold and must refuse to answer
    eps = GaussianRational(Fraction(1, 10**8))
    p = Polynomial([1, -1]) * Polynomial([1, 3])
    q = Polynomial([1, -1 - eps]) * Polynomial([1, 4])
    r = RationalMap(p, q, tolerance=1e-3)
    with pytest.raises(IndeterminateEvaluationError):
        r.evaluate(SpherePoint.finite(1.0 + 5e-9))


def test_valency_gray_zone_reported():
    # floating z^2: the derivative numerator is 2z, and a point 1e-8 from the
    # critical point lands inside the [tol, 1000 tol] gray zone
    r = RationalMap(Polynomial([1.0, 0.0, 0.0]), Polynomial([1.0]))
    with pytest.raises(ValencyAmbiguousError) as info:
        r.valency_at(SpherePoint.finite(1e-8 + 0j))
    assert info.value.candidates == (1, 2)


def test_multiplicity_ambiguity_reported():
    # two distinct floating roots separated between the cluster radius and
    # ten times it: the two clusterings disagree and no exact data breaks it
    gap = 3e-6
    p = Polynomial([1.0, -(2.0 + gap), 1.0 + gap])  # (z-1)(z-1-gap)
    with pytest.raises(MultiplicityAmbiguousError):
        find_roots(p)


def test_exact_mode_resolves_the_same_geometry():
    # the same double-root geometry with exact coefficients is not ambiguous:
    # square-free decomposition settles it
    g = GaussianRational(Fraction(3, 10**6))
    p = Polynomial([1, -1]) * Polynomial([1, -1 - g])
    roots = find_roots(p)
    assert sorted(m for _, m, _ in roots) == [1, 1]


def test_ambiguous_indifferent_classification_is_recorded():
    lam = 1.0 + 1e-8  # inside the indifferent band, off the unit circle
    r = RationalMap(Polynomial([1.0, lam, 0.0]), Polynomial([1.0]))
    cycles, _, warnings = periodic_cycles(r, 1)
    fixed_zero = next(c for c in cycles if abs(complex(c.points[0].z)) < 1e-6)
    assert fixed_zero.classification == "indifferent_ambiguous"
    assert any(w["code"] == "cycle-classification-ambiguous" for w in warnings)


def test_ambiguous_indifferent_cycle_classified_on_the_spot():
    # the same fixed point, met by the exposed-orbit scan without a known cycle
    r = RationalMap(Polynomial([1.0, 1.0 + 1e-8, 0.0]), Polynomial([1.0]))
    warnings = []
    cyc = _find_or_make_cycle(r, [SpherePoint.finite(0.0)], [], r.tolerance, warnings)
    assert cyc.classification == "indifferent_ambiguous"
    assert [w["code"] for w in warnings] == ["cycle-classification-ambiguous"]


def test_non_finite_roots_are_a_root_finding_failure():
    # a leading coefficient 1e300 times smaller than the rest puts the Aberth
    # start circle at 1e300, where Horner overflows to NaN roots, whose NaN
    # residuals must not pass
    p = Polynomial([1e-300, 1.0, 2.0, 3.0])
    with pytest.raises(RootFindingFailedError) as failure:
        find_roots(p)
    assert any(math.isnan(res) for res in failure.value.residuals)


def test_period_three_of_a_map_whose_expanded_solve_overflowed():
    # Aberth on the expanded period-3 fixed-point polynomial of this degree-4
    # floating map overflowed to NaN; the orbit recursion finds all 4^3 + 1
    # fixed points of R^3, in cycles of period 1 and 3
    r = parse_map({"numerator": ["1.0", "4.0", "1.0", "-1.0+2.0i", "-2.0+1.0i"],
                   "denominator": ["-2.0+2.0i"]})
    cycles, truncated, warnings = periodic_cycles(r, 3)
    assert truncated == [] and warnings == []
    assert sum(c.period for c in cycles if c.period in (1, 3)) == 65


def test_a_failed_period_is_a_coded_warning(monkeypatch):
    # one period whose solve fails costs that period only
    solve = ratmap.dynamics.find_zeros

    def failing_at_period_two(*args, period, **kwargs):
        if period == 2:
            raise RootFindingFailedError("root finder did not converge", residuals=[math.nan])
        return solve(*args, period=period, **kwargs)

    monkeypatch.setattr(ratmap.dynamics, "find_zeros", failing_at_period_two)
    r = parse_map({"numerator": ["1", "0", "-2"], "denominator": ["1"]})
    cycles, _, warnings = periodic_cycles(r, 3)
    assert sorted({c.period for c in cycles}) == [1, 3]
    assert [(w["code"], w["period"], w["error"]) for w in warnings] == [
        ("cycle-search-failed", 2, "roots-no-convergence"),
    ]
    report = run_analysis(r, AnalysisConfig(max_period=3))
    assert "cycle-search-failed" in {w["code"] for w in report.data["warnings"]}


def test_a_lost_cycle_fails_the_fixed_point_formula(monkeypatch):
    # z^2 - 2 has fixed points 2, -1 and inf with multipliers 4, -2 and 0;
    # without -1 the sum of 1/(1 - mu) is -1/3 + 1, off by 1/3
    solve = ratmap.dynamics.fixed_points

    def losing_minus_one(r, p):
        return [x for x in solve(r, p) if x != SpherePoint.finite(-1)]

    monkeypatch.setattr(ratmap.dynamics, "fixed_points", losing_minus_one)
    r = parse_map({"numerator": ["1", "0", "-2"], "denominator": ["1"]})
    _, _, warnings = periodic_cycles(r, 1)
    assert [(w["code"], w["period"]) for w in warnings] == [("cycle-search-uncertified", 1)]
    assert warnings[0]["residual"] == pytest.approx(1 / 3)


def test_a_lost_point_of_a_cycle_drops_the_cycle(monkeypatch):
    # z^2 - 2 has one 2-cycle, (-1 +- sqrt 5)/2; without one of its points the
    # other has no successor, so the cycle is dropped and period 2 fails the
    # fixed-point formula (1 - 1/15 - 1/3 over the three fixed points)
    solve = ratmap.dynamics.fixed_points
    lost = SpherePoint.finite((math.sqrt(5) - 1) / 2)

    def losing_one_point(r, p):
        return [x for x in solve(r, p) if x.chordal(lost) > 1e-6]

    monkeypatch.setattr(ratmap.dynamics, "fixed_points", losing_one_point)
    r = parse_map({"numerator": ["1", "0", "-2"], "denominator": ["1"]})
    cycles, _, warnings = periodic_cycles(r, 2)
    assert [c.period for c in cycles] == [1, 1, 1]
    assert [(w["code"], w["period"]) for w in warnings] == [("cycle-search-uncertified", 2)]


def test_snap_of_a_non_finite_center_is_no_candidate():
    assert snap(complex(math.nan, 0.0)) is None
    assert snap(complex(math.inf, 1.0)) is None
    assert _snap_root(Polynomial([1, 0, -2]), complex(math.nan, math.nan)) is None


@pytest.mark.parametrize("doc", [
    {"numerator": ["1", "0", "1" + "0" * 400], "denominator": ["1"]},
    {"numerator": ["1", "0", "1"], "denominator": ["1" + "0" * 400]},
    # finite coefficients, but 10^400 in W = P'Q - PQ'
    {"numerator": ["1", "0", "1" + "0" * 200], "denominator": ["1" + "0" * 200, "1"]},
])
def test_an_exact_map_beyond_float_range_is_an_input_error(doc):
    with pytest.raises(InputFormatError, match="no finite floating value"):
        run_analysis(parse_map(doc))


def test_demoting_an_exact_coefficient_beyond_float_range_is_an_input_error():
    # one decimal coefficient demotes the map while it is parsed
    with pytest.raises(InputFormatError, match="no finite floating value"):
        parse_map({"numerator": ["1", "0", "1" + "0" * 400], "denominator": ["1.0"]})


def test_a_critical_divisor_other_than_2d_minus_2_is_a_coded_warning():
    # the floating Wronskian root near -2e200 rounds to infinity, which is
    # critical itself, so infinity is listed twice
    r = parse_map({"numerator": ["1", "0", "1"], "denominator": ["1e-200", "1"]})
    report = json.loads(run_analysis(r, AnalysisConfig(max_period=1)).to_json_bytes())
    assert report["critical_divisor_degree"] == 3
    mismatch = [w for w in report["warnings"] if w["code"] == "critical-divisor-mismatch"]
    assert [(w["found"], w["expected"]) for w in mismatch] == [(3, 2)]
    exact = parse_map({"numerator": ["1", "0", "1"], "denominator": ["1/10", "1"]})
    report = json.loads(run_analysis(exact, AnalysisConfig(max_period=1)).to_json_bytes())
    assert report["critical_divisor_degree"] == 2
    assert all(w["code"] != "critical-divisor-mismatch" for w in report["warnings"])
