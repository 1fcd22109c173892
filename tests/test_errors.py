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
)
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import AnalysisConfig, parse_map, run_analysis
from ratmap.restricted import _find_or_make_cycle
from ratmap.roots import _snap_root, find_roots, snap
from ratmap.scalars import GaussianRational
from ratmap.sphere import INFINITY, SpherePoint


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


def test_a_floating_valency_is_a_lookup_in_the_critical_table():
    # floating z^2: the critical table is [(0, 2), (inf, 2)]; a point that
    # coincides with 0 at the tolerance (1e-9) reads its valency, a point
    # beyond it is not critical
    r = RationalMap(Polynomial([1.0, 0.0, 0.0]), Polynomial([1.0]))
    assert r.valency_at(SpherePoint.finite(1e-10 + 0j)) == 2
    assert r.valency_at(SpherePoint.finite(1e-8 + 0j)) == 1
    assert r.valency_at(SpherePoint.finite(1e-3 + 0j)) == 1


@pytest.mark.parametrize("numerator", [["1", "0", "1/10000000"], ["1.0", "0.0", "1e-7"]])
def test_a_fixed_point_near_a_critical_point_is_not_superattracting(numerator):
    # z^2 + 10^-7, exact and twin: the fixed point near 1e-7 is irrational,
    # 2e-7 from the critical point 0, and its multiplier is about 2e-7
    r = parse_map({"numerator": numerator, "denominator": ["1"]})
    near_zero = [c for c in periodic_cycles(r, 1)[0]
                 if not c.points[0].is_infinity and abs(complex(c.points[0].value())) < 1e-6]
    assert len(near_zero) == 1
    cycle = near_zero[0]
    assert r.valency_at(cycle.points[0]) == 1
    assert not cycle.contains_critical
    assert cycle.classification == "attracting"
    assert abs(complex(cycle.multiplier) - 2e-7) < 1e-12


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


def test_simple_roots_that_snap_to_one_point_are_ambiguous():
    # the square-free (z - 1/3)(z - 1/3 - 10^-13): both approximations snap
    # to the root 1/3, and neither may be returned as a double root
    third = GaussianRational(Fraction(1, 3))
    p = Polynomial([1, -third]) * Polynomial([1, -third - GaussianRational(Fraction(1, 10**13))])
    with pytest.raises(MultiplicityAmbiguousError):
        find_roots(p)


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


def test_a_walk_that_vanishes_leaks_no_runtime_warning():
    # max(|P|, |Q|) reaches 0 in the fixed-point walk while _settle polishes,
    # and the rescale divides by it; the NaN it gives fails the residual check
    # as a coded warning, and no RuntimeWarning is printed
    r = parse_map({"numerator": ["1e-5", "1e7", "-2e-5"], "denominator": ["2e-8"]})
    report = run_analysis(r)
    assert "cycles" in report.data


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


def test_a_critical_point_near_infinity_is_listed_once():
    # the floating W is 1e-200 z^2 + 2z - 1e-200; its leading coefficient is
    # below the tolerance, so the root near -2e200 is infinity's own valency 2
    r = parse_map({"numerator": ["1", "0", "1"], "denominator": ["1e-200", "1"]})
    report = json.loads(run_analysis(r, AnalysisConfig(max_period=1)).to_json_bytes())
    assert report["critical_divisor_degree"] == 2
    assert [c["valency"] for c in report["critical_points"] if c["point"] == "inf"] == [2]
    assert all(w["code"] != "critical-divisor-mismatch" for w in report["warnings"])
    exact = parse_map({"numerator": ["1", "0", "1"], "denominator": ["1/10", "1"]})
    report = json.loads(run_analysis(exact, AnalysisConfig(max_period=1)).to_json_bytes())
    assert report["critical_divisor_degree"] == 2
    assert all(w["code"] != "critical-divisor-mismatch" for w in report["warnings"])


@pytest.mark.parametrize("numerator, found, inf_valency, inf_class", [
    # W = 10^-20 z^2 + 2z - 10^-20: infinity is not critical; the root near
    # -2e20 is, but its floating point is infinity
    (["1", "0", "1"], 1, 1, "attracting"),
    # W = 2 10^-20 z^3 + 3z^2 - 10^-20: infinity is critical with valency 2,
    # and the root near -1.5e20 is again a floating infinity
    (["1", "0", "0", "1"], 3, 2, "superattracting"),
])
def test_an_exact_critical_point_beyond_the_finite_chart_is_a_coded_warning(
        numerator, found, inf_valency, inf_class):
    r = parse_map({"numerator": numerator, "denominator": ["1/1" + "0" * 20, "1"]})
    report = json.loads(run_analysis(r, AnalysisConfig(max_period=1)).to_json_bytes())
    assert report["critical_divisor_degree"] == found
    inf_vals = [c["valency"] for c in report["critical_points"] if c["point"] == "inf"]
    assert inf_vals == [v for v in [inf_valency] if v > 1]
    mismatch = [w for w in report["warnings"] if w["code"] == "critical-divisor-mismatch"]
    assert [(w["found"], w["expected"]) for w in mismatch] == [(found, 2 * r.degree - 2)]
    # the fixed point at infinity keeps its exact valency and classification
    assert r.valency_at(INFINITY) == inf_valency
    at_inf = [c for c in periodic_cycles(r, 1)[0] if c.points[0].is_infinity]
    assert [c.classification for c in at_inf] == [inf_class]
