"""The contractual error paths: never a silent 0/0, never a guessed verdict."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ratmap.dynamics import periodic_cycles
from ratmap.errors import (
    DegenerateMapError,
    IndeterminateEvaluationError,
    MultiplicityAmbiguousError,
    RootFindingFailedError,
    ValencyAmbiguousError,
)
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import parse_map
from ratmap.restricted import _find_or_make_cycle
from ratmap.roots import find_roots
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
    # Aberth overflows on the period-3 fixed-point polynomial of this
    # floating map and returns NaN roots, whose NaN residuals must not pass
    r = parse_map({"numerator": ["1.0", "4.0", "1.0", "-1.0+2.0i", "-2.0+1.0i"],
                   "denominator": ["-2.0+2.0i"]})
    with pytest.raises(RootFindingFailedError) as failure:
        periodic_cycles(r, 3)
    assert any(math.isnan(res) for res in failure.value.residuals)
