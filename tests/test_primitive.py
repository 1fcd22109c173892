from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ratmap.algebra import CantorAlg, CircleAlg, FinitePower, Matrix, Scalars, render
from ratmap.atlas import CriticalOrbitRecord, IsotropyGroup, build_atlas, isotropy_of
from ratmap.dynamics import (
    DEFAULT_ORBIT_BUDGET,
    INFINITE,
    critical_fate,
    critical_points,
    periodic_cycles,
)
from ratmap.errors import RatmapError
from ratmap.poly import Polynomial
from ratmap.primitive import primitive_catalog
from ratmap.rational import RationalMap
from ratmap.restricted import exposed_orbits
from ratmap.scalars import GaussianRational
from ratmap.sphere import SpherePoint
from ratmap.synth import ExposureResolver, full_decomposition


def catalog_for(r, max_period=4):
    crit = critical_points(r)
    cycles, _, _ = periodic_cycles(r, max_period)
    fates = {c.point: critical_fate(r, c.point, cycles, crit, DEFAULT_ORBIT_BUDGET) for c in crit}
    scan = exposed_orbits(r, cycles, fates)
    atlas = build_atlas(r, cycles, fates)
    resolver = ExposureResolver(scan.orbits, r.tolerance)
    julia_orbits = [o for o in scan.orbits if o.in_julia]
    dec = full_decomposition(atlas, julia_orbits, resolver, cycles)
    return primitive_catalog(atlas, dec, scan, cycles, resolver)


def _record(preperiodic, aval, lands=False):
    return CriticalOrbitRecord(SpherePoint.finite(0), 0, preperiodic=preperiodic,
                               asymptotic_valency=aval, lands_on_critical_cycle=lands)


def test_isotropy_case_table():
    # critical, landing on a critical cycle (a superattracting cycle member)
    assert isotropy_of(_record(True, INFINITE, lands=True)).kind == "subgroup_of_Q_mod_Z"
    # critical, not pre-periodic, valency 2
    assert isotropy_of(_record(False, 2)) == IsotropyGroup("finite_cyclic", 2)
    # non-critical periodic (Julia type-1 exposed, or an attracting cycle)
    assert isotropy_of(None).kind == "Z"
    # critical pre-periodic landing on a non-critical cycle
    assert isotropy_of(_record(True, 3)) == IsotropyGroup("Z_plus_finite_cyclic", 3)


@pytest.mark.parametrize("group, text, dual", [
    (IsotropyGroup("finite_cyclic", 5), "Z_5", "finite(5)"),
    (IsotropyGroup("Z"), "Z", "circle"),
    (IsotropyGroup("finite_cyclic", 3), "Z_3", "finite(3)"),
    (IsotropyGroup("Z_plus_finite_cyclic", 2), "Z + Z_2", "circle x finite(2)"),
    (IsotropyGroup("subgroup_of_Q_mod_Z"), "infinite subgroup of Q/Z", "cantor"),
])
def test_isotropy_group_text_and_dual(group, text, dual):
    assert group.describe() == text
    assert group.dual_cardinality() == dual
    assert group.parametrization() == {
        "kind": "dual_of_isotropy", "group": text, "cardinality": dual,
    }


def test_isotropy_group_factors_keep_the_summand_order():
    assert IsotropyGroup("Z").factors() == [CircleAlg()]
    assert IsotropyGroup("finite_cyclic", 3).factors() == [FinitePower(Scalars(), 3)]
    assert IsotropyGroup("Z_plus_finite_cyclic", 2).factors() == [
        FinitePower(Scalars(), 2), CircleAlg(),
    ]
    assert IsotropyGroup("subgroup_of_Q_mod_Z").factors() == [CantorAlg()]


def test_unknown_isotropy_kind_is_rejected():
    with pytest.raises(ValueError):
        IsotropyGroup("Q").describe()
    with pytest.raises(ValueError):
        IsotropyGroup("Q").dual_cardinality()
    with pytest.raises(ValueError):
        IsotropyGroup("Q").factors()


def test_isotropy_unresolved_context():
    for aval in (None, INFINITE):
        with pytest.raises(RatmapError, match="^context unresolved: finite asymptotic "
                                              "valency required$"):
            isotropy_of(_record(False, aval))


def test_catalog_zsq():
    r = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    cat = catalog_for(r)
    assert cat.t0_verdict == "not_T0"
    kinds = [e.co_support["kind"] for e in cat.entries]
    assert kinds.count("julia") == 1
    assert kinds.count("exposed_orbit") == 2
    assert kinds.count("orbit_plus_julia") == 0
    assert kinds.count("closure_of_free_orbit") == 2
    julia_entry = next(e for e in cat.entries if e.co_support["kind"] == "julia")
    assert julia_entry.simple  # no exposed points in the Julia set
    for e in cat.entries:
        if e.co_support["kind"] == "exposed_orbit":
            assert e.parametrization["cardinality"] == "cantor"
            assert e.quotient == Matrix(1)
            assert e.simple
    sup = next(e for e in cat.entries if e.co_support["kind"] == "closure_of_free_orbit")
    assert sup.quotient.region_kind == "superattracting"
    assert render(sup.quotient.top) == "BD(2^inf) (x) K"


def test_catalog_chebyshev():
    r = RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))
    cat = catalog_for(r)
    assert cat.t0_verdict == "not_T0"
    julia_entry = next(e for e in cat.entries if e.co_support["kind"] == "julia")
    assert not julia_entry.simple  # {-2, 2} is exposed inside the Julia set
    exposed = {tuple(e.co_support["points"]): e for e in cat.entries
               if e.co_support["kind"] == "exposed_orbit"}
    circle_family = exposed[("-2", "2")]
    assert circle_family.parametrization["group"] == "Z"
    assert circle_family.parametrization["cardinality"] == "circle"
    assert circle_family.quotient == Matrix(2)
    cantor_family = exposed[("inf",)]
    assert cantor_family.parametrization["cardinality"] == "cantor"
    assert sorted(cat.simple_quotients) == ["M_1", "M_2"]


def test_catalog_rees_shape():
    r = RationalMap(Polynomial([1, -4, 4]), Polynomial([1, 0, 0]))
    cat = catalog_for(r)
    # whole-sphere Julia set but exposed points exist: still not T0
    assert cat.t0_verdict == "not_T0"
    exposed = {tuple(e.co_support["points"]): e for e in cat.entries
               if e.co_support["kind"] == "exposed_orbit"}
    assert exposed[("1", "inf")].parametrization["group"] == "Z"
    assert exposed[("0",)].parametrization["group"] == "Z + Z_2"
    assert all(
        q in ("M_1", "M_2") for q in cat.simple_quotients
    )  # only matrix algebras are simple quotients here
    assert not any(e.co_support["kind"] == "closure_of_free_orbit" for e in cat.entries)


def test_catalog_attracting_case_iii():
    r = RationalMap(
        Polynomial([1, 0, GaussianRational(Fraction(-1, 2))]), Polynomial([1])
    )
    cat = catalog_for(r, max_period=2)
    case_iii = [e for e in cat.entries if e.co_support["kind"] == "orbit_plus_julia"]
    groups = sorted(e.parametrization["group"] for e in case_iii)
    assert groups == ["Z", "Z_2"]
    for e in case_iii:
        assert not e.simple
        ext = e.quotient
        assert render(ext.ideal) == "K"
    case_iv = [e for e in cat.entries if e.co_support["kind"] == "closure_of_free_orbit"]
    kinds = sorted(e.quotient.region_kind for e in case_iv)
    assert kinds == ["attracting", "superattracting"]
    att = next(e for e in case_iv if e.quotient.region_kind == "attracting")
    assert render(att.quotient.top) == "K"
    assert any(row.label == "periodic-orbit row" for row in att.quotient.rows)


def test_an_unresolved_class_gets_an_unresolved_catalog_entry():
    from ratmap.restricted import ExposedScan

    from .test_synth import _one_record_atlas

    atlas, cycles = _one_record_atlas("attracting", _record(False, None))
    resolver = ExposureResolver([], 1e-9)
    dec = full_decomposition(atlas, [], resolver, cycles)
    cat = primitive_catalog(atlas, dec, ExposedScan([], [], [], {}), cycles, resolver)
    by_point = {e.co_support.get("point"): e for e in cat.entries
                if e.co_support["kind"] == "orbit_plus_julia"}
    assert by_point["0"].parametrization == {
        "kind": "unresolved", "reason": "context unresolved: finite asymptotic valency required",
    }
    assert by_point["0"].label == "ideals over RO(0) u J_R (unresolved)"
    assert render(by_point["0"].quotient) == "C*_r(R)/I"
    assert by_point["1/2"].parametrization["group"] == "Z"
    assert by_point["1/2"].label == "ideals over RO(1/2) u J_R"
