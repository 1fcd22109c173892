from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ratmap.algebra import (
    CantorAlg,
    CircleAlg,
    Compacts,
    CompactsOn,
    DirectSum,
    FinitePower,
    Matrix,
    NamedUnknown,
    OpaqueSimple,
    Scalars,
    Tensor,
    Zero,
    collect_labels,
    normalize,
    render,
)
from ratmap.atlas import (
    Atlas,
    CoreType,
    CriticalOrbitRecord,
    IotaClass,
    StableRegion,
    bind_declarations,
    build_atlas,
)
from ratmap.dynamics import (
    DEFAULT_ORBIT_BUDGET,
    INFINITE,
    PeriodicCycle,
    critical_fate,
    critical_points,
    periodic_cycles,
)
from ratmap.errors import RegionBlockedError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import read_declaration
from ratmap.restricted import ExposedOrbit, exposed_orbits
from ratmap.scalars import GaussianRational
from ratmap.sphere import SpherePoint
from ratmap.synth import (
    ExposureResolver,
    case_iv_diagram,
    full_decomposition,
    julia_extension,
    julia_orbit_algebra,
    region_extension,
)


def pipeline(r, max_period=4, declarations=()):
    crit = critical_points(r)
    cycles, _, _ = periodic_cycles(r, max_period)
    fates = {c.point: critical_fate(r, c.point, cycles, crit, DEFAULT_ORBIT_BUDGET) for c in crit}
    declared = bind_declarations(r, [read_declaration(d) for d in declarations], cycles)
    scan = exposed_orbits(r, cycles, fates, declared=declared)
    atlas = build_atlas(r, cycles, fates, declared)
    resolver = ExposureResolver(scan.orbits, r.tolerance)
    julia_orbits = [o for o in scan.orbits if o.in_julia]
    dec = full_decomposition(atlas, julia_orbits, resolver, cycles)
    return crit, cycles, scan, atlas, resolver, dec


def mk_orbit(points, orbit_type, in_julia=True, aval=None):
    return ExposedOrbit(
        points=tuple(SpherePoint.finite(p) for p in points),
        orbit_type=orbit_type,
        contains_critical=(orbit_type != 1),
        in_julia=in_julia,
        asymptotic_valency=aval,
    )


def test_julia_orbit_algebra_types():
    t1 = mk_orbit([-2, 2], 1)
    assert normalize(julia_orbit_algebra(t1)) == Tensor([CircleAlg(), Matrix(2)])
    t2 = mk_orbit([0], 2, aval=2)
    assert normalize(julia_orbit_algebra(t2)) == DirectSum([CircleAlg(), CircleAlg()])
    # the dense-critical-orbit configuration: type 3 with valency 2 gives C + C
    t3 = mk_orbit([0], 3, aval=2)
    assert normalize(julia_orbit_algebra(t3)) == DirectSum([Scalars(), Scalars()])


def test_julia_orbit_algebra_guards():
    with pytest.raises(ValueError):
        julia_orbit_algebra(mk_orbit([0], 2, in_julia=False, aval=2))
    with pytest.raises(ValueError):
        julia_orbit_algebra(mk_orbit([0], 2, aval=INFINITE))


def test_julia_extension_collapses_without_orbits():
    ext = julia_extension([])
    assert ext.collapsed
    assert isinstance(ext.total, OpaqueSimple)
    assert "purely_infinite" in ext.total.attributes
    assert "simple" in ext.total.attributes


def test_region_extension_zsq():
    r = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    crit, cycles, scan, atlas, resolver, dec = pipeline(r)
    for rs in dec.fatou_regions:
        ext = rs.extension
        assert render(ext.ideal) == "K (x) MT_2"
        assert normalize(ext.quotient) == CantorAlg()


def test_region_extension_attracting():
    r = RationalMap(
        Polynomial([1, 0, GaussianRational(Fraction(-1, 2))]), Polynomial([1])
    )
    crit, cycles, scan, atlas, resolver, dec = pipeline(r, max_period=2)
    att = next(
        rs for rs in dec.fatou_regions
        if atlas.regions[rs.region_id].core.kind == "attracting"
    )
    ext = att.extension
    assert render(ext.ideal) == "K (x) C(T^2)"
    # (C(T) (x) K) (+) (C^2 (x) K): q and the critical point are not exposed
    want = DirectSum([
        Tensor([CircleAlg(), Compacts()]),
        DirectSum([Tensor([Compacts()]), Tensor([Compacts()])]),
    ])
    assert normalize(ext.quotient) == normalize(
        DirectSum([
            Tensor([CircleAlg(), Compacts()]),
            Compacts(), Compacts(),
        ])
    )


def _region(records, kind="attracting"):
    """A region of the kind (attracting or superattracting) holding the
    records, anchored at the fixed point 1/2."""
    anchor = PeriodicCycle(period=1, points=(SpherePoint.finite(Fraction(1, 2)),),
                           multiplier=GaussianRational(Fraction(int(kind == "attracting"), 4)),
                           classification=kind, contains_critical=(kind == "superattracting"),
                           cycle_id=0)
    core = (CoreType(kind, 1, local_degree=2) if kind == "superattracting"
            else CoreType(kind, 1, multiplier=anchor.multiplier))
    return StableRegion(0, core, 0, critical_records=records), [anchor]


def test_a_record_without_a_finite_valency_blocks_its_region():
    resolver = ExposureResolver([], 1e-9)
    ok = CriticalOrbitRecord(SpherePoint.finite(0), 0, preperiodic=True, asymptotic_valency=2)
    for aval in (None, INFINITE):
        lacking = CriticalOrbitRecord(SpherePoint.finite(3), 0, preperiodic=False,
                                      asymptotic_valency=aval)
        region, cycles = _region([ok, lacking])
        with pytest.raises(RegionBlockedError,
                           match="^critical record lacks a finite asymptotic valency$") as blocked:
            region_extension(region, resolver, cycles)
        assert blocked.value.context == {"point": "3"}
        # an obstruction on an earlier representative is reported first
        obstructed = CriticalOrbitRecord(SpherePoint.finite(5), 0, preperiodic=False,
                                         asymptotic_valency=None, obstruction="fate-unresolved")
        region, cycles = _region([ok, obstructed, lacking])
        with pytest.raises(RegionBlockedError, match="region synthesis blocked") as blocked:
            region_extension(region, resolver, cycles)
        assert blocked.value.context == {"point": "5", "reason": "fate-unresolved"}


def _one_record_atlas(kind, record):
    """_region(kind) holding the one record, with the atlas's classes."""
    region, cycles = _region([record], kind)
    record.ro_class_id = 0
    iota_p = [IotaClass(1, cycles[0].points[0], 0)] if region.has_noncritical_periodic else []
    atlas = Atlas([region], iota_p, [IotaClass(0, record.point, 0, record)], [], False)
    return atlas, cycles


def _the_three_summands(atlas, cycles):
    """The record's summand in its region's quotient, in the iota_c corner
    and in the case-(iv) a-part, and the decomposition's obstructions."""
    resolver = ExposureResolver([], 1e-9)
    dec = full_decomposition(atlas, [], resolver, cycles)
    region = atlas.regions[0]
    diagram = case_iv_diagram(region, resolver, cycles, dec.square.corners["julia"])
    fatou_column = next(row for row in diagram.rows if row.label == "fatou column")
    extension = dec.fatou_regions[0].extension
    return (
        None if extension is None else extension.quotient.summands[-1],
        dec.square.corners["iota_c"].summands[0],
        fatou_column.quotient.summands[0],
        dec.obstructions,
    )


@pytest.mark.parametrize("kind, preperiodic, aval, lands, factors", [
    ("attracting", False, 2, False, [FinitePower(Scalars(), 2)]),
    ("attracting", True, 3, False, [FinitePower(Scalars(), 3), CircleAlg()]),
    ("superattracting", True, INFINITE, True, [CantorAlg()]),
])
def test_a_record_has_one_summand_in_its_region_its_corner_and_its_diagram(
        kind, preperiodic, aval, lands, factors):
    record = CriticalOrbitRecord(SpherePoint.finite(3), 0, preperiodic=preperiodic,
                                 asymptotic_valency=aval, lands_on_critical_cycle=lands)
    *summands, obstructions = _the_three_summands(*_one_record_atlas(kind, record))
    assert summands == [Tensor(factors + [CompactsOn("3", None)])] * 3
    assert obstructions == []


def test_an_anchor_cycle_has_one_summand_in_its_region_its_corner_and_its_diagram():
    record = CriticalOrbitRecord(SpherePoint.finite(3), 0, preperiodic=False,
                                 asymptotic_valency=2)
    atlas, cycles = _one_record_atlas("attracting", record)
    resolver = ExposureResolver([], 1e-9)
    dec = full_decomposition(atlas, [], resolver, cycles)
    diagram = case_iv_diagram(atlas.regions[0], resolver, cycles, dec.square.corners["julia"])
    row = next(row for row in diagram.rows if row.label == "periodic-orbit row")
    want = Tensor([CircleAlg(), CompactsOn("1/2", None)])
    assert dec.fatou_regions[0].extension.quotient.summands[0] == want
    assert dec.square.corners["iota_p"] == DirectSum([want])
    assert row.quotient == want


@pytest.mark.parametrize("aval", [None, INFINITE])
def test_an_unresolved_record_blocks_its_region_and_names_its_corner_and_diagram(aval):
    record = CriticalOrbitRecord(SpherePoint.finite(3), 0, preperiodic=False,
                                 asymptotic_valency=aval)
    region_part, corner_part, diagram_part, obstructions = _the_three_summands(
        *_one_record_atlas("attracting", record))
    assert region_part is None
    assert corner_part == diagram_part == NamedUnknown("C*_r(RO(3))")
    assert [(o["message"], o.get("region"), o["point"]) for o in obstructions] == [
        ("critical record lacks a finite asymptotic valency", 0, "3"),
        ("bookkeeping class lacks a finite asymptotic valency", None, "3"),
    ]


def test_declared_siegel_extension():
    theta = (math.sqrt(5) - 1) / 2
    lam = complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))
    r = RationalMap(Polynomial([complex(1.0), lam, complex(0.0)]), Polynomial([1.0]))
    dec_list = [{"kind": "siegel", "anchor": "0.0", "theta": theta}]
    crit, cycles, scan, atlas, resolver, dec = pipeline(r, max_period=1, declarations=dec_list)
    siegel = next(
        rs for rs in dec.fatou_regions
        if atlas.regions[rs.region_id].core.kind == "siegel"
    )
    assert render(siegel.extension.ideal) == "K (x) C_0(R) (x) A_theta"
    assert atlas.regions[siegel.region_id].core.theta == pytest.approx(theta)


def test_full_decomposition_zsq_square():
    r = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    *_, dec = pipeline(r)
    corners = dec.square.corners
    assert render(corners["fatou_free"]) == "(K (x) MT_2) (+) (K (x) MT_2)"
    assert corners["iota_p"] == Zero()
    assert normalize(corners["iota_c"]) == DirectSum([CantorAlg(), CantorAlg()])
    assert isinstance(corners["julia"], OpaqueSimple)


def test_full_decomposition_chebyshev():
    r = RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))
    *_, dec = pipeline(r)
    assert len(dec.fatou_regions) == 1
    ext = dec.fatou_regions[0].extension
    assert render(ext.ideal) == "K (x) MT_2"
    assert normalize(ext.quotient) == CantorAlg()
    assert normalize(dec.julia.quotient) == Tensor([CircleAlg(), Matrix(2)])


def test_full_decomposition_whole_sphere_collapses():
    r = RationalMap(Polynomial([1, -4, 4]), Polynomial([1, 0, 0]))
    *_, dec = pipeline(r)
    assert dec.fatou_regions == []
    assert dec.julia_fatou.ideal == Zero()
    assert normalize(dec.julia.quotient) == DirectSum([
        CircleAlg(), CircleAlg(), Tensor([CircleAlg(), Matrix(2)])
    ])


def test_symbols_trace_to_inventory():
    # every compacts-on label in the emitted formulas names an actual
    # critical record or anchor point of the inventory
    for coeffs, den in (
        ([1, 0, 0], [1]),
        ([1, 0, -2], [1]),
        ([1, 0, GaussianRational(Fraction(-1, 2))], [1]),
    ):
        r = RationalMap(Polynomial(coeffs), Polynomial(den))
        crit, cycles, scan, atlas, resolver, dec = pipeline(r)
        known = {str(rec.point) for reg in atlas.regions for rec in reg.critical_records}
        for cyc in cycles:
            known.update(str(p) for p in cyc.points)
        for rs in dec.fatou_regions:
            if rs.extension is None:
                continue
            for label in collect_labels(rs.extension.quotient):
                assert label in known, label
