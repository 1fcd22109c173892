"""Property tests tied to the module contracts, beyond the acceptance suite."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ratmap.algebra import DirectSum, Matrix, Tensor, normalize
from ratmap.atlas import build_atlas
from ratmap.dynamics import (
    DEFAULT_ORBIT_BUDGET,
    Orbit,
    critical_fate,
    critical_points,
    periodic_cycles,
)
from ratmap.poly import Polynomial
from ratmap.primitive import primitive_catalog
from ratmap.rational import RationalMap
from ratmap.restricted import exposed_orbits, ro_related
from ratmap.scalars import GaussianRational
from ratmap.sphere import SpherePoint
from ratmap.synth import ExposureResolver, full_decomposition, julia_orbit_algebra


def cheb():
    return RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))


def test_ro_bounded_transitivity():
    # witnesses for (x,y) and (y,z) at depth k compose to one for (x,z)
    # within depth 2k, on points drawn from real orbits
    r = cheb()
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        x = SpherePoint.finite(GaussianRational(rng.randint(-3, 3), rng.randint(-1, 1)))
        y = Orbit(r, x).point(rng.randint(0, 2))
        z = Orbit(r, y).point(rng.randint(0, 2))
        k = 4
        wxy = ro_related(r, x, y, depth=k)
        wyz = ro_related(r, y, z, depth=k)
        if wxy is None or wyz is None:
            continue
        wxz = ro_related(r, x, z, depth=2 * k)
        assert wxz is not None
        checked += 1
    assert checked > 5


def test_julia_quotient_matrix_size_bounds():
    # matrix sizes in the Julia quotient: <= 4 with a circle factor (type 1),
    # <= 3 otherwise (types 2 and 3)
    for num, den in (([1, 0, -2], [1]), ([1, -4, 4], [1, 0, 0])):
        r = RationalMap(Polynomial(num), Polynomial(den))
        cycles, _, _ = periodic_cycles(r, 4)
        scan = exposed_orbits(r, cycles)
        for o in scan.orbits:
            if not o.in_julia:
                continue
            alg = julia_orbit_algebra(o)
            bound = 4 if o.orbit_type == 1 else 3
            assert o.size <= bound


def _catalog(r, max_period=4):
    crit = critical_points(r)
    cycles, _, _ = periodic_cycles(r, max_period)
    fates = {c.point: critical_fate(r, c.point, cycles, crit, DEFAULT_ORBIT_BUDGET) for c in crit}
    scan = exposed_orbits(r, cycles, crit=crit, fates=fates)
    atlas = build_atlas(r, cycles, crit, fates)
    resolver = ExposureResolver(scan.orbits, r.tolerance)
    dec = full_decomposition(atlas, [o for o in scan.orbits if o.in_julia],
                             resolver, cycles)
    return primitive_catalog(atlas, dec, scan, cycles, resolver, r.tolerance), scan


@pytest.mark.parametrize(
    "num,den",
    [([1, 0, 0], [1]), ([1, 0, -2], [1]), ([1, -4, 4], [1, 0, 0]),
     ([1, 0, GaussianRational(Fraction(-1, 2))], [1])],
)
def test_primitive_catalog_partition_and_audit(num, den):
    r = RationalMap(Polynomial(num), Polynomial(den))
    cat, scan = _catalog(r)
    # no two entries share a co-support descriptor
    seen = set()
    for e in cat.entries:
        key = tuple(sorted((k, str(v)) for k, v in e.co_support.items()))
        assert key not in seen
        seen.add(key)
    # simple-quotient audit
    julia_exposed = [o for o in scan.orbits if o.in_julia]
    for e in cat.entries:
        if not e.simple:
            continue
        if e.co_support["kind"] == "julia":
            assert not julia_exposed
        else:
            assert isinstance(e.quotient, Matrix)
            assert e.quotient.n <= 4


def test_iota_p_periodic_valency_one():
    # classes carrying a non-critical periodic orbit have valency-1 members
    r = RationalMap(Polynomial([1, 0, GaussianRational(Fraction(-1, 2))]), Polynomial([1]))
    crit = critical_points(r)
    cycles, _, _ = periodic_cycles(r, 2)
    fates = {c.point: critical_fate(r, c.point, cycles, crit, DEFAULT_ORBIT_BUDGET) for c in crit}
    atlas = build_atlas(r, cycles, crit, fates)
    for cls in atlas.iota_p:
        region = atlas.regions[cls.region_id]
        anchor = cycles[region.anchor_cycle_id]
        assert Orbit(r, cls.representative).valency(anchor.period) == 1
