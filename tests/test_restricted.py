from __future__ import annotations

import random
from fractions import Fraction

import pytest

import ratmap.dynamics
from ratmap.dynamics import INFINITE, critical_points, periodic_cycles
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.restricted import (
    _verify_critical_invariance,
    brute_force_preimage_check,
    exposed_orbits,
    julia_exposed_partition,
    ro_related,
)
from ratmap.scalars import GaussianRational
from ratmap.sphere import INFINITY, SpherePoint


def cheb():
    return RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))


def rees_shape():
    return RationalMap(Polynomial([1, -4, 4]), Polynomial([1, 0, 0]))


def zsq():
    return RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))


def test_ro_reflexive():
    r = cheb()
    w = ro_related(r, SpherePoint.finite(5), SpherePoint.finite(5), depth=3)
    assert w is not None and (w.n, w.m, w.valency) == (0, 0, 1)


def test_ro_chebyshev_pair():
    r = cheb()
    w = ro_related(r, SpherePoint.finite(-2), SpherePoint.finite(2), depth=3)
    assert w is not None and (w.n, w.m, w.valency) == (1, 0, 1)


def test_ro_square_pair():
    # both 1 and -1 map regularly to 1; the first witness in (n+m, n) order
    # is (0, 1) since R^0(1) = R^1(-1) already matches with valency 1
    r = zsq()
    w = ro_related(r, SpherePoint.finite(1), SpherePoint.finite(-1), depth=3)
    assert w is not None and (w.n, w.m, w.valency) == (0, 1, 1)


def test_ro_symmetry_via_swap():
    r = cheb()
    a, b = SpherePoint.finite(-2), SpherePoint.finite(2)
    w1 = ro_related(r, a, b, depth=4)
    w2 = ro_related(r, b, a, depth=4)
    assert w1 is not None and w2 is not None
    assert (w1.n, w1.m) == (w2.m, w2.n)


def test_ro_simpleobs_property():
    # whenever val(R^n, x) = 1, the n-th image is RO-related to x
    rng = random.Random(5)
    r = cheb()
    checked = 0
    for _ in range(40):
        x = SpherePoint.finite(GaussianRational(
            Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
            Fraction(rng.randint(-4, 4), rng.randint(1, 4)),
        ))
        n = rng.randint(1, 3)
        if r.valency(n, x) != 1:
            continue
        xn = r.iterate(x, n)
        w = ro_related(r, xn, x, depth=n)
        assert w is not None
        checked += 1
    assert checked > 10


def test_exposed_chebyshev():
    r = cheb()
    cycles, _, _ = periodic_cycles(r, 4)
    scan = exposed_orbits(r, cycles)
    by_size = sorted(
        (sorted(str(p) for p in o.points), o.orbit_type, o.in_julia) for o in scan.orbits
    )
    assert by_size == [
        (["-2", "2"], 1, True),
        (["inf"], 2, False),
    ]
    assert sorted(str(p) for p in scan.union) == ["-2", "2", "inf"]
    for o in scan.orbits:
        assert brute_force_preimage_check(r, o.points)


def test_exposed_rees_shape():
    r = rees_shape()
    cycles, _, _ = periodic_cycles(r, 4)
    scan = exposed_orbits(r, cycles)
    table = {tuple(sorted(str(p) for p in o.points)): o for o in scan.orbits}
    assert set(table) == {("1", "inf"), ("0",)}
    assert table[("1", "inf")].orbit_type == 1
    assert table[("1", "inf")].in_julia is True
    o0 = table[("0",)]
    assert o0.orbit_type == 2
    assert o0.in_julia is True
    assert o0.asymptotic_valency == 2
    assert sorted(str(p) for p in scan.union) == ["0", "1", "inf"]


def test_exposed_zsq():
    r = zsq()
    cycles, _, _ = periodic_cycles(r, 4)
    scan = exposed_orbits(r, cycles)
    table = {tuple(sorted(str(p) for p in o.points)): o for o in scan.orbits}
    assert set(table) == {("0",), ("inf",)}
    for o in scan.orbits:
        assert o.orbit_type == 2
        assert o.in_julia is False
        assert o.asymptotic_valency == INFINITE
    in_j, in_f = julia_exposed_partition(scan.orbits)
    assert in_j == []
    assert len(in_f) == 2


def test_partition_examples():
    r = cheb()
    cycles, _, _ = periodic_cycles(r, 4)
    scan = exposed_orbits(r, cycles)
    in_j, in_f = julia_exposed_partition(scan.orbits)
    assert [sorted(str(p) for p in o.points) for o in in_j] == [["-2", "2"]]
    assert [sorted(str(p) for p in o.points) for o in in_f] == [["inf"]]


def test_exposed_bounds_never_violated():
    for r in (cheb(), rees_shape(), zsq()):
        cycles, _, _ = periodic_cycles(r, 3)
        scan = exposed_orbits(r, cycles)
        total = 0
        for o in scan.orbits:
            assert o.size <= 4
            if o.contains_critical:
                assert o.size <= 3
            if r.is_polynomial:
                finite = [p for p in o.points if not p.is_infinity]
                assert len(finite) <= 2
            total += o.size
        assert total <= 4


def test_partition_blocks_on_undetermined_membership():
    from ratmap.errors import JuliaMembershipUndeterminedError
    from ratmap.restricted import ExposedOrbit

    orbit = ExposedOrbit(
        points=(SpherePoint.finite(0),),
        orbit_type=2,
        contains_critical=True,
        in_julia=None,
        asymptotic_valency=2,
    )
    with pytest.raises(JuliaMembershipUndeterminedError):
        julia_exposed_partition([orbit])


def test_no_exposed_set_for_generic_quadratic():
    # z^2 + 1/4 (parabolic); nothing in the plane is exposed, infinity is
    r = RationalMap(Polynomial([1, 0, GaussianRational(Fraction(1, 4))]), Polynomial([1]))
    cycles, _, _ = periodic_cycles(r, 2)
    scan = exposed_orbits(r, cycles)
    assert [sorted(str(p) for p in o.points) for o in scan.orbits] == [["inf"]]


def test_invariance_check_steps_each_member_depth_times(monkeypatch):
    # targets R^m(a) for m = 0..depth need depth forward steps, not depth + 1
    steps = []
    original = ratmap.dynamics._step_with_height_guard

    def counted(r, t):
        steps.append(t)
        return original(r, t)

    monkeypatch.setattr(ratmap.dynamics, "_step_with_height_guard", counted)
    r = cheb()
    _verify_critical_invariance(r, [SpherePoint.finite(0)], 3, r.tolerance)
    assert len(steps) == 3
