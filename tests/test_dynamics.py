from __future__ import annotations

import pytest

from ratmap.dynamics import (
    INFINITE,
    Orbit,
    PeriodicCycle,
    _reverify_landing,
    asymptotic_valency,
    critical_divisor_degree,
    critical_points,
    orbit_fate,
    periodic_cycles,
)
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.scalars import GaussianRational
from ratmap.sphere import INFINITY, SpherePoint, coincide

from .test_sphere import SCREEN_CASES


def cheb():
    return RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))


def rees_shape():
    return RationalMap(Polynomial([1, -4, 4]), Polynomial([1, 0, 0]))


def zsq():
    return RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))


def test_critical_points_examples():
    crit = critical_points(cheb())
    got = {(str(c.point), c.local_valency) for c in crit}
    assert got == {("0", 2), ("inf", 2)}

    crit2 = critical_points(rees_shape())
    got2 = {(str(c.point), c.local_valency) for c in crit2}
    assert got2 == {("0", 2), ("2", 2)}

    r3 = RationalMap(Polynomial([1, 0, 0, 0]), Polynomial([1]))  # z^3
    crit3 = critical_points(r3)
    got3 = {(str(c.point), c.local_valency) for c in crit3}
    assert got3 == {("0", 3), ("inf", 3)}
    assert critical_divisor_degree(crit3) == 4


def test_critical_divisor_identity():
    for r in (cheb(), rees_shape(), zsq()):
        assert critical_divisor_degree(critical_points(r)) == 2 * r.degree - 2


def test_cycles_zsq():
    cycles, _, _ = periodic_cycles(zsq(), 1)
    table = {str(c.points[0]): c for c in cycles}
    assert table["0"].classification == "superattracting"
    assert table["inf"].classification == "superattracting"
    assert table["1"].classification == "repelling"
    assert table["1"].multiplier == GaussianRational(2)


def test_cycles_chebyshev():
    cycles, _, _ = periodic_cycles(cheb(), 1)
    table = {str(c.points[0]): c for c in cycles}
    assert table["2"].multiplier == GaussianRational(4)
    assert table["2"].classification == "repelling"
    assert table["-1"].multiplier == GaussianRational(-2)
    assert table["inf"].classification == "superattracting"


def test_cycles_exact_period_two():
    # z^2 - 1 has the superattracting 2-cycle {0, -1}
    r = RationalMap(Polynomial([1, 0, -1]), Polynomial([1]))
    cycles, _, _ = periodic_cycles(r, 2)
    two = [c for c in cycles if c.period == 2]
    assert len(two) == 1
    assert two[0].classification == "superattracting"
    pts = {str(p) for p in two[0].points}
    assert pts == {"0", "-1"}


def test_fixed_point_count_with_multiplicity():
    # the sphere carries d + 1 fixed points with multiplicity; for z^2 the
    # solutions of the homogeneous fixed-point form are 0, 1, inf
    cycles, _, _ = periodic_cycles(zsq(), 1)
    assert sum(c.period for c in cycles) == 3


def test_orbit_fate_examples():
    r = cheb()
    cycles, _, _ = periodic_cycles(r, 1)
    f = orbit_fate(r, SpherePoint.finite(-2), cycles)
    assert f.kind == "preperiodic" and f.step == 1
    landing = cycles[f.cycle_id]
    assert str(landing.points[0]) == "2"

    r2 = rees_shape()
    cycles2, _, _ = periodic_cycles(r2, 1)
    f2 = orbit_fate(r2, SpherePoint.finite(0), cycles2)
    assert f2.kind == "preperiodic" and f2.step == 2
    assert str(cycles2[f2.cycle_id].points[0]) == "1"

    rf = RationalMap(Polynomial([1, 0, -0.5]), Polynomial([1.0]))
    cyclesf, _, _ = periodic_cycles(rf, 1)
    ff = orbit_fate(rf, SpherePoint.finite(0.0), cyclesf)
    assert ff.kind == "converges"
    target = cyclesf[ff.cycle_id]
    assert complex(target.points[0].z).real == pytest.approx(-0.36602540378)


def test_orbit_fate_identity_case():
    r = zsq()
    cycles, _, _ = periodic_cycles(r, 1)
    one = next(c for c in cycles if str(c.points[0]) == "1")
    f = orbit_fate(r, SpherePoint.finite(1), cycles)
    assert f.kind == "preperiodic" and f.step == 0 and f.cycle_id == one.cycle_id


def _scalar_landing(r, x, cycles):
    """(cycle_id, step) of the first landing on the 64-step prefix, compared
    pair by pair as orbit_fate did before it screened the cycle points."""
    tol = r.tolerance
    walk = Orbit(r, x)
    for n in range(65):
        pt = walk.point(n)
        for cyc in cycles:
            for cpt in cyc.points:
                if n == 0 and coincide(pt, cpt, tol):
                    return cyc.cycle_id, 0
                if pt.is_exact and cpt.is_exact:
                    if pt == cpt:
                        return cyc.cycle_id, n
                    continue
                if cyc.contains_critical:
                    continue
                if pt.chordal(cpt) <= tol * 1e-3 and _reverify_landing(r, x, cyc, n, tol):
                    return cyc.cycle_id, n
    return None


@pytest.mark.parametrize("swap", [False, True])
@pytest.mark.parametrize("name, p, q, same", SCREEN_CASES, ids=[c[0] for c in SCREEN_CASES])
def test_orbit_fate_screen_matches_the_scalar_rule(name, p, q, same, swap):
    x, cpt = (q, p) if swap else (p, q)
    r = zsq()
    far = SpherePoint.finite(GaussianRational(-7, 5))
    # two fake repelling cycles: the landing one comes second in the scan
    cycles = [PeriodicCycle(1, (far,), GaussianRational(2), "repelling", False, cycle_id=0),
              PeriodicCycle(2, (far, cpt), GaussianRational(2), "repelling", False, cycle_id=1)]
    fate = orbit_fate(r, x, cycles)
    landing = _scalar_landing(r, x, cycles)
    if same:
        assert landing == (1, 0)
    if landing is None:
        assert fate.kind != "preperiodic"
    else:
        assert fate.kind == "preperiodic" and (fate.cycle_id, fate.step) == landing


def test_orbit_fate_walks_the_whole_prefix_without_cycles():
    fate = orbit_fate(cheb(), SpherePoint.finite(0.5 + 0j), [])
    assert fate.kind == "unresolved" and fate.steps_used == 64


def test_asymptotic_valency_examples():
    r2 = rees_shape()
    cycles2, _, _ = periodic_cycles(r2, 1)
    crit2 = critical_points(r2)
    f0 = orbit_fate(r2, SpherePoint.finite(0), cycles2)
    assert asymptotic_valency(r2, f0, cycles=cycles2, crit_points=crit2) == 2

    r = zsq()
    cycles, _, _ = periodic_cycles(r, 1)
    crit = critical_points(r)
    f = orbit_fate(r, SpherePoint.finite(0), cycles)
    assert asymptotic_valency(r, f, cycles=cycles, crit_points=crit) == INFINITE

    rc = cheb()
    cyclesc, _, _ = periodic_cycles(rc, 1)
    critc = critical_points(rc)
    f3 = orbit_fate(rc, SpherePoint.finite(3), cyclesc)
    assert asymptotic_valency(rc, f3, cycles=cyclesc, crit_points=critc) == 1


def test_attracting_multiplier_value():
    # fixed point of z^2 - 1/2 at (1 - sqrt(3))/2 with multiplier 2 z*
    r = RationalMap(Polynomial([1, 0, GaussianRational(-1, 0) / 2]), Polynomial([1]))
    cycles, _, _ = periodic_cycles(r, 1)
    att = [c for c in cycles if c.classification == "attracting"]
    assert len(att) == 1
    z = complex(att[0].points[0].z)
    assert complex(att[0].multiplier) == pytest.approx(2 * z)
