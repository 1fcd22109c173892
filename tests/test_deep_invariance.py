"""Adversarial check of the bounded invariance verification.

R(z) = z^2 (z-1)^2 is built so that {0} survives the one-step test: the
fiber over 0 is {0, 1} with both points critical, so no non-critical
preimage forces growth.  But 1 is orbit-related to 0 with matching
valencies (both map to 0 with local degree 2), so {0} is not invariant
and must be rejected by the deeper search, not emitted.
"""

from __future__ import annotations

from ratmap.dynamics import critical_fates, critical_points, periodic_cycles
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.restricted import (
    brute_force_preimage_check,
    exposed_orbits,
    ro_related,
)
from ratmap.sphere import SpherePoint


def the_map():
    # z^2 (z-1)^2 = z^4 - 2 z^3 + z^2
    return RationalMap(Polynomial([1, -2, 1, 0, 0]), Polynomial([1]))


def test_construction_facts():
    r = the_map()
    crit = {str(c.point): c.local_valency for c in critical_points(r)}
    assert crit == {"0": 2, "1": 2, "1/2": 2, "inf": 4}
    # the fiber over 0 is {0, 1}, both critical
    pres = {str(p): m for p, m in r.preimages(SpherePoint.finite(0))}
    assert pres == {"0": 2, "1": 2}
    # so the one-step containment holds vacuously for {0}
    assert brute_force_preimage_check(r, [SpherePoint.finite(0)])


def test_valency_matched_witness_between_criticals():
    r = the_map()
    w = ro_related(r, SpherePoint.finite(0), SpherePoint.finite(1), depth=2)
    assert w is not None
    assert (w.n, w.m, w.valency) == (1, 1, 2)


def test_deep_verification_rejects_the_fake_orbit():
    r = the_map()
    cycles, _, _ = periodic_cycles(r, 1, work_cap=10)
    scan = exposed_orbits(r, cycles, critical_fates(r, cycles, 500))
    emitted = [sorted(str(p) for p in o.points) for o in scan.orbits]
    assert ["0"] not in emitted
    # infinity stays exposed: a polynomial's point at infinity always is
    assert ["inf"] in emitted
    # and it was not merely left undecided: the rejection is a verdict
    assert all(
        sorted(str(p) for p in u.points) != ["0"] for u in scan.undecided
    )
