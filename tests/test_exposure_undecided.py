from __future__ import annotations

from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.dynamics import critical_fates, periodic_cycles
from ratmap.restricted import exposed_orbits


def rees_family(lam):
    # lam (1 - 2/z)^2 = lam (z-2)^2 / z^2
    return RationalMap(
        Polynomial([lam, -4 * lam, 4 * lam]), Polynomial([1.0, 0.0, 0.0])
    )


def test_candidate_with_unresolved_fate_is_reported_not_emitted():
    # {0} passes the preimage containment (its only preimage, 2, is critical)
    # but with a starved iteration budget the fate of 0 stays unresolved:
    # the candidate must surface as undecided, never as a verified orbit
    r = rees_family(complex(4, 3))
    cycles, _, _ = periodic_cycles(r, 1)
    scan = exposed_orbits(r, cycles, critical_fates(r, cycles, 3))
    assert [[str(p) for p in u.points] for u in scan.undecided] == [["0.0"]]
    assert all(
        [str(p) for p in o.points] != ["0.0"] for o in scan.orbits
    )
    assert any("unresolved" in u.reason for u in scan.undecided)


def test_same_candidate_resolves_with_budget_and_gets_typed():
    r = rees_family(complex(4, 3))
    cycles, _, _ = periodic_cycles(r, 1)
    scan = exposed_orbits(r, cycles, critical_fates(r, cycles, 3000))
    table = {tuple(str(p) for p in o.points): o for o in scan.orbits}
    orbit = table[("0.0",)]
    # the critical orbit converges without landing: type 3, and the
    # documented labeling note must accompany every type-3 assignment
    assert orbit.orbit_type == 3
    assert orbit.asymptotic_valency == 2
    assert orbit.in_julia is False
    assert any(n["code"] == "type3-labeling" for n in scan.notes)
