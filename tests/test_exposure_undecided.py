from __future__ import annotations

from ratmap.dynamics import CriticalFate, critical_fates, periodic_cycles
from ratmap.errors import AsymptoticValencyUndeterminedError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.restricted import TYPE3_LABELING_NOTE, exposed_orbits
from ratmap.sphere import SpherePoint


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


def test_same_candidate_resolves_with_budget_and_gets_typed(analyzed):
    r = rees_family(complex(4, 3))
    cycles, _, _ = periodic_cycles(r, 1)
    fates = critical_fates(r, cycles, 3000)
    scan = exposed_orbits(r, cycles, fates)
    table = {tuple(str(p) for p in o.points): o for o in scan.orbits}
    orbit = table[("0.0",)]
    # the critical orbit converges without landing: type 3, and the
    # documented labeling note must accompany every type-3 assignment
    assert orbit.orbit_type == 3
    assert orbit.asymptotic_valency == 2
    assert orbit.in_julia is False
    assert any(n["code"] == "type3-labeling" for n in scan.notes)
    # the text report lists the note
    text = analyzed(r).to_text().splitlines()
    assert text[text.index("notes:") + 1] == f"  [type3-labeling] {TYPE3_LABELING_NOTE}"
    # the same candidate, its critical record carrying an error, is undecided
    zero = SpherePoint.finite(0.0)
    fates[zero] = CriticalFate(fates[zero].fate, None, AsymptoticValencyUndeterminedError("planted"))
    scan = exposed_orbits(r, cycles, fates)
    assert [([str(p) for p in u.points], u.reason) for u in scan.undecided] == [(["0.0"], "planted")]
    assert all([str(p) for p in o.points] != ["0.0"] for o in scan.orbits)
