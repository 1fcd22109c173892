from __future__ import annotations

import math
from fractions import Fraction

import pytest

from ratmap.atlas import bind_declarations, build_atlas
from ratmap.dynamics import (
    DEFAULT_ORBIT_BUDGET,
    critical_fate,
    critical_points,
    periodic_cycles,
)
from ratmap.errors import DeclarationError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import read_declaration
from ratmap.scalars import GaussianRational


def run(r, max_period=2, declarations=()):
    crit = critical_points(r)
    cycles, _, _ = periodic_cycles(r, max_period)
    fates = {c.point: critical_fate(r, c.point, cycles, crit, DEFAULT_ORBIT_BUDGET) for c in crit}
    declared = bind_declarations(r, [read_declaration(d) for d in declarations], cycles)
    return crit, cycles, fates, build_atlas(r, cycles, fates, declared)


def test_zsq_two_superattracting_regions():
    r = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    _, _, _, atlas = run(r)
    kinds = [reg.core.kind for reg in atlas.regions]
    assert kinds == ["superattracting", "superattracting"]
    assert all(reg.core.local_degree == 2 for reg in atlas.regions)
    assert atlas.iota_p == []
    assert len(atlas.iota_c) == 2
    assert atlas.julia_is_sphere is False
    # both records sit on their critical cycles
    for reg in atlas.regions:
        assert len(reg.critical_records) == 1
        assert reg.critical_records[0].preperiodic


def test_attracting_region_with_critical_record():
    r = RationalMap(
        Polynomial([1, 0, GaussianRational(Fraction(-1, 2))]), Polynomial([1])
    )
    _, cycles, _, atlas = run(r)
    att = [reg for reg in atlas.regions if reg.core.kind == "attracting"]
    assert len(att) == 1
    reg = att[0]
    assert len(reg.critical_records) == 1
    rec = reg.critical_records[0]
    assert str(rec.point) == "0"
    assert not rec.preperiodic
    assert rec.asymptotic_valency == 2
    assert len(atlas.iota_p) == 1
    assert atlas.iota_p[0].kind == "periodic"
    # the multiplier is 2 z* at the fixed point
    anchor = cycles[reg.anchor_cycle_id]
    z = complex(anchor.points[0].z)
    assert complex(reg.core.multiplier) == pytest.approx(2 * z)


def test_julia_whole_sphere_flag():
    r = RationalMap(Polynomial([1, -4, 4]), Polynomial([1, 0, 0]))
    _, _, _, atlas = run(r, max_period=3)
    assert atlas.regions == []
    assert atlas.julia_is_sphere is True


def test_declared_siegel_region():
    theta = (math.sqrt(5) - 1) / 2
    lam = complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))
    r = RationalMap(Polynomial([complex(1.0), lam, complex(0.0)]), Polynomial([1.0]))
    dec = [{"kind": "siegel", "anchor": "0.0", "theta": theta}]
    _, _, _, atlas = run(r, max_period=1, declarations=dec)
    kinds = sorted(reg.core.kind for reg in atlas.regions)
    assert kinds == ["siegel", "superattracting"]
    siegel = next(reg for reg in atlas.regions if reg.core.kind == "siegel")
    assert siegel.core.theta == pytest.approx(theta)
    assert siegel.has_noncritical_periodic
    # the free critical point cannot be resolved and must be reported, not block
    assert any(w["code"] == "critical-fate-unresolved" for w in atlas.warnings)


def test_undeclared_irrational_warns_and_omits():
    theta = (math.sqrt(5) - 1) / 2
    lam = complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))
    r = RationalMap(Polynomial([complex(1.0), lam, complex(0.0)]), Polynomial([1.0]))
    _, _, _, atlas = run(r, max_period=1)
    kinds = [reg.core.kind for reg in atlas.regions]
    assert kinds == ["superattracting"]
    assert any(w["code"] == "siegel-cremer-undeclared" for w in atlas.warnings)
    assert atlas.julia_is_sphere is None or atlas.julia_is_sphere is False


def test_herman_rejected_for_degree_two():
    r = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    with pytest.raises(DeclarationError):
        run(r, declarations=[{"kind": "herman", "theta": 0.3, "period": 1}])


def test_siegel_rejected_on_non_indifferent_anchor():
    # declaring a Siegel disk at a repelling fixed point is a user error
    r = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    with pytest.raises(DeclarationError):
        run(r, declarations=[
            {"kind": "siegel", "anchor": "1", "theta": 0.3}
        ])


def test_siegel_theta_drift_warned():
    theta = (math.sqrt(5) - 1) / 2
    lam = complex(math.cos(2 * math.pi * theta), math.sin(2 * math.pi * theta))
    r = RationalMap(Polynomial([complex(1.0), lam, complex(0.0)]), Polynomial([1.0]))
    # declare a wrong rotation number: honored, but flagged
    dec = [{"kind": "siegel", "anchor": "0.0", "theta": 0.25}]
    _, _, _, atlas = run(r, max_period=1, declarations=dec)
    assert any(w["code"] == "declaration-theta-drift" for w in atlas.warnings)
    siegel = next(reg for reg in atlas.regions if reg.core.kind == "siegel")
    assert siegel.core.theta == pytest.approx(0.25)


def test_parabolic_region():
    # z^2 + 1/4 has a rationally indifferent fixed point at 1/2
    r = RationalMap(
        Polynomial([1, 0, GaussianRational(Fraction(1, 4))]), Polynomial([1])
    )
    _, cycles, fates, atlas = run(r)
    kinds = sorted(reg.core.kind for reg in atlas.regions)
    assert kinds == ["parabolic", "superattracting"]
    par = next(reg for reg in atlas.regions if reg.core.kind == "parabolic")
    # the critical point 0 converges into the parabolic petal, slowly
    assert len(par.critical_records) == 1
    rec = par.critical_records[0]
    assert str(rec.point) == "0"
    assert not rec.preperiodic
    assert rec.asymptotic_valency == 2
    # the parabolic cycle itself is not Fatou bookkeeping
    assert atlas.iota_p == []


def test_region_count_bound():
    for coeffs in ([1, 0, 0], [1, 0, -2], [1, -4, 4]):
        q = [1] if len(coeffs) == 3 and coeffs[-1] != 4 else [1, 0, 0]
        if coeffs == [1, -4, 4]:
            r = RationalMap(Polynomial(coeffs), Polynomial([1, 0, 0]))
        else:
            r = RationalMap(Polynomial(coeffs), Polynomial([1]))
        _, _, _, atlas = run(r)
        assert len(atlas.regions) <= 2 * r.degree - 2
