"""Region shapes beyond the acceptance maps: pole-heavy cycles, Herman
declarations, parabolic quotient pictures."""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from ratmap.algebra import render
from ratmap.atlas import build_atlas
from ratmap.dynamics import DEFAULT_ORBIT_BUDGET, critical_fate, critical_points, periodic_cycles
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import AnalysisConfig, parse_map
from ratmap.restricted import exposed_orbits
from ratmap.scalars import GaussianRational, scalar_str
from ratmap.synth import ExposureResolver, case_iv_diagram, full_decomposition


def test_inverse_square_superattracting_two_cycle(analyzed):
    # R = 1/z^2: the critical points 0 and inf swap, forming a
    # superattracting 2-cycle of local degree 4
    d = analyzed(
        parse_map({"numerator": ["1"], "denominator": ["1", "0", "0"]}),
        AnalysisConfig(max_period=2),
    ).data
    two = next(c for c in d["cycles"] if c["period"] == 2)
    assert two["classification"] == "superattracting"
    assert two["local_degree"] == 4
    assert sorted(two["points"]) == ["0", "inf"]
    regions = d["atlas"]["regions"]
    assert len(regions) == 1
    ext = d["algebra"]["fatou_regions"][0]["extension"]
    assert ext["text"].startswith("0 -> K (x) MT_4 -> ")
    # two distinct orbit classes on the cycle (their valency ladders differ),
    # hence two Cantor summands
    assert ext["quotient_normal_text"] == "C(K) (+) C(K)"
    # both cycle points are exceptional: exposed, in the Fatou set
    assert sorted(d["exposed"]["union"]) == ["0", "inf"]
    assert all(not o["in_julia"] for o in d["exposed"]["orbits"])


def test_herman_declaration_on_cubic(analyzed):
    cfg = AnalysisConfig(
        max_period=1,
        declarations=[{"kind": "herman", "theta": 0.30102999566398114, "period": 1}],
    )
    d = analyzed(
        parse_map({"numerator": ["1", "0", "0", "0"], "denominator": ["1"]}), cfg
    ).data
    kinds = [reg["core_type"]["kind"] for reg in d["atlas"]["regions"]]
    assert kinds == ["superattracting", "superattracting", "herman"]
    herman_ext = d["algebra"]["fatou_regions"][2]["extension"]
    assert herman_ext["text"].startswith("0 -> K (x) C_0(R) (x) A_theta -> ")
    # no critical record could attach to the declared ring within budget
    assert herman_ext["quotient_normal_text"] == "0"
    assert any(w["code"] == "region-missing-critical-record" for w in d["warnings"])
    # the case-iv quotient picture swaps compacts for the stabilized
    # rotation algebra
    case_iv = [
        e for e in d["primitive_ideals"]["entries"]
        if e["co_support"]["kind"] == "closure_of_free_orbit"
    ]
    herman_diag = next(
        e["quotient"]["diagram"] for e in case_iv
        if e["quotient"]["diagram"]["region_kind"] == "herman"
    )
    top_atoms = [f["atom"] for f in herman_diag["top"]["factors"]]
    assert sorted(top_atoms) == ["compacts", "irrational_rotation"]


# z^3 - 2c z^2 + lam z with lam = (1 + 1e-8) e^{2 pi i theta} and c = sqrt(lam):
# |lam| sits inside the indifferent band, so the fixed point 0 is
# indifferent_ambiguous, and {0} is an exposed orbit of type 1
AMBIGUOUS_THETA = 0.6180339887498949


def _ambiguous_siegel_report(analyzed, declarations):
    lam = (1 + 1e-8) * cmath.exp(2j * math.pi * AMBIGUOUS_THETA)
    doc = {"numerator": ["1.0", scalar_str(-2 * cmath.sqrt(lam)), scalar_str(lam), "0.0"],
           "denominator": ["1.0"]}
    return analyzed(parse_map(doc), AnalysisConfig(max_period=1, declarations=declarations))


def test_a_declared_ambiguous_anchor_is_fatou_for_the_atlas_and_the_exposed_scan(analyzed):
    d = _ambiguous_siegel_report(analyzed, [{"kind": "siegel", "anchor": "0", "theta": AMBIGUOUS_THETA}]).data
    siegel = next(reg for reg in d["atlas"]["regions"] if reg["core_type"]["kind"] == "siegel")
    anchor = d["cycles"][siegel["anchor_cycle"]]
    assert anchor["points"] == ["0.0"] and anchor["classification"] == "indifferent_ambiguous"
    zero = next(o for o in d["exposed"]["orbits"] if o["points"] == ["0.0"])
    assert zero["in_julia"] is False
    assert all(w["code"] != "julia-membership-undetermined" for w in d["warnings"])
    assert "text" in d["algebra"]["julia"]


def test_an_undeclared_ambiguous_fixed_point_blocks_the_julia_quotient(analyzed):
    report = _ambiguous_siegel_report(analyzed, [])
    d = report.data
    zero = next(o for o in d["exposed"]["orbits"] if o["points"] == ["0.0"])
    assert zero["in_julia"] is None
    message = "exposed orbit with undetermined Julia membership blocks the Julia quotient"
    record = {"code": "julia-membership-undetermined", "message": message, "orbits": [["0.0"]]}
    assert [w for w in d["warnings"] if w["code"] == record["code"]] == [record]
    assert d["algebra"]["julia"] == {"obstruction": record}
    assert f"  julia: blocked ({message})" in report.to_text().splitlines()
    # the catalog reads the blocked quotient as not known to be simple
    julia = d["primitive_ideals"]["entries"][0]
    assert julia["co_support"] == {"kind": "julia"} and julia["simple"] is False
    assert "C*_r(J_R)" not in d["primitive_ideals"]["simple_quotients"]


def test_parabolic_case_iv_diagram():
    r = RationalMap(
        Polynomial([1, 0, GaussianRational(Fraction(1, 4))]), Polynomial([1])
    )
    crit = critical_points(r)
    cycles, _, _ = periodic_cycles(r, 2)
    fates = {c.point: critical_fate(r, c.point, cycles, crit, DEFAULT_ORBIT_BUDGET) for c in crit}
    scan = exposed_orbits(r, cycles, fates)
    atlas = build_atlas(r, cycles, fates)
    res = ExposureResolver(scan.orbits, r.tolerance)
    dec = full_decomposition(atlas, [o for o in scan.orbits if o.in_julia], res, cycles)
    par = next(reg for reg in atlas.regions if reg.core.kind == "parabolic")
    ext = next(
        rs.extension for rs in dec.fatou_regions if rs.region_id == par.region_id
    )
    assert render(ext.ideal) == "K (x) C(T) (x) C_0(R)"
    diag = case_iv_diagram(par, res, cycles, dec.square.corners["julia"])
    assert render(diag.top) == "K"
    labels = [row.label for row in diag.rows]
    assert labels == ["fatou column", "main row", "bookkeeping row"]
    assert render(diag.rows[0].quotient) == "C^2 (x) K_[0]"


def test_bd_k_theory_in_report(analyzed):
    d = analyzed(
        parse_map({"numerator": ["1", "0", "0"], "denominator": ["1"]})
    ).data
    case_iv = next(
        e for e in d["primitive_ideals"]["entries"]
        if e["co_support"]["kind"] == "closure_of_free_orbit"
    )
    top = case_iv["quotient"]["diagram"]["top"]
    bd = next(f for f in top["factors"] if f["atom"] == "bunce_deddens")
    assert bd["k_theory"] == {"K0": "Z[1/2] (ordered, unit 1)", "K1": "Z"}
