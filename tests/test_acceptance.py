"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the pass/fail lines.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np
import pytest

from ratmap.algebra import (
    CircleAlg,
    DirectSum,
    Matrix,
    OpaqueSimple,
    Tensor,
    dimension,
    normalize,
    render,
)
from ratmap.dynamics import Orbit, critical_divisor_degree, critical_points
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.render import max_iteration_mask
from ratmap.report import AnalysisConfig, RenderConfig, parse_map, run_analysis
from ratmap.restricted import brute_force_preimage_check, exposed_orbits, ro_related
from ratmap.roots import find_roots
from ratmap.scalars import GaussianRational
from ratmap.sphere import SpherePoint


def _verdict(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


# -- criterion 1: Chebyshev ---------------------------------------------------


def test_criterion_1_chebyshev():
    start = time.monotonic()
    report = run_analysis(parse_map({"numerator": ["1", "0", "-2"], "denominator": ["1"]}))
    elapsed = time.monotonic() - start
    data = report.data
    orbits = data["exposed"]["orbits"]
    julia_orbit = next(o for o in orbits if o["in_julia"])
    ok = (
        sorted(julia_orbit["points"]) == ["-2", "2"]
        and julia_orbit["type"] == 1
        and data["algebra"]["julia"]["quotient_normal_text"] == "C(T) (x) M_2"
        and elapsed < 5.0
    )
    _verdict("1 (Chebyshev z^2-2: exposed {-2,2} type 1, quotient C(T) (x) M_2, "
             f"{elapsed:.2f}s)", ok)


# -- criterion 2: (z-2)^2/z^2 -------------------------------------------------


def test_criterion_2_rees_shape_map():
    report = run_analysis(
        parse_map({"numerator": ["1", "-4", "4"], "denominator": ["1", "0", "0"]})
    )
    data = report.data
    union = sorted(data["exposed"]["union"])
    table = {tuple(sorted(o["points"])): o for o in data["exposed"]["orbits"]}
    crit = sorted(c["point"] for c in data["critical_points"])
    type_ok = (
        table.get(("1", "inf"), {}).get("type") == 1
        and table.get(("0",), {}).get("asymptotic_valency") == 2
    )
    # the implementation types {0} by its fate: 0 -> inf -> 1 lands on a cycle,
    # so type 2, which matches the published label here; the discrepancy note
    # is reserved for type-3 assignments and must be absent
    fate_type = table.get(("0",), {}).get("type")
    note_needed = fate_type == 3
    note_present = any(n["code"] == "type3-labeling" for n in data["notes"])
    ok = (
        union == ["0", "1", "inf"]
        and crit == ["0", "2"]
        and type_ok
        and data["atlas"]["regions"] == []
        and data["algebra"]["julia"]["quotient_normal_text"]
        == "C(T) (+) C(T) (+) (C(T) (x) M_2)"
        and note_present == note_needed
    )
    _verdict("2 ((z-2)^2/z^2: E_R = {0,1,inf}, quotient "
             "C(T) (+) C(T) (+) (C(T) (x) M_2))", ok)


# -- criterion 3: z^2 ---------------------------------------------------------


def test_criterion_3_zsq():
    report = run_analysis(parse_map({"numerator": ["1", "0", "0"], "denominator": ["1"]}))
    data = report.data
    regions = data["atlas"]["regions"]
    kinds = [reg["core_type"]["kind"] for reg in regions]
    exts = data["algebra"]["fatou_regions"]
    ideal_ok = all(
        e["extension"]["text"].startswith("0 -> K (x) MT_2 -> ") for e in exts
    )
    quot_ok = all(e["extension"]["quotient_normal_text"] == "C(K)" for e in exts)
    julia_entry = next(
        e for e in data["primitive_ideals"]["entries"]
        if e["co_support"]["kind"] == "julia"
    )
    julia_attrs = data["algebra"]["julia"]
    julia_ok = (
        julia_entry["simple"]
        and "purely_infinite" in julia_attrs["total"].get("attributes", [])
    )
    exposed_union = sorted(data["exposed"]["union"])
    julia_exposed = [o for o in data["exposed"]["orbits"] if o["in_julia"]]
    ok = (
        kinds == ["superattracting", "superattracting"]
        and exposed_union == ["0", "inf"]
        and julia_exposed == []
        and ideal_ok
        and quot_ok
        and julia_ok
        and data["primitive_ideals"]["t0_verdict"] == "not_T0"
    )
    _verdict("3 (z^2: two superattracting regions, K (x) MT_2 ideals, C(K) "
             "quotients, simple purely infinite Julia entry, not T0)", ok)


# -- random map corpus --------------------------------------------------------


def _random_exact_map(rng: random.Random) -> RationalMap:
    while True:
        d = rng.randint(2, 6)
        def coeffs(n):
            return [
                GaussianRational(rng.randint(-4, 4), rng.randint(-2, 2))
                for _ in range(n)
            ]
        deg_q = rng.choice([0, rng.randint(0, d)])
        p = Polynomial(coeffs(d + 1))
        q = Polynomial(coeffs(deg_q + 1))
        if p.degree != d or q.degree != deg_q or q.is_zero:
            continue
        try:
            r = RationalMap(p, q)
        except Exception:
            continue
        if r.degree == d:
            return r


CORPUS_SIZE = 200


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20240811)
    return [_random_exact_map(rng) for _ in range(CORPUS_SIZE)]


def test_criterion_4_invariant_suite(corpus):
    rng = random.Random(99)
    violations = []
    for idx, r in enumerate(corpus):
        d = r.degree
        crit = critical_points(r)
        if critical_divisor_degree(crit) != 2 * d - 2:
            violations.append((idx, "critical divisor", critical_divisor_degree(crit)))
        for _ in range(10):
            y = SpherePoint.finite(
                GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5))
            )
            pres = r.preimages(y)
            if sum(m for _, m in pres) != d:
                violations.append((idx, "preimage multiplicity sum", str(y)))
            if sum(r.valency_at(x) for x, _ in pres) != d:
                violations.append((idx, "preimage valency sum", str(y)))
        # fixed points with multiplicity: d + 1 on the sphere
        fixed = r.p - Polynomial((1, 0)) * r.q
        inf_mult = (d + 1) - fixed.degree
        count = inf_mult
        if fixed.degree >= 1:
            roots = find_roots(fixed)
            count += sum(m for _, m, _ in roots)
            for root, _, _ in roots:
                pt = SpherePoint.finite(root)
                if r.evaluate(pt).chordal(pt) > 1e-6:
                    violations.append((idx, "fixed point verification", str(root)))
        elif fixed.degree == 0:
            pass
        else:  # identically zero: every point fixed, impossible for degree >= 2
            violations.append((idx, "fixed polynomial vanished", ""))
        if count != d + 1:
            violations.append((idx, "fixed point count", count))
    _verdict(f"4 (invariant suite over {len(corpus)} random maps, "
             f"{len(violations)} violations)", not violations)


def test_criterion_5_exposed_bound_suite(corpus):
    violations = []
    for idx, r in enumerate(corpus):
        from ratmap.dynamics import periodic_cycles

        max_period = 2 if r.degree <= 3 else 1
        cycles, _, _ = periodic_cycles(r, max_period)
        try:
            scan = exposed_orbits(r, cycles, max_seed_period=max_period,
                                  budget=2000)
        except Exception as err:
            violations.append((idx, "scan error", repr(err)))
            continue
        total = 0
        for o in scan.orbits:
            total += o.size
            if o.size > 4:
                violations.append((idx, "size bound", o.size))
            if o.contains_critical and o.size > 3:
                violations.append((idx, "critical size bound", o.size))
            if r.is_polynomial:
                finite = [p for p in o.points if not p.is_infinity]
                finite_crit = o.contains_critical and any(
                    not p.is_infinity for p in o.points
                )
                if len(finite) > 2:
                    violations.append((idx, "polynomial plane bound", len(finite)))
            if not brute_force_preimage_check(r, o.points):
                violations.append((idx, "four-point containment recheck",
                                   [str(p) for p in o.points]))
        if total > 4:
            violations.append((idx, "total exposed bound", total))
    _verdict(f"5 (exposed-set bounds over {len(corpus)} maps, "
             f"{len(violations)} violations)", not violations)


# -- criterion 6: normalizer --------------------------------------------------


def test_criterion_6_normalizer():
    from .test_algebra import random_expr, shuffle_expr

    rng = random.Random(2718)
    failures = 0
    dim_checked = 0
    for _ in range(1000):
        e = random_expr(rng)
        n1 = normalize(e)
        if normalize(n1) != n1:
            failures += 1
        if normalize(shuffle_expr(e, rng)) != n1:
            failures += 1
        d = dimension(e)
        if d is not None:
            dim_checked += 1
            if dimension(n1) != d:
                failures += 1
    elision_ok = (
        normalize(Tensor([Matrix(1), CircleAlg()])) == CircleAlg()
        and normalize(Tensor([Matrix(2), Matrix(3)])) == Matrix(6)
        and dimension(normalize(Tensor([Matrix(2), Matrix(3)]))) == 36
    )
    _verdict(f"6 (normalizer: 1000 trees, {failures} failures, "
             f"{dim_checked} dimension checks)", failures == 0 and elision_ok and dim_checked > 100)


# -- criterion 7: forward-image witnesses ------------------------------------


def test_criterion_7_simpleobs(corpus):
    rng = random.Random(1234)
    checked = 0
    failures = []
    i = 0
    while checked < 100:
        r = corpus[i % len(corpus)]
        i += 1
        x = SpherePoint.finite(GaussianRational(rng.randint(-6, 6), rng.randint(-3, 3)))
        n = rng.randint(1, 3)
        walk = Orbit(r, x)
        try:
            if walk.valency(n) != 1:
                continue
        except Exception:
            continue
        xn = walk.point(n)
        w = ro_related(r, xn, x, depth=n)
        if w is None:
            failures.append((str(x), n))
        checked += 1
    _verdict(f"7 (forward-image witness property, {checked} samples, "
             f"{len(failures)} failures)", not failures)


# -- criterion 8: rendering ---------------------------------------------------


def test_criterion_8_render():
    start = time.monotonic()
    # iteration budgets matched to the pixel scale: larger budgets capture
    # every off-set pixel and leave the measure-zero locus empty
    r1 = RationalMap(Polynomial([1, 0, -2]), Polynomial([1]))
    cfg1 = RenderConfig(width=800, height=800, window=(-2.2, 2.2, -2.2, 2.2), max_iter=10)
    mask1 = max_iteration_mask(r1, cfg1)
    ys, xs = np.nonzero(mask1)
    cx = -2.2 + 4.4 * (xs + 0.5) / 800
    cy = 2.2 - 4.4 * (ys + 0.5) / 800
    # chordal distance to the segment [-2, 2]
    t = np.clip(cx, -2.0, 2.0)
    dz = np.abs((cx - t) + 1j * cy)
    norm1 = np.sqrt(cx**2 + cy**2 + 1.0)
    norm2 = np.sqrt(t**2 + 1.0)
    chordal = 2.0 * dz / (norm1 * norm2)
    seg_ok = len(xs) > 0 and (chordal < 0.05).mean() >= 0.9

    r2 = RationalMap(Polynomial([1, 0, 0]), Polynomial([1]))
    cfg2 = RenderConfig(width=800, height=800, window=(-1.5, 1.5, -1.5, 1.5), max_iter=12)
    mask2 = max_iteration_mask(r2, cfg2)
    ys2, xs2 = np.nonzero(mask2)
    cx2 = -1.5 + 3.0 * (xs2 + 0.5) / 800
    cy2 = 1.5 - 3.0 * (ys2 + 0.5) / 800
    z = cx2 + 1j * cy2
    # chordal distance to the unit circle at the nearest point
    zn = np.where(np.abs(z) == 0, 1.0, z / np.where(np.abs(z) == 0, 1.0, np.abs(z)))
    dz2 = np.abs(z - zn)
    chordal2 = 2.0 * dz2 / (np.sqrt(np.abs(z) ** 2 + 1) * np.sqrt(2.0))
    circle_ok = len(xs2) > 0 and (chordal2 < 0.05).mean() >= 0.9

    elapsed = time.monotonic() - start
    ok = seg_ok and circle_ok and elapsed < 10.0
    _verdict(f"8 (render: segment {seg_ok}, circle {circle_ok}, {elapsed:.2f}s)", ok)
