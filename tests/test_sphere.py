from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ratmap.sphere
from ratmap.scalars import GaussianRational
from ratmap.sphere import (
    DIRECT_MAX_POINTS,
    INFINITY,
    REPRESENTATION_EPS,
    SCREEN_SLACK,
    SpherePoint,
    array_chordal,
    coincide,
    dedup_indices,
    dedup_points,
    near_partners,
    near_rows,
    normalized_pairs,
    parse_point,
    row_keys,
)


def test_canonical_form():
    p = SpherePoint(GaussianRational(6), GaussianRational(2))
    assert p.value() == GaussianRational(3)
    assert p.w == GaussianRational(1)
    q = SpherePoint(GaussianRational(5), GaussianRational(0))
    assert q.is_infinity


def test_scaling_invariance():
    a = SpherePoint(GaussianRational(1), GaussianRational(2))
    b = SpherePoint(GaussianRational(3), GaussianRational(6))
    assert a == b


def test_zero_zero_rejected():
    with pytest.raises(ValueError):
        SpherePoint(0, 0)


def test_chordal_metric():
    zero = SpherePoint.finite(0)
    one = SpherePoint.finite(1)
    inf = INFINITY
    assert zero.chordal(inf) == pytest.approx(2.0)
    assert zero.chordal(zero) == 0.0
    assert zero.chordal(one) == pytest.approx(2.0 / math.sqrt(2.0))
    # symmetric
    assert one.chordal(inf) == pytest.approx(inf.chordal(one))


def test_array_chordal_matches_the_pointwise_metric():
    points = [
        INFINITY,
        SpherePoint.infinity(exact=False),
        SpherePoint.finite(0),
        SpherePoint.finite(GaussianRational(-1, 2)),
        SpherePoint.finite(GaussianRational(10**400)),  # beyond float range
        SpherePoint.finite(0.3 - 2.5j),
        SpherePoint.finite(-1.5e7 + 3j),
        SpherePoint.finite(1e-9j),
        SpherePoint.finite(GaussianRational(3 * 10**200)),  # |z|^2 beyond float range
    ]
    dist = array_chordal(normalized_pairs(points[:5]), normalized_pairs(points))
    assert dist.shape == (5, len(points))
    for i, p in enumerate(points[:5]):
        for j, q in enumerate(points):
            # both sides stay below 2; the order of operations differs
            assert abs(dist[i, j] - p.chordal(q)) <= 8 * 2.0**-52
    assert array_chordal(normalized_pairs([]), normalized_pairs(points)).shape == (0, len(points))


def test_row_keys_differ_by_at_most_the_chordal_distance():
    # dedup_indices compares only the points whose keys are within 2 tol
    points = [
        INFINITY,
        SpherePoint.infinity(exact=False),
        SpherePoint.finite(0),
        SpherePoint.finite(GaussianRational(-1, 2)),
        SpherePoint.finite(GaussianRational(10**400)),
        SpherePoint.finite(GaussianRational(3 * 10**200)),
        SpherePoint.finite(-1.5e7 + 3j),
        SpherePoint.finite(1e-9j),
        SpherePoint.finite(1.0 + 0.9e-9j),
        SpherePoint.finite(1.0),
    ] + [SpherePoint.finite(complex(math.cos(k), math.sin(3 * k)) * 10 ** (k % 7 - 3))
         for k in range(40)]
    keys = row_keys(normalized_pairs(points))
    for i, p in enumerate(points):
        for j, q in enumerate(points):
            assert abs(keys[i] - keys[j]) <= p.chordal(q) + 1e-15
    assert row_keys(normalized_pairs([])).shape == (0,)


def test_chart_values_have_the_keys_of_their_points():
    # roots._cluster screens chart values; past |z| = 1e14 a floating point
    # is infinity, within 1e-14 of the value, and |z| overflows at 1.5e308 (1 + i)
    values = np.array([0, 1e-9j, 1.0, 1.0 + 0.9e-9j, -1.5e7 + 3j, 0.3 - 2.5j, 1e13j,
                       -1e200, 1.5e308 + 1.5e308j]
                      + [complex(math.cos(k), math.sin(3 * k)) * 10 ** (k % 7 - 3)
                         for k in range(20)])
    keys = row_keys(normalized_pairs([SpherePoint.finite(complex(v)) for v in values]))
    with np.errstate(all="ignore"):  # 1/0 at the origin, as near_partners builds the rows
        rows = normalized_pairs(values)
    assert np.all(np.abs(row_keys(rows) - keys) <= 1e-15)


def test_a_floating_pair_past_float_range_keeps_its_ratio():
    big = 1.5e308 + 1.5e308j  # its modulus overflows
    for z, w in ((big, 1), (big, 1e290), (-big, 1j)):
        p = SpherePoint(z, w)
        assert p.is_infinity and not p.is_exact
    assert SpherePoint(big, big).value() == 1.0
    tiny = SpherePoint(1.0, big)
    assert not tiny.is_infinity and tiny.value() != 0 and abs(tiny.value()) < 1e-308


def test_an_exact_component_past_float_range_beside_a_floating_one():
    # the floating point to_float makes of the exact ratio
    huge = GaussianRational(10**400)
    p = SpherePoint(huge, 0.5)
    assert p.is_infinity and not p.is_exact
    assert (p.z, p.w) == (complex(1.0), complex(0.0))
    q = SpherePoint(0.5, huge)
    assert not q.is_infinity and not q.is_exact and q.value() == 0
    assert SpherePoint(1e300, huge).value() == complex(1e-100)
    assert SpherePoint(GaussianRational(2 * 10**308), 1e308).value() == complex(2.0)
    with pytest.raises(ValueError, match="non-finite"):
        SpherePoint(huge, float("inf"))


def test_near_partners_pair_a_nan_value_with_the_nan_values_only():
    values = np.array([complex("nan+nanj") if k % 4 == 0 else complex(k, -k) * 1e-3
                       for k in range(DIRECT_MAX_POINTS + 4)])
    partners = near_partners(values, 2.0)  # the diameter: every pair is within reach
    for i, earlier in enumerate(partners):
        nan = [j for j in range(i) if np.isnan(values[j])]
        assert sorted(earlier) == (nan if np.isnan(values[i]) else
                                   [j for j in range(i) if j not in nan])
    small = near_partners(values[:DIRECT_MAX_POINTS], 0.0)
    assert [list(earlier) for earlier in small] == [list(range(i)) for i in range(DIRECT_MAX_POINTS)]


def test_floating_infinity_is_not_exact():
    p = SpherePoint(1e20 + 0j, 1.0 + 0j)
    assert p.is_infinity
    assert not p.is_exact
    assert p == INFINITY  # same sphere point
    assert coincide(p, INFINITY, 1e-9)


def test_coincide_exact_vs_tolerance():
    a = SpherePoint.finite(GaussianRational(1))
    b = SpherePoint.finite(GaussianRational(1))
    assert coincide(a, b, 0.0)
    c = SpherePoint.finite(1.0 + 1e-12j)
    assert coincide(a, c, 1e-9)
    assert not coincide(a, SpherePoint.finite(1.0 + 1e-6j), 1e-9)


def test_parse_point():
    assert parse_point("inf").is_infinity
    assert parse_point("-1/2").value() == GaussianRational(-0.5)


TOL = 1e-9
# (name, p, q, whether coincide(p, q, TOL) holds)
SCREEN_CASES = [
    ("exact-equal", SpherePoint.finite(GaussianRational(Fraction(1, 3))),
     SpherePoint.finite(GaussianRational(Fraction(1, 3))), True),
    ("exact-1e-30-apart", SpherePoint.finite(GaussianRational(1)),
     SpherePoint.finite(GaussianRational(1 + Fraction(1, 10**30))), False),
    ("exact-beyond-float-range", SpherePoint.finite(GaussianRational(10**400)),
     SpherePoint.finite(GaussianRational(10**400 + 1)), False),
    ("exact-and-floating-infinity", INFINITY, SpherePoint.infinity(exact=False), True),
    ("0.9-tol", SpherePoint.finite(1.0 + 0j), SpherePoint.finite(1.0 + 0.9 * TOL * 1j), True),
    ("1.5-tol", SpherePoint.finite(1.0 + 0j), SpherePoint.finite(1.0 + 1.5 * TOL * 1j), False),
]


def _scalar_dedup(points, tol):
    out = []
    for p in points:
        if not any(coincide(p, q, tol) for q in out):
            out.append(p)
    return out


@pytest.mark.parametrize("name, p, q, same", SCREEN_CASES, ids=[c[0] for c in SCREEN_CASES])
def test_dedup_screen_matches_the_scalar_rule(name, p, q, same):
    assert coincide(p, q, TOL) == same
    # the screen passes every pair that coincides
    assert near_rows(p.norm_pair(), normalized_pairs([q]), TOL).tolist() == [0] or not same
    kept = dedup_points([p, q], TOL)
    assert [id(x) for x in kept] == ([id(p)] if same else [id(p), id(q)])


@pytest.mark.parametrize("name, p, q, same", SCREEN_CASES, ids=[c[0] for c in SCREEN_CASES])
def test_the_screened_dedup_matches_the_scalar_rule(name, p, q, same, monkeypatch):
    # a pair is below the size at which near_partners screens
    monkeypatch.setattr(ratmap.sphere, "DIRECT_MAX_POINTS", 0)
    assert dedup_indices([p, q], TOL) == ([0] if same else [0, 1])


def _partner(p, ratio, angle):
    """A floating point about ratio * TOL from the finite floating point p in the chordal metric."""
    z = complex(p.z)
    step = ratio * TOL * complex(math.cos(angle), math.sin(angle))
    if abs(z) <= 1.0:
        return SpherePoint.finite(z + step * (1.0 + abs(z) ** 2) / 2.0)
    w = 1.0 / z
    return SpherePoint.finite(1.0 / (w + step * (1.0 + abs(w) ** 2) / 2.0))


def _dedup_case(rng, n):
    """n fresh points: exact ones at |z| up to 1e200, exact and floating
    infinity, floating ones (which flip to infinity beyond |z| = 1e14), and
    partners 0.9 TOL and 1.5 TOL from earlier floating points."""
    points = []
    while len(points) < n:
        kind = rng.integers(5)
        floating = [p for p in points if not p.is_exact and not p.is_infinity]
        if kind == 0:
            points.append(SpherePoint.finite(GaussianRational(
                Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 3))), int(rng.integers(-1, 2)))
                * 10 ** int(rng.choice([0, 200]))))
        elif kind == 1:
            points.append(SpherePoint.infinity(exact=bool(rng.integers(2))))
        elif kind == 2 or not floating:
            scale = 10.0 ** rng.choice([-200, -3, 0, 3, 13, 200])
            points.append(SpherePoint.finite(complex(*rng.normal(size=2)) * scale))
        elif kind == 3:
            base = floating[rng.integers(len(floating))]
            points.append(_partner(base, rng.choice([0.9, 1.5]), rng.uniform(0, 2 * math.pi)))
        else:
            base = points[rng.integers(len(points))]
            points.append(SpherePoint(base.z, base.w))  # an equal copy
    return points


@pytest.mark.parametrize("n", [0, 1, 2, DIRECT_MAX_POINTS - 1, DIRECT_MAX_POINTS,
                               DIRECT_MAX_POINTS + 1])
def test_the_direct_and_the_screened_dedup_agree_around_the_crossover(n, monkeypatch):
    rng = np.random.default_rng(n)
    for _ in range(40):
        points = _dedup_case(rng, n)
        kept = {id(x) for x in _scalar_dedup(points, TOL)}
        want = [i for i, x in enumerate(points) if id(x) in kept]
        assert dedup_indices(points, TOL) == want
        # the screen, on a set of any size
        with monkeypatch.context() as m:
            m.setattr(ratmap.sphere, "DIRECT_MAX_POINTS", 0)
            assert dedup_indices(points, TOL) == want


def test_an_exact_point_beyond_float_range_hashes_and_compares():
    huge = GaussianRational(2**1100)
    p = SpherePoint.finite(huge)
    assert hash(p) == hash(huge)
    assert {p, SpherePoint.finite(GaussianRational(2**1100))} == {p}
    for q in (SpherePoint.finite(1e300), SpherePoint.finite(1.0)):
        assert p != q and q != p
    assert p != SpherePoint.finite(GaussianRational(2**1100 + 1))
    # an exact point in float range hashes as its floating value, as before
    for value in (GaussianRational(3), GaussianRational(Fraction(1, 3), -2)):
        exact, floating = SpherePoint.finite(value), SpherePoint.finite(complex(value))
        assert hash(exact) == hash(complex(value)) == hash(floating) and exact == floating


def test_dedup_of_a_mixed_list_matches_the_scalar_rule():
    points = [x for _, p, q, _ in SCREEN_CASES for x in (p, q)]
    points += [SpherePoint.finite(0.3 - 2.5j), SpherePoint.finite(-1.5e7 + 3j)]
    points = points + points[::-1]
    assert [id(x) for x in dedup_points(points, TOL)] == \
        [id(x) for x in _scalar_dedup(points, TOL)]


def _uncached_is_infinity(p):
    """SpherePoint.is_infinity as it was, a property read from w."""
    if isinstance(p.w, GaussianRational):
        return p.w.is_zero()
    return p.w == 0


def _uncached_pair(p):
    """The floating pair that chordal read, computed afresh at each call."""
    if _uncached_is_infinity(p):
        return 1.0 + 0.0j, 0.0j
    try:
        zc = complex(p.z)
    except OverflowError:
        return 1.0 + 0.0j, 0.0j
    if not (math.isfinite(zc.real) and math.isfinite(zc.imag)):
        return 1.0 + 0.0j, 0.0j
    return zc, 1.0 + 0.0j


def _uncached_chordal(p, q):
    (z1, w1), (z2, w2) = _uncached_pair(p), _uncached_pair(q)
    cross = abs(z1 * w2 - z2 * w1)
    return 2.0 * cross / (math.hypot(abs(z1), abs(w1)) * math.hypot(abs(z2), abs(w2)))


def test_cached_chart_data_match_their_definitions_bit_for_bit():
    points = [
        SpherePoint(GaussianRational(6), GaussianRational(-4)),  # exact finite
        SpherePoint(Fraction(1, 3), 2),
        SpherePoint.finite(GaussianRational(10**400)),  # beyond float range
        SpherePoint.finite(GaussianRational(3 * 10**200, -10**200)),
        SpherePoint(GaussianRational(5), GaussianRational(0)),  # exact infinity
        INFINITY,
        SpherePoint(0.3 - 2.5j, 1.0 + 2.0j),  # floating finite
        SpherePoint(np.complex128(-1.5e7 + 3j), 1),
        SpherePoint(GaussianRational(1, 3), 0.7),
        SpherePoint(1e-9j, 1.0),
        SpherePoint(1e20 + 0j, 1.0 + 0j),  # the epsilon flip to infinity
        SpherePoint(1.0, 1e-15),
        SpherePoint.finite(GaussianRational(10**400)).to_float(),  # to_float overflow
        SpherePoint.finite(GaussianRational(-7, 3)).to_float(),
        SpherePoint.finite(2.5),
        SpherePoint.finite(-0.0),
        SpherePoint.finite(Fraction(-1, 7)),
        SpherePoint.infinity(exact=False),
        parse_point("inf"),
        parse_point("-1/2"),
        parse_point("0.25 - 3i"),
    ]
    for p in points:
        assert p.is_infinity is _uncached_is_infinity(p)
        assert p.is_exact is isinstance(p.z, GaussianRational)
        for q in points:
            assert repr(p.chordal(q)) == repr(_uncached_chordal(p, q))
    pairs = np.array([_uncached_pair(p) for p in points])
    want = pairs / np.hypot(np.abs(pairs[:, :1]), np.abs(pairs[:, 1:]))
    assert normalized_pairs(points).tobytes() == want.tobytes()


def _reference_floating_value(z, w):
    """floating_value as it was, testing each part with math.isfinite."""
    if not all(math.isfinite(v) for v in (z.real, z.imag, w.real, w.imag)):
        raise ValueError("non-finite component; points never store NaN or inf")
    if z == 0 and w == 0:
        raise ValueError("(0 : 0) is not a point of the sphere")
    try:
        at_infinity = abs(w) <= REPRESENTATION_EPS * abs(z)
    except OverflowError:
        z, w = z / 4, w / 4
        at_infinity = abs(w) <= REPRESENTATION_EPS * abs(z)
    return None if at_infinity else z / w


def _bits(p):
    return (p.is_exact, p.is_infinity, np.array([p.z, p.w], complex).tobytes())


BIG = 1.5e308 + 1.5e308j  # its modulus overflows
FLOATING_PAIRS = [
    (0j, 1 + 0j), (complex(-0.0, 0.0), 1 + 0j), (complex(0.0, -0.0), 1 + 0j),
    (complex(-0.0, -0.0), complex(-1.0, 0.0)), (1 + 0j, complex(-0.0, 0.0)),
    (1 + 0j, complex(0.0, -0.0)), (complex(2.5, -0.0), complex(-0.0, 1.0)),
    (0.3 - 2.5j, 1 + 2j), (1e14 + 0j, 1 + 0j), (1e14 + 0j, 1.0000001 + 0j),
    (1 + 0j, 1e-14 + 0j), (1 + 0j, 1.0000001e-14j), (1e20 + 0j, 1 + 0j),
    (BIG, 1 + 0j), (BIG, 1e290 + 0j), (-BIG, 1j), (BIG, BIG), (1 + 0j, BIG),
    (5e-324 + 0j, 1 + 0j), (1 + 0j, 5e-324 + 0j),
]
NOT_POINTS = [
    (0j, 0j), (complex(-0.0, 0.0), complex(0.0, -0.0)),
    (complex("nan"), 1 + 0j), (1 + 0j, complex(0.0, float("nan"))),
    (complex(float("inf"), 0.0), 1 + 0j), (1 + 0j, complex(0.0, -float("inf"))),
    (complex("nan"), complex("nan")),
]


@pytest.mark.parametrize("z, w", FLOATING_PAIRS)
def test_a_complex_pair_is_the_point_of_the_generic_path_bit_for_bit(z, w):
    # np.complex128 is a complex subclass, so it goes through as_scalar
    fast, generic = SpherePoint(z, w), SpherePoint(np.complex128(z), np.complex128(w))
    assert _bits(fast) == _bits(generic)
    value = _reference_floating_value(z, w)
    pair = (1 + 0j, 0j) if value is None else (value, 1 + 0j)
    assert _bits(fast) == (False, value is None, np.array(pair).tobytes())


@pytest.mark.parametrize("z, w", NOT_POINTS)
def test_a_complex_pair_that_is_no_point_raises_on_either_path(z, w):
    for pair in ((z, w), (np.complex128(z), np.complex128(w)), (z, np.complex128(w))):
        with pytest.raises(ValueError):
            SpherePoint(*pair)
    with pytest.raises(ValueError):
        _reference_floating_value(z, w)


def test_only_a_pair_of_builtin_complex_skips_as_scalar(monkeypatch):
    seen = []

    def counted(value, _as_scalar=ratmap.sphere.as_scalar):
        seen.append(type(value))
        return _as_scalar(value)

    monkeypatch.setattr(ratmap.sphere, "as_scalar", counted)
    SpherePoint(0.5 + 1j, 1 + 0j)
    assert seen == []
    for z, w in ((np.complex128(0.5 + 1j), 1 + 0j), (0.5 + 1j, 1.0),
                 (0.5 + 1j, GaussianRational(2)), (Fraction(1, 2), 1)):
        seen.clear()
        SpherePoint(z, w)
        assert seen == [type(z), type(w)]


def _reference_near_pairs(pair_rows, rows, tol):
    """The orbit screen as it was: the point's normalized row against the rows."""
    return array_chordal(pair_rows, rows)[0] <= 2.0 * tol + SCREEN_SLACK


parts = st.floats(min_value=-4.0, max_value=4.0, allow_nan=False)
scales = st.sampled_from([1e-300, 1e-9, 1e-3, 1.0, 1e3, 1e13, 1e200])
sphere_points = st.one_of(
    st.builds(lambda a, b, k: SpherePoint.finite(complex(a, b) * k), parts, parts, scales),
    st.builds(lambda a, b: SpherePoint.finite(GaussianRational(a, b)),
              st.fractions(-5, 5, max_denominator=9), st.fractions(-5, 5, max_denominator=9)),
    st.builds(lambda n: SpherePoint.finite(GaussianRational(3 * 10**n, -(10**n))),
              st.integers(150, 400)),
    st.builds(lambda exact: SpherePoint.infinity(exact=exact), st.booleans()),
)


@settings(max_examples=200, deadline=None)
@given(sphere_points, st.lists(st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 2 * math.pi)),
                               max_size=6),
       st.lists(sphere_points, max_size=4), st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
def test_the_orbit_screen_passes_every_row_the_array_screen_passes(p, offsets, others, tol):
    # rows about 0 to 4 tol from p in the chordal metric, where the margin
    # decides, and arbitrary others
    rows = list(others)
    (z, w), _ = p.norm_pair()
    if w:  # a finite floating value
        rows += [_partner(SpherePoint.finite(z), ratio * tol / TOL, angle)
                 for ratio, angle in offsets]
    rows.append(p)
    table = normalized_pairs(rows)
    want = np.flatnonzero(_reference_near_pairs(normalized_pairs([p]), table, tol))
    got = near_rows(p.norm_pair(), table, tol)
    assert set(want.tolist()) <= set(got.tolist())
    assert len(rows) - 1 in got.tolist()
    # and nothing beyond the margin by more than rounding
    assert np.all(array_chordal(normalized_pairs([p]), table)[0, got] <= 2.0 * tol + 3 * SCREEN_SLACK)
