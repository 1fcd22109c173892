"""The modular screen of exact fixed-point candidates never changes a verdict.

dynamics._screen_rejects walks R^p modulo MODULAR_PRIME.  A candidate it
rejects must not be a fixed point of R^p in exact arithmetic, so every exact
cycle point passes it; where a denominator is divisible by the prime it
declines, and the exact check alone decides.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ratmap.dynamics
from ratmap.dynamics import DEFAULT_MAX_PERIOD, _exact_fixed_point, _screen_rejects, periodic_cycles
from ratmap.errors import MapDegreeError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import parse_map
from ratmap.scalars import MODULAR_I, MODULAR_PRIME, GaussianRational, mod_prime
from ratmap.sphere import INFINITY, SpherePoint

from .test_report import EXACT_TWO_CYCLE_MAP, WORKED_MAPS, _corpus_map

small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussian = st.builds(GaussianRational, small, small)


def _point(value) -> SpherePoint:
    return INFINITY if value is None else SpherePoint.finite(value)


def test_the_prime_is_one_mod_four_with_a_square_root_of_minus_one():
    q = MODULAR_PRIME
    assert q % 4 == 1
    assert (MODULAR_I * MODULAR_I + 1) % q == 0
    assert all(pow(a, q - 1, q) == 1 for a in (2, 3, 5, 7, 11, 13))


@given(gaussian, gaussian)
def test_reduction_is_a_ring_map(x, y):
    q = MODULAR_PRIME
    assert mod_prime(x + y) == (mod_prime(x) + mod_prime(y)) % q
    assert mod_prime(x * y) == mod_prime(x) * mod_prime(y) % q
    assert mod_prime(GaussianRational(0, 1)) == MODULAR_I


@st.composite
def maps_and_candidates(draw):
    """A small exact map and a candidate; the candidate is often a fixed point.

    P = c Q + (z - c) S fixes c whenever Q(c) != 0.
    """
    value = draw(st.one_of(st.none(), gaussian))
    q = Polynomial(draw(st.lists(gaussian, min_size=1, max_size=3)))
    if draw(st.booleans()) and value is not None:
        s = Polynomial(draw(st.lists(gaussian, min_size=1, max_size=3)))
        p = q * value + Polynomial([1, -value]) * s
    else:
        p = Polynomial(draw(st.lists(gaussian, min_size=1, max_size=4)))
    return p, q, value, draw(st.integers(1, 3))


@settings(max_examples=100, deadline=None)
@given(maps_and_candidates())
def test_a_rejected_candidate_is_never_a_fixed_point(case):
    p, q, value, period = case
    try:
        r = RationalMap(p, q)
    except MapDegreeError:
        assume(False)
    x = _point(value)
    if _screen_rejects(r, value, period):
        y = x
        for _ in range(period):  # unguarded exact iteration: the reference
            y = r.evaluate(y)
        assert y != x


@pytest.mark.parametrize("source, index", [("worked", i) for i in range(len(WORKED_MAPS))]
                         + [("corpus", i) for i in range(20)])
def test_the_screen_passes_every_exact_cycle_point(source, index, monkeypatch):
    r = parse_map(WORKED_MAPS[index]) if source == "worked" else _corpus_map(index, False)
    with monkeypatch.context() as m:
        # the cycles as exact iteration alone finds them
        m.setattr(ratmap.dynamics, "_screen_rejects", lambda r, value, p: False)
        cycles, _, _ = periodic_cycles(r, DEFAULT_MAX_PERIOD)
    points = [(None if x.is_infinity else x.value(), c.period)
              for c in cycles for x in c.points if x.is_exact]
    for value, period in points:
        for p in range(period, DEFAULT_MAX_PERIOD + 1, period):
            assert not _screen_rejects(r, value, p)
            assert _exact_fixed_point(r, _point(value), p) == _point(value)


def test_the_exact_two_cycle_of_z2_minus_1_passes_at_its_multiples():
    r = parse_map(EXACT_TWO_CYCLE_MAP)
    for value in (GaussianRational(0), GaussianRational(-1)):
        assert [_screen_rejects(r, value, p) for p in (1, 2, 3, 4)] == [True, False, True, False]


def test_the_screen_rejects_what_exact_iteration_rejects():
    r = parse_map(WORKED_MAPS[0])  # z^2 - 2: fixed points 2, -1 and infinity
    for value in (GaussianRational(Fraction(1, 3)), GaussianRational(1, 1), GaussianRational(0)):
        assert all(_screen_rejects(r, value, p) for p in (1, 2, 3, 4))
    assert not _screen_rejects(r, GaussianRational(2), 1)
    assert not _screen_rejects(r, None, 1)


def test_the_screen_declines_a_candidate_denominator_divisible_by_the_prime():
    r = parse_map(WORKED_MAPS[0])  # z^2 - 2
    for value in (GaussianRational(Fraction(1, MODULAR_PRIME)),
                  GaussianRational(1, Fraction(3, 2 * MODULAR_PRIME))):
        assert mod_prime(value) is None
        assert not _screen_rejects(r, value, 1)
        assert r.evaluate(SpherePoint.finite(value)) != SpherePoint.finite(value)


def test_the_screen_declines_a_coefficient_denominator_divisible_by_the_prime():
    # z^2 + i/q: 5 is not fixed, but nothing is rejected modulo q
    r = RationalMap(Polynomial([1, 0, GaussianRational(0, Fraction(1, MODULAR_PRIME))]),
                    Polynomial([1]))
    assert r.coeffs_mod_prime is None
    assert not _screen_rejects(r, GaussianRational(5), 1)
    assert _exact_fixed_point(r, SpherePoint.finite(5), 1) is None
