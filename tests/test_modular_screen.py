"""The modular screen of exact fixed-point candidates never changes a verdict.

dynamics._screen_passes walks R^p modulo MODULAR_PRIME on the homogeneous
pairs of many candidates at once, in int64 arrays, under the map's rows
times the lcm of their denominators, so it runs on every exact map.  A
candidate it rejects must not be a fixed point of R^p in exact arithmetic,
so every exact cycle point passes it, also where the prime divides a
coefficient denominator.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ratmap.dynamics
from ratmap.dynamics import (
    DEFAULT_MAX_PERIOD,
    DEFAULT_PERIOD_WORK_CAP,
    _exact_fixed_points,
    _fixed_points,
    _FixedPointEquation,
    _screen_passes,
    _step_rows,
    periodic_cycles,
)
from ratmap.errors import MapDegreeError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import parse_map
from ratmap.scalars import MODULAR_I, MODULAR_PRIME, GaussianRational, mod_prime_pairs, mod_prime_rows
from ratmap.sphere import INFINITY, SpherePoint

from .test_report import EXACT_TWO_CYCLE_MAP, WORKED_MAPS, _corpus_map

small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
gaussian = st.builds(GaussianRational, small, small)
big = st.integers(-2**80, 2**80)
gaussian_integer = st.builds(GaussianRational, big, big)


def _point(value) -> SpherePoint:
    return INFINITY if value is None else SpherePoint.finite(value)


def _pair(value):
    """The residue pair of one candidate, value (None for infinity), as arrays of one entry."""
    if value is None:
        return np.array([1]), np.array([0])
    return mod_prime_pairs([value.re.numerator], [value.re.denominator],
                           [value.im.numerator], [value.im.denominator])


def _rejects(r: RationalMap, value, p: int) -> bool:
    """The array screen's verdict on one candidate, value (None for infinity), at period p."""
    return not _screen_passes(r, [p], *_pair(value))[0]


def _decided(r: RationalMap, value, periods) -> list:
    """The exact decision on the floating point of value at each of periods, in one batch."""
    x = _point(value).to_float()
    decided = _exact_fixed_points(r, {p: (x,) for p in periods})
    return [decided[p][0] for p in periods]


def test_the_prime_is_one_mod_four_with_a_square_root_of_minus_one():
    q = MODULAR_PRIME
    assert q < 2**30 and q % 4 == 1
    assert (MODULAR_I * MODULAR_I + 1) % q == 0
    assert all(pow(a, q - 1, q) == 1 for a in (2, 3, 5, 7, 11, 13))


def _reduced(x: GaussianRational) -> int:
    return mod_prime_rows([[x]])[0][0]


@given(gaussian_integer, gaussian_integer)
def test_reduction_is_a_ring_map(x, y):
    q = MODULAR_PRIME
    assert _reduced(x + y) == (_reduced(x) + _reduced(y)) % q
    assert _reduced(x * y) == _reduced(x) * _reduced(y) % q
    assert _reduced(GaussianRational(0, 1)) == MODULAR_I


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
    if _rejects(r, value, period):
        y = x
        for _ in range(period):  # unguarded exact iteration: the reference
            y = r.evaluate(y)
        assert y != x


@pytest.mark.parametrize("source, index", [("worked", i) for i in range(len(WORKED_MAPS))]
                         + [("corpus", i) for i in range(20)])
def test_the_screen_passes_every_exact_cycle_point(source, index, monkeypatch):
    r = parse_map(WORKED_MAPS[index]) if source == "worked" else _corpus_map(index, False)
    with monkeypatch.context() as m:
        # the cycles as exact iteration alone finds them: the screen passes every row
        m.setattr(ratmap.dynamics, "_screen_passes",
                  lambda r, periods, c1, c2: np.ones(len(periods), bool))
        cycles, _, _ = periodic_cycles(r, DEFAULT_MAX_PERIOD)
    points = [(None if x.is_infinity else x.value(), c.period)
              for c in cycles for x in c.points if x.is_exact]
    for value, period in points:
        multiples = range(period, DEFAULT_MAX_PERIOD + 1, period)
        for p in multiples:
            assert not _rejects(r, value, p)
        assert _decided(r, value, multiples) == [_point(value)] * len(multiples)


def test_the_exact_two_cycle_of_z2_minus_1_passes_at_its_multiples():
    r = parse_map(EXACT_TWO_CYCLE_MAP)
    for value in (GaussianRational(0), GaussianRational(-1)):
        assert [_rejects(r, value, p) for p in (1, 2, 3, 4)] == [True, False, True, False]
        assert [x.is_exact for x in _decided(r, value, (4, 3, 2, 1))] == [True, False, True, False]


def test_the_screen_rejects_what_exact_iteration_rejects():
    r = parse_map(WORKED_MAPS[0])  # z^2 - 2: fixed points 2, -1 and infinity
    for value in (GaussianRational(Fraction(1, 3)), GaussianRational(1, 1), GaussianRational(0)):
        assert all(_rejects(r, value, p) for p in (1, 2, 3, 4))
    assert not _rejects(r, GaussianRational(2), 1)
    assert not _rejects(r, None, 1)


def test_a_candidate_denominator_divisible_by_the_prime_is_infinity_modulo_the_prime():
    # such a candidate is infinity modulo q, which z^2 - 2 fixes: it passes
    r = parse_map(WORKED_MAPS[0])
    for value in (GaussianRational(Fraction(1, MODULAR_PRIME)),
                  GaussianRational(1, Fraction(3, 2 * MODULAR_PRIME))):
        c1, c2 = _pair(value)
        assert c1[0] != 0 and c2[0] == 0
        assert not _rejects(r, value, 1)
        assert r.evaluate(SpherePoint.finite(value)) != SpherePoint.finite(value)


def test_the_screen_runs_where_the_prime_divides_a_coefficient_denominator():
    # z^2 + (i/q) z fixes 0, 1 - i/q and infinity.  Times q its rows are
    # (q, 0), (i, 0), (0, q), so modulo q it is (i u v : 0): the screen turns
    # 5 away and passes 0 and infinity, and exact iteration keeps those two
    r = RationalMap(Polynomial([1, GaussianRational(0, Fraction(1, MODULAR_PRIME)), 0]),
                    Polynomial([1]))
    assert _rejects(r, GaussianRational(5), 1)
    assert not any(_rejects(r, GaussianRational(0), p) for p in (1, 2))
    assert not any(_rejects(r, None, p) for p in (3, 1))
    assert [x.is_exact for x in _decided(r, GaussianRational(5), [1])] == [False]
    assert _decided(r, GaussianRational(0), [1, 2]) == [_point(GaussianRational(0))] * 2
    assert _decided(r, None, [3, 1]) == [INFINITY] * 2


def test_the_screen_and_the_solve_advance_the_same_rows():
    rng = np.random.default_rng(3)
    for _ in range(200):
        periods = sorted(rng.integers(1, 6, rng.integers(1, 12)).tolist(), reverse=True)
        assert _step_rows(periods) == [sum(q > k for q in periods) for k in range(max(periods))]
    assert _step_rows([]) == []
    r = parse_map(WORKED_MAPS[0])
    assert _FixedPointEquation(r.floating(), [3, 3, 2, 1]).steps == [4, 3, 2]
    assert _FixedPointEquation(r.floating(), 2).steps is None


def test_the_screen_passes_exactly_the_candidates_that_verify(monkeypatch):
    """Worked maps and corpus maps 0-39, exact at the default config: 3543
    candidates, of which the screen passes 148, and each of those verifies."""
    passed, decisions = [], []
    screen, decide = ratmap.dynamics._screen_passes, ratmap.dynamics._exact_fixed_points
    monkeypatch.setattr(ratmap.dynamics, "_screen_passes",
                        lambda *args: passed.append(screen(*args)) or passed[-1])
    monkeypatch.setattr(ratmap.dynamics, "_exact_fixed_points",
                        lambda *args: decisions.append(decide(*args)) or decisions[-1])
    candidates = verified = 0
    for r in [parse_map(doc) for doc in WORKED_MAPS] + [_corpus_map(i, False) for i in range(40)]:
        periods = [p for p in range(1, DEFAULT_MAX_PERIOD + 1)
                   if r.degree**p + 1 <= DEFAULT_PERIOD_WORK_CAP]
        _fixed_points(r, periods)
        decided = decisions[-1]
        exact = [x.is_exact for p in sorted(decided, reverse=True) for x in decided[p]]
        assert passed[-1].tolist() == exact
        candidates += len(exact)
        verified += sum(exact)
    assert (candidates, sum(int(mask.sum()) for mask in passed), verified) == (3543, 148, 148)
