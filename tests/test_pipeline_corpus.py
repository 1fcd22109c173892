"""The whole pipeline on the maps a user would try next, under a time bound.

run_analysis runs at the default config on the first 20 maps of the
acceptance stream (seed 20240811), on the first 20 maps of the sparse
stream (seed 7) and on named maps, each also as its decimal twin.  Each map
must give a schema-valid report within 4 s, and only a coded RatmapError
may escape.
"""

from __future__ import annotations

import random
import signal

import pytest

from ratmap.errors import RatmapError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import parse_map, run_analysis
from ratmap.restricted import PREIMAGE_DEPTH_DEFAULT, _verify_critical_invariance
from ratmap.sphere import INFINITY

from .test_report import _corpus_map, _decimal_twin, _floating_twin

CORPUS_SIZE = 20
SPARSE_SEED = 7
BOUND_S = 4.0
# (z^5 - 2z^2 + 1)/(-3z^3): the backward tree that verifies {inf} holds 3125
# distinct points at depth 6, so a frontier dedup quadratic in the level size
# takes about a minute
SPARSE_QUINTIC = {"numerator": ["1", "0", "0", "-2", "0", "1"],
                  "denominator": ["-3", "0", "0", "0"]}


class BoundExceeded(BaseException):
    """The per-map bound passed; a BaseException so no handler in the program swallows it."""


def _on_alarm(signum, frame):
    raise BoundExceeded()


@pytest.fixture
def bounded():
    previous = signal.signal(signal.SIGALRM, _on_alarm)

    def run(r):
        # re-fires every 50 ms in case a handler inside the program swallows it
        signal.setitimer(signal.ITIMER_REAL, BOUND_S, 0.05)
        try:
            return run_analysis(r)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    yield run
    signal.signal(signal.SIGALRM, previous)


def _random_sparse_map(rng: random.Random) -> RationalMap:
    """A map of degree 2-6 whose integer coefficients in -3..3 are each zero
    with probability 0.65.  The degrees are drawn as the acceptance stream
    draws them, and a draw whose degree drops is drawn again."""
    while True:
        d = rng.randint(2, 6)
        deg_q = rng.choice([0, rng.randint(0, d)])

        def coeffs(n):
            return [0 if rng.random() < 0.65 else rng.choice((-3, -2, -1, 1, 2, 3))
                    for _ in range(n)]

        p, q = coeffs(d + 1), coeffs(deg_q + 1)
        if p[0] == 0 or q[0] == 0:
            continue
        try:
            r = RationalMap(Polynomial(p), Polynomial(q))
        except RatmapError:
            continue
        if r.degree == d:
            return r


def _sparse_map(index: int, twin: bool) -> RationalMap:
    rng = random.Random(SPARSE_SEED)
    for _ in range(index + 1):
        r = _random_sparse_map(rng)
    return _floating_twin(r) if twin else r


def _check_report(bounded, r):
    jsonschema = pytest.importorskip("jsonschema")
    from ratmap.schema import REPORT_SCHEMA

    try:
        data = bounded(r).data
    except BoundExceeded:
        pytest.fail(f"no report within {BOUND_S} s")
    except RatmapError as err:
        pytest.fail(f"coded error {err.code}: {err}")
    jsonschema.validate(data, REPORT_SCHEMA)
    assert sum(c["valency"] - 1 for c in data["critical_points"]) == 2 * r.degree - 2
    assert len(data["exposed"]["union"]) <= 4
    assert sum(o["size"] for o in data["exposed"]["orbits"]) <= 4
    codes = {w["code"] for w in data["warnings"]}
    assert not codes & {"cycle-search-failed", "cycle-search-uncertified"}
    return data


@pytest.mark.parametrize("index", range(CORPUS_SIZE))
@pytest.mark.parametrize("twin", [False, True])
def test_corpus_map_gives_a_report(bounded, index, twin):
    _check_report(bounded, _corpus_map(index, twin))


@pytest.mark.parametrize("index", range(CORPUS_SIZE))
@pytest.mark.parametrize("twin", [False, True])
def test_sparse_map_gives_a_report(bounded, index, twin):
    _check_report(bounded, _sparse_map(index, twin))


@pytest.mark.parametrize("twin", [False, True])
def test_sparse_quintic_gives_a_report(bounded, twin):
    r = parse_map(_decimal_twin(SPARSE_QUINTIC) if twin else SPARSE_QUINTIC)
    data = _check_report(bounded, r)
    assert data["exposed"]["union"] == ["inf"]
    # the verdict the quadratic dedup reached, in 51 s exact and 64 s as the twin
    assert _verify_critical_invariance(r, [INFINITY], PREIMAGE_DEPTH_DEFAULT)
