"""The whole pipeline on the maps a user would try next, under a time bound.

run_analysis runs at the default config on the first 20 maps of the
acceptance stream (seed 20240811) and on their decimal twins.  Each map
must give a schema-valid report within 4 s, and only a coded RatmapError
may escape.
"""

from __future__ import annotations

import signal

import pytest

from ratmap.errors import RatmapError
from ratmap.report import run_analysis

from .test_report import _corpus_map

CORPUS_SIZE = 20
BOUND_S = 4.0


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


@pytest.mark.parametrize("index", range(CORPUS_SIZE))
@pytest.mark.parametrize("twin", [False, True])
def test_corpus_map_gives_a_report(bounded, index, twin):
    jsonschema = pytest.importorskip("jsonschema")
    from ratmap.schema import REPORT_SCHEMA

    r = _corpus_map(index, twin)
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
