from __future__ import annotations

import copy
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import tee
from pathlib import Path

import pytest

import ratmap.restricted
import ratmap.roots
from ratmap.rational import RationalMap
from ratmap.report import AnalysisConfig, Report, parse_map, run_analysis
from ratmap.scalars import scalar_str

TESTS_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    # a numpy RuntimeWarning (overflow, invalid value, divide by zero) that
    # leaks out of the program fails the test that triggered it
    for item in items:
        if TESTS_DIR in Path(item.path).resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))


class ReportCache:
    """run_analysis(r, config) for the tests that only read a report.

    Each key is analyzed once per session.  Every read gets its own deep
    copy, so a reader that edits its report changes no later reader's.
    """

    def __init__(self):
        self.reports = {}

    @staticmethod
    def key(r: RationalMap, config: AnalysisConfig | None = None):
        """The map's coefficient strings, mode and tolerance, and the config's JSON."""
        config = AnalysisConfig() if config is None else config
        return (tuple(map(scalar_str, r.p.coeffs)), tuple(map(scalar_str, r.q.coeffs)),
                r.is_exact, r.tolerance, r.reduced_from_input,
                json.dumps(config.to_json(), sort_keys=True))

    def __call__(self, r: RationalMap, config: AnalysisConfig | None = None) -> Report:
        key = self.key(r, config)
        if key not in self.reports:
            self.reports[key] = run_analysis(r, config)
        return Report(copy.deepcopy(self.reports[key].data))


@pytest.fixture(scope="session")
def analyzed():
    return ReportCache()


# the streams of the instrumented pass are "worked", the worked maps and
# their decimal twins, and "corpus" and "twins", corpus maps 0-19 exact or
# as decimal twins
CORPUS_STREAM_SIZE = 20


@dataclass
class AnalysisRecord:
    """What the analysis of one map asked of the probed functions."""

    r: RationalMap
    # the module of the caller of each RationalMap.evaluate call
    evaluate_callers: Counter = field(default_factory=Counter)
    # RationalMap._target_polynomial calls: preimage solves past the cache
    target_solves: int = 0
    # inside restricted._closures: roots._aberth calls, the groups they
    # solved, and RationalMap.preimages_many calls
    closure_aberth: int = 0
    closure_groups: int = 0
    closure_batches: int = 0
    # (seed points, closures, critical points) of each restricted._closures call
    closures: list = field(default_factory=list)
    # (points, depth, fates, verdict) of each _verify_critical_invariance call
    verifications: list = field(default_factory=list)
    # (points, valencies) of each RationalMap.valencies call
    valencies: list = field(default_factory=list)
    # (z, radii) of each roots._clusters call
    clusterings: list = field(default_factory=list)


def _stream_maps(stream):
    from .test_report import DECIMAL_TWINS, WORKED_MAPS, _corpus_map

    if stream == "worked":
        return [parse_map(doc) for doc in WORKED_MAPS + DECIMAL_TWINS]
    return [_corpus_map(index, stream == "twins") for index in range(CORPUS_STREAM_SIZE)]


def _instrumented_pass(maps) -> list:
    """One AnalysisRecord per map, from one analysis with every probe installed.

    The probes call the functions they replace with the same arguments; the
    closure probe hands restricted._closures a tee of each seed orbit and
    reads each seed off the copy once the call returns.
    """
    records = []
    inside_closures = []
    evaluate, target = RationalMap.evaluate, RationalMap._target_polynomial
    preimages_many, valencies = RationalMap.preimages_many, RationalMap.valencies
    aberth, clusters = ratmap.roots._aberth, ratmap.roots._clusters
    closures = ratmap.restricted._closures
    verify = ratmap.restricted._verify_critical_invariance

    def probed_evaluate(self, x):
        records[-1].evaluate_callers[sys._getframe(1).f_globals["__name__"]] += 1
        return evaluate(self, x)

    def probed_target(self, y):
        records[-1].target_solves += 1
        return target(self, y)

    def probed_preimages_many(self, targets):
        records[-1].closure_batches += bool(inside_closures)
        return preimages_many(self, targets)

    def probed_valencies(self, points):
        got = valencies(self, points)
        records[-1].valencies.append((list(points), got))
        return got

    def probed_aberth(evaluate, starts):
        if inside_closures:
            records[-1].closure_aberth += 1
            records[-1].closure_groups += len(starts)
        return aberth(evaluate, starts)

    def probed_clusters(z, radii):
        records[-1].clusterings.append((z, radii))
        return clusters(z, radii)

    def probed_closures(r, seeds, crit_pts):
        orbits = [tee(orbit) for orbit in seeds]
        inside_closures.append(True)
        try:
            got = closures(r, [orbit for orbit, _ in orbits], crit_pts)
        finally:
            inside_closures.pop()
        records[-1].closures.append(([next(kept) for _, kept in orbits], got, crit_pts))
        return got

    def probed_verify(r, pts, depth, fates=None):
        got = verify(r, pts, depth, fates=fates)
        records[-1].verifications.append((list(pts), depth, fates, got))
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RationalMap, "evaluate", probed_evaluate)
        patch.setattr(RationalMap, "_target_polynomial", probed_target)
        patch.setattr(RationalMap, "preimages_many", probed_preimages_many)
        patch.setattr(RationalMap, "valencies", probed_valencies)
        patch.setattr(ratmap.roots, "_aberth", probed_aberth)
        patch.setattr(ratmap.roots, "_clusters", probed_clusters)
        patch.setattr(ratmap.restricted, "_closures", probed_closures)
        patch.setattr(ratmap.restricted, "_verify_critical_invariance", probed_verify)
        for r in maps:
            records.append(AnalysisRecord(r))
            run_analysis(r)
    return records


@pytest.fixture(scope="session")
def recorded_analyses():
    """stream -> the AnalysisRecord of each of its maps, in stream order.

    The tests that count or record the calls of an analysis of a stream's
    maps share its one instrumented pass, made when the first of them asks.
    """
    passes = {}

    def records(stream):
        if stream not in passes:
            passes[stream] = _instrumented_pass(_stream_maps(stream))
        return passes[stream]

    return records
