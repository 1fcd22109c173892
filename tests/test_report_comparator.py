"""report_differences tells rounding from every other change of a report."""

from __future__ import annotations

import copy
import json

import pytest

from ratmap.report import parse_map
from ratmap.scalars import parse_scalar, scalar_str

from .report_comparator import report_differences, shape
from .test_pipeline_corpus import PARABOLIC_MAPS
from .test_report import _corpus_map, _decimal_twin


@pytest.fixture(scope="module")
def corpus_7_twin(analyzed):
    # floating cycle points of periods 1-4, a converging and a preperiodic fate
    return json.loads(analyzed(_corpus_map(7, True)).to_json_bytes())


@pytest.fixture(scope="module")
def parabolic_twin(analyzed):
    # z^3 + z as decimals: the parabolic fixed point 0 is solved to about 5e-10
    return json.loads(analyzed(parse_map(_decimal_twin(PARABOLIC_MAPS[0]))).to_json_bytes())


def _moved(text: str, delta: complex) -> str:
    return scalar_str(complex(parse_scalar(text)) + delta)


def _edited(report, edit):
    out = copy.deepcopy(report)
    edit(out)
    return out


def test_a_report_equals_itself_and_keeps_its_shape(corpus_7_twin):
    assert report_differences(corpus_7_twin, copy.deepcopy(corpus_7_twin)) == []
    flat = json.dumps(shape(corpus_7_twin))
    assert '"points": ["F"]' in flat and "0.0627" not in flat
    assert '"classification": "repelling"' in flat


def test_rounding_of_a_cycle_point_passes_and_a_moved_point_does_not(corpus_7_twin):
    def move(delta):
        def edit(report):
            points = report["cycles"][0]["points"]
            points[0] = _moved(points[0], delta)
        return edit

    assert report_differences(corpus_7_twin, _edited(corpus_7_twin, move(1e-12))) == []
    differences = report_differences(corpus_7_twin, _edited(corpus_7_twin, move(1e-7)))
    assert [d.split(":")[0] for d in differences] == ["/cycles/0/points/0"]


def test_a_cycle_may_start_at_another_of_its_points(corpus_7_twin):
    def rotate(report):
        cycle = next(c for c in report["cycles"] if c["period"] == 4)
        cycle["points"] = cycle["points"][1:] + cycle["points"][:1]

    assert report_differences(corpus_7_twin, _edited(corpus_7_twin, rotate)) == []


@pytest.mark.parametrize("edit", [
    lambda r: r["cycles"][0].update(classification="attracting"),
    lambda r: r["critical_fates"][0]["fate"].update(cycle_id=1),
    lambda r: r["critical_fates"][0]["fate"].update(steps_used=66),
    lambda r: r["critical_fates"][1].update(asymptotic_valency=3),
    lambda r: r["warnings"].append({"code": "cycle-search-truncated"}),
    lambda r: r["algebra"]["fatou_regions"][0]["extension"].update(label="region 0 (attracting)"),
    lambda r: r["cycles"].pop(),
], ids=["classification", "fate-cycle", "fate-steps", "valency", "warning", "algebra", "cycle"])
def test_every_change_beyond_rounding_is_found(corpus_7_twin, edit):
    assert report_differences(corpus_7_twin, _edited(corpus_7_twin, edit))


def test_a_floating_label_is_read_number_by_number():
    a = {"cycles": [], "label": "K_[0.0300000000000001+0.75i] on RO({-2.0, 2.0})"}
    near = dict(a, label="K_[0.03+0.75i] on RO({-2.0, 2.0})")
    far = dict(a, label="K_[0.031+0.75i] on RO({-2.0, 2.0})")
    other = dict(a, label="K_[0.03+0.75i] off RO({-2.0, 2.0})")
    assert report_differences(a, near) == []
    assert report_differences(a, far) and report_differences(a, other)


def test_an_indifferent_cycle_point_and_multiplier_pass_at_the_multiple_point_tolerance(
        parabolic_twin):
    cycle_index = next(i for i, c in enumerate(parabolic_twin["cycles"])
                       if c["classification"] == "rationally_indifferent")

    def move(delta):
        def edit(report):
            cycle = report["cycles"][cycle_index]
            cycle["points"][0] = _moved(cycle["points"][0], delta)
            cycle["multiplier"] = _moved(cycle["multiplier"], delta)
        return edit

    assert report_differences(parabolic_twin, _edited(parabolic_twin, move(5e-9))) == []
    assert report_differences(parabolic_twin, _edited(parabolic_twin, move(1e-5)))
