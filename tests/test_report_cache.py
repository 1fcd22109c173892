"""The session's report cache (conftest.analyzed) reads as a fresh analysis."""

from __future__ import annotations

from ratmap.report import AnalysisConfig, parse_map, run_analysis

from .test_report import EXACT_TWO_CYCLE_MAP, WORKED_MAPS, _decimal_twin

# z^2, and (z^3 - z^2)/(z - 1), which parse_map reduces to z^2
SQUARE = WORKED_MAPS[2]
REDUCED_SQUARE = {"numerator": ["1", "-1", "0", "0"], "denominator": ["1", "-1"]}


def test_two_reads_give_the_bytes_and_text_of_a_fresh_analysis(analyzed):
    fresh = run_analysis(parse_map(WORKED_MAPS[1]))
    for _ in range(2):
        report = analyzed(parse_map(WORKED_MAPS[1]))
        assert report.to_json_bytes() == fresh.to_json_bytes()
        assert report.to_text() == fresh.to_text()


def test_mode_tolerance_config_and_reduction_each_get_their_own_entry(analyzed):
    exact = parse_map(EXACT_TWO_CYCLE_MAP)
    variants = [
        (exact, None),
        (parse_map(_decimal_twin(EXACT_TWO_CYCLE_MAP)), None),
        (parse_map(EXACT_TWO_CYCLE_MAP, tolerance=1e-7), None),
        (exact, AnalysisConfig(max_period=2)),
        (parse_map(SQUARE), None),
        (parse_map(REDUCED_SQUARE), None),
    ]
    keys = [analyzed.key(r, config) for r, config in variants]
    assert len(set(keys)) == len(variants)
    # a map parsed again, and the default config spelt out, share the entry
    assert analyzed.key(parse_map(EXACT_TWO_CYCLE_MAP), AnalysisConfig()) == keys[0]
    reports = [analyzed(r, config) for r, config in variants]
    for key, report in zip(keys, reports):
        assert analyzed.reports[key].to_json_bytes() == report.to_json_bytes()
    assert [report.data["map"]["mode"] for report in reports[:2]] == ["exact", "floating"]
    assert reports[3].data["config"]["max_period"] == 2
    assert [report.data["map"]["reduced_from_input"] for report in reports[4:]] == [False, True]


def test_a_reader_that_edits_its_report_changes_no_later_read(analyzed):
    r = parse_map(SQUARE)
    want = analyzed(r).to_json_bytes()
    report = analyzed(r)
    report.data["map"]["degree"] = 7
    report.data["warnings"].append({"code": "edited"})
    report.data["critical_points"][0].clear()
    del report.data["cycles"]
    assert analyzed(r).to_json_bytes() == want
