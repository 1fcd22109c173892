from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import ratmap.dynamics
from ratmap import cli
from ratmap.dynamics import DEFAULT_ORBIT_BUDGET
from ratmap.errors import ConfigError, InputFormatError, MapDegreeError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import AnalysisConfig, Report, parse_map, run_analysis
from ratmap.scalars import scalar_str

from .report_comparator import shape as report_shape
from .test_acceptance import _random_exact_map

# the CLI child process finds the package in the source tree without an install
SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
)


def _decimal_twin(doc):
    """The map with every coefficient written in decimal notation."""
    return {k: [c + ".0" for c in v] for k, v in doc.items()}


WORKED_MAPS = [
    {"numerator": ["1", "0", "-2"], "denominator": ["1"]},
    {"numerator": ["1", "-4", "4"], "denominator": ["1", "0", "0"]},
    {"numerator": ["1", "0", "0"], "denominator": ["1"]},
]
DECIMAL_TWINS = [_decimal_twin(doc) for doc in WORKED_MAPS]
# z^2 - 1, whose superattracting 2-cycle {0, -1} is exact
EXACT_TWO_CYCLE_MAP = {"numerator": ["1", "0", "-1"], "denominator": ["1"]}
# e^{2 pi i theta} z + z^2 at the golden theta and its Siegel declaration, as
# demos/demo_siegel_declaration.py writes them
GOLDEN_THETA = (math.sqrt(5) - 1) / 2
SIEGEL_MAP = {
    "numerator": ["1.0", scalar_str(complex(math.cos(2 * math.pi * GOLDEN_THETA),
                                            math.sin(2 * math.pi * GOLDEN_THETA))), "0.0"],
    "denominator": ["1.0"],
}
SIEGEL_DECLARATION = {"kind": "siegel", "anchor": "0.0", "theta": GOLDEN_THETA,
                      "theta_label": "(sqrt(5)-1)/2"}
# z^3 with the Herman declaration of test_more_regions
CUBIC_MAP = {"numerator": ["1", "0", "0", "0"], "denominator": ["1"]}
HERMAN_DECLARATION = {"kind": "herman", "theta": 0.30102999566398114, "period": 1}


def test_parse_map_examples():
    r = parse_map({"numerator": ["1", "0", "-2"], "denominator": ["1"]})
    assert r.degree == 2 and r.is_exact and r.is_polynomial

    r2 = parse_map({"numerator": ["1", "-4", "4"], "denominator": ["1", "0", "0"]})
    assert r2.degree == 2 and not r2.is_polynomial

    with pytest.raises(MapDegreeError):
        parse_map({"numerator": ["1", "0"], "denominator": ["1"]})


def test_parse_map_modes():
    exact = parse_map({"numerator": ["1", "0", "-1/2"], "denominator": ["1"]})
    assert exact.is_exact
    floating = parse_map({"numerator": ["1", "0", "-0.5"], "denominator": ["1"]})
    assert not floating.is_exact
    # one decimal demotes everything
    mixed = parse_map({"numerator": ["1", "0", "-2"], "denominator": ["0.5"]})
    assert not mixed.is_exact


@pytest.mark.parametrize("text", ["1/0", "0/0", "2/0i", "1/00"])
def test_a_zero_denominator_is_an_input_format_error(text):
    with pytest.raises(InputFormatError):
        parse_map({"numerator": ["1", "0", text], "denominator": ["1"]})
    with pytest.raises(InputFormatError):
        AnalysisConfig.from_dict({"declarations": [{"kind": "siegel", "theta": 0.3,
                                                    "anchor": text}]})


def test_parse_map_auto_reduce_notice():
    doc = {"numerator": ["1", "-1", "0", "0"], "denominator": ["1", "-1"]}
    r = parse_map(doc)
    assert r.reduced_from_input
    assert r.degree == 2


def test_config_validation():
    with pytest.raises(ConfigError):
        AnalysisConfig(max_period=0).validate()
    with pytest.raises(ConfigError):
        AnalysisConfig(tolerance=-1).validate()
    with pytest.raises(ConfigError):
        AnalysisConfig.from_dict({"bogus": 1})
    with pytest.raises(ConfigError):
        AnalysisConfig.from_dict({"declarations": [{"kind": "siegel", "theta": 1.5}]})
    cfg = AnalysisConfig.from_dict({"max_period": 2, "tolerance": 1e-8})
    assert cfg.max_period == 2


def test_report_determinism():
    doc = {"numerator": ["1", "0", "-2"], "denominator": ["1"]}
    a = run_analysis(parse_map(doc)).to_json_bytes()
    b = run_analysis(parse_map(doc)).to_json_bytes()
    assert a == b


def test_report_round_trip(analyzed):
    doc = {"numerator": ["1", "0", "0"], "denominator": ["1"]}
    report = analyzed(parse_map(doc))
    blob = report.to_json_bytes()
    parsed = json.loads(blob)
    re_serialized = (json.dumps(parsed, indent=2, sort_keys=True, ensure_ascii=True) + "\n").encode()
    assert re_serialized == blob


def _dumps(data) -> bytes:
    return (json.dumps(data, indent=2, sort_keys=True, ensure_ascii=True) + "\n").encode()


class _Level(int):
    pass


SYNTHETIC_DOCUMENTS = [
    {},
    [],
    "",
    None,
    {"strings": ["plain", "caf\u00e9 \u221e \U0001d538 \u2028", "\"\\/\b\f\n\r\t\x00\x1f\x7f",
                 "\ud800 lone surrogate", "\u00e9" * 3, " leading and trailing "],
     "empty": [{}, [], (), {"a": []}, [[]], [{}], {"b": {}}, [[], [[]]]],
     "tuples": (1, (2, (3,)), (), ({"x": ()},)),
     "floats": [-0.0, 0.0, 1e-05, 1e-07, 1e16, 1e17, 0.1, 1.5, -2.5e-300, 5e-324,
                1.7976931348623157e308, 123456789.125, math.nan, math.inf, -math.inf],
     "ints": [0, -1, 2**53 + 1, 2**64, -(2**64) - 1, 3**200, _Level(7)],
     "constants": [True, False, None, [True], {"t": False}],
     "nested": {"b": {"a": {"c": [1, {"z": 2, "a": [3, {"": None}]}]}}},
     "caf\u00e9": 1, "\n": 2, "A": 3, "a": 4, "": 5},
    {1: "int key", 2: "another", -3: "negative"},
    {0.5: "float key", -1e16: "big", 2.0: "two"},
    {True: "a bool key"},
    {None: "a None key"},
]


@pytest.mark.parametrize("data", SYNTHETIC_DOCUMENTS)
def test_the_report_emitter_writes_the_bytes_of_json_dumps(data):
    assert Report(data).to_json_bytes() == _dumps(data)


def test_the_report_emitter_rejects_what_json_dumps_rejects():
    for data in ({"x": {1, 2}}, [object()], {"k": b"bytes"}, {(1, 2): "tuple key"}):
        with pytest.raises(TypeError):
            _dumps(data)
        with pytest.raises(TypeError):
            Report(data).to_json_bytes()


def test_report_content_chebyshev(analyzed):
    doc = {"numerator": ["1", "0", "-2"], "denominator": ["1"]}
    report = analyzed(parse_map(doc), AnalysisConfig(max_period=4))
    data = report.data
    assert data["map"]["mode"] == "exact"
    crit = {c["point"] for c in data["critical_points"]}
    assert crit == {"0", "inf"}
    julia = data["algebra"]["julia"]
    assert julia["quotient_normal_text"] == "C(T) (x) M_2"
    text = report.to_text()
    assert "C(T) (x) M_2" in text


def test_report_content_zsq(analyzed):
    doc = {"numerator": ["1", "0", "0"], "denominator": ["1"]}
    data = analyzed(parse_map(doc)).data
    regions = data["atlas"]["regions"]
    assert [reg["core_type"]["kind"] for reg in regions] == [
        "superattracting", "superattracting",
    ]
    for reg_ext in data["algebra"]["fatou_regions"]:
        assert reg_ext["extension"]["quotient_normal_text"] == "C(K)"
    assert data["primitive_ideals"]["t0_verdict"] == "not_T0"


def test_report_content_whole_sphere(analyzed):
    doc = {"numerator": ["1", "-4", "4"], "denominator": ["1", "0", "0"]}
    data = analyzed(parse_map(doc)).data
    assert data["atlas"]["regions"] == []
    assert data["atlas"]["julia_is_sphere"] is True
    assert sorted(data["exposed"]["union"]) == ["0", "1", "inf"]
    assert data["algebra"]["julia"]["quotient_normal_text"] == (
        "C(T) (+) C(T) (+) (C(T) (x) M_2)"
    )


def test_report_schema(analyzed):
    jsonschema = pytest.importorskip("jsonschema")
    from ratmap.schema import REPORT_SCHEMA

    doc = {"numerator": ["1", "0", "-1/2"], "denominator": ["1"]}
    data = analyzed(parse_map(doc)).data
    jsonschema.validate(data, REPORT_SCHEMA)


def _patch_everywhere(monkeypatch, module, name, replacement):
    """Replace module.name in every ratmap module that binds it; returns the original."""
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "ratmap" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, replacement)
    return original


@pytest.mark.parametrize("doc", WORKED_MAPS + DECIMAL_TWINS)
def test_critical_fates_computed_once_per_critical_point(doc, monkeypatch):
    calls = Counter()
    originals = {}
    for name in ("orbit_fate", "asymptotic_valency"):

        def counted(*args, _name=name, **kwargs):
            calls[_name] += 1
            return originals[_name](*args, **kwargs)

        originals[name] = _patch_everywhere(monkeypatch, ratmap.dynamics, name, counted)
    data = run_analysis(parse_map(doc)).data
    n = len(data["critical_points"])
    assert calls == {"orbit_fate": n, "asymptotic_valency": n}


def test_each_critical_orbit_is_walked_once(monkeypatch):
    # Before one orbit engine served every caller, the guarded stepper was
    # called by orbit_fate 768 times for the 12 critical points of the six
    # worked maps; asymptotic_valency re-walked 14 of those steps and the
    # exposed seed pool 14 more through plain evaluation.  On the first 10
    # corpus maps and their twins at max_period 2, orbit_fate stepped 4736
    # times, asymptotic_valency 544 more and build_atlas 840 more.  Later,
    # orbit_fate's floating tail still stepped past the 64-step prefix through
    # its own evaluation, and asymptotic_valency stepped the same points again
    # (2 steps per run on corpus map 2).  Map 2 converges past the prefix, so
    # here the tail is stepped by the counted stepper too.
    # Points are told apart by (map, object): a module constant such as
    # INFINITY is shared by every map and by its cycles.  The cycle search's
    # exact check of each fixed-point candidate walks its own orbit, from
    # INFINITY too, the critical point of a polynomial; it verifies cycles and
    # reads no critical orbit, so its steps are not counted.
    stepped = Counter()
    parent = {}
    alive = []  # keeps every point seen alive, so ids stay unique
    crit = set()
    checking = []  # non-empty inside the fixed-point candidates' check

    def counted_step(r, x):
        out = step(r, x)
        if checking:
            return out
        stepped[id(r), id(x)] += 1
        parent[id(r), id(out)] = (id(r), id(x))
        alive.extend((r, x, out))
        return out

    def recorded_critical(r):
        out = find_critical(r)
        crit.update((id(r), id(c.point)) for c in out)
        alive.extend((r, out))
        return out

    step = _patch_everywhere(monkeypatch, ratmap.dynamics, "_step_with_height_guard",
                             counted_step)
    find_critical = _patch_everywhere(monkeypatch, ratmap.dynamics, "critical_points",
                                      recorded_critical)

    def flagged_check(*args):
        checking.append(True)
        try:
            return check(*args)
        finally:
            checking.pop()

    check = _patch_everywhere(monkeypatch, ratmap.dynamics, "_exact_fixed_points", flagged_check)

    for doc in WORKED_MAPS + DECIMAL_TWINS:
        run_analysis(parse_map(doc))
    for index in (2, 7, 8):
        for twin in (False, True):
            run_analysis(_corpus_map(index, twin), AnalysisConfig(max_period=2))

    def on_critical_orbit(key):
        while key not in crit and key in parent:
            key = parent[key]
        return key in crit

    orbit_steps = [n for key, n in stepped.items() if on_critical_orbit(key)]
    assert orbit_steps and max(orbit_steps) == 1


@pytest.mark.parametrize("twin", [False, True])
def test_asymptotic_valency_only_reads_the_fate_walk(twin, monkeypatch):
    # corpus map 2 converges past the 64-step prefix: the fate's tail walks
    # those steps, and asymptotic_valency reads them without stepping
    inside = []
    stepped = []

    def counted_step(r, x):
        if inside:
            stepped.append(x)
        return step(r, x)

    def flagged_valency(*args, **kwargs):
        inside.append(True)
        try:
            return valency(*args, **kwargs)
        finally:
            inside.pop()

    step = _patch_everywhere(monkeypatch, ratmap.dynamics, "_step_with_height_guard",
                             counted_step)
    valency = _patch_everywhere(monkeypatch, ratmap.dynamics, "asymptotic_valency",
                                flagged_valency)
    data = run_analysis(_corpus_map(2, twin), AnalysisConfig(max_period=2)).data
    assert any(row["fate"]["kind"] == "converges" and row["fate"]["steps_used"] > 64
               for row in data["critical_fates"])
    assert stepped == []


@pytest.mark.parametrize("twin", [False, True])
def test_an_unresolved_walk_keeps_only_its_prefix(twin, monkeypatch):
    # corpus map 23 has four critical orbits that run the whole budget unresolved
    fates = []

    def kept_fate(*args, **kwargs):
        fates.append(fate(*args, **kwargs))
        return fates[-1]

    fate = _patch_everywhere(monkeypatch, ratmap.dynamics, "orbit_fate", kept_fate)
    run_analysis(_corpus_map(23, twin), AnalysisConfig(max_period=2))
    unresolved = [f for f in fates if f.kind == "unresolved"]
    assert len(unresolved) == 4
    assert all(f.steps_used == DEFAULT_ORBIT_BUDGET for f in unresolved)
    assert all(len(f.walk.points) <= 65 for f in unresolved)


@pytest.mark.parametrize("map_text, config, code", [
    ("not json {", None, "input-format"),
    (None, {"max_period": "x"}, "config-invalid"),
    (None, {"render": 5}, "config-invalid"),
    (None, [1, 2], "config-invalid"),
    (None, {"declarations": [{"kind": "siegel", "theta": "abc"}]}, "config-invalid"),
    (None, {"max_period": 1, "declarations": [{"kind": "herman", "theta": 0.3, "period": "x"}]},
     "declaration-invalid"),
    ('{"numerator": 5, "denominator": ["1"]}', None, "input-format"),
    (None, {"max_period": 1, "declarations": [{"kind": "siegel", "theta": 0.3, "anchor": 5}]},
     "declaration-invalid"),
    (None, {"max_period": 1,
            "declarations": [{"kind": "siegel", "theta": 0.3, "anchor_point": 5}]},
     "declaration-invalid"),
    (None, {"render": {"window": [1, 2, 3]}}, "config-invalid"),
    (None, {"render": {"window": [1, 2, 3, "a"]}}, "config-invalid"),
    ('{"numerator": ["1", "0", "0", "1"], "denominator": ["1"]}',
     {"max_period": 1, "declarations": [{"kind": "herman", "theta": 0.3, "period": -2}]},
     "declaration-invalid"),
    ('{"numerator": ["1", "0", "0", "1"], "denominator": ["1"]}',
     {"max_period": 1, "declarations": [{"kind": "herman", "theta": 0.3, "period": 0}]},
     "declaration-invalid"),
    (None, {"render": {"window": [-1e308, 1e308, -1, 1]}}, "config-invalid"),
    (None, {"render": {"window": [-math.inf, math.inf, -1, 1]}}, "config-invalid"),
    # int() of an infinite number raises OverflowError; a NaN or infinite
    # tolerance compares false with 0
    (None, {"max_period": 1e400}, "config-invalid"),
    (None, {"orbit_budget": -1e400}, "config-invalid"),
    (None, {"render": {"max_iter": 1e400}}, "config-invalid"),
    (None, {"render": {"width": 1e400}}, "config-invalid"),
    (None, {"tolerance": math.nan}, "config-invalid"),
    (None, {"tolerance": math.inf}, "config-invalid"),
    ('{"numerator": [1e400, "0", "-2"], "denominator": ["1"]}', None, "input-format"),
    ('{"numerator": ["1e400", "0", "-2"], "denominator": ["1"]}', None, "input-format"),
    ('{"numerator": [NaN, "0", "-2"], "denominator": ["1"]}', None, "input-format"),
    ('{"numerator": ["1", "0", "-2"], "denominator": [-Infinity]}', None, "input-format"),
    # the twin of (z^2 + 10^200) / (10^200 z + 1): W = P'Q - PQ' has the coefficient -inf
    ('{"numerator": ["1.0", "0.0", "1e200"], "denominator": ["1e200", "1.0"]}', None,
     "input-format"),
    # int() of an infinite period raises OverflowError
    (None, {"max_period": 1, "declarations": [{"kind": "herman", "theta": 0.3, "period": 1e400}]},
     "declaration-invalid"),
    # a misspelt render key and a number with a fractional part were once
    # ignored and truncated
    (None, {"render": {"widht": 10}}, "config-invalid"),
    (None, {"max_period": 2.5}, "config-invalid"),
    (None, {"render": {"width": 10.7}}, "config-invalid"),
    ('{"numerator": ["1", "0", "0", "1"], "denominator": ["1"]}',
     {"max_period": 1, "declarations": [{"kind": "herman", "theta": 0.3, "period": 2.5}]},
     "declaration-invalid"),
    # a zero denominator once raised ZeroDivisionError out of parse_scalar
    ('{"numerator": ["1", "0", "1/0"], "denominator": ["1"]}', None, "input-format"),
    (None, {"max_period": 1, "declarations": [{"kind": "siegel", "theta": 0.3, "anchor": "1/0"}]},
     "input-format"),
])
def test_malformed_input_is_a_coded_error(tmp_path, capsys, map_text, config, code):
    map_file = tmp_path / "map.json"
    map_file.write_text(map_text or json.dumps(WORKED_MAPS[0]))
    argv = ["analyze", str(map_file)]
    if config is not None:
        config_file = tmp_path / "config.json"
        config_file.write_text(json.dumps(config))
        argv += ["--config", str(config_file)]
    assert cli.main(argv) == 2
    assert f"error [{code}]" in capsys.readouterr().err


def test_root_past_float_range_gives_a_report_or_a_coded_error(tmp_path, capsys):
    # the Wronskian has a root near -2e200, whose scaled residual once
    # raised OverflowError inside critical_points
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps({"numerator": ["1", "0", "1"],
                                    "denominator": ["1e-200", "1"]}))
    code = cli.main(["analyze", str(map_file)])
    assert code == 0 or (code == 2 and "error [" in capsys.readouterr().err)


def _map_file(tmp_path, doc):
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps(doc))
    return str(map_file)


def test_cli_text_prints_the_text_of_the_report(tmp_path, capsys, analyzed):
    assert cli.main(["analyze", _map_file(tmp_path, WORKED_MAPS[0]), "--text"]) == 0
    assert capsys.readouterr().out == analyzed(parse_map(WORKED_MAPS[0])).to_text()


def test_cli_exits_1_on_a_missing_map_file(tmp_path, capsys):
    assert cli.main(["analyze", str(tmp_path / "missing.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_exits_2_on_a_config_file_that_is_not_json(tmp_path, capsys):
    config_file = tmp_path / "config.json"
    config_file.write_text('{"max_period": 2,')
    argv = ["analyze", _map_file(tmp_path, WORKED_MAPS[0]), "--config", str(config_file)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error [config-invalid]: configuration file is not valid JSON")


def test_cli_round_trip(tmp_path):
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps({"numerator": ["1", "0", "-2"], "denominator": ["1"]}))
    out_file = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ratmap", "analyze", str(map_file),
         "--out", str(out_file), "--text"],
        capture_output=True, text=True, env=CLI_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert "C(T) (x) M_2" in proc.stdout
    data = json.loads(out_file.read_text())
    assert data["map"]["degree"] == 2


def test_cli_rejects_low_degree(tmp_path):
    map_file = tmp_path / "map.json"
    map_file.write_text(json.dumps({"numerator": ["1", "0"], "denominator": ["1"]}))
    proc = subprocess.run(
        [sys.executable, "-m", "ratmap", "analyze", str(map_file)],
        capture_output=True, text=True, env=CLI_ENV,
    )
    assert proc.returncode == 2
    assert "degree" in proc.stderr


def _floating_twin(r: RationalMap) -> RationalMap:
    return RationalMap(Polynomial(complex(c) for c in r.p.coeffs),
                       Polynomial(complex(c) for c in r.q.coeffs))


def _corpus_map(index: int, twin: bool) -> RationalMap:
    """Map `index` of the acceptance stream (seed 20240811), or its floating twin."""
    rng = random.Random(20240811)
    for _ in range(index + 1):
        r = _random_exact_map(rng)
    return _floating_twin(r) if twin else r


MP2 = {"max_period": 2}
# sha256 of to_json_bytes(), of to_text() and of the report's shape (see
# report_comparator.shape).  Corpus map 8 has two records in one region
# landing at steps 49 and 50, so ro_depth 80 walks past the 64-step prefix;
# orbit_budget 40 makes the prefix shorter than 64.  The shape digests were recorded while cycles
# were still solved from the expanded polynomial of R^p: a cycle solver may
# move floating digits, but no exact value, count, classification or fate.
# Only corpus map 6 and its twin were recorded again, when the repelling
# 2-cycle that solve had dropped was found.  The "two-cycle" cases are
# EXACT_TWO_CYCLE_MAP and its decimal twin, pinned before the modular screen
# of exact fixed-point candidates.  Corpus map 23 has four critical orbits
# that run the whole orbit budget unresolved; it was pinned before
# orbit_fate's floating tail went through the orbit's own walk.  At
# max_period 1 the two-cycle map's critical orbit {0, -1} is on no listed
# cycle and stays exact past the prefix; those cases were pinned while the
# tail still stepped it exactly.  The "siegel" and "cubic" cases carry a
# declaration; they were pinned before declarations were checked in one
# function and bound once per analysis.
PINNED_REPORTS = [
    ("worked", 0, False, {},
     "7db9fad1a08dc1c35635a81a01a1187eea94ba95c2b71965a447c458c4553a54",
     "abd77a1b25d0a08489e02142686599bcf515975104cf6d2e8c5c6ab2038f81fd",
     "16b6ae7ac0a3cc233e0dd1532898203ca60e3eed6e29cbef500c2140dbebdfc6"),
    ("worked", 0, True, {},
     "9f9a72b2932ef87c8d5438ced563f520572cc22b2f63e75a7db6f4a60e49f655",
     "45d1d4217a2e782d6e106eea95b8178049feae025db86e46c58993ecf54bafaf",
     "21be0ed9583bef42d478a248e5e3eb5f3d4229e0199038f7c0e410b0666e75bd"),
    ("worked", 1, False, {},
     "6bb77dd0431c8d57862805378feac71a6e56777feaf88bb39c77d5bf990f4070",
     "52abab5a2acd6d2bcdeee3171aa511b6d381e0343c2d1a158ccb2aabe05c157f",
     "8d9a8911f6dcf057f5b16a2a72677f7cf1c19c88743a28682e2a558d09eac153"),
    ("worked", 1, True, {},
     "22a00375ad46d5b8fa720426e56f5fe1a661da34946f61ce59fee2a4ca5f10aa",
     "20e35bb0720185ed2922c5979d9b7ca569a6f1d3f829ef8612b7b197d75a44a0",
     "b3209e403b0390a62e3247aac7fc938cd690e5c82edd0299ec288191572121bf"),
    ("worked", 2, False, {},
     "f7025636c831291ebd4380f251041eade31a57b7e5e513032b3321fc1a410852",
     "5fc55145a516b811038ad02bdcb296231e88fd0bb8a6635fd8f2ebe6c4eb776f",
     "efbc2d575690c15e2a97f596d6d23072cf0bbe1ee83280723b1c2c9e41cc436b"),
    ("worked", 2, True, {},
     "1bc606b439cd91799832754147837bfef04a8105b5a8093aab33c53f88761c30",
     "4edb2bc99803cbadd145165c6245def382702167c5f8e18992c33428afcd76b7",
     "9d5055e845a239c09e635e50d0a5f272e340ee7cfc1db1eb7503d42b3c6984bf"),
    ("corpus", 0, False, MP2,
     "bd31c8e571ad0e07c3cd210de8ac2bccaa09a82b89c95997302807f443cd33e7",
     "7cb5006c0be687a6afeaf4ee30cde93867d8c4ccaea05efd00d73f563d1c5bad",
     "fccb22a0bc39cf65ad4b045b9c05606eb500c0a7b19eaec947aca23dbde60849"),
    ("corpus", 0, True, MP2,
     "c7ffb7ec3027db703413305734168f22491ffa43fb554c891751ed13da379f75",
     "028c80db5d156bee1eadf4559e50438d315b1b156a47314516a3413b644e9707",
     "8ed9e349b8d4d6098ce70474907569debd7c5c05eb271d1820ead618a6b93cb0"),
    ("corpus", 1, False, MP2,
     "77653e2fd09d055c1f6cfb34d53b30f0a37d1e960c45ad2171dafe5fd8a2307c",
     "2a9325e7cb8f22e3e4f53f51d668308eb9f34fa708e19cfba29dc3232113ceab",
     "ace478d18e14d172ce2cce5796b79d8b274e0044e8bd5f84fe0cc27b633bdca2"),
    ("corpus", 1, True, MP2,
     "60ab9daafe13374a1afa6f31e4bacc43a662620e1dd34cc33d36af6299f42a4b",
     "df70afabe30810e05ad8accb7f93a58aabf365c99e7635878160d281696179c3",
     "6831c052349cf27fb6130f722993e8e0cc1eb0dfdb2fbc64b624294ba34ab960"),
    ("corpus", 2, False, MP2,
     "2041665ab4d7701d0b762525d4e0ef0285be89c130e2df75a21f4e153b77f534",
     "bb926cd7aa127f0a12a8c19f9ec324c3bb1c1568bbce3c708b9bba20ba5e2204",
     "bc37df28205bf8fe49a4c1171f7be411df89d9e6ea5c4ced3531fb327ded88ab"),
    ("corpus", 2, True, MP2,
     "89fa6034b9f29b1e25517997d6c9fced6d245d8a59916d0bb0bde0f1f79567a2",
     "90f2a9709115d112a8573d140eb4c8c5c1742f8812d03fb7034285458f961ac2",
     "2deb8d378dafac2966d6b1f77cd7fab56e7e952517a0ad47bce89af23e45e3de"),
    ("corpus", 3, False, MP2,
     "b5a5c6713dd60f17b3d67064032b62592fc27331b137301fe6fedcf855fbcb11",
     "b78082ef5baf1408b9e172b6b8f6adf06c1a3b12a768bac8886621a0362a328c",
     "5036c784bf446f8424655d76f3ab3fb87679b824125a1b59006453ff017136f2"),
    ("corpus", 3, True, MP2,
     "aba3187374d772e9c8e1e14c3f3f7f8eaf238f6013e8510fad871c01ddf32ee7",
     "ed262f1ec895e5084758e21ea07d0de088eb8e3eb2b47db9b48c2aea9bf1f6e3",
     "53f6401d8c188699229b17aca62914d0108d8da0083eb6b4b9b880487b6cc275"),
    ("corpus", 4, False, MP2,
     "8874a3efaea2bd4b43b645bb87473bcd6258dec0d647ecaeedbcf61b4df3167c",
     "af6e142812deb13d57c3bf9fb6d65eeac97e552e56a602b857a9ddf85c993642",
     "dd11da633a988002ee1177451575106b1a8155aa61cdd7e83a5d87c77f2ae823"),
    ("corpus", 4, True, MP2,
     "e9c13f271e13a7125ab16da0e0ca3ef3d6eefa960878f0ca4fe088b9b143f2ae",
     "d1d6095b81199fb4f0db6d2b5c3af34166b0ea7dd13eb79d6bdf5f685b010307",
     "dc904222483f9a3bac1f57ca0c5e4735ff4f97e75be4f223b8a1556ceaa835ce"),
    ("corpus", 5, False, MP2,
     "20611ee6c430356d0b495a9da05113805ea6265fa9c8c9bdff8ef60b9a98986a",
     "0689e6b2afd2d3a941646e215833ea29af3993af0c658f4f393918f09e2cb445",
     "f1df9e6367c0727a54d520ae7a0cb4c0c4d01d41089957de17ae5a104e6d4cfa"),
    ("corpus", 5, True, MP2,
     "c105f855466ea49dc0f6a6d50883e62e1a279c3d6991a3eec2e8c8faf3af8851",
     "dc8d1121371cb7403f4f3fc85f89fe41d26b32b344bb62c05eb775bec8c31fb0",
     "39b5f55ee0a2e257a3c475572e823759d151a84eafd31962cc61a161b2ea5b75"),
    ("corpus", 6, False, MP2,
     "2b541bb5dc555d8eaa399bb660c1308272a50ffa6c1155e36669f59aa772ef40",
     "16ac7b07487844531319574f93c2e035a7ee876516262fabaeb2157e674ae409",
     "77df56d685ed56660ed4a8712574acbeebec421f59811fc83fc8c15b9a8faa92"),
    ("corpus", 6, True, MP2,
     "406d545dc575efebc4304ccd76dfe126cf5285dde937f81df97e65902860399a",
     "3831cc5935148edfc2db9f88d1ca57a975c9df6641ff30eca3334d83124385c5",
     "e4e26743b3f971680db10c5b7b9a7ad8a0e362387003c924d246e6e57704136f"),
    ("corpus", 7, False, MP2,
     "08e2dd412804a15421a2de55794e0e5acc50dd8510d3b24f03bc99800febe6df",
     "697949f125e43b351068dc21937f4392577a94db1f5a08bbb771b29f8ed867a6",
     "9d071422dcbe2058377de0410231b64137ba992906373835009a4d4f7b62fbad"),
    ("corpus", 7, True, MP2,
     "05d2f53a6e58c56d397a449e47868c52feea4714b255542c171ea5e090bdf468",
     "a639a311e19f838169333fadc7b6bcace480576e7887cea2ddb5e856608d52fe",
     "383e2854cbc511cbeb11c5f56bba5330bde395846e8c0589eda2da4e57beefa8"),
    ("corpus", 8, False, MP2,
     "9641c6fbf58945aa780ba37aa5fd170da90e4025fabe55d4395fb183b4a98203",
     "96aca805d45ec9f8c4ce0dc518f461f55d73cdc090cf9d4882dc86f569ee51cb",
     "23ac9a0807f36c31b7309e423c0627e49491a3c9e1439252a11e357e71477616"),
    ("corpus", 8, True, MP2,
     "6f2f5994e0ec27ade04ffe76e0363cbb8f93ee9ecadd187572d48ca6942a20c3",
     "676d1c7fd35354d4c08c93c76153d755dd7bcbe656323d8229f5740e701f4025",
     "d4a12e9bc34a2e598561cfbb5534087caafa82b3825559cb36e720aab87b43cc"),
    ("corpus", 9, False, MP2,
     "b2bbf262985fc7138785930cb0a2cfc9b3caef68669de49cd58662812a175401",
     "e5c8e226bb071bf6c7262717a9e416e728e56de2b63fbc156cf1e29b5bac0d44",
     "e65925aaf433ee6e97d4468973b6f3193f0d701dbf4d2c071f8dd66359d45032"),
    ("corpus", 9, True, MP2,
     "ba4c7c1cb4702b88efd42d2a1c7147f0d46fed81928958278e457efad361972d",
     "b74a6e2a47ffeeb04e31bafd8806775652240751f84b2dc641bfc258e8dc8506",
     "e5fe191eef4a3ca0ec1528c5f5891502870573cb74956f29adef79419f21602f"),
    ("corpus", 8, False, {"max_period": 2, "ro_depth": 80},
     "855ed1b394a079884171f8853477260dd7a1176376e15cdd9e479011fe56406c",
     "1406c65643d8c0f4b56e422fe674f915d8be4a1e34bc4a8db36275c0f0018913",
     "5bbcf914ff8ead6be391ced9374a4fcfeda74b813fd424588427c1d13351901a"),
    ("corpus", 8, True, {"max_period": 2, "ro_depth": 80},
     "6f3e035cdcfab05423a767df91613b9f54d5d70358ee22b14bf1df3bbcf1ff0a",
     "1db8e0fc2a3e5659a3b9fe00cbd7b0dac4d9b1923cc891313d963c72bf9181aa",
     "69c2499122a06c83694062c71d674609b01136cbbb0c9e88f621f5330625a8fe"),
    ("corpus", 7, False, {"max_period": 2, "orbit_budget": 40},
     "c3a1c9da6394b6ea74c2c7a87251407695842f47b4094e2d98a686ebad96d0ed",
     "a7ad8d778a2ec4b720bb489d9b157f7748c821d8cc19f0101e26f3d9b9d0f0f4",
     "7a7f2cc035391253c4cab592b4432eb45a176a95ef949026a5951474730c1716"),
    ("corpus", 7, True, {"max_period": 2, "orbit_budget": 40},
     "85c5ec2dc5f35e821586e9a2a1ffaedf670edc1a237058a6a20a8f69db168323",
     "8c7f87fa3b1f0ca41543e768aa1345091bc5fba00bc76bd3290c556ee2ba8aac",
     "d6fe0bcc82663ce53b5b68fc51fbca172915af7c87d4dabee8739dba89db1d87"),
    ("two-cycle", 0, False, {},
     "8c7441ee34e38a1cb061eadb03bae1f210b89262b345fc9b7bc38ce0e9d42486",
     "2c5f290f8036950401faf17ccb0b7f3235acdae43a9d57e9d34d81cf6f82459e",
     "d56030e682526290b214eaa49c4e86fa327be7acbd47602899bb15b792e12da0"),
    ("two-cycle", 0, True, {},
     "3b0731a6d80ad280392724343331754b6e88b2ccfe41c90ef2d49d14d5f97eea",
     "02ca78bc92969bd6a46f0db24dade8ea3d6408bc58ac6e86e82a034134c25cc6",
     "53d42ef8a7aa3e3a82a2a7ae3d12f487610cb6ee4c8b7b2cde3f969f55964a79"),
    ("corpus", 23, False, MP2,
     "6e95ab88fcb3db54c8f899c4b831a9afa8f2299cd4497f431eab7686b8cd8320",
     "fe43fc5c23d9d885df709d95ed6c25bbbe13ca29a86145b37e7f48986e09bda8",
     "77e930421d7542b6787e62a3549dcad160b83c070760e7f6973501375a1b7377"),
    ("corpus", 23, True, MP2,
     "ab7cf77021c5df1e7424132f8facb68b5f8240e87dfb9ff81023f28646ece0c0",
     "70a8c7e4af18591e7533e937c940c613a3c8e14749aee6c6a20d219336ff0ca1",
     "645e888540b0ea30ce7f9194c634428ef31a4c31cc4d47ce1cf74ccbd4399633"),
    ("two-cycle", 0, False, {"max_period": 1},
     "78ea443f0a523229e2fe0af1b659e3f01c76dc21b4c70ffa2ef52c4af52f3d44",
     "8d11f9ff9b9e179078827b18762150ba6aa331157e96d359fbd28c6683c6f5dd",
     "cdf2805f18a28fd898a4d7342831756d73c0547c60ed210bfdbc9b2da0802f39"),
    ("two-cycle", 0, True, {"max_period": 1},
     "e235a3332923d98ce71533fc7629d9ee5552dba6b04fd2a2bbc9848beab01c7b",
     "3d206a4da369258b7bb3133f8b6f43ad8fb5bfacf537d4e29e70950fe6953501",
     "217f363db3fa4c7813cb58f51471a0215904c48be7873cc7a338725aeb8b6b56"),
    ("siegel", 0, True, {},
     "3ba58e470e9fe00a70afb85eea8b11a295334eeaa340811a28f01ec4ab7e3123",
     "51445c53143ebb69327522f17504e6dbb8d651f9090d653228d2452a3f88ce79",
     "60d627d3c3fed6f37d2e6e655bd15eb0c49cb42501b3287d27ec9b95fbf1fdd5"),
    ("siegel", 0, True, {"declarations": [SIEGEL_DECLARATION]},
     "02452ceb448be31038189e0067390c7c3ea5c249b5c3f2370c7a791f13f19499",
     "f0c29f376d945f365201fe742e8eeaa16f40588f32e3f58a8e75e5383e7538d5",
     "0ab37bbba0c97743fc28ee8f219eda39eeceaa8e757db0a0467b2785877961b5"),
    ("cubic", 0, False, {"max_period": 1, "declarations": [HERMAN_DECLARATION]},
     "c0f508613639cc732228b1735bc950a3b9d049ab865a776779738c28d72ca619",
     "01516a98053d63435d243c18a77cb6672deb6054ccaa4bfabf350d13ec461331",
     "fec4a58e1be3934372a78fd5b85c5748c94e1a857247df5ede8a088925dff6ce"),
]

# The test id of each case embeds the JSON and text digests it was first
# pinned with, so re-recording a digest does not rename the test.
FIRST_PINNED_DIGESTS = [
    ("e376fbb4487ac9399dca4d69ee8738358e464c789d2ef4c1874896f76f4d269f",
     "7fc1ab8c5021f5fd11bff3d269cc2535bb8bfb5894e97d2fc72196cd306dffc5"),
    ("036d2194528963311065e6f740e070ae294dedcbfc0a24597d572c4fbe9b8426",
     "4b95bcdc9e93f07acb491463c4ec5c0f09b0e89a71cbc7930125e8cc5e94c148"),
    ("07d62d071bbb9acad5440c614b2fd2d351a086f0d1e76014630282093666ab0a",
     "c85e95a8b76ac05b19cdc34926a8ff96ed2445e8faaa0e66ef2d777d0ea5cad1"),
    ("a3250ce4f05d13848762c2dcb2fb00d68acf4c472ebc8b1750492dcbd2d24abc",
     "ceb42c16bf4a57b40f0faa25b1f639ee1ee5df074152423ab62cadbec1045fed"),
    ("eca7c49848d173bb509d33155f0626100af7a6f92aff2a8ffb95621016c9e251",
     "910202465ff8c8b92db71d31c43b9ff5373d006544f8b224992e4ce543882fe3"),
    ("713e2e53b2efc106a259770df82954f6da8e8119a4597be6b7768397805bf8b1",
     "ed26a3d5aa2a5136aaa702b0425c87d0901de846bf8048f2397542d3d8c9ad81"),
    ("26935f883b2535c0cfa7e9706dd6a7ab986daf4e8f2fc8bc355dccb5650c4017",
     "319f183f5e0f7077251ac151518ca9bf43a4f5ee96b6ce21e4326e88ce0d697b"),
    ("aa1cf2c3808c79b0a757c49f9df20d71cd9604b948ec138e9afb4e612fac7d67",
     "e5c714c0fe80e55e8015674e1249e2cbd17ef2a9ab6a28d21dba1f74fcab18ab"),
    ("767d3801387299f68923d0590b332b633eaa9bf198e96f698de88fa4f7ecc9f8",
     "d17f1d4f600eb3ea165a8658b4c86b2076db42796ebdcb918b242425719f0691"),
    ("73813e9034464d0af26927fe0eca4e2163bc57a75be5ce7ccb6aeab36c5d73e8",
     "48089fdd33d849ff4a62e7a36b886134c592a5ee6a28724f7d075aa0a11ec870"),
    ("c69eeb3007f9995e78254f8acf4bfd157b2a7285c19edb2201732387a7f01ca0",
     "a4abde03117aa2070a7e222bec5c59b87aa8de2cd11c7ad3e9ebc1ec792146bb"),
    ("7c829cf6fbfd3f67775e06dcffc314bc703b3f2359c82bb75ae618474079fa6c",
     "f4a93c5b380192a64b7387252323319e3fb8431816dd791c8f33a427e704f29e"),
    ("ddcd5a08bc54cdf2489f7637efa25624d3f18dae6678339aa7c98a44073b59d8",
     "6382cad335263052d06246d93772b67c9f268b0d1947c9b53ef1218aa516b710"),
    ("7101aaa385bd2fbd833b245e5a3b2806805c0b2b3a95f499f4793e0872e6146a",
     "19c55ba9a1affcbae7df15a725bfa18bb6fe0adcdec9a525a436fb73594e0275"),
    ("b0dd308f9243f3f239588916139eb88b4b5a883c93e0dd21d1c9d120580b846c",
     "2a033a9bbbb20c99c089d541d28499641a153e8e55e7e97842de3e73c45e8516"),
    ("63e49fc06a33d374d4f810a2301ac42d70e000d7f6045561105020c145fae43e",
     "480b6fee90dcb7fe5bf72511e3c46090c077f92c72752cf00c2eb0705bfb886a"),
    ("b0215f1dfdca5bc52034b5951dd94c14d6a6e580e7d40ed4ce76bcd506b2b458",
     "998cd52526d27554160bf5fd5a7ccf21d661b4e62549a71daa15c78735f9d450"),
    ("1e6c9e920cc910ab778e44b88229d4872c8e987d230880fbd4c50b884218d04b",
     "3a13fb7416f814b528d47292dbf707df620e3f91fc3bb7f640b3f611846a229f"),
    ("b2ab78acc93fa35571db249d7e61f18f637266b4e8e975a5cab1c13becdf3194",
     "8fd8408808bc7f84082ac3e025c7606c25cd82e3d4304e155da7a2e2a5b1b809"),
    ("f6e10541ed4c8193ba48668dc2a0595519a6596ef35387c7b2642b4762c069ac",
     "c363fa08b6d034a275d857d83f7998ab8cbc3386582a2749cb02cb8a96415ecc"),
    ("a07180ad85f11dc29fbfda6b42535b99a58b39cf02dc564559c6e6518ebfec50",
     "b3d46f15bace28c8ca9d22288e38841b446b59346befb120e857358bfe00e679"),
    ("e6f07a7e2c09373dd45da94ff610ac223cffd2b7482af66693eb4007816a40ad",
     "ca88de36914e135293c48b349be1f831013cd89f368831991d44d8bc2b32ec8b"),
    ("3629e0ff8eb98a6df1187939d7008640d94741d8895009f5de0b3b06d738c7e9",
     "9a69413a02e4b51871fe812fb54e937f1a5f9d0a9b387c4cd556fb7ffa89d036"),
    ("2676f5faec0bfa8e9bac20c69c122d02100a06f56414c9c0a16dce7f13c7ccb4",
     "94439613e5bab4d91d86547d265292689601f1e787e6baf1b5fb19f8e5a3b8b6"),
    ("676257244686b22e61d7cbd37d5fbd578b38552fe96ba989c19e0e327e38b9ad",
     "c7f8d7151f3b623de08ae59f42acfad3b98b3523d7c277ef33b16b590e432565"),
    ("04e0aeb0886b3c248b236b38b49229334e56d12b0ab511c5dbd711aaeb2923d7",
     "027c49b0c4f486a35a2e0c46e34b172886843f85b24ed6f3a0bf77c4a569b210"),
    ("0bdcb8becd556e32eeb2dc8a415a1fbfcdd9a6c4c8317d60431d3e41aaa68921",
     "44fd14d8d09e2cbd52fdfbbc542199b98459be787d4195cbe05e3478e3ef1b1d"),
    ("06bb3f6fa8d48e10cc805bf94f5e391d196ad8296f6fea3dd4c0dc43232d2c75",
     "9e15ecca6aa2b523cc6afb012f1f92a4e480f309e3c75e7d64ae46d0a9a7508c"),
    ("52a63cf4c0eda61889bf72948a15df1a845ca7f09313e3e4984f2d4bc216ab8d",
     "e81f78fa774206a1c85e187d2cc0cee3bbfd11ccbce234e115db4140cf43e9ca"),
    ("fab364994ee1e0cb1b30fe69aab90f370d7644013737119aa0ab25810acea29e",
     "fc74edfaaf4856b41b3d929019e020528d969db0cf80a620107d8e1820ecb76d"),
    ("663801e50c6744c3a15f4f1a6cf0c3198221c3833062bf0725bf3b1dc2533d4a",
     "014bbdde034c00631e414f03ed4c9a7d07cdff4091899c5f1e17919ee4ea0587"),
    ("cf2d180e05cb2531324d00e960d58dd96b2272b3e14b456208d5639237839018",
     "776db60377a3ba8f04c4213863051aaff32f507e3962405b7883393cb6205808"),
    ("18766952abee64232ba668e2e85623136d24865c24b92bdb25ea57869314a900",
     "d93ef06ef80b1164f1851cd1a63e314ece93002deab7d9285cf81c0e9f8fccd2"),
    ("1fc68bc787d197a1c2e60a41f4bd9bb345d96322fafc60c3d044bb6c34ca0038",
     "e6a1bd67cf7fa2b28d8444f853fa6ef1ce5d8e397e2913d057859ca15bf5a193"),
    ("b5d22a455f55bd71d51e39f9bca683232fc7c03293a9cab9dbaab512ff982957",
     "d0053fdcf3e5a4292852c9120665121f6e09988ec189184c97d4709001b1074c"),
    ("80bc581d228fd233220f07961efbc5b7b9c1450269d6499d493857a6ecfdde95",
     "b0509a14b953ee6eb78beac295b108d744820209d2211a66b479a49221f4fbab"),
    ("5d6ad9e41e73c33633a4dd6c8cb46637b702ccca1da2b17ef0bf66a2840f468b",
     "66f9de3c135b7017338466fba4864499b297b0f2e3a289211a0d18ef9bf89910"),
    ("553fe3f03ee46f589a376b4a0a6c73fccb97e824341b389e8d7768ad9a690f83",
     "a136323c67ca30107987ecec4d4228164d725557a59c159a2ba60ee228544f37"),
    ("c0f508613639cc732228b1735bc950a3b9d049ab865a776779738c28d72ca619",
     "01516a98053d63435d243c18a77cb6672deb6054ccaa4bfabf350d13ec461331"),
]
PINNED_IDS = [
    f"{case[0]}-{case[1]}-{case[2]}-config{i}-{first_json}-{first_text}"
    for i, (case, (first_json, first_text)) in enumerate(zip(PINNED_REPORTS, FIRST_PINNED_DIGESTS))
]


def _pinned_report(analyzed, source, index, twin, config):
    if source == "worked":
        r = parse_map((DECIMAL_TWINS if twin else WORKED_MAPS)[index])
    elif source == "two-cycle":
        r = parse_map(_decimal_twin(EXACT_TWO_CYCLE_MAP) if twin else EXACT_TWO_CYCLE_MAP)
    elif source == "siegel":
        r = parse_map(SIEGEL_MAP)
    elif source == "cubic":
        r = parse_map(CUBIC_MAP)
    else:
        r = _corpus_map(index, twin)
    return analyzed(r, AnalysisConfig.from_dict(config))


@pytest.mark.parametrize("source, index, twin, config, json_digest, text_digest, shape_digest",
                         PINNED_REPORTS, ids=PINNED_IDS)
def test_report_bytes_pinned(source, index, twin, config, json_digest, text_digest,
                             shape_digest, analyzed):
    report = _pinned_report(analyzed, source, index, twin, config)
    assert report.to_json_bytes() == _dumps(report.data)
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == json_digest
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == text_digest


@pytest.mark.parametrize("source, index, twin, config, json_digest, text_digest, shape_digest",
                         PINNED_REPORTS, ids=PINNED_IDS)
def test_report_shape_pinned(source, index, twin, config, json_digest, text_digest,
                             shape_digest, analyzed):
    report = _pinned_report(analyzed, source, index, twin, config)
    shape = report_shape(json.loads(report.to_json_bytes()))
    assert hashlib.sha256(json.dumps(shape, sort_keys=True).encode()).hexdigest() == shape_digest


# (1e154 z + 1) / (1e-154 z^2 + 1): the quadratic solve and the Horner
# residuals of its root finding overflow; the digests were recorded while
# numpy still printed those overflows as RuntimeWarnings
OVERFLOW_MAP = {"numerator": ["1e154", "1"], "denominator": ["1e-154", "0", "1"]}


def test_an_overflowing_root_solve_is_silent_and_keeps_its_report():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run_analysis(parse_map(OVERFLOW_MAP))
    assert (hashlib.sha256(report.to_json_bytes()).hexdigest()
            == "d5b6b585a278cbf1bb5e0abf3a284b9f46d32c84f01116e1415e03c832003a33")
    assert (hashlib.sha256(report.to_text().encode()).hexdigest()
            == "3d9518fdeda76acc1a6fabbb4ca505b128f2e2ff1e3912ee33ab96c160c349f8")
