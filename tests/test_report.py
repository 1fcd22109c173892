from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from collections import Counter
from pathlib import Path

import pytest

import ratmap.dynamics
from ratmap import cli
from ratmap.dynamics import DEFAULT_ORBIT_BUDGET
from ratmap.errors import ConfigError, InputFormatError, MapDegreeError, RatmapError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import AnalysisConfig, RenderConfig, Report, parse_map, run_analysis
from ratmap.scalars import GaussianRational, parse_scalar, scalar_str

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


def test_report_round_trip():
    doc = {"numerator": ["1", "0", "0"], "denominator": ["1"]}
    report = run_analysis(parse_map(doc))
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


def test_report_content_chebyshev():
    doc = {"numerator": ["1", "0", "-2"], "denominator": ["1"]}
    report = run_analysis(parse_map(doc), AnalysisConfig(max_period=4))
    data = report.data
    assert data["map"]["mode"] == "exact"
    crit = {c["point"] for c in data["critical_points"]}
    assert crit == {"0", "inf"}
    julia = data["algebra"]["julia"]
    assert julia["quotient_normal_text"] == "C(T) (x) M_2"
    text = report.to_text()
    assert "C(T) (x) M_2" in text


def test_report_content_zsq():
    doc = {"numerator": ["1", "0", "0"], "denominator": ["1"]}
    data = run_analysis(parse_map(doc)).data
    regions = data["atlas"]["regions"]
    assert [reg["core_type"]["kind"] for reg in regions] == [
        "superattracting", "superattracting",
    ]
    for reg_ext in data["algebra"]["fatou_regions"]:
        assert reg_ext["extension"]["quotient_normal_text"] == "C(K)"
    assert data["primitive_ideals"]["t0_verdict"] == "not_T0"


def test_report_content_whole_sphere():
    doc = {"numerator": ["1", "-4", "4"], "denominator": ["1", "0", "0"]}
    data = run_analysis(parse_map(doc)).data
    assert data["atlas"]["regions"] == []
    assert data["atlas"]["julia_is_sphere"] is True
    assert sorted(data["exposed"]["union"]) == ["0", "1", "inf"]
    assert data["algebra"]["julia"]["quotient_normal_text"] == (
        "C(T) (+) C(T) (+) (C(T) (x) M_2)"
    )


def test_report_schema(tmp_path):
    jsonschema = pytest.importorskip("jsonschema")
    from ratmap.schema import REPORT_SCHEMA

    doc = {"numerator": ["1", "0", "-1/2"], "denominator": ["1"]}
    data = run_analysis(parse_map(doc)).data
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
# _shape).  Corpus map 8 has two records in one region landing at steps 49
# and 50, so ro_depth 80 walks past the 64-step prefix; orbit_budget 40 makes
# the prefix shorter than 64.  The shape digests were recorded while cycles
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
     "25967cfda40d71817dc85d7524715edc972def667c52c3a645e2f072b8f0940b",
     "bdecc95435423f9921830fe934a42beec88639333177d4429b59648c2fc5dcf6",
     "16b6ae7ac0a3cc233e0dd1532898203ca60e3eed6e29cbef500c2140dbebdfc6"),
    ("worked", 0, True, {},
     "c9723705ef625e906e754aa5beca16f51df6c86fc7cf7c22facdf25a7c6e2741",
     "dd15f4da73837edf9e3c244799a8e097da292cbc354e43af1179de1aede76be6",
     "21be0ed9583bef42d478a248e5e3eb5f3d4229e0199038f7c0e410b0666e75bd"),
    ("worked", 1, False, {},
     "c22df483c7c94f3127b107eda9756f77f990d11d9a4e4fe1d5435f6a50e1e258",
     "a4cb87d0ce2086b73933316568c66b33880a4bb3a021bca28b5b0c34b176c2ae",
     "8d9a8911f6dcf057f5b16a2a72677f7cf1c19c88743a28682e2a558d09eac153"),
    ("worked", 1, True, {},
     "76ef82530aae143c577e5a040e2bca74d2852a6caf994f5ed745e44ebf0ddca6",
     "abb5e94f847e8e4469c032fadaaff26343c0ce07c19652361efd8adc630e028b",
     "b3209e403b0390a62e3247aac7fc938cd690e5c82edd0299ec288191572121bf"),
    ("worked", 2, False, {},
     "e2b4073bbbc655628dc084efb1689d650fb11dcb10d4f3ee35c77ac291a9f05d",
     "32b7ff2db7026ff117a72bc3f25ed09e90b4fb5959518cb490a59cc2c46e5c94",
     "efbc2d575690c15e2a97f596d6d23072cf0bbe1ee83280723b1c2c9e41cc436b"),
    ("worked", 2, True, {},
     "453a5ca21a3695324844b651cf13a3957621ef1ece70510858b27beffa649781",
     "44d1c4c22b874426ef3da0c00ba1bdbb15da89b0a6ca91bf198a9558cb3606f0",
     "9d5055e845a239c09e635e50d0a5f272e340ee7cfc1db1eb7503d42b3c6984bf"),
    ("corpus", 0, False, MP2,
     "8481832892b9e4619e66f736c7f45a51604973481e5fe3a3bf744f96e99f4d20",
     "695ad1eeb80607387ada4d75f3621e574e7b479456774a960e8c8eda924c57e6",
     "fccb22a0bc39cf65ad4b045b9c05606eb500c0a7b19eaec947aca23dbde60849"),
    ("corpus", 0, True, MP2,
     "1e94a1ab4b6b9db8422c2ff3843cd04263b6d9f0f375f348e14b463db2ce2931",
     "968cc946c331ff54ab986f56eee2133343bd76345e983a3b518b9075211b338a",
     "8ed9e349b8d4d6098ce70474907569debd7c5c05eb271d1820ead618a6b93cb0"),
    ("corpus", 1, False, MP2,
     "34c00d083a5c0d061b71aaf395ae5b5cfd0276cfb7f5ad5112e2fa594fa030f1",
     "84f796a79bbb915c9202501aa2ddf0c7ce402773fec61e7975c8d6ecd5baa166",
     "ace478d18e14d172ce2cce5796b79d8b274e0044e8bd5f84fe0cc27b633bdca2"),
    ("corpus", 1, True, MP2,
     "4ffde1bef9c1149c22bb2d371264279d7524c89b07a0018f0f3a4ec19355ac0a",
     "2c6f8bdedc05ffd4d0e07996f5f37fc6c730b68df3e944aa81720f05033564cf",
     "6831c052349cf27fb6130f722993e8e0cc1eb0dfdb2fbc64b624294ba34ab960"),
    ("corpus", 2, False, MP2,
     "c8686d3b115b862f4aff3c107aa86a0427368b3ccf9f6733137496c2223d52c7",
     "fc147e865f699d7f83082929ae887889f60df6b10df8c1c62ce8fa56a03e38e2",
     "bc37df28205bf8fe49a4c1171f7be411df89d9e6ea5c4ced3531fb327ded88ab"),
    ("corpus", 2, True, MP2,
     "f0ad89292f9ab2e3dae321de71c190c93576fb388030d8f6e6a708e3e7182900",
     "9b0c409e95b783928c4d289f89fcf5946263cd3dbfabf06eec67a19ea6f35ef1",
     "2deb8d378dafac2966d6b1f77cd7fab56e7e952517a0ad47bce89af23e45e3de"),
    ("corpus", 3, False, MP2,
     "d487e2cdc4cfe3e2bdc19454ce8b39e496d8529c9091895cb125fc71d24fbd01",
     "a4e8bd2d6397890f437585e4b30434946a969cbb59e2c2bdbc35b1e1765b3504",
     "5036c784bf446f8424655d76f3ab3fb87679b824125a1b59006453ff017136f2"),
    ("corpus", 3, True, MP2,
     "6cfbca688c7583645a6ca910de7fe32bb5518b266dff358ac7f523002e15a1a3",
     "425e0d9918822a0a8926c61eca6de49c2988e00e1103c0581855fa0dc49945e0",
     "53f6401d8c188699229b17aca62914d0108d8da0083eb6b4b9b880487b6cc275"),
    ("corpus", 4, False, MP2,
     "6ff29c98407a292470a03e84faeb700ed83dc8333d37b06add3816e2a84d8065",
     "60d29d7b7abbf97689cacc642f4b86de980e244cb673070a8e2f8a6a0fd26f2d",
     "dd11da633a988002ee1177451575106b1a8155aa61cdd7e83a5d87c77f2ae823"),
    ("corpus", 4, True, MP2,
     "d506d90218d83ace007e0eed0b31ed474ad79a0b1ab882d2195c004e010d8ae0",
     "48e096583b3960c413637fa16a17b0042a889ccf1cbf362cb556b5a9af3e37d8",
     "dc904222483f9a3bac1f57ca0c5e4735ff4f97e75be4f223b8a1556ceaa835ce"),
    ("corpus", 5, False, MP2,
     "88961b7c02e87a81153f31711720272b2e5b853394c9dac5bb356fd5004502e4",
     "5699672e98a8cc2171e2aa3a9ac50d77e1d750e9647478e2a17187159038d291",
     "f1df9e6367c0727a54d520ae7a0cb4c0c4d01d41089957de17ae5a104e6d4cfa"),
    ("corpus", 5, True, MP2,
     "f2b4f4b7797559628be11c4c56e5cb49a11ddd577dab98b23cef672bf3031cb4",
     "1bdc755288fe37db013a2b0e116b6daa646855ea56bb2eb86a7ac29cb0b01f1b",
     "39b5f55ee0a2e257a3c475572e823759d151a84eafd31962cc61a161b2ea5b75"),
    ("corpus", 6, False, MP2,
     "34cbcefe124b121a99f0336e72fdac05a85c99926099ec5d80d6963287997e6d",
     "7dc03b6b84c6689bf460f28fbaa8891aaccfd30f2b35f3f1d6263b99f4eed674",
     "77df56d685ed56660ed4a8712574acbeebec421f59811fc83fc8c15b9a8faa92"),
    ("corpus", 6, True, MP2,
     "73faaea3a8754dbc51b38e09caa04790cd2fcd8139fd2ace141bfe9ae9fee416",
     "802fa4b03be41d1ff32b5cad6cf327992b50c2249f9d40d77c32bed037f21707",
     "e4e26743b3f971680db10c5b7b9a7ad8a0e362387003c924d246e6e57704136f"),
    ("corpus", 7, False, MP2,
     "753dbfee471048577e2920d1068b955ffab0b816c4267380dc21b888a6f20701",
     "05e2a8bde3bf2bd9b3fec8479326619e80e86b996a96860420e7a2338f1da4bb",
     "9d071422dcbe2058377de0410231b64137ba992906373835009a4d4f7b62fbad"),
    ("corpus", 7, True, MP2,
     "5c9eeb72f62c7b0d55f5c1c182b35f93495167b7c2f3f88dc838f7482ce15f9f",
     "60c4405244f7acfa48b02318bcf94684a460dcc460a5f9e8b2deb414ef95c57c",
     "383e2854cbc511cbeb11c5f56bba5330bde395846e8c0589eda2da4e57beefa8"),
    ("corpus", 8, False, MP2,
     "2d7008e1cac6222d95e23a180c11cc7ab2eb45a1ae129bf32ed5bf9cfc99f504",
     "3f91ba8aefa19fb383e1ca4392240a2f8e3e5962ed67e688cea357fdc3c3e1b5",
     "23ac9a0807f36c31b7309e423c0627e49491a3c9e1439252a11e357e71477616"),
    ("corpus", 8, True, MP2,
     "83a68bbfd79f0a10126a4e100cf2b3cd0a646f39ca6ef98b50ecb455b3db3f44",
     "701192f19c18af6ee57c4969c331f3f3038e588e20e84f77f3f73379fc13b053",
     "d4a12e9bc34a2e598561cfbb5534087caafa82b3825559cb36e720aab87b43cc"),
    ("corpus", 9, False, MP2,
     "9b46bd9750f5ea36bf169aba2e091148e54be56d361976e3c565b9299a53ac03",
     "fff734138fe685f19495fed6adb5c9c3335920799d68e274427f060d8a70ad7a",
     "e65925aaf433ee6e97d4468973b6f3193f0d701dbf4d2c071f8dd66359d45032"),
    ("corpus", 9, True, MP2,
     "04990f240b0f5fee8ff0455a0ff4270b3c7e5ed397cb173475ccd79d4c8316ec",
     "f9dacfa957e1ef9cd40c532a2045041d61ef108c81ae0dd20ed3a819c2e82623",
     "e5fe191eef4a3ca0ec1528c5f5891502870573cb74956f29adef79419f21602f"),
    ("corpus", 8, False, {"max_period": 2, "ro_depth": 80},
     "cc01746946748a013aa9192fb328b06f355d3585c816797d874a2154e10e2cdb",
     "72fed2808453c6427b56f8c7d993201e036391d7679a568ce812f4002f17f0a5",
     "5bbcf914ff8ead6be391ced9374a4fcfeda74b813fd424588427c1d13351901a"),
    ("corpus", 8, True, {"max_period": 2, "ro_depth": 80},
     "42c41f34eb0d05aa9a88d7b24b672761412ee066387d1eb138febbf1519791e6",
     "a7808f8783f010c362bc6f0531690aab7d33f8d32d90d946ce712ec2afc43600",
     "69c2499122a06c83694062c71d674609b01136cbbb0c9e88f621f5330625a8fe"),
    ("corpus", 7, False, {"max_period": 2, "orbit_budget": 40},
     "5787eae3988f069d49a5c946a18306ddf707d3c7ebe6e7926d781719a236a40e",
     "c4496bd88713dc6cceac626351de921fed53fe8bb72a2e978506f2d98fc5820e",
     "7a7f2cc035391253c4cab592b4432eb45a176a95ef949026a5951474730c1716"),
    ("corpus", 7, True, {"max_period": 2, "orbit_budget": 40},
     "573db1ef3fe8d4535ae98047a2d757d031382fde4955717572802ebd38cbe19f",
     "fd5b23ff857978167613ee72440667fa30bc101f00000971d75f162ded0c76c1",
     "d6fe0bcc82663ce53b5b68fc51fbca172915af7c87d4dabee8739dba89db1d87"),
    ("two-cycle", 0, False, {},
     "776939bb6044a17ebeeb3060b8c21adcbf7be1e16d5b1c69ba5ee822a971af4d",
     "fcf5b46c26943ec47bcb7931e3323372293ad5e35e2d234e7375aa067e14a6be",
     "d56030e682526290b214eaa49c4e86fa327be7acbd47602899bb15b792e12da0"),
    ("two-cycle", 0, True, {},
     "66c93efe50a2091c5d4c0f3dfc6f22dac357ad2852c82366655ca106d36b700b",
     "84938e522ba37d1f987a255e813a649edf28ae7ac061fd7960c7901881689f9f",
     "53d42ef8a7aa3e3a82a2a7ae3d12f487610cb6ee4c8b7b2cde3f969f55964a79"),
    ("corpus", 23, False, MP2,
     "e9618da11ade1e7e4eb552f2a4cd1912639e622b76ab90dbc10c299de4122e4a",
     "200f74328b92df34490cb6c337f29f6316db918e0438bced38902a1d97317e30",
     "77e930421d7542b6787e62a3549dcad160b83c070760e7f6973501375a1b7377"),
    ("corpus", 23, True, MP2,
     "71a769d2c71514b44787ff53bc07f2c3378049163829b718fd820fc0d53fd47d",
     "058534f3ea3008795ab14217c173297b7d95d7e57824e8476d583502e8ba37e1",
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
     "4a8a858dd652d1342f008bb87aa5cd8d7ed40079061893b7a8e6d02128189c2c",
     "26b1cef60174dc05d3a1d68311e92f5a3e8a04eccc542a26178d7b5f6abbf541",
     "60d627d3c3fed6f37d2e6e655bd15eb0c49cb42501b3287d27ec9b95fbf1fdd5"),
    ("siegel", 0, True, {"declarations": [SIEGEL_DECLARATION]},
     "a55ddb536571081e71010fc28f4b90e51499bb73a0e68c40ed995e90c01ae373",
     "6710aeff7bc7c0ba20fae6fbd951fb23e2b474560ac66799596abe7e6c0bb1aa",
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


# a floating scalar written inside a longer string, such as the label
# "K_[0.03+0.75i]" or "RO({-2.0, 2.0})"; exact ones such as "-1/8+3/8i" have
# no decimal point or exponent
_DECIMAL = r"(?:\d+\.\d*(?:e[-+]?\d+)?|\.\d+(?:e[-+]?\d+)?|\d+e[-+]?\d+)"
_FLOATING_LITERAL = re.compile(rf"[-+]?{_DECIMAL}(?:[-+]{_DECIMAL}i)?i?")


def _shape(node):
    """The report JSON with every floating value replaced by "F".

    Floating values are the non-integer JSON numbers, the strings that
    parse_scalar reads as floating scalars, and floating scalars written
    inside other strings; exact strings such as "1/2" or "inf" and all
    integers are kept.
    """
    if isinstance(node, dict):
        return {k: _shape(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_shape(v) for v in node]
    if isinstance(node, float):
        return "F"
    if isinstance(node, str):
        try:
            value = parse_scalar(node)
        except RatmapError:
            return _FLOATING_LITERAL.sub("F", node)
        return "F" if isinstance(value, complex) else node
    return node


def _pinned_report(source, index, twin, config):
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
    return run_analysis(r, AnalysisConfig.from_dict(config))


@pytest.mark.parametrize("source, index, twin, config, json_digest, text_digest, shape_digest",
                         PINNED_REPORTS, ids=PINNED_IDS)
def test_report_bytes_pinned(source, index, twin, config, json_digest, text_digest,
                             shape_digest):
    report = _pinned_report(source, index, twin, config)
    assert report.to_json_bytes() == _dumps(report.data)
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == json_digest
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == text_digest


@pytest.mark.parametrize("source, index, twin, config, json_digest, text_digest, shape_digest",
                         PINNED_REPORTS, ids=PINNED_IDS)
def test_report_shape_pinned(source, index, twin, config, json_digest, text_digest,
                             shape_digest):
    report = _pinned_report(source, index, twin, config)
    shape = _shape(json.loads(report.to_json_bytes()))
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
