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
    # INFINITY is shared by every map and by its cycles.
    stepped = Counter()
    parent = {}
    alive = []  # keeps every point seen alive, so ids stay unique
    crit = set()

    def counted_step(r, x):
        out = step(r, x)
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
     "2b51166cfbf0913789c9ab43f6fed5f4c440c25f101c288608c6d55e808ae6fc",
     "5bcfa6918fc274e12c68b372a67c18e79f863b0ea00527b06bc74362ed06e3b4",
     "16b6ae7ac0a3cc233e0dd1532898203ca60e3eed6e29cbef500c2140dbebdfc6"),
    ("worked", 0, True, {},
     "22c97168a1a4a2e9ebbb411b7da8eb171f01e0bf9c8a088a79abcb3343507742",
     "66921870a26900b66b107511f9031a9dbbdf66e5d7bf2ebcadac1effce55fda5",
     "21be0ed9583bef42d478a248e5e3eb5f3d4229e0199038f7c0e410b0666e75bd"),
    ("worked", 1, False, {},
     "04c7550631f1b3d9a78fa4a87b9d1063d53971f75f9395e8223d4143bdb65829",
     "0f3a7bc78b5d10b46f12c84900b8bfdd0a8abdfa1f89b78282c133d98a5de023",
     "8d9a8911f6dcf057f5b16a2a72677f7cf1c19c88743a28682e2a558d09eac153"),
    ("worked", 1, True, {},
     "3d9067c5d029f9832f12011ff42926a0d8da42bb60d233eba3d52264a2bc1be8",
     "b0027af3635617dc88b90a539c6696eca34f66403e9616701d366588ffd42cb5",
     "b3209e403b0390a62e3247aac7fc938cd690e5c82edd0299ec288191572121bf"),
    ("worked", 2, False, {},
     "c2f5a0a2b22af7a9969c25ec51cfb347c8c5cab1c2ddc6812b9ebd4341858db0",
     "5f052ac28eae6bd9e98878dbb8530c0fb390b3fd07035067c9b9e7c953a6458f",
     "efbc2d575690c15e2a97f596d6d23072cf0bbe1ee83280723b1c2c9e41cc436b"),
    ("worked", 2, True, {},
     "a647d481af5937206a72dcea45dfc9222efb24e22bfb9f186e413c0594c493f4",
     "43cabae2da4b2b8506bc6c9191f4c67f5447c7702302b7c538cd2cab37247c34",
     "9d5055e845a239c09e635e50d0a5f272e340ee7cfc1db1eb7503d42b3c6984bf"),
    ("corpus", 0, False, MP2,
     "981e997d03592c93683c87043024de82fbc449bcb729a6da0befa3763f4c76b4",
     "0887e086e0e30aae4b32be6f7f9b8831e10859be4734c97c9883f9239fe94697",
     "fccb22a0bc39cf65ad4b045b9c05606eb500c0a7b19eaec947aca23dbde60849"),
    ("corpus", 0, True, MP2,
     "f28fe4a9244ecbee7e3b66758cb9f840d9f54b1c8e945a1a5f123baace4c7496",
     "2401a7c140ac25a3db3faeef5214f98b2e16918a8f17d3bfe69da391ade35dae",
     "8ed9e349b8d4d6098ce70474907569debd7c5c05eb271d1820ead618a6b93cb0"),
    ("corpus", 1, False, MP2,
     "722f6487ef7a1d04397cd628009cb8646050a5e491a7e7afdc4abbf81adf1e2e",
     "2913279cf9ab399dd751b3de288f7f07dffa6ca5d02773a463a3943535fe0d00",
     "ace478d18e14d172ce2cce5796b79d8b274e0044e8bd5f84fe0cc27b633bdca2"),
    ("corpus", 1, True, MP2,
     "30b3df6a5a5de9f50ac9a7ee73481dd1528ee29a2228c6125539b54359cdf490",
     "091b93f93fc1ca721c54da40e52d768189fd1f8d71cbb279ab7c3bf730abcfc4",
     "6831c052349cf27fb6130f722993e8e0cc1eb0dfdb2fbc64b624294ba34ab960"),
    ("corpus", 2, False, MP2,
     "e9c0c1cad3a0fd2e125d4d6143dc868ff2d214c6a6a538e1fdcaa80f34587e3b",
     "9cc81a12f878cea59ae2bb1c3b274d366a20b3d48d7b713ec9c7d907bb008348",
     "bc37df28205bf8fe49a4c1171f7be411df89d9e6ea5c4ced3531fb327ded88ab"),
    ("corpus", 2, True, MP2,
     "d9764394283c229c47cc746c80c766cb88380e0f13e63a2fa2ac2307503d1d6a",
     "2c071a57aec5b91f78189ffb5fa788cbd20ab93aebbb253287434c29195d417b",
     "2deb8d378dafac2966d6b1f77cd7fab56e7e952517a0ad47bce89af23e45e3de"),
    ("corpus", 3, False, MP2,
     "4cd50f2e675ec49da1853dd6ef445668e675f0dbc6a6af15c11d3c1b3c076396",
     "1698b4b99e1eaaf09614d0361c31a24147ca8160e5760f37b6d1c838b14026d0",
     "5036c784bf446f8424655d76f3ab3fb87679b824125a1b59006453ff017136f2"),
    ("corpus", 3, True, MP2,
     "2f3297276afa7a8a8b9d08f2af77406bf122787a6eec60fe9a6e875aa43228c9",
     "d75189675dbb09e5f0e786d7721cfcf9bc1cbb6c49dc28aad8023d2e706fdb81",
     "53f6401d8c188699229b17aca62914d0108d8da0083eb6b4b9b880487b6cc275"),
    ("corpus", 4, False, MP2,
     "63bd00fbfa223c2195b8e92a934fdf58c1af8a1192caad1d40c40b4cab3d5bf7",
     "9eedfb958ae9e72317f809a024d028e3fa81c8541323e2cb19bf2c7794fed6a6",
     "dd11da633a988002ee1177451575106b1a8155aa61cdd7e83a5d87c77f2ae823"),
    ("corpus", 4, True, MP2,
     "5cd69f60c73bdf078c5e385b31e6af74673e57bf739db62ef4ba2cdde3a5d849",
     "9cc007c60c2a008ad9ecd9c24fa95826aceab6bba40ada2fbce36d0324e01956",
     "42cf8dd6d055350900f9047a3174f84876976b04d56835f31405e228bc419b8d"),
    ("corpus", 5, False, MP2,
     "d240d1ec522e77bc1b254d96cf93dedccbb7495de6ddd5519c810c3d417b1a5a",
     "7283628ff49e1e9ca28ce921eda7bd2da454d84c3694b96d37886a6cf0bb1c79",
     "f1df9e6367c0727a54d520ae7a0cb4c0c4d01d41089957de17ae5a104e6d4cfa"),
    ("corpus", 5, True, MP2,
     "2e048ad8f2d37a346c378f64b0336fe177c619fdeb1e9079b5e6c08b90f518ae",
     "263181cdfc594f4e7c678d576f17ff7e06c199a4699b9876a89f5cb6c00a8dca",
     "39b5f55ee0a2e257a3c475572e823759d151a84eafd31962cc61a161b2ea5b75"),
    ("corpus", 6, False, MP2,
     "338425968c3f25cd2e916b6339be9a526148912b253079e3c4b39337fef8e55e",
     "af34ed180bb74d1884b02534fa722b6d40fd505f7266b02987214dc8779de2c6",
     "77df56d685ed56660ed4a8712574acbeebec421f59811fc83fc8c15b9a8faa92"),
    ("corpus", 6, True, MP2,
     "02ded219e04941af1fe4bd71acb6366606f613ac2de39f938d842d2db833e1b5",
     "d06258ba647255d61d171e278bfd93623c7e183aab4bc00af6f75c00ce2dca81",
     "e4e26743b3f971680db10c5b7b9a7ad8a0e362387003c924d246e6e57704136f"),
    ("corpus", 7, False, MP2,
     "5d14300b15d7371efce8097571a75c6310ec4b727789dad85d05267f7f49975e",
     "491816623e87e31b6d3e90b1c2c01992d633a5b4839a43f5b3b5584635aedff4",
     "9d071422dcbe2058377de0410231b64137ba992906373835009a4d4f7b62fbad"),
    ("corpus", 7, True, MP2,
     "db8f9dc1e86c34b06e7605122096684602ef06b63a2572ae23a3052debf92903",
     "2540bc9d5968bc64844e44dcf1e0edb8cda30fe68752b3cdb5a018820bcb438e",
     "7b423a70d3dd70c8dfcc107ba105ebc7e88f2c0d23bd3d961d75e74258f3b2e9"),
    ("corpus", 8, False, MP2,
     "631ba65b4222f54df25aa7486784b7ed6848d7dbaa5cc8f7249c2a8cc14a1ace",
     "989938acb0947643933a1a990c7c6ad8637b8dc980dc7cfe5b04822aa1996b86",
     "23ac9a0807f36c31b7309e423c0627e49491a3c9e1439252a11e357e71477616"),
    ("corpus", 8, True, MP2,
     "9f92cf7d977fb8bbf494370d3bbf3b96410c5c58818a519380d888e6007cd463",
     "19fb974ef86f1ecd84770706d758f868a1a774e49ee66ccfc0218f94a51a2568",
     "d4a12e9bc34a2e598561cfbb5534087caafa82b3825559cb36e720aab87b43cc"),
    ("corpus", 9, False, MP2,
     "e1b96f193a49716ccdeaad627cec143113b8be25cc39a4ac440c1318dcb32510",
     "d31127e5431c5fb37c771b19c90272604d350b5f4ec52f9448ebc21f71b50c64",
     "e65925aaf433ee6e97d4468973b6f3193f0d701dbf4d2c071f8dd66359d45032"),
    ("corpus", 9, True, MP2,
     "94075871eeceee7f5018d7c8e22a422329e561c5d01e7d22954950a85972266c",
     "e49087b55c694eeb75c9dd5e24023be80987fbc252026bdc131be681270dfd70",
     "e5fe191eef4a3ca0ec1528c5f5891502870573cb74956f29adef79419f21602f"),
    ("corpus", 8, False, {"max_period": 2, "ro_depth": 80},
     "28584d03f958766f5682af2880b698ad6076b76412edadc80aa565d39819c224",
     "ad630dbbdb9775e9744515f2e9b10e02d966191725fba3422dbfb3c837acc2c5",
     "5bbcf914ff8ead6be391ced9374a4fcfeda74b813fd424588427c1d13351901a"),
    ("corpus", 8, True, {"max_period": 2, "ro_depth": 80},
     "dd15f6951e3dbee8fe48be6bb6d38e573d87fd95d38bef5450fac64a3f2dea89",
     "4de680d03573003d107e81f21b1d108f3cde6c4c646d9a73d5cdbbb234fb1d7f",
     "69c2499122a06c83694062c71d674609b01136cbbb0c9e88f621f5330625a8fe"),
    ("corpus", 7, False, {"max_period": 2, "orbit_budget": 40},
     "aea85240c5e298fa4f6d696c005bbdaeb496ddaac3990d8f65dfa38be730c025",
     "8a469ee3995640cbacf1418fc31be9b789e0cca64b0d158b5d73d8614a393d9b",
     "7a7f2cc035391253c4cab592b4432eb45a176a95ef949026a5951474730c1716"),
    ("corpus", 7, True, {"max_period": 2, "orbit_budget": 40},
     "973a9f57d6234c37a0a22ddf3aee0d7d2cbcd66a05595238502ab4dc7f74433e",
     "61ca7711f172b4d018a9fa7eac44018b6a68ec153e383479ebb70d822d83bf6d",
     "d6fe0bcc82663ce53b5b68fc51fbca172915af7c87d4dabee8739dba89db1d87"),
    ("two-cycle", 0, False, {},
     "8417a545bff87b1ab6dc48cb51c64c3ed9e4623e30e56e76fe280055e1d0b795",
     "6422b51d9e85d3685a7981446abd99cb3b5a9d4ebd46901eb58ff00035931ef2",
     "d56030e682526290b214eaa49c4e86fa327be7acbd47602899bb15b792e12da0"),
    ("two-cycle", 0, True, {},
     "49c43cf323044332d651ea268bdb1b9ed56190f9a61ea43b52f02c23e4db47c9",
     "80ec549b954e98b4dda5c4c9e3f76f98c056e17fc3512191d0f7d98ad51b9eec",
     "53d42ef8a7aa3e3a82a2a7ae3d12f487610cb6ee4c8b7b2cde3f969f55964a79"),
    ("corpus", 23, False, MP2,
     "75f8b99ed30e071f79f3817267b0cef97837327bd652833f02526247654227ab",
     "0d2ef69f2037ee66aa15c8edf8731ce167f89fdb5a11af99f288410f93128da5",
     "77e930421d7542b6787e62a3549dcad160b83c070760e7f6973501375a1b7377"),
    ("corpus", 23, True, MP2,
     "63be9ac60a643a4182d63241efdcab873518ef39fc302f0323afb30634083e68",
     "eb85981f3db9d6c8416329503324647f44c59f8f38a2821c8626446a1b847523",
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
     "79d0008f3c0f51e7d1e1b58904280a71572d0ffee59695d008b8b108aae7ce09",
     "1e0ce5c793c84f538691da32b54a1235d822cfa61f9ab027009aeaeb06df793b",
     "60d627d3c3fed6f37d2e6e655bd15eb0c49cb42501b3287d27ec9b95fbf1fdd5"),
    ("siegel", 0, True, {"declarations": [SIEGEL_DECLARATION]},
     "4381db5392e09ee7358993117bd2ec508993adc57ea3ae970b0b4327bd130c02",
     "524a74ef9147e818732baf650af655f0727068c1aa647d85555fe5010c6647cf",
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
