from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ratmap.dynamics
from ratmap import cli
from ratmap.dynamics import DEFAULT_ORBIT_BUDGET
from ratmap.errors import ConfigError, InputFormatError, MapDegreeError, RatmapError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import AnalysisConfig, RenderConfig, parse_map, run_analysis
from ratmap.scalars import GaussianRational, parse_scalar

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
# orbit_fate's floating tail went through the orbit's own walk.
PINNED_REPORTS = [
    ("worked", 0, False, {},
     "370b97c3e0a4673f05eee9f37f175a1596ffe9454a49de4651b9ef0a4876b273",
     "71fddc5dcd6e8789a6d2fe9d8137ddd10ba3971c6a6c1921e2b50b66a7fd6736",
     "16b6ae7ac0a3cc233e0dd1532898203ca60e3eed6e29cbef500c2140dbebdfc6"),
    ("worked", 0, True, {},
     "cc3397425912749997d5873294bcba66338449500f1dbce25c84277e60565137",
     "fa6583a2b1209f2da7585a75c188a12fc3c5f857f8e30c30345f27efb44a5ec8",
     "21be0ed9583bef42d478a248e5e3eb5f3d4229e0199038f7c0e410b0666e75bd"),
    ("worked", 1, False, {},
     "e32cde2849a63aa4caa9594c958380d53de7c0cf51e994f5d5b771b4da4e5193",
     "ed062721ddc5430ffaa0759c80ec1244ac9e3c518b1580b31a66572a1331e4f4",
     "8d9a8911f6dcf057f5b16a2a72677f7cf1c19c88743a28682e2a558d09eac153"),
    ("worked", 1, True, {},
     "752524b6a1fb55b65eefecdb10eb8124a09bde3d09c938fd757d34eb3dfe7b09",
     "2606ec2559de6a5d0edfb43b1cf0cda88e215ee88d7ce606c897c093e4cc514c",
     "b3209e403b0390a62e3247aac7fc938cd690e5c82edd0299ec288191572121bf"),
    ("worked", 2, False, {},
     "1699783cb8a7a4e4aa948623005838e5c1fc13392ec9bba8cb844bc6ce01813c",
     "4bb7bd5b890a6ee154162205e1384c250e5afd07c14663f115137f9bcd535a47",
     "efbc2d575690c15e2a97f596d6d23072cf0bbe1ee83280723b1c2c9e41cc436b"),
    ("worked", 2, True, {},
     "82e4b96fd3d9334e5d1bf0c2eb06d7b56f2d195c5e1b0548a42f53e19464dc8b",
     "883a3e32daece0796a1fd0a48df12c8812a6489400920e32b4b2560b65eb8663",
     "9d5055e845a239c09e635e50d0a5f272e340ee7cfc1db1eb7503d42b3c6984bf"),
    ("corpus", 0, False, MP2,
     "6686bf393236dd9d2ad1a9796656e7f20086b2353b09583cbe0a5ea518582d4d",
     "fd5a76c0ee1b2aa111e9a4d898e8076e22f0948bccff15dedfec7962347441b0",
     "fccb22a0bc39cf65ad4b045b9c05606eb500c0a7b19eaec947aca23dbde60849"),
    ("corpus", 0, True, MP2,
     "12bd6bb729d84bda26ad479b8f070624bfed235e20268465db3d0c4727fd5f31",
     "bc50b3784759a1f8c246708e3378ea08e251ced09acb4d6e8d17d2c8c4aedfb6",
     "8ed9e349b8d4d6098ce70474907569debd7c5c05eb271d1820ead618a6b93cb0"),
    ("corpus", 1, False, MP2,
     "35ceea721836234ee50ae29a606032e5db2a2955a83acad8d9ce533978f56077",
     "7f5836907a5b5d11ecde23c1c1ecb3295d571bc92a081306b30e184021d8a785",
     "ace478d18e14d172ce2cce5796b79d8b274e0044e8bd5f84fe0cc27b633bdca2"),
    ("corpus", 1, True, MP2,
     "946c52fbbd03cd2c0bdf240561efe44654eb9899faa9de20083a2994a9b0619d",
     "79116a6c9a8c87d505f636fcc99e9d99780b4c2422115223a785f56e517ad1d7",
     "6831c052349cf27fb6130f722993e8e0cc1eb0dfdb2fbc64b624294ba34ab960"),
    ("corpus", 2, False, MP2,
     "cd33c91609cb15dda0fbde1c49f2e70435f0d229a73dff54cfc342bbcc902065",
     "7101a970e557c137d1771d7a29348a7c8284edcd9bb12b5e21e42c47187dbe6a",
     "bc37df28205bf8fe49a4c1171f7be411df89d9e6ea5c4ced3531fb327ded88ab"),
    ("corpus", 2, True, MP2,
     "575fa13a8ca61c71a10f624a9fabae1eab88d3dd0faa7d8773f4b58405e1d082",
     "75ff9dc1cf7344fab46e0dfbf844abf7ae3d74714944e4fdf5c2d4ca9dd95962",
     "2deb8d378dafac2966d6b1f77cd7fab56e7e952517a0ad47bce89af23e45e3de"),
    ("corpus", 3, False, MP2,
     "e07af42d6de1777baa956ff0359fd58dd745eb0a25ec6ee4774ab8b879c94b55",
     "29252bb132c062bb2bbbdf14427d46b5e53f8d9229fefe0565ff24f7e8969145",
     "5036c784bf446f8424655d76f3ab3fb87679b824125a1b59006453ff017136f2"),
    ("corpus", 3, True, MP2,
     "84c41b651bf7ccd12f0a3dcc44973b88e1ae1acbf195cbe74c60a4271ce36a0e",
     "079267b8fae9cbffdf24ac503346c3cfc5de1b93688fc6beaa240c8937257508",
     "53f6401d8c188699229b17aca62914d0108d8da0083eb6b4b9b880487b6cc275"),
    ("corpus", 4, False, MP2,
     "46e7e8b7f5a7b852bfa66873c940fdbcfad99053148c85e253158d20af1dc8a7",
     "45336f7c6a7e7d6eba6611de5d5418be92e8b141446edacf26dbdb60779ae5ab",
     "dd11da633a988002ee1177451575106b1a8155aa61cdd7e83a5d87c77f2ae823"),
    ("corpus", 4, True, MP2,
     "0105e2790332a7d3a93db8768066e494fd3e7001ead6af9e0032b3862fbe1a74",
     "11d9540de099ceffd79d1021e53987b32872ed77f2554d95dc14ae1a6185d235",
     "42cf8dd6d055350900f9047a3174f84876976b04d56835f31405e228bc419b8d"),
    ("corpus", 5, False, MP2,
     "a07f328ef7840dca7f924e52f4b4cef99eb7ff9a557bb6f1b82042a6083f6ed8",
     "e49b65305b2633a8f8c435b8572da8a7b77bd61a423771d7f8b6d8a893a74565",
     "f1df9e6367c0727a54d520ae7a0cb4c0c4d01d41089957de17ae5a104e6d4cfa"),
    ("corpus", 5, True, MP2,
     "296dd50b05c540fbf21c16e0a2f90fce552398aac8af2a7c81966f407a6a8205",
     "e4ca36b41f07d1c1925d8c360607d1d3b15136cf11981d6f3643f22ff83d8f8b",
     "39b5f55ee0a2e257a3c475572e823759d151a84eafd31962cc61a161b2ea5b75"),
    ("corpus", 6, False, MP2,
     "18f629a8fc60322373499692023c3b1c4b9088ff1bd49e844ed8d33894eac0ce",
     "6ed27eb88c9f537c15c07f1803834aaeeb340d687052f9009709ad582dc53877",
     "77df56d685ed56660ed4a8712574acbeebec421f59811fc83fc8c15b9a8faa92"),
    ("corpus", 6, True, MP2,
     "9314f5d4e0b04b8834b8424f8826fb67c315ec87c3f9a3ea07e1f99cf37e3b2b",
     "468c9267572155b99884ee325db667dffdc415dc935c76d3e78d94bf24f886f3",
     "e4e26743b3f971680db10c5b7b9a7ad8a0e362387003c924d246e6e57704136f"),
    ("corpus", 7, False, MP2,
     "8747432fe82f655a26ec621406e1b013688c99a450229e93c0c8472fb1e5cbb7",
     "0a6f64c04ca9eeb84759eb63d930e50c8b73821926952d7d42406347572db239",
     "9d071422dcbe2058377de0410231b64137ba992906373835009a4d4f7b62fbad"),
    ("corpus", 7, True, MP2,
     "8da847d8296ea63c09ba7b499feeefcb5a6af144224092909e202975bd2890c7",
     "5b016b41da13e0a8855a1bc33b3ec4778fe46c731852aba928acf8a2472feca3",
     "7b423a70d3dd70c8dfcc107ba105ebc7e88f2c0d23bd3d961d75e74258f3b2e9"),
    ("corpus", 8, False, MP2,
     "e0ccd1df4dd3010378b7a1469b0f2a1e53ec7bb88f42cb3bc5fca869074c70f3",
     "b7314c859cf894baddb2f05adc05f70e3a98c048ac914f444828027a2996d0f8",
     "23ac9a0807f36c31b7309e423c0627e49491a3c9e1439252a11e357e71477616"),
    ("corpus", 8, True, MP2,
     "8197ec150151b2789073af5c535be05d445f7de4a4f8b3dc84e0606b78db902b",
     "5e21a973ca123fcd4e24961b23f1227da9fc6370f51533c0c80c98157f4fefdf",
     "d4a12e9bc34a2e598561cfbb5534087caafa82b3825559cb36e720aab87b43cc"),
    ("corpus", 9, False, MP2,
     "e942fec4dd38ca5c7065da3b0ecee67a96239f897563cad8cfcf47939f28310a",
     "9385f1170b26f53f055295c0af2a400b19a3eeb09e892d33509298ab9bd9a847",
     "e65925aaf433ee6e97d4468973b6f3193f0d701dbf4d2c071f8dd66359d45032"),
    ("corpus", 9, True, MP2,
     "6b9ea5965c7d307827ec97570cbbb192d5fc1d8da569427a862758fe6dc5d835",
     "9cf487efc20fba947927341acb27dd8ea66023238b8e9bb5ff5ed702711b639b",
     "e5fe191eef4a3ca0ec1528c5f5891502870573cb74956f29adef79419f21602f"),
    ("corpus", 8, False, {"max_period": 2, "ro_depth": 80},
     "ce2c56a2003fd9254c10e085eb2dfde173fe8ac7829959720a17d055f7455794",
     "03f13167547eeee06cbf03e75d448d771cbca260b983cefe3b04fe2156404703",
     "5bbcf914ff8ead6be391ced9374a4fcfeda74b813fd424588427c1d13351901a"),
    ("corpus", 8, True, {"max_period": 2, "ro_depth": 80},
     "de74df15205bdd278db347d4a287213425d1179add17ceac890c7eded656d9af",
     "fe9f009a88bb17a94f08c1b58ffa8a6a15fdd9a9f7a4ec58bd75d837a814eab9",
     "69c2499122a06c83694062c71d674609b01136cbbb0c9e88f621f5330625a8fe"),
    ("corpus", 7, False, {"max_period": 2, "orbit_budget": 40},
     "dbc4cb99b7d46842fc48c1c95cfa7d963d4e724bbdeb3e9e4488e06cdeb3bea1",
     "fc34a1e2375b9e0f23f9227745de7dc1cdb36f3111afc75197b1a5fc92307272",
     "7a7f2cc035391253c4cab592b4432eb45a176a95ef949026a5951474730c1716"),
    ("corpus", 7, True, {"max_period": 2, "orbit_budget": 40},
     "24facbfdead6b3b569863030a0bc3b802805f0f44456ab77d59d8a710949846f",
     "416510ccf2f53bb14797edbe1f29d5817344490905f3410759840b460634ba68",
     "d6fe0bcc82663ce53b5b68fc51fbca172915af7c87d4dabee8739dba89db1d87"),
    ("two-cycle", 0, False, {},
     "663801e50c6744c3a15f4f1a6cf0c3198221c3833062bf0725bf3b1dc2533d4a",
     "014bbdde034c00631e414f03ed4c9a7d07cdff4091899c5f1e17919ee4ea0587",
     "d56030e682526290b214eaa49c4e86fa327be7acbd47602899bb15b792e12da0"),
    ("two-cycle", 0, True, {},
     "cf2d180e05cb2531324d00e960d58dd96b2272b3e14b456208d5639237839018",
     "776db60377a3ba8f04c4213863051aaff32f507e3962405b7883393cb6205808",
     "53d42ef8a7aa3e3a82a2a7ae3d12f487610cb6ee4c8b7b2cde3f969f55964a79"),
    ("corpus", 23, False, MP2,
     "18766952abee64232ba668e2e85623136d24865c24b92bdb25ea57869314a900",
     "d93ef06ef80b1164f1851cd1a63e314ece93002deab7d9285cf81c0e9f8fccd2",
     "77e930421d7542b6787e62a3549dcad160b83c070760e7f6973501375a1b7377"),
    ("corpus", 23, True, MP2,
     "1fc68bc787d197a1c2e60a41f4bd9bb345d96322fafc60c3d044bb6c34ca0038",
     "e6a1bd67cf7fa2b28d8444f853fa6ef1ce5d8e397e2913d057859ca15bf5a193",
     "645e888540b0ea30ce7f9194c634428ef31a4c31cc4d47ce1cf74ccbd4399633"),
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
    else:
        r = _corpus_map(index, twin)
    return run_analysis(r, AnalysisConfig.from_dict(config))


@pytest.mark.parametrize("source, index, twin, config, json_digest, text_digest, shape_digest",
                         PINNED_REPORTS, ids=PINNED_IDS)
def test_report_bytes_pinned(source, index, twin, config, json_digest, text_digest,
                             shape_digest):
    report = _pinned_report(source, index, twin, config)
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == json_digest
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == text_digest


@pytest.mark.parametrize("source, index, twin, config, json_digest, text_digest, shape_digest",
                         PINNED_REPORTS, ids=PINNED_IDS)
def test_report_shape_pinned(source, index, twin, config, json_digest, text_digest,
                             shape_digest):
    report = _pinned_report(source, index, twin, config)
    shape = _shape(json.loads(report.to_json_bytes()))
    assert hashlib.sha256(json.dumps(shape, sort_keys=True).encode()).hexdigest() == shape_digest
