from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ratmap.dynamics
from ratmap import cli
from ratmap.errors import ConfigError, InputFormatError, MapDegreeError
from ratmap.poly import Polynomial
from ratmap.rational import RationalMap
from ratmap.report import AnalysisConfig, RenderConfig, parse_map, run_analysis
from ratmap.scalars import GaussianRational

from .test_acceptance import _random_exact_map

# the CLI child process finds the package in the source tree without an install
SRC = str(Path(__file__).resolve().parents[1] / "src")
CLI_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])),
)

WORKED_MAPS = [
    {"numerator": ["1", "0", "-2"], "denominator": ["1"]},
    {"numerator": ["1", "-4", "4"], "denominator": ["1", "0", "0"]},
    {"numerator": ["1", "0", "0"], "denominator": ["1"]},
]
DECIMAL_TWINS = [{k: [c + ".0" for c in v] for k, v in doc.items()} for doc in WORKED_MAPS]


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
    # times, asymptotic_valency 544 more and build_atlas 840 more.
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
    for index in (7, 8):
        for twin in (False, True):
            run_analysis(_corpus_map(index, twin), AnalysisConfig(max_period=2))

    def on_critical_orbit(key):
        while key not in crit and key in parent:
            key = parent[key]
        return key in crit

    orbit_steps = [n for key, n in stepped.items() if on_critical_orbit(key)]
    assert orbit_steps and max(orbit_steps) == 1


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


def _corpus_map(index: int, twin: bool) -> RationalMap:
    """Map `index` of the acceptance stream (seed 20240811), or its floating twin."""
    rng = random.Random(20240811)
    for _ in range(index + 1):
        r = _random_exact_map(rng)
    if twin:
        r = RationalMap(Polynomial(complex(c) for c in r.p.coeffs),
                        Polynomial(complex(c) for c in r.q.coeffs))
    return r


MP2 = {"max_period": 2}
# sha256 of to_json_bytes() and of to_text(), recorded while every caller
# still stepped its own copy of each critical orbit: sharing one walk per
# orbit must not change a byte.  Corpus map 8 has two records in one region
# landing at steps 49 and 50, so ro_depth 80 walks past the 64-step prefix;
# orbit_budget 40 makes the prefix shorter than 64.
PINNED_REPORTS = [
    ("worked", 0, False, {},
     "e376fbb4487ac9399dca4d69ee8738358e464c789d2ef4c1874896f76f4d269f",
     "7fc1ab8c5021f5fd11bff3d269cc2535bb8bfb5894e97d2fc72196cd306dffc5"),
    ("worked", 0, True, {},
     "036d2194528963311065e6f740e070ae294dedcbfc0a24597d572c4fbe9b8426",
     "4b95bcdc9e93f07acb491463c4ec5c0f09b0e89a71cbc7930125e8cc5e94c148"),
    ("worked", 1, False, {},
     "07d62d071bbb9acad5440c614b2fd2d351a086f0d1e76014630282093666ab0a",
     "c85e95a8b76ac05b19cdc34926a8ff96ed2445e8faaa0e66ef2d777d0ea5cad1"),
    ("worked", 1, True, {},
     "a3250ce4f05d13848762c2dcb2fb00d68acf4c472ebc8b1750492dcbd2d24abc",
     "ceb42c16bf4a57b40f0faa25b1f639ee1ee5df074152423ab62cadbec1045fed"),
    ("worked", 2, False, {},
     "eca7c49848d173bb509d33155f0626100af7a6f92aff2a8ffb95621016c9e251",
     "910202465ff8c8b92db71d31c43b9ff5373d006544f8b224992e4ce543882fe3"),
    ("worked", 2, True, {},
     "713e2e53b2efc106a259770df82954f6da8e8119a4597be6b7768397805bf8b1",
     "ed26a3d5aa2a5136aaa702b0425c87d0901de846bf8048f2397542d3d8c9ad81"),
    ("corpus", 0, False, MP2,
     "26935f883b2535c0cfa7e9706dd6a7ab986daf4e8f2fc8bc355dccb5650c4017",
     "319f183f5e0f7077251ac151518ca9bf43a4f5ee96b6ce21e4326e88ce0d697b"),
    ("corpus", 0, True, MP2,
     "aa1cf2c3808c79b0a757c49f9df20d71cd9604b948ec138e9afb4e612fac7d67",
     "e5c714c0fe80e55e8015674e1249e2cbd17ef2a9ab6a28d21dba1f74fcab18ab"),
    ("corpus", 1, False, MP2,
     "767d3801387299f68923d0590b332b633eaa9bf198e96f698de88fa4f7ecc9f8",
     "d17f1d4f600eb3ea165a8658b4c86b2076db42796ebdcb918b242425719f0691"),
    ("corpus", 1, True, MP2,
     "73813e9034464d0af26927fe0eca4e2163bc57a75be5ce7ccb6aeab36c5d73e8",
     "48089fdd33d849ff4a62e7a36b886134c592a5ee6a28724f7d075aa0a11ec870"),
    ("corpus", 2, False, MP2,
     "c69eeb3007f9995e78254f8acf4bfd157b2a7285c19edb2201732387a7f01ca0",
     "a4abde03117aa2070a7e222bec5c59b87aa8de2cd11c7ad3e9ebc1ec792146bb"),
    ("corpus", 2, True, MP2,
     "7c829cf6fbfd3f67775e06dcffc314bc703b3f2359c82bb75ae618474079fa6c",
     "f4a93c5b380192a64b7387252323319e3fb8431816dd791c8f33a427e704f29e"),
    ("corpus", 3, False, MP2,
     "ddcd5a08bc54cdf2489f7637efa25624d3f18dae6678339aa7c98a44073b59d8",
     "6382cad335263052d06246d93772b67c9f268b0d1947c9b53ef1218aa516b710"),
    ("corpus", 3, True, MP2,
     "7101aaa385bd2fbd833b245e5a3b2806805c0b2b3a95f499f4793e0872e6146a",
     "19c55ba9a1affcbae7df15a725bfa18bb6fe0adcdec9a525a436fb73594e0275"),
    ("corpus", 4, False, MP2,
     "b0dd308f9243f3f239588916139eb88b4b5a883c93e0dd21d1c9d120580b846c",
     "2a033a9bbbb20c99c089d541d28499641a153e8e55e7e97842de3e73c45e8516"),
    ("corpus", 4, True, MP2,
     "63e49fc06a33d374d4f810a2301ac42d70e000d7f6045561105020c145fae43e",
     "480b6fee90dcb7fe5bf72511e3c46090c077f92c72752cf00c2eb0705bfb886a"),
    ("corpus", 5, False, MP2,
     "b0215f1dfdca5bc52034b5951dd94c14d6a6e580e7d40ed4ce76bcd506b2b458",
     "998cd52526d27554160bf5fd5a7ccf21d661b4e62549a71daa15c78735f9d450"),
    ("corpus", 5, True, MP2,
     "1e6c9e920cc910ab778e44b88229d4872c8e987d230880fbd4c50b884218d04b",
     "3a13fb7416f814b528d47292dbf707df620e3f91fc3bb7f640b3f611846a229f"),
    ("corpus", 6, False, MP2,
     "b2ab78acc93fa35571db249d7e61f18f637266b4e8e975a5cab1c13becdf3194",
     "8fd8408808bc7f84082ac3e025c7606c25cd82e3d4304e155da7a2e2a5b1b809"),
    ("corpus", 6, True, MP2,
     "f6e10541ed4c8193ba48668dc2a0595519a6596ef35387c7b2642b4762c069ac",
     "c363fa08b6d034a275d857d83f7998ab8cbc3386582a2749cb02cb8a96415ecc"),
    ("corpus", 7, False, MP2,
     "a07180ad85f11dc29fbfda6b42535b99a58b39cf02dc564559c6e6518ebfec50",
     "b3d46f15bace28c8ca9d22288e38841b446b59346befb120e857358bfe00e679"),
    ("corpus", 7, True, MP2,
     "e6f07a7e2c09373dd45da94ff610ac223cffd2b7482af66693eb4007816a40ad",
     "ca88de36914e135293c48b349be1f831013cd89f368831991d44d8bc2b32ec8b"),
    ("corpus", 8, False, MP2,
     "3629e0ff8eb98a6df1187939d7008640d94741d8895009f5de0b3b06d738c7e9",
     "9a69413a02e4b51871fe812fb54e937f1a5f9d0a9b387c4cd556fb7ffa89d036"),
    ("corpus", 8, True, MP2,
     "2676f5faec0bfa8e9bac20c69c122d02100a06f56414c9c0a16dce7f13c7ccb4",
     "94439613e5bab4d91d86547d265292689601f1e787e6baf1b5fb19f8e5a3b8b6"),
    ("corpus", 9, False, MP2,
     "676257244686b22e61d7cbd37d5fbd578b38552fe96ba989c19e0e327e38b9ad",
     "c7f8d7151f3b623de08ae59f42acfad3b98b3523d7c277ef33b16b590e432565"),
    ("corpus", 9, True, MP2,
     "04e0aeb0886b3c248b236b38b49229334e56d12b0ab511c5dbd711aaeb2923d7",
     "027c49b0c4f486a35a2e0c46e34b172886843f85b24ed6f3a0bf77c4a569b210"),
    ("corpus", 8, False, {"max_period": 2, "ro_depth": 80},
     "0bdcb8becd556e32eeb2dc8a415a1fbfcdd9a6c4c8317d60431d3e41aaa68921",
     "44fd14d8d09e2cbd52fdfbbc542199b98459be787d4195cbe05e3478e3ef1b1d"),
    ("corpus", 8, True, {"max_period": 2, "ro_depth": 80},
     "06bb3f6fa8d48e10cc805bf94f5e391d196ad8296f6fea3dd4c0dc43232d2c75",
     "9e15ecca6aa2b523cc6afb012f1f92a4e480f309e3c75e7d64ae46d0a9a7508c"),
    ("corpus", 7, False, {"max_period": 2, "orbit_budget": 40},
     "52a63cf4c0eda61889bf72948a15df1a845ca7f09313e3e4984f2d4bc216ab8d",
     "e81f78fa774206a1c85e187d2cc0cee3bbfd11ccbce234e115db4140cf43e9ca"),
    ("corpus", 7, True, {"max_period": 2, "orbit_budget": 40},
     "fab364994ee1e0cb1b30fe69aab90f370d7644013737119aa0ab25810acea29e",
     "fc74edfaaf4856b41b3d929019e020528d969db0cf80a620107d8e1820ecb76d"),
]


@pytest.mark.parametrize("source, index, twin, config, json_digest, text_digest", PINNED_REPORTS)
def test_report_bytes_pinned(source, index, twin, config, json_digest, text_digest):
    if source == "worked":
        r = parse_map((DECIMAL_TWINS if twin else WORKED_MAPS)[index])
    else:
        r = _corpus_map(index, twin)
    report = run_analysis(r, AnalysisConfig.from_dict(config))
    assert hashlib.sha256(report.to_json_bytes()).hexdigest() == json_digest
    assert hashlib.sha256(report.to_text().encode()).hexdigest() == text_digest
