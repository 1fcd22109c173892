"""Inputs, item calls and output checks of the ratmap benchmark.

An item is one map call.  ``Item.call`` runs it through the public API and
returns the produced outputs; ``Checker.check`` inspects those outputs
afterwards, outside the timed region, and returns the names of the checks
that failed.  The benchmark never hands the program anything but the
generated map documents.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from dataclasses import dataclass

CORPUS_SEED = 20240811
# first maps of the acceptance stream; see NOTES.md for why this prefix
CORPUS_SIZE = 10

# the three worked maps of the acceptance criteria
WORKED_MAPS = {
    "chebyshev": {"numerator": ["1", "0", "-2"], "denominator": ["1"]},
    "rees": {"numerator": ["1", "-4", "4"], "denominator": ["1", "0", "0"]},
    "zsq": {"numerator": ["1", "0", "0"], "denominator": ["1"]},
}


# -- inputs -------------------------------------------------------------------


def _gauss_str(re_part: int, im_part: int) -> str:
    if im_part == 0:
        return str(re_part)
    if re_part == 0:
        return f"{im_part}i"
    return f"{re_part}{im_part:+d}i"


def exact_map_stream(seed: int = CORPUS_SEED):
    """Map documents in the order of the acceptance suite's random generator.

    This is a copy of ``tests/test_acceptance.py::_random_exact_map``: the
    same calls on ``random.Random(seed)`` and the same rejection of inputs
    whose degree drops, so the stream cannot drift silently (the smoke test
    compares the two).  Coefficients are Gaussian integers written as exact
    strings, highest degree first.
    """
    from ratmap.errors import RatmapError
    from ratmap.report import parse_map

    rng = random.Random(seed)
    while True:
        d = rng.randint(2, 6)

        def coeffs(n):
            return [(rng.randint(-4, 4), rng.randint(-2, 2)) for _ in range(n)]

        deg_q = rng.choice([0, rng.randint(0, d)])
        p = coeffs(d + 1)
        q = coeffs(deg_q + 1)
        if p[0] == (0, 0) or q[0] == (0, 0):
            continue  # the degree would drop below the drawn one
        doc = {
            "numerator": [_gauss_str(*c) for c in p],
            "denominator": [_gauss_str(*c) for c in q],
        }
        try:
            r = parse_map(doc)
        except RatmapError:
            continue
        if r.degree == d:
            yield doc


def decimal_twin(doc: dict) -> dict:
    """The same coefficients in decimal notation, which selects floating mode."""
    from fractions import Fraction

    def twin(text):
        m = re.fullmatch(r"(-?\d+(?:/\d+)?)?(?:([+-]?\d+(?:/\d+)?)i)?", text)
        re_part = float(Fraction(m.group(1) or 0))
        im_part = float(Fraction(m.group(2) or 0))
        if im_part == 0:
            return repr(re_part)
        return f"{re_part!r}{'-' if im_part < 0 else '+'}{abs(im_part)!r}i"

    return {key: [twin(c) for c in doc[key]] for key in ("numerator", "denominator")}


# -- items --------------------------------------------------------------------


@dataclass
class Outputs:
    report_bytes: bytes
    text: str
    ppm: bytes | None = None


class CodedFailure(Exception):
    """The program answered with a coded error instead of a report."""

    def __init__(self, code):
        super().__init__(code)
        self.code = code


@dataclass
class Item:
    """One map call: ``analyze`` through the library, or ``cli`` with a render."""

    label: str
    doc: dict
    worked: str | None = None  # name of the worked map whose facts apply
    workdir: str | None = None  # set for CLI items, which read and write files there

    def call(self) -> Outputs:
        if self.workdir is not None:
            return self._call_cli()
        from ratmap import report

        rep = report.run_analysis(report.parse_map(self.doc))
        return Outputs(rep.to_json_bytes(), rep.to_text())

    def _call_cli(self) -> Outputs:
        from ratmap import cli

        base = os.path.join(self.workdir, self.label)
        out_json, out_ppm = base + ".report.json", base + ".ppm"
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(["analyze", base + ".map.json", "--out", out_json,
                           "--render", out_ppm])
        if rc != 0:
            m = re.search(r"error \[([^\]]+)\]", stderr.getvalue())
            raise CodedFailure(m.group(1) if m else f"exit-{rc}")
        with open(out_json, "rb") as fh:
            report_bytes = fh.read()
        with open(out_ppm, "rb") as fh:
            ppm = fh.read()
        return Outputs(report_bytes, "", ppm)

    def prepare(self):
        """Write the map file the CLI reads; library items need nothing."""
        if self.workdir is not None:
            with open(os.path.join(self.workdir, self.label + ".map.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(self.doc, fh)


def build_items(workload: str, corpus_seed: int = CORPUS_SEED, workdir: str | None = None):
    """The fixed item list of a workload; the run seed only orders it."""
    if workload == "examples":
        return [item for name, doc in WORKED_MAPS.items()
                for item in (Item(name, doc, worked=name),
                             Item(name + "-decimal", decimal_twin(doc), worked=name))]
    if workload == "render":
        return [Item(name, doc, worked=name, workdir=workdir) for name, doc in WORKED_MAPS.items()]
    if workload in ("corpus-exact", "corpus-float"):
        stream = exact_map_stream(corpus_seed)
        docs = [next(stream) for _ in range(CORPUS_SIZE)]
        if workload == "corpus-float":
            docs = [decimal_twin(doc) for doc in docs]
        return [Item(f"map{i:03d}", doc) for i, doc in enumerate(docs)]
    raise ValueError(f"unknown workload {workload!r}")


# -- output checks --------------------------------------------------------------


def _point_key(text: str) -> str:
    """Canonical form of a point string, so exact and decimal twins compare."""
    if text == "inf":
        return text
    try:
        return repr(float(text))
    except ValueError:
        return text


def _points(texts):
    return sorted(_point_key(t) for t in texts)


def _worked_facts(name: str, data: dict) -> bool:
    """The acceptance criterion 1-3 facts of the worked maps."""
    exposed = data["exposed"]
    julia = data["algebra"]["julia"]
    orbits = {tuple(_points(o["points"])): o for o in exposed["orbits"]}
    if name == "chebyshev":
        jo = [o for o in exposed["orbits"] if o["in_julia"]]
        return (
            len(jo) == 1
            and _points(jo[0]["points"]) == _points(["-2", "2"])
            and jo[0]["type"] == 1
            and julia.get("quotient_normal_text") == "C(T) (x) M_2"
        )
    if name == "rees":
        return (
            _points(exposed["union"]) == _points(["0", "1", "inf"])
            and _points(c["point"] for c in data["critical_points"]) == _points(["0", "2"])
            and orbits.get(tuple(_points(["1", "inf"])), {}).get("type") == 1
            and orbits.get(tuple(_points(["0"])), {}).get("asymptotic_valency") == 2
            and data["atlas"]["regions"] == []
            and julia.get("quotient_normal_text") == "C(T) (+) C(T) (+) (C(T) (x) M_2)"
        )
    if name == "zsq":
        exts = data["algebra"]["fatou_regions"]
        entry = [e for e in data["primitive_ideals"]["entries"]
                 if e["co_support"]["kind"] == "julia"]
        return (
            [r["core_type"]["kind"] for r in data["atlas"]["regions"]]
            == ["superattracting", "superattracting"]
            and _points(exposed["union"]) == _points(["0", "inf"])
            and not any(o["in_julia"] for o in exposed["orbits"])
            and len(exts) == 2
            and all(e["extension"]["text"].startswith("0 -> K (x) MT_2 -> ") for e in exts)
            and all(e["extension"]["quotient_normal_text"] == "C(K)" for e in exts)
            and len(entry) == 1 and entry[0]["simple"]
            and "purely_infinite" in julia["total"].get("attributes", [])
            and data["primitive_ideals"]["t0_verdict"] == "not_T0"
        )
    raise ValueError(f"no facts recorded for {name!r}")


def _ppm_ok(ppm: bytes, width: int, height: int) -> bool:
    header = f"P6\n{width} {height}\n255\n".encode()
    return ppm.startswith(header) and len(ppm) == len(header) + width * height * 3


class Checker:
    """Output checks; outputs seen before are compared by digest only."""

    def __init__(self):
        from ratmap.report import RenderConfig
        from ratmap.schema import REPORT_SCHEMA
        import jsonschema

        self._validator = jsonschema.Draft7Validator(REPORT_SCHEMA)
        self._render = RenderConfig()
        self._seen = {}  # item label -> digest of its first accepted outputs

    def check(self, item: Item, out: Outputs):
        """Names of the failed checks; empty when every check passes."""
        digest = hashlib.sha256(out.report_bytes)
        digest.update(out.text.encode())
        if out.ppm is not None:
            digest.update(out.ppm)
        digest = digest.hexdigest()
        previous = self._seen.get(item.label)
        if previous is not None:
            return [] if previous == digest else ["repeat-bytes"]
        failed = []
        try:
            data = json.loads(out.report_bytes)
        except ValueError:
            return ["report-json"]
        if not self._validator.is_valid(data):
            failed.append("schema")
            return failed
        d = data["map"]["degree"]
        if (data["critical_divisor_degree"] != 2 * d - 2
                or sum(c["valency"] - 1 for c in data["critical_points"]) != 2 * d - 2):
            failed.append("critical-divisor")
        if (len(data["exposed"]["union"]) > 4
                or sum(o["size"] for o in data["exposed"]["orbits"]) > 4):
            failed.append("exposed-bound")
        if item.worked is not None and not _worked_facts(item.worked, data):
            failed.append("worked-facts")
        if out.ppm is not None and not _ppm_ok(out.ppm, self._render.width, self._render.height):
            failed.append("ppm")
        if not failed:
            self._seen[item.label] = digest
        return failed
