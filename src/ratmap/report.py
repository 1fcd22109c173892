"""Input parsing, analysis orchestration, and report emission.

Reports are deterministic: identical input, configuration and mode produce
identical bytes.  Every truncation parameter is echoed into the report so
"not found" always reads as "not found within these bounds", and every
warning carries a machine-readable code.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii

from . import __version__
from .atlas import bind_declarations, build_atlas
from .dynamics import (
    DEFAULT_MAX_PERIOD,
    DEFAULT_ORBIT_BUDGET,
    DEFAULT_PERIOD_WORK_CAP,
    INFINITE,
    critical_divisor_degree,
    critical_fates,
    critical_points,
    periodic_cycles,
)
from .errors import (
    ConfigError,
    DeclarationError,
    InputFormatError,
    JuliaMembershipUndeterminedError,
    MapDegreeError,
)
from .poly import Polynomial
from .rational import DEFAULT_TOLERANCE, RationalMap
from .restricted import (
    MAX_SEED_PERIOD_DEFAULT,
    PREIMAGE_DEPTH_DEFAULT,
    RO_DEPTH_DEFAULT,
    exposed_orbits,
    julia_exposed_partition,
)
from .primitive import primitive_catalog
from .scalars import parse_scalar, scalar_str
from .sphere import SpherePoint, parse_point, point_str
from .synth import ExposureResolver, full_decomposition


@dataclass
class RenderConfig:
    width: int = 800
    height: int = 800
    window: tuple = (-2.0, 2.0, -2.0, 2.0)  # xmin, xmax, ymin, ymax
    max_iter: int = 100

    def validate(self):
        if self.width <= 0 or self.height <= 0:
            raise ConfigError("render size must be positive")
        xmin, xmax, ymin, ymax = self.window
        if not (xmax > xmin and ymax > ymin):
            raise ConfigError("render window has zero or negative area")
        # a finite width and height also means finite corners
        if not (math.isfinite(xmax - xmin) and math.isfinite(ymax - ymin)):
            raise ConfigError("render window must have a finite width and height")
        if self.max_iter <= 0:
            raise ConfigError("max_iter must be positive")

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "window": list(self.window),
        }


@dataclass(frozen=True)
class Declaration:
    kind: str  # "siegel" | "herman"
    theta: float
    period: int  # a Siegel region takes its anchor cycle's period
    anchor: SpherePoint | None  # None for Herman, unless one was given
    theta_label: object = None


def _integer(value) -> int:
    """int(value), but a ValueError for a number with a fractional part."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(value)
    return int(value)


def read_declaration(dec) -> Declaration:
    """The declaration a configuration entry states: a bad theta is a
    ConfigError, a bad kind, period or anchor a DeclarationError."""
    if not isinstance(dec, dict):
        raise ConfigError("a declaration must be a JSON object")
    try:
        theta = float(dec.get("theta", -1))
    except (TypeError, ValueError):
        raise ConfigError("declaration theta must be a number",
                          theta=dec.get("theta")) from None
    if not (0.0 < theta < 1.0):
        raise ConfigError(
            "declaration theta must lie in (0, 1); irrationality is "
            "recorded, not verified", theta=theta,
        )
    kind = dec.get("kind")
    if kind not in ("siegel", "herman"):
        raise DeclarationError(f"unknown declaration kind {kind!r}")
    try:
        period = _integer(dec.get("period", 1))
    except (TypeError, ValueError, OverflowError):
        raise DeclarationError("declaration period must be an integer",
                               period=repr(dec.get("period"))) from None
    if kind == "herman" and period < 1:
        raise DeclarationError("herman period must be positive", period=period)
    anchor = None
    if kind == "siegel" or "anchor" in dec:
        if not isinstance(dec.get("anchor"), str):
            raise DeclarationError("a declaration anchor must be a point string",
                                   anchor=repr(dec.get("anchor")))
        anchor = parse_point(dec["anchor"])
    return Declaration(kind, theta, period, anchor, dec.get("theta_label"))


@dataclass
class AnalysisConfig:
    max_period: int = DEFAULT_MAX_PERIOD
    max_seed_period: int = MAX_SEED_PERIOD_DEFAULT
    ro_depth: int = RO_DEPTH_DEFAULT
    preimage_depth: int = PREIMAGE_DEPTH_DEFAULT
    orbit_budget: int = DEFAULT_ORBIT_BUDGET
    tolerance: float = DEFAULT_TOLERANCE
    period_work_cap: int = DEFAULT_PERIOD_WORK_CAP
    declarations: list = field(default_factory=list)
    render: RenderConfig | None = None

    def validate(self) -> list:
        """Check every field; return the declarations read_declaration reads."""
        for name in ("max_period", "max_seed_period", "ro_depth",
                     "preimage_depth", "orbit_budget", "period_work_cap"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0):
            raise ConfigError("tolerance must be a positive finite number")
        declarations = [read_declaration(dec) for dec in self.declarations]
        if self.render is not None:
            self.render.validate()
        return declarations

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        if not isinstance(data, dict):
            raise ConfigError("configuration must be a JSON object")
        cfg = cls()
        known = {f.name for f in fields(cls)}
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"unknown configuration key {key!r}")
            try:
                if key == "render":
                    if not isinstance(value, dict):
                        raise ConfigError("render must be a JSON object")
                    for name in value:
                        if name not in {f.name for f in fields(RenderConfig)}:
                            raise ConfigError(f"unknown render key {name!r}")
                    window = tuple(float(x) for x in value.get("window", RenderConfig.window))
                    if len(window) != 4:
                        raise ConfigError("render window must be [xmin, xmax, ymin, ymax]",
                                          window=repr(value["window"]))
                    cfg.render = RenderConfig(window=window, **{
                        name: _integer(number) for name, number in value.items() if name != "window"})
                elif key == "declarations":
                    cfg.declarations = list(value)
                elif key == "tolerance":
                    cfg.tolerance = float(value)
                else:
                    setattr(cfg, key, _integer(value))
            except (TypeError, ValueError, OverflowError):
                # OverflowError: int() of an infinite number
                raise ConfigError(f"cannot read configuration key {key!r}",
                                  value=repr(value)) from None
        cfg.validate()
        return cfg

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)} | {
            "render": self.render.to_json() if self.render else None,
        }


def _parse_coeff(raw):
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise InputFormatError(f"cannot read coefficient {raw!r}")
    value = complex(raw) if isinstance(raw, float) else parse_scalar(str(raw))
    if isinstance(value, complex) and not cmath.isfinite(value):
        raise InputFormatError(f"coefficient {raw!r} is not finite")
    return value


def parse_map(document, *, tolerance: float = DEFAULT_TOLERANCE) -> RationalMap:
    """Build a rational map from {"numerator": [...], "denominator": [...]}.

    Coefficients are highest degree first; integer and p/q strings stay
    exact, decimal notation anywhere switches the whole map to floating.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except ValueError as err:
            raise InputFormatError(f"map document is not valid JSON: {err}") from None
    if not isinstance(document, dict):
        raise InputFormatError("map document must be a JSON object")
    try:
        num = document["numerator"]
        den = document["denominator"]
    except KeyError as missing:
        raise InputFormatError(f"map document lacks {missing.args[0]!r}") from None
    if not isinstance(num, (list, tuple)) or not isinstance(den, (list, tuple)):
        raise InputFormatError("numerator and denominator must be coefficient lists")
    p = Polynomial(_parse_coeff(c) for c in num)
    q = Polynomial(_parse_coeff(c) for c in den)
    if p.is_exact != q.is_exact:
        # one floating coefficient demotes everything
        p, q = p.to_complex(), q.to_complex()
    candidate_degree = max(p.degree, q.degree)
    if candidate_degree < 2:
        raise MapDegreeError(
            "degree at least 2 required", degree=candidate_degree
        )
    return RationalMap(p, q, tolerance=tolerance)


def _valency_json(v):
    if v is None:
        return None
    if v == INFINITE:
        return "infinite"
    return int(v)


def _fate_json(fate):
    return {
        "kind": fate.kind,
        "cycle_id": fate.cycle_id,
        "step": fate.step,
        "steps_used": fate.steps_used,
        "region_id": None,  # kept in the report schema; no fate names a region
    }


def _json_scalar(o) -> str:
    """The JSON text of a str, None, bool, int or float, as json.dumps writes it."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf:
            return "Infinity"
        if o == -math.inf:
            return "-Infinity"
        return float.__repr__(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _json_lines(o, indent: str, out: list) -> None:
    """Append to out the text of o, with its nested lines indented from indent."""
    if isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in sorted(o.items()):
            # json.dumps writes a non-string key as the text of its scalar, quoted
            out.append(sep)
            out.append(encode_basestring_ascii(key if isinstance(key, str) else _json_scalar(key)))
            out.append(": ")
            _json_lines(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for value in o:
            out.append(sep)
            _json_lines(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    else:
        out.append(_json_scalar(o))


@dataclass
class Report:
    data: dict

    def to_json_bytes(self) -> bytes:
        """The bytes of json.dumps(data, indent=2, sort_keys=True, ensure_ascii=True) + "\\n".

        CPython encodes with indent in pure Python, one generator frame per
        container; this writes the same text directly.
        """
        out = []
        _json_lines(self.data, "", out)
        out.append("\n")
        return "".join(out).encode()

    def to_text(self) -> str:
        return render_text_report(self.data)


def run_analysis(r: RationalMap, config: AnalysisConfig | None = None) -> Report:
    """Run the full pipeline and assemble the report.

    Analysis obstructions become report content; only I/O-level failures
    raise out of here.
    """
    if config is None:
        config = AnalysisConfig()
    declarations = config.validate()
    warnings = []
    notes = []

    crit = critical_points(r)
    divisor = critical_divisor_degree(crit)
    if divisor != 2 * r.degree - 2:
        warnings.append({
            "code": "critical-divisor-mismatch",
            "message": "the critical divisor does not have degree 2d - 2",
            "found": divisor,
            "expected": 2 * r.degree - 2,
        })
    cycles, truncated_periods, cycle_warnings = periodic_cycles(
        r, config.max_period, work_cap=config.period_work_cap
    )
    warnings.extend(cycle_warnings)
    if truncated_periods:
        warnings.append({
            "code": "cycle-search-truncated",
            "message": "periods skipped because degree**p + 1 exceeds the work cap",
            "periods": truncated_periods,
            "work_cap": config.period_work_cap,
        })
    declared = bind_declarations(r, declarations, cycles)

    fates = critical_fates(r, cycles, config.orbit_budget)
    fate_rows = []
    for point, cf in fates.items():
        if cf.error is not None:
            warnings.append({
                "code": cf.error.code,
                "message": str(cf.error),
                "point": point_str(point),
            })
        fate_rows.append({
            "point": point_str(point),
            "fate": _fate_json(cf.fate),
            "asymptotic_valency": _valency_json(cf.asymptotic_valency),
        })

    scan = exposed_orbits(
        r, cycles, fates,
        max_seed_period=config.max_seed_period,
        preimage_depth=config.preimage_depth,
        declared=declared,
    )
    # the fates the scan read were walked with this budget
    scan.truncation["orbit_budget"] = config.orbit_budget
    warnings.extend(scan.warnings)
    notes.extend(scan.notes)

    atlas = build_atlas(r, cycles, fates, declared, ro_depth=config.ro_depth)
    warnings.extend(atlas.warnings)

    resolver = ExposureResolver(scan.orbits, r.tolerance)
    julia_obstruction = None
    julia_orbits = []
    try:
        julia_orbits, _ = julia_exposed_partition(scan.orbits)
    except JuliaMembershipUndeterminedError as err:
        julia_obstruction = {"code": err.code, "message": str(err), **err.context}
        warnings.append(julia_obstruction)

    decomposition = full_decomposition(
        atlas, julia_orbits, resolver, cycles, julia_obstruction
    )
    for record in decomposition.obstructions:
        warnings.append(record)

    catalog = primitive_catalog(atlas, decomposition, scan, cycles, resolver)

    data = {
        "tool": {"name": "ratmap", "version": __version__},
        "config": config.to_json(),
        "map": {
            "numerator": [scalar_str(c) for c in r.p.coeffs],
            "denominator": [scalar_str(c) for c in r.q.coeffs],
            "degree": r.degree,
            "mode": "exact" if r.is_exact else "floating",
            "polynomial": r.is_polynomial,
            "reduced_from_input": r.reduced_from_input,
        },
        "critical_points": [
            {
                "point": point_str(c.point),
                "valency": c.local_valency,
                "multiplicity": c.multiplicity,
            }
            for c in crit
        ],
        "critical_divisor_degree": divisor,
        "cycles": [
            {
                "id": c.cycle_id,
                "period": c.period,
                "points": [point_str(p) for p in c.points],
                "multiplier": scalar_str(c.multiplier),
                "classification": c.classification,
                "contains_critical": c.contains_critical,
                "local_degree": c.local_degree,
                "root_of_unity_order": c.root_of_unity_order,
                "rotation_estimate": c.rotation_estimate,
            }
            for c in cycles
        ],
        "critical_fates": fate_rows,
        "exposed": {
            "orbits": [
                {
                    "points": [point_str(p) for p in o.points],
                    "type": o.orbit_type,
                    "contains_critical": o.contains_critical,
                    "in_julia": o.in_julia,
                    "asymptotic_valency": _valency_json(o.asymptotic_valency),
                    "size": o.size,
                }
                for o in scan.orbits
            ],
            "union": [point_str(p) for p in scan.union],
            "undecided": [
                {"points": [point_str(p) for p in u.points], "reason": u.reason}
                for u in scan.undecided
            ],
            "truncation": scan.truncation,
        },
        "atlas": {
            "regions": [
                {
                    "id": reg.region_id,
                    "core_type": {
                        "kind": reg.core.kind,
                        "period": reg.core.period,
                        "local_degree": reg.core.local_degree,
                        "multiplier": (
                            scalar_str(reg.core.multiplier)
                            if reg.core.multiplier is not None else None
                        ),
                        "theta": reg.core.theta,
                        "theta_label": reg.core.theta_label,
                    },
                    "anchor_cycle": reg.anchor_cycle_id,
                    "has_noncritical_periodic": reg.has_noncritical_periodic,
                    "critical_records": [
                        {
                            "point": point_str(rec.point),
                            "preperiodic": rec.preperiodic,
                            "asymptotic_valency": _valency_json(rec.asymptotic_valency),
                            "ro_representative": rec.ro_representative,
                            "ro_class": rec.ro_class_id,
                            "obstruction": rec.obstruction,
                        }
                        for rec in reg.critical_records
                    ],
                }
                for reg in atlas.regions
            ],
            "iota_p": [
                {"class": c.class_id, "representative": point_str(c.representative),
                 "region": c.region_id}
                for c in atlas.iota_p
            ],
            "iota_c": [
                {"class": c.class_id, "representative": point_str(c.representative),
                 "region": c.region_id,
                 "preperiodic": c.record.preperiodic,
                 "asymptotic_valency": _valency_json(c.record.asymptotic_valency),
                 "lands_on_critical_cycle": c.record.lands_on_critical_cycle}
                for c in atlas.iota_c
            ],
            "unresolved_critical": [
                {"point": point_str(p), "reason": reason}
                for p, reason in atlas.unresolved_critical
            ],
            "julia_is_sphere": atlas.julia_is_sphere,
        },
        "algebra": {
            "julia_fatou": decomposition.julia_fatou.to_json(),
            "fatou_regions": [
                {
                    "region": rs.region_id,
                    "extension": rs.extension.to_json() if rs.extension else None,
                    "obstruction": rs.obstruction,
                }
                for rs in decomposition.fatou_regions
            ],
            "julia": (
                decomposition.julia.to_json()
                if decomposition.julia is not None
                else {"obstruction": decomposition.julia_obstruction}
            ),
            "six_square": decomposition.square.to_json(),
        },
        "primitive_ideals": catalog.to_json(),
        "warnings": warnings,
        "notes": notes,
    }
    return Report(data)


def render_text_report(data: dict) -> str:
    """Human-readable report with extension rows and the 3x3 square."""
    lines = []
    push = lines.append
    m = data["map"]
    push(f"ratmap {data['tool']['version']} analysis")
    push(f"map: degree {m['degree']}, {m['mode']} mode"
         + (", polynomial" if m["polynomial"] else ""))
    push("  numerator:   [" + ", ".join(m["numerator"]) + "]")
    push("  denominator: [" + ", ".join(m["denominator"]) + "]")
    push("")
    push("critical points:")
    for c in data["critical_points"]:
        push(f"  {c['point']}  (valency {c['valency']})")
    push("")
    push("cycles:")
    for c in data["cycles"]:
        pts = ", ".join(c["points"])
        push(f"  #{c['id']} period {c['period']}: {{{pts}}}  {c['classification']}"
             f"  multiplier {c['multiplier']}")
    push("")
    push("exposed orbits:")
    if not data["exposed"]["orbits"]:
        push("  (none found within search bounds)")
    for o in data["exposed"]["orbits"]:
        pts = ", ".join(o["points"])
        where = {True: "Julia", False: "Fatou", None: "undetermined"}[o["in_julia"]]
        extra = ""
        if o["asymptotic_valency"] is not None:
            extra = f", asymptotic valency {o['asymptotic_valency']}"
        push(f"  {{{pts}}}  type {o['type']}, {where}{extra}")
    push("  union E_R: {" + ", ".join(data["exposed"]["union"]) + "}")
    push("")
    push("stable regions:")
    if not data["atlas"]["regions"]:
        push("  (none: Julia set is the whole sphere within search bounds)")
    for reg in data["atlas"]["regions"]:
        core = reg["core_type"]
        push(f"  region {reg['id']}: {core['kind']}, period {core['period']}")
        for rec in reg["critical_records"]:
            push(f"    critical record {rec['point']}"
                 f" ({'pre-periodic' if rec['preperiodic'] else 'not pre-periodic'},"
                 f" v = {rec['asymptotic_valency']})")
    push("")
    push("extensions:")
    push("  julia/fatou: " + data["algebra"]["julia_fatou"]["text"])
    for rs in data["algebra"]["fatou_regions"]:
        if rs["extension"]:
            push(f"  region {rs['region']}: " + rs["extension"]["text"])
        else:
            push(f"  region {rs['region']}: blocked ({rs['obstruction']['message']})")
    julia = data["algebra"]["julia"]
    if "text" in julia:
        push("  julia: " + julia["text"])
        if julia.get("quotient_normal_text"):
            push("    quotient normalizes to: " + julia["quotient_normal_text"])
    else:
        push("  julia: blocked (" + julia["obstruction"]["message"] + ")")
    push("")
    push("square of six extensions:")
    for line in data["algebra"]["six_square"]["text"].splitlines():
        push("  " + line)
    push("")
    push("primitive ideals (" + data["primitive_ideals"]["t0_verdict"] + "):")
    for e in data["primitive_ideals"]["entries"]:
        par = e["parametrization"]
        if par["kind"] == "dual_of_isotropy":
            family = f"family over dual of {par['group']} ({par['cardinality']})"
        elif par["kind"] == "point":
            family = par.get("family", "single ideal")
        else:
            family = par["kind"]
        simple = " [simple quotient]" if e["simple"] else ""
        push(f"  {e['label']}: {family}{simple}")
    push("  simple quotients: " + ", ".join(data["primitive_ideals"]["simple_quotients"]))
    if data["warnings"]:
        push("")
        push("warnings:")
        for w in data["warnings"]:
            push(f"  [{w['code']}] {w['message']}")
    if data["notes"]:
        push("")
        push("notes:")
        for n in data["notes"]:
            push(f"  [{n['code']}] {n['message']}")
    push("")
    return "\n".join(lines)
