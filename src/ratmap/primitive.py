"""Catalog of primitive ideals by co-support type.

Co-supports are prime closed invariant sets: the Julia set, a finite
restricted orbit, a finite Fatou class together with the Julia set, or
the closure of a free Fatou orbit.  Ideals over a co-support with an
isolated periodic or critical point form a family over the dual of that
point's isotropy group, which atlas.isotropy_of picks by the same rule
that gives the point's class summand C*(G_x) tensor K_x; the duals are kept
symbolic (named group plus a cardinality class), never enumerated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    Compacts,
    ExtensionSeq,
    Matrix,
    NamedUnknown,
    expr_to_json,
    render,
)
from .atlas import isotropy_of
from .errors import RatmapError
from .sphere import point_sort_key, point_str
from .synth import case_iv_diagram


@dataclass
class PrimitiveIdealEntry:
    co_support: dict  # {"kind": ..., ...descriptors}
    parametrization: dict  # {"kind": "point"} or {"kind": "dual", "group": ..., "cardinality": ...}
    quotient: object  # Expr | ExtensionSeq | CaseIvDiagram
    simple: bool
    label: str

    def to_json(self):
        if isinstance(self.quotient, ExtensionSeq):
            q = {"extension": self.quotient.to_json()}
        elif hasattr(self.quotient, "to_json"):
            q = {"diagram": self.quotient.to_json()}
        else:
            q = {"algebra": expr_to_json(self.quotient), "text": render(self.quotient)}
        return {
            "label": self.label,
            "co_support": self.co_support,
            "parametrization": self.parametrization,
            "quotient": q,
            "simple": self.simple,
        }


@dataclass
class PrimitiveCatalog:
    entries: list
    t0_verdict: str  # "not_T0" | "single_point" | "undetermined"
    simple_quotients: list = field(default_factory=list)

    def to_json(self):
        return {
            "entries": [e.to_json() for e in self.entries],
            "t0_verdict": self.t0_verdict,
            "simple_quotients": self.simple_quotients,
        }


def _orbit_entry(orbit) -> PrimitiveIdealEntry:
    """Type-(ii) entry: co-support a finite restricted orbit."""
    group = isotropy_of(orbit if orbit.contains_critical else None)
    pts = sorted((point_str(p) for p in orbit.points))
    return PrimitiveIdealEntry(
        co_support={"kind": "exposed_orbit", "points": pts},
        parametrization=group.parametrization(),
        quotient=Matrix(orbit.size),
        simple=True,
        label=f"ideals over RO({{{', '.join(pts)}}})",
    )


def primitive_catalog(atlas, decomposition, exposed_scan, cycles,
                      resolver) -> PrimitiveCatalog:
    """All primitive ideals of the analyzed map's algebra, by co-support."""
    entries = []

    # simple when the Julia extension collapsed: no orbit in J_R, none undetermined
    julia = decomposition.julia
    entries.append(PrimitiveIdealEntry(
        co_support={"kind": "julia"},
        parametrization={"kind": "point"},
        quotient=julia if julia is not None else NamedUnknown("C*_r(J_R)"),
        simple=julia is not None and julia.collapsed,
        label="kernel of the Julia quotient map",
    ))

    entries.extend(_orbit_entry(orbit) for orbit in exposed_scan.orbits)

    # type (iii): bookkeeping classes in the Fatou set, outside the exposed set
    julia_corner = decomposition.square.corners["julia"]
    perturbation = ExtensionSeq(
        ideal=Compacts(),
        total=NamedUnknown("C*_r(R)/I"),
        quotient=julia_corner,
        label="compact perturbation of the Julia quotient",
    )
    for cls in sorted(
        atlas.iota_p + atlas.iota_c, key=lambda c: point_sort_key(c.representative)
    ):
        if resolver.orbit_size(cls.representative) is not None:
            continue
        point = point_str(cls.representative)
        try:
            parametrization, quotient, unresolved = (
                isotropy_of(cls.record).parametrization(), perturbation, "")
        except RatmapError as err:
            parametrization, quotient, unresolved = (
                {"kind": "unresolved", "reason": str(err)}, NamedUnknown("C*_r(R)/I"),
                " (unresolved)")
        entries.append(PrimitiveIdealEntry(
            co_support={"kind": "orbit_plus_julia", "point": point},
            parametrization=parametrization,
            quotient=quotient,
            simple=False,
            label=f"ideals over RO({point}) u J_R{unresolved}",
        ))

    # type (iv): one family per stable region, over its free orbits
    for region in atlas.regions:
        diagram = case_iv_diagram(region, resolver, cycles, julia_corner)
        entries.append(PrimitiveIdealEntry(
            co_support={"kind": "closure_of_free_orbit", "region": region.region_id},
            parametrization={"kind": "point", "family": "one ideal per free orbit"},
            quotient=diagram,
            simple=False,
            label=f"ideals over closures of free orbits in region {region.region_id}",
        ))

    if atlas.julia_is_sphere is True and not exposed_scan.orbits:
        verdict = "single_point"
    elif atlas.julia_is_sphere is None and not exposed_scan.orbits:
        verdict = "undetermined"
    else:
        verdict = "not_T0"

    simple_quotients = [
        render(e.quotient.total if isinstance(e.quotient, ExtensionSeq) else e.quotient)
        for e in entries if e.simple
    ]
    return PrimitiveCatalog(
        entries=entries,
        t0_verdict=verdict,
        simple_quotients=simple_quotients,
    )
