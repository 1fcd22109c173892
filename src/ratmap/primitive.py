"""Catalog of primitive ideals by co-support type.

Co-supports are prime closed invariant sets: the Julia set, a finite
restricted orbit, a finite Fatou class together with the Julia set, or
the closure of a free Fatou orbit.  Ideals over a co-support with an
isolated periodic or critical point form a family over the dual of that
point's isotropy group; the duals are kept symbolic (named group plus a
cardinality class), never enumerated.
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
from .dynamics import INFINITE
from .errors import RatmapError
from .sphere import contains_point, point_sort_key, point_str
from .synth import case_iv_diagram


# isotropy kind -> (group, cardinality class of its dual); {n} is the
# order of the finite part
_ISOTROPY_TEXT = {
    "trivial": ("trivial", "single"),
    "Z": ("Z", "circle"),
    "finite_cyclic": ("Z_{n}", "finite({n})"),
    "Z_plus_finite_cyclic": ("Z + Z_{n}", "circle x finite({n})"),
    "subgroup_of_Q_mod_Z": ("infinite subgroup of Q/Z", "cantor"),
}


@dataclass(frozen=True)
class IsotropyGroup:
    kind: str  # a key of _ISOTROPY_TEXT
    order: int | None = None  # finite part, when applicable

    def _text(self, column: int) -> str:
        if self.kind not in _ISOTROPY_TEXT:
            raise ValueError(self.kind)
        return _ISOTROPY_TEXT[self.kind][column].format(n=self.order)

    def describe(self) -> str:
        return self._text(0)

    def dual_cardinality(self) -> str:
        return self._text(1)

    def parametrization(self) -> dict:
        """A catalog entry's parametrization: the family over this group's dual."""
        return {
            "kind": "dual_of_isotropy",
            "group": self.describe(),
            "cardinality": self.dual_cardinality(),
        }


@dataclass
class PointContext:
    """Everything isotropy classification needs to know about a point."""

    periodic: bool
    critical: bool
    preperiodic: bool
    lands_on_critical_cycle: bool | None = None
    asymptotic_valency: object = None


def isotropy_of(ctx: PointContext) -> IsotropyGroup:
    """Isotropy group of a periodic or critical point, by case analysis."""
    if not ctx.critical:
        if not ctx.periodic and not ctx.preperiodic:
            raise RatmapError("context unresolved: neither periodic nor critical")
        return IsotropyGroup("Z")
    if ctx.periodic or ctx.lands_on_critical_cycle:
        return IsotropyGroup("subgroup_of_Q_mod_Z")
    if ctx.preperiodic is None:
        raise RatmapError("context unresolved: pre-periodicity unknown")
    v = ctx.asymptotic_valency
    if v is None or v == INFINITE:
        raise RatmapError(
            "context unresolved: finite asymptotic valency required",
        )
    if ctx.preperiodic:
        return IsotropyGroup("Z_plus_finite_cyclic", order=int(v))
    return IsotropyGroup("finite_cyclic", order=int(v))


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


def _orbit_entry(orbit, cycles) -> PrimitiveIdealEntry:
    """Type-(ii) entry: co-support a finite restricted orbit."""
    if orbit.contains_critical:
        landing_critical = None
        if orbit.landing_cycle_id is not None:
            landing_critical = cycles[orbit.landing_cycle_id].contains_critical
        ctx = PointContext(
            periodic=False,
            critical=True,
            preperiodic=(orbit.orbit_type == 2),
            lands_on_critical_cycle=landing_critical,
            asymptotic_valency=orbit.asymptotic_valency,
        )
    else:
        ctx = PointContext(periodic=True, critical=False, preperiodic=True)
    group = isotropy_of(ctx)
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

    julia_exposed = [o for o in exposed_scan.orbits if o.in_julia]
    julia_simple = not julia_exposed
    julia_quotient = decomposition.julia if decomposition.julia is not None else (
        NamedUnknown("C*_r(J_R)")
    )
    entries.append(PrimitiveIdealEntry(
        co_support={"kind": "julia"},
        parametrization={"kind": "point"},
        quotient=julia_quotient,
        simple=julia_simple,
        label="kernel of the Julia quotient map",
    ))

    for orbit in sorted(
        exposed_scan.orbits, key=lambda o: (o.size,) + point_sort_key(o.points[0])
    ):
        entries.append(_orbit_entry(orbit, cycles))

    # type (iii): bookkeeping classes in the Fatou set, outside the exposed set
    exposed_points = exposed_scan.union
    julia_corner = decomposition.square.corners["julia"]
    for cls in sorted(
        atlas.iota_p + atlas.iota_c, key=lambda c: point_sort_key(c.representative)
    ):
        if contains_point(exposed_points, cls.representative, resolver.tolerance):
            continue
        ctx = PointContext(
            periodic=(cls.kind == "periodic"),
            critical=(cls.kind == "critical"),
            preperiodic=cls.preperiodic,
            lands_on_critical_cycle=cls.lands_on_critical_cycle,
            asymptotic_valency=cls.asymptotic_valency,
        )
        try:
            group = isotropy_of(ctx)
        except RatmapError as err:
            entries.append(PrimitiveIdealEntry(
                co_support={"kind": "orbit_plus_julia",
                            "point": point_str(cls.representative)},
                parametrization={"kind": "unresolved", "reason": str(err)},
                quotient=NamedUnknown("C*_r(R)/I"),
                simple=False,
                label=f"ideals over RO({point_str(cls.representative)}) u J_R (unresolved)",
            ))
            continue
        ext = ExtensionSeq(
            ideal=Compacts(),
            total=NamedUnknown("C*_r(R)/I"),
            quotient=julia_corner,
            label="compact perturbation of the Julia quotient",
        )
        entries.append(PrimitiveIdealEntry(
            co_support={"kind": "orbit_plus_julia",
                        "point": point_str(cls.representative)},
            parametrization=group.parametrization(),
            quotient=ext,
            simple=False,
            label=f"ideals over RO({point_str(cls.representative)}) u J_R",
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
