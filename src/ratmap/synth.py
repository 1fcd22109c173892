"""Instantiation of the structure theorems from the dynamical inventory.

Each stable region type has a fixed extension shape; the quotient side is
assembled from the region's restricted-orbit class representatives.  The
compacts-on-an-orbit factor resolves to a matrix algebra exactly when the
point's restricted orbit was verified finite (exposed), and to plain
compact operators otherwise.

Totals of extensions are never given an isomorphism class of their own;
they stay named unknowns, because the structure theory characterizes them
only through the extensions.

Every class summand -- of a region's quotient, of the iota_p and iota_c
corners and of a case-(iv) diagram's a-part -- is C*(G_x) tensor K_x,
built by _class_summand from the isotropy group G_x that atlas.isotropy_of
picks for the class representative x.  An attracting or Siegel region
holds one non-critical periodic orbit, its anchor cycle, whose summand
C(T) tensor K_q (_periodic_summand) is also the periodic-orbit row of the
region's free-orbit diagram.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    BunceDeddens,
    CaseIvDiagram,
    CircleAlg,
    Compacts,
    CompactsOn,
    DirectSum,
    Expr,
    ExtensionSeq,
    FinitePower,
    IrrationalRotation,
    MappingTorus,
    Matrix,
    NamedUnknown,
    OpaqueSimple,
    RealsC0,
    Scalars,
    SixSquare,
    Tensor,
    TorusAlg2,
    Zero,
)
from .atlas import isotropy_of
from .dynamics import INFINITE
from .errors import RatmapError, RegionBlockedError
from .restricted import ExposedOrbit
from .sphere import coincide, point_str

JULIA_IDEAL_ATTRIBUTES = ("separable", "purely_infinite", "nuclear", "simple", "UCT")


def julia_orbit_algebra(orbit: ExposedOrbit) -> Expr:
    """The algebra of a finite restricted orbit inside the Julia set."""
    if orbit.in_julia is not True:
        raise ValueError("only Julia orbits have a Julia orbit algebra")
    n = orbit.size
    if orbit.orbit_type == 1:
        return Tensor([CircleAlg(), Matrix(n)])
    d = orbit.asymptotic_valency
    if d == INFINITE or d is None:
        # a Julia orbit cannot land on a critical cycle: those sit in the
        # Fatou set, so a finite valency is guaranteed here
        raise ValueError("infinite asymptotic valency is not representable")
    if orbit.orbit_type == 2:
        return Tensor([Matrix(n), CircleAlg(), FinitePower(Scalars(), int(d))])
    if orbit.orbit_type == 3:
        return Tensor([Matrix(n), FinitePower(Scalars(), int(d))])
    raise ValueError(f"unknown orbit type {orbit.orbit_type}")


def julia_extension(julia_orbits) -> ExtensionSeq:
    """The extension presenting the Julia algebra over its simple ideal.

    julia_orbits come in the order exposed_orbits gives them: by size, then
    by least point.  With no finite orbits in the Julia set the extension
    collapses and the Julia algebra itself carries the ideal's properties.
    """
    if not julia_orbits:
        alg = OpaqueSimple("C*_r(J_R)", JULIA_IDEAL_ATTRIBUTES)
        return ExtensionSeq(
            ideal=alg, total=alg, quotient=Zero(),
            label="julia (no finite invariant sets: collapsed)",
            collapsed=True,
        )
    quotient = DirectSum([julia_orbit_algebra(o) for o in julia_orbits])
    return ExtensionSeq(
        ideal=OpaqueSimple("C*_r(J_R \\ E_R)", JULIA_IDEAL_ATTRIBUTES),
        total=NamedUnknown("C*_r(J_R)"),
        quotient=quotient,
        label="julia",
    )


@dataclass
class ExposureResolver:
    """Resolves a point to the size of its verified finite restricted orbit,
    or None when the point is not exposed."""

    exposed_orbits: list
    tolerance: float

    def orbit_size(self, point):
        for o in self.exposed_orbits:
            for p in o.points:
                if coincide(point, p, self.tolerance):
                    return o.size
        return None

    def compacts_on(self, point) -> CompactsOn:
        return CompactsOn(point_str(point), self.orbit_size(point))


def _class_summand(point, record, resolver: ExposureResolver,
                   blocked: str = "critical record lacks a finite asymptotic valency") -> Expr:
    """C*(G_x) tensor K_x for x the point and G_x = isotropy_of(record).

    Raises RegionBlockedError with the message blocked when G_x is undecided.
    """
    try:
        group = isotropy_of(record)
    except RatmapError:
        raise RegionBlockedError(blocked, point=str(point)) from None
    return Tensor(group.factors() + [resolver.compacts_on(point)])


def _periodic_summand(region, resolver: ExposureResolver, cycles) -> Expr:
    """C(T) tensor K_q for q the least point of the region's anchor cycle."""
    return _class_summand(cycles[region.anchor_cycle_id].points[0], None, resolver)


def _sum(parts) -> Expr:
    return DirectSum(parts) if parts else Zero()


def region_ideal(region) -> Expr:
    kind = region.core.kind
    if kind == "superattracting":
        return Tensor([Compacts(), MappingTorus(region.core.local_degree)])
    if kind == "attracting":
        return Tensor([Compacts(), TorusAlg2()])
    if kind == "parabolic":
        return Tensor([Compacts(), CircleAlg(), RealsC0()])
    if kind in ("siegel", "herman"):
        return Tensor([
            Compacts(), RealsC0(),
            IrrationalRotation(region.core.theta, region.core.theta_label),
        ])
    raise ValueError(f"unknown region kind {kind}")


def region_extension(region, resolver: ExposureResolver, cycles) -> ExtensionSeq:
    """The extension of a stable region's algebra over its free part."""
    kind = region.core.kind
    summands = []
    if region.has_noncritical_periodic:
        summands.append(_periodic_summand(region, resolver, cycles))
    for rec in region.representatives():
        if rec.obstruction is not None:
            raise RegionBlockedError(
                "critical record unresolved; region synthesis blocked",
                point=str(rec.point), reason=rec.obstruction,
            )
        summands.append(_class_summand(rec.point, rec, resolver))
    return ExtensionSeq(
        ideal=region_ideal(region),
        total=NamedUnknown(f"C*_r(Omega_{region.region_id})"),
        quotient=_sum(summands),
        label=f"region {region.region_id} ({kind})",
    )


@dataclass
class RegionSynthesis:
    region_id: int
    extension: ExtensionSeq | None
    obstruction: dict | None = None


@dataclass
class Decomposition:
    julia_fatou: ExtensionSeq
    fatou_regions: list  # RegionSynthesis
    julia: ExtensionSeq | None
    square: SixSquare
    julia_obstruction: dict | None = None
    obstructions: list = field(default_factory=list)


def full_decomposition(atlas, julia_orbits, resolver: ExposureResolver, cycles,
                       julia_obstruction: dict | None = None) -> Decomposition:
    """All four artifacts: the Julia/Fatou extension, the per-region sum,
    the Julia extension, and the square of six extensions."""
    obstructions = []

    if julia_obstruction is None:
        julia_ext = julia_extension(julia_orbits)
        corner_julia = julia_ext.total
    else:
        julia_ext = None
        corner_julia = NamedUnknown("C*_r(J_R)")

    fatou_regions = []
    for region in atlas.regions:
        try:
            ext = region_extension(region, resolver, cycles)
            fatou_regions.append(RegionSynthesis(region.region_id, ext))
        except RegionBlockedError as err:
            record = {
                "code": err.code,
                "message": str(err),
                "region": region.region_id,
                **err.context,
            }
            obstructions.append(record)
            fatou_regions.append(RegionSynthesis(region.region_id, None, record))

    if atlas.regions:
        julia_fatou = ExtensionSeq(
            ideal=NamedUnknown("C*_r(F_R)"),
            total=NamedUnknown("C*_r(R)"),
            quotient=NamedUnknown("C*_r(J_R)"),
            label="julia-fatou",
        )
    else:
        # empty Fatou set: the extension collapses
        julia_fatou = ExtensionSeq(
            ideal=Zero(),
            total=NamedUnknown("C*_r(R)"),
            quotient=corner_julia,
            label="julia-fatou (empty Fatou set: C*_r(R) = C*_r(J_R))",
            collapsed=False,
        )

    corner_free = _sum([region_ideal(region) for region in atlas.regions])
    corner_iota_p = _sum([_class_summand(c.representative, None, resolver)
                          for c in atlas.iota_p])
    iota_c_parts = []
    for cls in atlas.iota_c:
        try:
            iota_c_parts.append(_class_summand(
                cls.representative, cls.record, resolver,
                "bookkeeping class lacks a finite asymptotic valency",
            ))
        except RegionBlockedError as err:
            obstructions.append({
                "code": err.code,
                "message": str(err),
                **err.context,
            })
            iota_c_parts.append(NamedUnknown(f"C*_r(RO({cls.representative}))"))
    corner_iota_c = _sum(iota_c_parts)

    square = SixSquare(
        grid=[
            [corner_free, NamedUnknown("C*_r(F_R \\ I_c)"), corner_iota_p],
            [
                NamedUnknown("C*_r(F_R \\ I_p)"),
                NamedUnknown("C*_r(R)"),
                NamedUnknown("C*_r(J_R u I_p)"),
            ],
            [corner_iota_c, NamedUnknown("C*_r(J_R u I_c)"), corner_julia],
        ]
    )

    return Decomposition(
        julia_fatou=julia_fatou,
        fatou_regions=fatou_regions,
        julia=julia_ext,
        square=square,
        julia_obstruction=julia_obstruction,
        obstructions=obstructions,
    )


def case_iv_diagram(region, resolver: ExposureResolver, cycles,
                    julia_corner: Expr) -> CaseIvDiagram:
    """The primitive-quotient diagram for a free orbit in a stable region."""
    kind = region.core.kind
    if kind == "superattracting":
        top = Tensor([BunceDeddens(region.core.local_degree), Compacts()])
    elif kind == "attracting":
        top = Compacts()
    elif kind == "parabolic":
        top = Compacts()
    else:  # siegel / herman: compacts exchanged for the stabilized rotation algebra
        top = Tensor([
            Compacts(),
            IrrationalRotation(region.core.theta, region.core.theta_label),
        ])
    reps = region.representatives()
    if kind in ("siegel", "herman"):
        # records landing on the rotation center leave the free orbit's
        # closure together with the center; only converging records remain
        reps = [rec for rec in reps if not rec.preperiodic]
    a_parts = []
    for rec in reps:
        try:
            a_parts.append(_class_summand(rec.point, rec, resolver))
        except RegionBlockedError:
            a_parts.append(NamedUnknown(f"C*_r(RO({point_str(rec.point)}))"))
    a_alg = _sum(a_parts)

    rows = []
    if kind == "attracting":
        # only here does the free orbit's closure pick up the periodic orbit;
        # in a Siegel region it stays on invariant circles away from the center
        rows.append(ExtensionSeq(
            ideal=Compacts(),
            total=NamedUnknown("C*_r(RO(q))"),
            quotient=_periodic_summand(region, resolver, cycles),
            label="periodic-orbit row",
        ))
    rows.append(ExtensionSeq(
        ideal=top,
        total=NamedUnknown("C*_r(co-support n F_R)"),
        quotient=a_alg,
        label="fatou column",
    ))
    rows.append(ExtensionSeq(
        ideal=NamedUnknown("C*_r(co-support n F_R)"),
        total=NamedUnknown("C*_r(R)/I"),
        quotient=julia_corner,
        label="main row",
    ))
    rows.append(ExtensionSeq(
        ideal=a_alg,
        total=NamedUnknown("C*_r(J_R u bookkeeping classes)"),
        quotient=julia_corner,
        label="bookkeeping row",
    ))
    return CaseIvDiagram(region_kind=kind, top=top, rows=rows)
