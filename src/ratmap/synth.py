"""Instantiation of the structure theorems from the dynamical inventory.

Each stable region type has a fixed extension shape; the quotient side is
assembled from the region's restricted-orbit class representatives.  The
compacts-on-an-orbit factor resolves to a matrix algebra exactly when the
point's restricted orbit was verified finite (exposed), and to plain
compact operators otherwise.

Totals of extensions are never given an isomorphism class of their own;
they stay named unknowns, because the structure theory characterizes them
only through the extensions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (
    BunceDeddens,
    CantorAlg,
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
from .dynamics import INFINITE
from .errors import RegionBlockedError
from .restricted import ExposedOrbit
from .sphere import coincide, point_sort_key, point_str

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

    With no finite orbits in the Julia set the extension collapses and the
    Julia algebra itself carries the ideal's properties.
    """
    if not julia_orbits:
        alg = OpaqueSimple("C*_r(J_R)", JULIA_IDEAL_ATTRIBUTES)
        return ExtensionSeq(
            ideal=alg, total=alg, quotient=Zero(),
            label="julia (no finite invariant sets: collapsed)",
            collapsed=True,
        )
    ordered = sorted(julia_orbits, key=lambda o: (o.size,) + point_sort_key(o.points[0]))
    quotient = DirectSum([julia_orbit_algebra(o) for o in ordered])
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


def _record_needs_valency(record, region_kind: str) -> bool:
    if not record.preperiodic:
        return True
    return region_kind in ("attracting", "siegel")


def _valency_summand(v, preperiodic: bool, kx: CompactsOn, point, missing: str) -> Expr:
    """C^v tensor C(T) tensor K_x for a preperiodic point, C^v tensor K_x otherwise.

    Raises RegionBlockedError with the message missing when v is not finite.
    """
    if v is None or v == INFINITE:
        raise RegionBlockedError(missing, point=str(point))
    if preperiodic:
        return Tensor([FinitePower(Scalars(), int(v)), CircleAlg(), kx])
    return Tensor([FinitePower(Scalars(), int(v)), kx])


def _record_summand(record, region_kind: str, resolver: ExposureResolver) -> Expr:
    kx = resolver.compacts_on(record.point)
    if record.preperiodic and region_kind == "superattracting":
        return Tensor([CantorAlg(), kx])
    return _valency_summand(
        record.asymptotic_valency, record.preperiodic, kx, record.point,
        "record lacks the finite asymptotic valency its summand needs",
    )


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
    reps = region.representatives()
    for rec in reps:
        if rec.obstruction is not None:
            raise RegionBlockedError(
                "critical record unresolved; region synthesis blocked",
                point=str(rec.point), reason=rec.obstruction,
            )
        if _record_needs_valency(rec, kind) and (
            rec.asymptotic_valency is None or rec.asymptotic_valency == INFINITE
        ):
            raise RegionBlockedError(
                "critical record lacks a finite asymptotic valency",
                point=str(rec.point),
            )
    summands = []
    if kind in ("attracting", "siegel"):
        anchor = cycles[region.anchor_cycle_id]
        q = min(anchor.points, key=point_sort_key)
        summands.append(Tensor([CircleAlg(), resolver.compacts_on(q)]))
    for rec in reps:
        summands.append(_record_summand(rec, kind, resolver))
    quotient = DirectSum(summands) if summands else Zero()
    return ExtensionSeq(
        ideal=region_ideal(region),
        total=NamedUnknown(f"C*_r(Omega_{region.region_id})"),
        quotient=quotient,
        label=f"region {region.region_id} ({kind})",
    )


def iota_class_algebra(cls, resolver: ExposureResolver) -> Expr:
    """C*(isotropy) tensor compacts-on-orbit, per bookkeeping class."""
    kx = resolver.compacts_on(cls.representative)
    if cls.kind == "periodic":
        return Tensor([CircleAlg(), kx])
    if cls.lands_on_critical_cycle:
        return Tensor([CantorAlg(), kx])
    return _valency_summand(
        cls.asymptotic_valency, cls.preperiodic, kx, cls.representative,
        "bookkeeping class lacks a finite asymptotic valency",
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
    else:
        julia_ext = None

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
        total = julia_ext.total if julia_ext is not None else NamedUnknown("C*_r(J_R)")
        julia_fatou = ExtensionSeq(
            ideal=Zero(),
            total=NamedUnknown("C*_r(R)"),
            quotient=total,
            label="julia-fatou (empty Fatou set: C*_r(R) = C*_r(J_R))",
            collapsed=False,
        )

    corner_free = (
        DirectSum([region_ideal(region) for region in atlas.regions])
        if atlas.regions
        else Zero()
    )
    corner_iota_p = (
        DirectSum([iota_class_algebra(c, resolver) for c in atlas.iota_p])
        if atlas.iota_p
        else Zero()
    )
    iota_c_parts = []
    for cls in atlas.iota_c:
        try:
            iota_c_parts.append(iota_class_algebra(cls, resolver))
        except RegionBlockedError as err:
            obstructions.append({
                "code": err.code,
                "message": str(err),
                **err.context,
            })
            iota_c_parts.append(NamedUnknown(f"C*_r(RO({cls.representative}))"))
    corner_iota_c = DirectSum(iota_c_parts) if iota_c_parts else Zero()
    corner_julia = (
        julia_ext.total if julia_ext is not None else NamedUnknown("C*_r(J_R)")
    )

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
            a_parts.append(_record_summand(rec, kind, resolver))
        except RegionBlockedError:
            a_parts.append(NamedUnknown(f"C*_r(RO({point_str(rec.point)}))"))
    a_alg = DirectSum(a_parts) if a_parts else Zero()

    rows = []
    if kind == "attracting":
        # only here does the free orbit's closure pick up the periodic orbit;
        # in a Siegel region it stays on invariant circles away from the center
        anchor = cycles[region.anchor_cycle_id]
        q = min(anchor.points, key=point_sort_key)
        rows.append(ExtensionSeq(
            ideal=Compacts(),
            total=NamedUnknown("C*_r(RO(q))"),
            quotient=Tensor([CircleAlg(), resolver.compacts_on(q)]),
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
