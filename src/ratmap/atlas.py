"""Inventory of stable regions and the critical/periodic bookkeeping.

One stable region per attracting, superattracting or parabolic cycle,
plus one per declared Siegel or Herman structure.  Siegel and Herman
existence is taken by declaration only: telling a Siegel disk from a
Cremer point, or detecting a Herman ring, is beyond the numerics here,
and an undeclared irrationally indifferent cycle produces a warning and
no region.  bind_declarations binds the declarations report.read_declaration
checked to the computed cycles, once per analysis; the atlas and the
exposed-orbit scan both read that binding, and the Julia side of a cycle
from its one rule, restricted.DeclaredStructures.in_julia.

The classes making up the critical/periodic bookkeeping are split into
the part carrying a non-critical periodic orbit (attracting and Siegel
anchor cycles) and the rest (critical records), which is exactly the
partition the six-extension square is built from.

isotropy_of is the one rule that picks a class's isotropy group G_x from
its representative's record, whose lands_on_critical_cycle the atlas
decides once; synth builds every class summand C*(G_x) tensor K_x from the
group's factors, and primitive parametrizes the ideals over x by its dual.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import CantorAlg, CircleAlg, FinitePower, Scalars
from .dynamics import INFINITE
from .errors import AtlasInvariantError, DeclarationError, RatmapError
from .rational import RationalMap
from .restricted import RO_DEPTH_DEFAULT, DeclaredStructures, ro_witness
from .sphere import SpherePoint, point_sort_key

INDIFFERENT_ANCHORS = ("irrationally_indifferent", "indifferent_ambiguous")


@dataclass
class CoreType:
    kind: str  # "superattracting" | "attracting" | "parabolic" | "siegel" | "herman"
    period: int
    local_degree: int | None = None  # superattracting: product of cycle valencies
    multiplier: object = None  # attracting
    theta: float | None = None  # siegel / herman
    theta_label: str | None = None


@dataclass
class CriticalOrbitRecord:
    point: SpherePoint
    region_id: int
    preperiodic: bool
    asymptotic_valency: object  # int, INFINITE, or None when undetermined
    lands_on_critical_cycle: bool = False
    ro_representative: bool = True
    ro_class_id: int | None = None
    obstruction: str | None = None


@dataclass
class StableRegion:
    region_id: int
    core: CoreType
    anchor_cycle_id: int | None  # None for Herman
    critical_records: list = field(default_factory=list)

    @property
    def has_noncritical_periodic(self) -> bool:
        """True when the anchor cycle is a non-critical periodic orbit in the region."""
        return self.core.kind in ("attracting", "siegel")

    def representatives(self):
        return [rec for rec in self.critical_records if rec.ro_representative]


@dataclass
class IotaClass:
    """A bookkeeping class: a region's anchor cycle, represented by its least
    point, or a restricted-orbit class of critical records, represented by
    its least record."""

    class_id: int
    representative: SpherePoint
    region_id: int
    record: CriticalOrbitRecord | None = None  # None for an anchor cycle

    @property
    def kind(self) -> str:
        return "periodic" if self.record is None else "critical"


# isotropy kind -> (the group, the cardinality class of its dual, the tensor
# factors of its C*-algebra); n is the order of the finite part
_ISOTROPY = {
    "Z": ("Z", "circle", lambda n: [CircleAlg()]),
    "finite_cyclic": ("Z_{n}", "finite({n})", lambda n: [FinitePower(Scalars(), n)]),
    "Z_plus_finite_cyclic": ("Z + Z_{n}", "circle x finite({n})",
                             lambda n: [FinitePower(Scalars(), n), CircleAlg()]),
    "subgroup_of_Q_mod_Z": ("infinite subgroup of Q/Z", "cantor", lambda n: [CantorAlg()]),
}


@dataclass(frozen=True)
class IsotropyGroup:
    kind: str  # a key of _ISOTROPY
    order: int | None = None  # finite part, when applicable

    def _column(self, column: int):
        if self.kind not in _ISOTROPY:
            raise ValueError(self.kind)
        return _ISOTROPY[self.kind][column]

    def describe(self) -> str:
        return self._column(0).format(n=self.order)

    def dual_cardinality(self) -> str:
        return self._column(1).format(n=self.order)

    def factors(self) -> list:
        """The tensor factors of C*(G), in the order a class summand prints them."""
        return self._column(2)(self.order)

    def parametrization(self) -> dict:
        """A catalog entry's parametrization: the family over this group's dual."""
        return {
            "kind": "dual_of_isotropy",
            "group": self.describe(),
            "cardinality": self.dual_cardinality(),
        }


def isotropy_of(record) -> IsotropyGroup:
    """The isotropy group of a bookkeeping class or exposed orbit.

    record is None for a point of a cycle with no critical point, whose
    group is Z.  Otherwise it is the record of a critical point (a
    CriticalOrbitRecord, or an ExposedOrbit holding the point): an infinite
    subgroup of Q/Z when the point lands on a critical cycle, else Z + Z_v
    when it is pre-periodic and Z_v when it is not, for v its asymptotic
    valency.  RatmapError when that valency is not finite.
    """
    if record is None:
        return IsotropyGroup("Z")
    if record.lands_on_critical_cycle:
        return IsotropyGroup("subgroup_of_Q_mod_Z")
    v = record.asymptotic_valency
    if v is None or v == INFINITE:
        raise RatmapError("context unresolved: finite asymptotic valency required")
    return IsotropyGroup("Z_plus_finite_cyclic" if record.preperiodic else "finite_cyclic",
                         order=int(v))


@dataclass
class Atlas:
    regions: list
    iota_p: list  # IotaClass
    iota_c: list  # IotaClass
    unresolved_critical: list  # [(SpherePoint, reason)]
    julia_is_sphere: bool | None
    warnings: list = field(default_factory=list)


def bind_declarations(r, declarations, cycles) -> DeclaredStructures:
    """Bind each Siegel anchor to the computed cycle holding it, which must
    be irrationally indifferent or ambiguous; a Herman declaration needs
    degree 3 or more.  The first declaration on a cycle is the one bound."""
    siegel = {}
    for dec in declarations:
        if dec.kind == "herman":
            if r.degree < 3:
                raise DeclarationError(
                    "a degree-2 map cannot have a Herman ring; rejected",
                    degree=r.degree,
                )
            continue
        cycle = next((c for c in cycles if c.contains(dec.anchor, r.tolerance)), None)
        if cycle is None:
            raise DeclarationError("siegel anchor is not a computed cycle point",
                                   anchor=str(dec.anchor))
        if cycle.classification not in INDIFFERENT_ANCHORS:
            raise DeclarationError(
                "siegel anchor cycle is not irrationally indifferent",
                anchor=str(dec.anchor), classification=cycle.classification,
            )
        siegel.setdefault(cycle.cycle_id, dec)
    return DeclaredStructures(siegel, tuple(d for d in declarations if d.kind == "herman"))


def build_atlas(r: RationalMap, cycles, fates, declared=DeclaredStructures(), *,
                ro_depth: int = RO_DEPTH_DEFAULT) -> Atlas:
    """Assemble stable regions and the critical/periodic class partition.

    fates maps every critical point, in the order of critical_points, to
    its CriticalFate record, as dynamics.critical_fate computes it.
    declared holds the declarations bind_declarations bound to the cycles.
    """
    tol = r.tolerance
    warnings = []

    regions = []
    cycle_to_region = {}

    def add_region(core, anchor_cycle_id):
        region = StableRegion(
            region_id=len(regions),
            core=core,
            anchor_cycle_id=anchor_cycle_id,
        )
        regions.append(region)
        if anchor_cycle_id is not None:
            cycle_to_region[anchor_cycle_id] = region.region_id

    for cyc in cycles:
        if cyc.classification == "superattracting":
            add_region(
                CoreType("superattracting", cyc.period, local_degree=cyc.local_degree),
                cyc.cycle_id,
            )
        elif cyc.classification == "attracting":
            add_region(
                CoreType("attracting", cyc.period, multiplier=cyc.multiplier),
                cyc.cycle_id,
            )
        elif cyc.classification == "rationally_indifferent":
            add_region(CoreType("parabolic", cyc.period), cyc.cycle_id)
        elif cyc.classification in INDIFFERENT_ANCHORS:
            dec = declared.siegel.get(cyc.cycle_id)
            if dec is None:
                if cyc.classification == "irrationally_indifferent":
                    warnings.append({
                        "code": "siegel-cremer-undeclared",
                        "message": "irrationally indifferent cycle without a Siegel "
                                   "declaration; possible Siegel/Cremer, region omitted",
                        "cycle": [str(p) for p in cyc.points],
                    })
                else:
                    warnings.append({
                        "code": "cycle-classification-ambiguous",
                        "message": "ambiguous indifferent cycle ignored by the atlas",
                        "cycle": [str(p) for p in cyc.points],
                    })
            else:
                # the user's assertion resolves the cycle into a Siegel center
                estimate = cyc.rotation_estimate
                if estimate is not None:
                    drift = abs((estimate - dec.theta + 0.5) % 1.0 - 0.5)
                    if drift > 1e-6:
                        warnings.append({
                            "code": "declaration-theta-drift",
                            "message": "declared rotation number differs from the "
                                       "measured multiplier argument; declaration honored",
                            "declared": dec.theta,
                            "measured": estimate,
                        })
                add_region(
                    CoreType("siegel", cyc.period, theta=dec.theta,
                             theta_label=dec.theta_label),
                    cyc.cycle_id,
                )
    for dec in declared.herman:
        add_region(
            CoreType("herman", dec.period, theta=dec.theta, theta_label=dec.theta_label),
            None,
        )

    n_bound = 2 * r.degree - 2
    if len(regions) > n_bound:
        raise AtlasInvariantError(
            "stable-region count exceeds 2d - 2; atlas assembly is broken",
            count=len(regions), bound=n_bound,
        )

    # attach critical records
    unresolved = []
    for point, cf in fates.items():
        fate = cf.fate
        if fate.kind == "unresolved":
            unresolved.append((point, "orbit fate unresolved within budget"))
            continue
        region_id = cycle_to_region.get(fate.cycle_id)
        if region_id is None or (
            fate.kind == "preperiodic" and declared.in_julia(cycles[fate.cycle_id])
        ):
            # lands on a Julia-side cycle (a parabolic one among them) or
            # on a cycle with no region: not a Fatou record
            continue
        regions[region_id].critical_records.append(
            CriticalOrbitRecord(
                point=point,
                region_id=region_id,
                preperiodic=(fate.kind == "preperiodic"),
                asymptotic_valency=cf.asymptotic_valency,
                lands_on_critical_cycle=fate.lands_on_critical_cycle(cycles),
                obstruction=None if cf.error is None else str(cf.error),
            )
        )

    # restricted-orbit dedup of records inside each region; representatives are
    # the lexicographically least members of their class
    class_counter = 0
    iota_p = []
    iota_c = []
    for region in regions:
        records = region.critical_records
        records.sort(key=lambda rec: point_sort_key(rec.point))
        # the comparisons read the walks the fates were computed on
        walks = [fates[rec.point].fate.walk for rec in records]
        reps = []  # indices of the class representatives
        for i, rec in enumerate(records):
            j = next(
                (j for j in reps if ro_witness(walks[i], walks[j], ro_depth, tol) is not None),
                None,
            )
            if j is None:
                rec.ro_class_id = class_counter
                class_counter += 1
                reps.append(i)
            else:
                rec.ro_representative = False
                rec.ro_class_id = records[j].ro_class_id
        iota_c.extend(IotaClass(records[j].ro_class_id, records[j].point, region.region_id,
                                records[j]) for j in reps)
        if region.has_noncritical_periodic:
            iota_p.append(IotaClass(class_counter, cycles[region.anchor_cycle_id].points[0],
                                    region.region_id))
            class_counter += 1
        if region.core.kind in ("attracting", "parabolic") and not region.critical_records:
            warnings.append({
                "code": "region-missing-critical-record",
                "message": "no critical orbit was attached to this region within "
                           "the budget; classically at least one exists",
                "region": region.region_id,
            })
        if region.core.kind == "herman" and not region.critical_records:
            warnings.append({
                "code": "region-missing-critical-record",
                "message": "declared Herman region has no attached critical records",
                "region": region.region_id,
            })

    for point, reason in unresolved:
        warnings.append({
            "code": "critical-fate-unresolved",
            "message": "critical point not attributed to any region; "
                       "region formulas may be missing its contribution",
            "point": str(point),
            "reason": reason,
        })

    has_undeclared_irrational = any(c.classification == "irrationally_indifferent"
                                    and c.cycle_id not in declared.siegel for c in cycles)
    if regions:
        julia_is_sphere = False
    elif has_undeclared_irrational or unresolved:
        julia_is_sphere = None
    else:
        julia_is_sphere = True

    return Atlas(
        regions=regions,
        iota_p=iota_p,
        iota_c=iota_c,
        unresolved_critical=unresolved,
        julia_is_sphere=julia_is_sphere,
        warnings=warnings,
    )
