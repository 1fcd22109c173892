"""Inventory of stable regions and the critical/periodic bookkeeping.

One stable region per attracting, superattracting or parabolic cycle,
plus one per declared Siegel or Herman structure.  Siegel and Herman
existence is taken by declaration only: telling a Siegel disk from a
Cremer point, or detecting a Herman ring, is beyond the numerics here,
and an undeclared irrationally indifferent cycle produces a warning and
no region.

The classes making up the critical/periodic bookkeeping are split into
the part carrying a non-critical periodic orbit (attracting and Siegel
anchor cycles) and the rest (critical records), which is exactly the
partition the six-extension square is built from.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import AtlasInvariantError, DeclarationError
from .rational import RationalMap
from .restricted import ro_witness
from .sphere import SpherePoint, point_sort_key


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
    ro_representative: bool = True
    ro_class_id: int | None = None
    obstruction: str | None = None


@dataclass
class StableRegion:
    region_id: int
    core: CoreType
    anchor_cycle_id: int | None  # None for Herman
    critical_records: list = field(default_factory=list)
    has_noncritical_periodic: bool = False

    def representatives(self):
        return [rec for rec in self.critical_records if rec.ro_representative]


@dataclass
class IotaClass:
    class_id: int
    kind: str  # "periodic" | "critical"
    representative: SpherePoint
    region_id: int
    preperiodic: bool | None = None
    asymptotic_valency: object = None
    lands_on_critical_cycle: bool | None = None


@dataclass
class Atlas:
    regions: list
    iota_p: list  # IotaClass
    iota_c: list  # IotaClass
    unresolved_critical: list  # [(SpherePoint, reason)]
    julia_is_sphere: bool | None
    warnings: list = field(default_factory=list)


def _prepare_declarations(r, declarations, cycles):
    """Validate user declarations against the computed cycles."""
    out = []
    for dec in declarations:
        kind = dec.get("kind")
        if kind not in ("siegel", "herman"):
            raise DeclarationError(f"unknown declaration kind {kind!r}")
        theta = float(dec["theta"])
        if not (0.0 < theta < 1.0):
            raise DeclarationError("theta must lie in (0, 1)", theta=theta)
        try:
            period = int(dec.get("period", 1))
        except (TypeError, ValueError):
            raise DeclarationError("declaration period must be an integer",
                                   period=repr(dec.get("period"))) from None
        if kind == "herman":
            if period < 1:
                raise DeclarationError("herman period must be positive", period=period)
            if r.degree < 3:
                raise DeclarationError(
                    "a degree-2 map cannot have a Herman ring; rejected",
                    degree=r.degree,
                )
            out.append({"kind": "herman", "theta": theta, "period": period,
                        "theta_label": dec.get("theta_label")})
            continue
        anchor = dec.get("anchor_point")
        if not isinstance(anchor, SpherePoint):
            raise DeclarationError("siegel declaration needs an anchor point",
                                   anchor=repr(anchor))
        cycle = next(
            (c for c in cycles if c.contains(anchor, r.tolerance)), None
        )
        if cycle is None:
            raise DeclarationError(
                "siegel anchor is not a computed cycle point",
                anchor=str(anchor),
            )
        if cycle.classification not in (
            "irrationally_indifferent", "indifferent_ambiguous"
        ):
            raise DeclarationError(
                "siegel anchor cycle is not irrationally indifferent",
                anchor=str(anchor), classification=cycle.classification,
            )
        out.append({
            "kind": "siegel", "theta": theta, "period": cycle.period,
            "anchor_point": anchor, "cycle_id": cycle.cycle_id,
            "theta_label": dec.get("theta_label"),
            "rotation_estimate": cycle.rotation_estimate,
        })
    return out


def build_atlas(r: RationalMap, cycles, crit_points, fates, declarations=(), *,
                ro_depth: int = 12) -> Atlas:
    """Assemble stable regions and the critical/periodic class partition.

    fates maps every critical point to its CriticalFate record, as
    dynamics.critical_fate computes it.
    """
    tol = r.tolerance
    warnings = []
    decs = _prepare_declarations(r, declarations, cycles)

    regions = []
    cycle_to_region = {}

    def add_region(core, anchor_cycle_id):
        region = StableRegion(
            region_id=len(regions),
            core=core,
            anchor_cycle_id=anchor_cycle_id,
            has_noncritical_periodic=core.kind in ("attracting", "siegel"),
        )
        regions.append(region)
        if anchor_cycle_id is not None:
            cycle_to_region[anchor_cycle_id] = region.region_id
        return region

    declared_siegel_cycles = {d["cycle_id"] for d in decs if d["kind"] == "siegel"}
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
        elif cyc.classification in ("irrationally_indifferent", "indifferent_ambiguous"):
            dec = next(
                (d for d in decs if d["kind"] == "siegel" and d["cycle_id"] == cyc.cycle_id),
                None,
            )
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
                estimate = dec.get("rotation_estimate")
                if estimate is not None:
                    drift = abs((estimate - dec["theta"] + 0.5) % 1.0 - 0.5)
                    if drift > 1e-6:
                        warnings.append({
                            "code": "declaration-theta-drift",
                            "message": "declared rotation number differs from the "
                                       "measured multiplier argument; declaration honored",
                            "declared": dec["theta"],
                            "measured": estimate,
                        })
                add_region(
                    CoreType("siegel", cyc.period, theta=dec["theta"],
                             theta_label=dec.get("theta_label")),
                    cyc.cycle_id,
                )
    for dec in decs:
        if dec["kind"] == "herman":
            add_region(
                CoreType("herman", dec["period"], theta=dec["theta"],
                         theta_label=dec.get("theta_label")),
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
    for c in crit_points:
        cf = fates[c.point]
        fate = cf.fate
        if fate.kind == "unresolved":
            unresolved.append((c.point, "orbit fate unresolved within budget"))
            continue
        region_id = cycle_to_region.get(fate.cycle_id)
        if fate.kind == "preperiodic" and fate.cycle_id is not None:
            landing = cycles[fate.cycle_id]
            if landing.classification == "rationally_indifferent":
                # the parabolic cycle itself lies in the Julia set; a
                # critical point landing on it is not a Fatou record
                region_id = None
        if region_id is None:
            # lands on or converges to a Julia-side cycle: not a Fatou record
            continue
        regions[region_id].critical_records.append(
            CriticalOrbitRecord(
                point=c.point,
                region_id=region_id,
                preperiodic=(fate.kind == "preperiodic"),
                asymptotic_valency=cf.asymptotic_valency,
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
        for j in reps:
            rep = records[j]
            landing_cycle = None
            if region.anchor_cycle_id is not None:
                landing_cycle = cycles[region.anchor_cycle_id]
            iota_c.append(IotaClass(
                class_id=rep.ro_class_id,
                kind="critical",
                representative=rep.point,
                region_id=region.region_id,
                preperiodic=rep.preperiodic,
                asymptotic_valency=rep.asymptotic_valency,
                lands_on_critical_cycle=(
                    rep.preperiodic and landing_cycle is not None
                    and landing_cycle.contains_critical
                ),
            ))
        if region.has_noncritical_periodic:
            anchor = cycles[region.anchor_cycle_id]
            iota_p.append(IotaClass(
                class_id=class_counter,
                kind="periodic",
                representative=min(anchor.points, key=point_sort_key),
                region_id=region.region_id,
                preperiodic=True,
                asymptotic_valency=1,
                lands_on_critical_cycle=False,
            ))
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

    has_undeclared_irrational = any(
        w["code"] == "siegel-cremer-undeclared" for w in warnings
    )
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
