"""Rational-map analysis on the Riemann sphere.

Computes the dynamical inventory of a rational map of degree at least two
(critical orbits, periodic cycles, finite restricted orbits, stable
regions) and synthesizes the operator-algebra decomposition data that
inventory determines: extension sequences, quotient formulas, a square of
six extensions, and a catalog of primitive ideals.
"""

__version__ = "0.1.0"

from .errors import RatmapError
from .poly import Polynomial
from .rational import CriticalPoint, RationalMap
from .scalars import GaussianRational, parse_scalar
from .sphere import INFINITY, SpherePoint, parse_point

from .dynamics import (
    INFINITE,
    CriticalFate,
    OrbitFate,
    PeriodicCycle,
    asymptotic_valency,
    critical_fate,
    critical_points,
    orbit_fate,
    periodic_cycles,
)
from .restricted import (
    ExposedOrbit,
    ROWitness,
    exposed_orbits,
    julia_exposed_partition,
    ro_related,
)
from .atlas import Atlas, IsotropyGroup, StableRegion, build_atlas, isotropy_of
from .algebra import ExtensionSeq, SixSquare, normalize, render
from .synth import (
    ExposureResolver,
    full_decomposition,
    julia_extension,
    julia_orbit_algebra,
    region_extension,
)
from .primitive import primitive_catalog
from .report import AnalysisConfig, RenderConfig, Report, parse_map, run_analysis
from .render import render_julia

__all__ = [
    "__version__",
    # scalars / points / polynomials / maps
    "GaussianRational",
    "Polynomial",
    "RationalMap",
    "CriticalPoint",
    "SpherePoint",
    "INFINITY",
    "INFINITE",
    "RatmapError",
    "parse_scalar",
    "parse_point",
    # dynamics
    "PeriodicCycle",
    "OrbitFate",
    "CriticalFate",
    "critical_points",
    "periodic_cycles",
    "orbit_fate",
    "asymptotic_valency",
    "critical_fate",
    # restricted orbits
    "ROWitness",
    "ExposedOrbit",
    "ro_related",
    "exposed_orbits",
    "julia_exposed_partition",
    # atlas
    "Atlas",
    "IsotropyGroup",
    "StableRegion",
    "build_atlas",
    "isotropy_of",
    # algebra + synthesis
    "ExtensionSeq",
    "SixSquare",
    "normalize",
    "render",
    "ExposureResolver",
    "julia_orbit_algebra",
    "julia_extension",
    "region_extension",
    "full_decomposition",
    # primitive ideals
    "primitive_catalog",
    # reporting
    "AnalysisConfig",
    "RenderConfig",
    "Report",
    "parse_map",
    "run_analysis",
    "render_julia",
]
