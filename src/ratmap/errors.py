"""Exception types raised by the analysis layers.

Every exception that can surface during an analysis run carries a short
machine-readable ``code`` so the report layer can turn it into a warning
or obstruction record instead of aborting the whole run.
"""

from __future__ import annotations


class RatmapError(Exception):
    code = "error"

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = context


class MapDegreeError(RatmapError):
    """Input map has degree below two."""

    code = "map-degree"


class DegenerateMapError(RatmapError):
    """Numerator and denominator share a root (within tolerance in floating mode)."""

    code = "map-degenerate"


class IndeterminateEvaluationError(RatmapError):
    """Both homogeneous components vanished below tolerance; 0/0 refused."""

    code = "evaluate-indeterminate"


class RootFindingFailedError(RatmapError):
    code = "roots-no-convergence"

    def __init__(self, message, residuals=(), **context):
        super().__init__(message, **context)
        self.residuals = tuple(residuals)


class MultiplicityAmbiguousError(RatmapError):
    """Two clusterings within a factor 10 of the radius disagree."""

    code = "roots-multiplicity-ambiguous"


class ClassificationAmbiguousError(RatmapError):
    """|multiplier| sits inside the indifferent band in floating mode."""

    code = "cycle-classification-ambiguous"


class AsymptoticValencyUndeterminedError(RatmapError):
    code = "asymptotic-valency-undetermined"


class JuliaMembershipUndeterminedError(RatmapError):
    code = "julia-membership-undetermined"


class RegionBlockedError(RatmapError):
    """A stable region cannot be synthesized because a critical record is unresolved."""

    code = "region-blocked"


class AtlasInvariantError(RatmapError):
    """The stable-region inventory violated a structural bound; indicates a bug."""

    code = "atlas-invariant"


class DeclarationError(RatmapError):
    code = "declaration-invalid"


class ConfigError(RatmapError):
    code = "config-invalid"


class InputFormatError(RatmapError):
    code = "input-format"
