"""Exception types raised across the package."""


class GuardingError(Exception):
    """Base class for every error this package raises deliberately."""


class EmptySegments(GuardingError):
    """A perimeter needs at least one guarded segment."""


class NonPositiveLength(GuardingError):
    """Segment and gap lengths must be strictly positive."""


class CountMismatch(GuardingError):
    """Gap count must equal segment count (or be zero for a gapless circle)."""


class IndexOutOfRange(GuardingError):
    """Segment or type index outside the instance."""


class NoGuardedEdge(GuardingError):
    """A polygon outline must mark at least one edge as guarded."""


class DegeneratePolygon(GuardingError):
    """Fewer than three vertices, or a zero-length edge."""


class InvalidSpec(GuardingError):
    """Reduction input violates its stated restrictions."""


class InstanceTooLarge(GuardingError):
    """Instance above a solver's or the brute-force oracle's size cap, refused up front."""


class OutOfTableRange(GuardingError):
    """Cost lookup queried beyond the length it was built for."""


class ReconstructionMismatch(GuardingError):
    """Rebuilt deployment failed its own coverage or cost re-check."""


class ParseError(GuardingError):
    """Document is not valid JSON or lacks the expected structure."""


class ValidationError(GuardingError):
    """Well-formed document with semantically invalid content."""
