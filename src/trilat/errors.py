"""Exception types shared across the library."""


class TrilatError(Exception):
    """Base class for all library-specific errors."""


class ConcentricIdentical(TrilatError):
    """Two circles coincide within tolerance; their intersection is a continuum."""


class DegenerateTriangle(TrilatError):
    """Sensors are collinear or coincident; the case tables do not apply."""


class DegenerateDirection(TrilatError):
    """A direction-dependent construction was asked for a zero-length direction."""


class PreconditionViolation(TrilatError):
    """An operation was called outside its documented domain."""


class NoBracket(TrilatError):
    """A root finder could not bracket a sign change."""


class BoundsTooSmall(TrilatError):
    """Search bounds do not safely contain the region that could hold minimizers."""


class NoiseRejection(TrilatError):
    """Range generation kept producing negative distances after repeated resampling."""


class MissingIntersection(TrilatError):
    """A required circle pair does not intersect."""
