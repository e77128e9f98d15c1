"""Exception hierarchy shared by all kgraphs modules."""


class KGraphError(Exception):
    """Base class for all library errors."""


class MalformedSkeleton(KGraphError):
    """Structural defect: dangling ids, duplicate ids, bad colors."""


class ValidationFailure(KGraphError):
    """Mathematical defect: broken bijection, cube inconsistency, etc."""


class NotComposable(KGraphError):
    """Source of the first morphism does not match range of the second."""


class DegreeMismatch(KGraphError):
    """Degree vectors do not add up or have the wrong rank."""


class BoundExceeded(KGraphError):
    """An enumeration would exceed the configured cap."""


class RankMismatch(KGraphError):
    """Operation requires graphs of equal rank k."""


class NotIrreducible(KGraphError):
    """Perron data requires an irreducible graph."""


class NotConverged(KGraphError):
    """Power iteration did not settle within its step budget."""


class NotPrimitive(KGraphError):
    """Mixing-lag computation requires a primitive graph."""


class GraphMismatch(KGraphError):
    """Arguments were built over different skeletons."""


class RadiusMismatch(KGraphError):
    """Windows have different radii."""


class RadiusExhausted(KGraphError):
    """A shift would read outside the window box."""


class NotBracketable(KGraphError):
    """Bracket requires the two windows to share the origin vertex."""


class OutOfBox(KGraphError):
    """A coordinate lies outside the window box."""


class NotComposableInGroupoid(KGraphError):
    """Semidirect-product elements fail the composability conditions."""


class ParseError(KGraphError):
    """Spec document is not syntactically valid."""
