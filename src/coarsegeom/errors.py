"""Exception types shared across the package.

Every error raised by the public API derives from CoarseGeomError, so
callers (the CLI in particular) can map failures onto exit codes without
matching on messages.
"""


class CoarseGeomError(Exception):
    pass


class SchemaError(CoarseGeomError):
    """A JSON document does not match its expected shape."""


class GraphStructureError(CoarseGeomError):
    """A graph violates a structural invariant at construction time."""


class InvalidPoint(CoarseGeomError):
    """A point references a missing vertex or edge, or has a bad offset."""


class DisconnectedGraph(CoarseGeomError):
    """No path exists between the queried points."""


class CapExceeded(CoarseGeomError):
    """Geodesic enumeration hit its cap; ``geodesics`` holds the truncated list."""

    def __init__(self, message, geodesics=()):
        super().__init__(message)
        self.geodesics = list(geodesics)


class NonPositiveScale(CoarseGeomError):
    """Metric scaling requires a strictly positive factor."""


class EmptyFamily(CoarseGeomError):
    pass


class EmptyMemberSet(CoarseGeomError):
    pass


class DuplicateElement(CoarseGeomError):
    pass


class FamilyMismatch(CoarseGeomError):
    """Two structures were built from different families or depths."""


class DepthTooSmall(CoarseGeomError):
    """The graph is not deep enough to host the requested witness level."""


class NoAlternateArm(CoarseGeomError):
    """A witness needs a second arm but the family has only one set."""


class NotAGeodesic(CoarseGeomError):
    """A claimed geodesic fails validation against the graph metric."""


class DomainNotNet(CoarseGeomError):
    """A map's domain misses source vertices it is required to cover."""


class GraphMismatch(CoarseGeomError):
    """Composition or a pipeline received maps over unrelated graphs."""


class NotCoarselySurjective(CoarseGeomError):
    """No admissible constant up to the cap makes the map a quasi-isometry."""


class NotATree(CoarseGeomError):
    pass


class EmptyPreimage(CoarseGeomError):
    """A point of the target has no domain point mapping within the bound."""


class ConstantTooSmall(CoarseGeomError):
    """The pipeline requires a larger quasi-isometry constant."""


class DepthError(CoarseGeomError):
    """The instance is too shallow for the requested extraction."""


class NotQuasiIsometry(CoarseGeomError):
    """Verification of a required quasi-isometry precondition failed."""


class LabelError(CoarseGeomError):
    """An image point sits on a base-labeled edge where no element can be read."""


class ArmCollision(CoarseGeomError):
    """Two boundary vertices map into the same arm; the certificate is invalid."""


class UnknownElement(CoarseGeomError):
    """A claimed transversal mentions an element outside the family."""


class InternalError(CoarseGeomError):
    """A computation broke its own guarantee: a defect, not bad input."""
