"""Exception hierarchy for the enclosure solver."""


class EnclosureError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EnclosureError):
    """Input bytes are not valid JSON, or structurally broken."""


class SchemaError(EnclosureError):
    """Parsed JSON is missing fields or holds invalid values."""


class OverlapError(EnclosureError):
    """Two input polygon interiors intersect."""

    def __init__(self, id_a, id_b):
        super().__init__(f"polygon interiors overlap: {id_a!r} and {id_b!r}")
        self.id_a = id_a
        self.id_b = id_b


class DegeneratePolygon(EnclosureError):
    """Polygon crosses itself (two of its edges properly cross, or its walk
    crosses itself at a vertex it visits twice), has an empty interior, or
    has no interior reference point in general position with the polygon
    vertices."""


class DegenerateTriangle(EnclosureError):
    """Triangle is collinear or clockwise where a strict ccw one is required."""


class OnBoundary(EnclosureError):
    """Winding number queried for a point lying on the walk."""


class EmbeddingError(EnclosureError):
    """Straight-line drawing of the input graph has crossing edges."""


class TagError(EnclosureError):
    """A face tag point lies on an edge or matches no face."""


class CapacityError(EnclosureError):
    """More required objects than the subset-indexed solver supports."""


class NonpositiveWeight(EnclosureError):
    """An edge weight is zero or negative."""


class NotEulerian(EnclosureError):
    """Multigraph has a vertex of odd degree, or no edges at all."""


class NotConnected(EnclosureError):
    """Multigraph is not connected."""


class FreeSpaceViolation(EnclosureError):
    """A walk edge passes through a polygon interior."""


class ReferenceOnWalk(EnclosureError):
    """A reference point lies exactly on the walk; cost is undefined there."""


class SearchSpaceTooLarge(EnclosureError):
    """Brute-force enumeration budget exceeded."""


class GenerationFailure(EnclosureError):
    """Random instance generation was asked for negative or inconsistent
    counts, or did not succeed within the retry budget."""


class InternalError(EnclosureError):
    """Inconsistent solver state (back-pointers, labels); indicates a bug."""
