"""Exception types shared across the package."""


class TreeSpectraError(Exception):
    """Base class for every package-specific error."""


class InvalidTree(TreeSpectraError):
    """The edge list does not describe a tree."""


class CycleDetected(InvalidTree):
    """An edge closes a cycle."""


class Disconnected(InvalidTree):
    """The edges span more than one component."""


class DuplicateEdge(InvalidTree):
    """The same unordered edge appears twice."""


class SelfLoop(InvalidTree):
    """An edge joins a vertex to itself."""


class LabelOutOfRange(TreeSpectraError):
    """A vertex label is missing from the tree or is not a positive integer."""


class CongruenceViolated(TreeSpectraError, ValueError):
    """Distances or parameters break a required congruence."""


class NoMajorVertex(TreeSpectraError):
    """The operation needs a vertex of degree at least three."""


class IndexOutOfRange(TreeSpectraError):
    """An eigenvalue index lies outside 0..n-1."""


class ZeroPolynomial(TreeSpectraError):
    """Root multiplicity is undefined for the zero polynomial."""


class NonSymmetric(TreeSpectraError):
    """A matrix handed to the float route is not finite, square and symmetric,
    or not n x n for a vector of length n."""


class NonFinite(TreeSpectraError):
    """A numeric input holds NaN or an infinity."""


class ZeroVector(TreeSpectraError):
    """The all-zero vector was passed where an eigenvector is required."""


class EmptyInput(TreeSpectraError):
    """An empty collection was passed where at least one item is required."""


class TooFewPendants(TreeSpectraError):
    """Pendant-distance statistics need at least two pendant vertices."""


class NotExtremal(TreeSpectraError):
    """The tree does not reach the maximal multiplicity bound."""


class CapExceeded(TreeSpectraError):
    """An enumeration request went past the supported order cap."""


class OracleDisagreement(TreeSpectraError):
    """Two independent routes to the same quantity disagree.

    Carries the offending tree's edge list in ``edges`` when known, so the
    failing case can be reproduced directly.
    """

    def __init__(self, message, edges=None):
        super().__init__(message)
        self.edges = tuple(edges) if edges is not None else None


class InvariantViolated(OracleDisagreement):
    """A mathematical invariant that the code relies on failed to hold.

    Raised where an exact division, a closed form or a fact of tree
    structure is guaranteed by the mathematics, so a failure means a bug;
    like any oracle disagreement it makes the CLI exit with code 3.
    """


class ParseError(TreeSpectraError):
    """Malformed edge-list text.  ``line`` is the 1-based offending line."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line
