"""Exception types shared across the toolkit."""


class SymilpError(Exception):
    """Base class for all toolkit errors."""


class InfeasibleZeroRow(SymilpError):
    """A zero coefficient row with a negative right hand side."""


class EmptySystem(SymilpError):
    """All rows of a system were dropped during normalization."""


class BoxTooLarge(SymilpError):
    """An enumeration box exceeds the configured point cap, or is unbounded."""


class InfeasibleRegion(SymilpError):
    """A computation that needs a nonempty feasible region got an empty one."""


class ObjectiveNotOnes(SymilpError):
    """An all-ones objective was required."""


class ZeroObjective(SymilpError):
    """The zero vector has no coprime direction."""


class NotASymmetry(SymilpError):
    """A supplied generator does not map the instance to itself."""


class UnboundedRelaxation(SymilpError):
    """The LP relaxation is unbounded, so the layer scan has no start."""


class TransitivityNotEstablished(SymilpError):
    """The transitivity certificate required by a solver is missing."""


class SearchBudgetExceeded(SymilpError):
    """An exponential search (automorphism search or simplex pivots) spent its budget."""


class BadParams(SymilpError):
    """Generator parameters outside their admissible window."""


class DegenerateFacet(SymilpError):
    """A facet vertex set failed to determine a unique valid hyperplane."""


class ResultCheckFailed(SymilpError):
    """A solver result failed the exact check that guards it."""
