"""Exception types shared across the toolkit."""


class SymilpError(Exception):
    """Base class for all toolkit errors."""


class Refused(SymilpError):
    """The run is refused: a precondition does not hold or a budget is spent; the CLI exits 4."""


class InfeasibleZeroRow(SymilpError):
    """A zero coefficient row with a negative right hand side."""


class EmptySystem(SymilpError):
    """All rows of a system were dropped during normalization."""


class BoxTooLarge(Refused):
    """An enumeration box exceeds the configured point cap, or is unbounded."""


class InfeasibleRegion(SymilpError):
    """A computation that needs a nonempty feasible region got an empty one."""


class ObjectiveNotOnes(Refused):
    """An all-ones objective was required."""


class ZeroObjective(SymilpError):
    """The zero vector has no coprime direction."""


class NotASymmetry(Refused):
    """A supplied generator does not map the instance to itself."""


class UnboundedRelaxation(SymilpError):
    """The LP relaxation is unbounded, so the layer scan has no start."""


class TransitivityNotEstablished(Refused):
    """The transitivity certificate required by a solver is missing."""


class SearchBudgetExceeded(Refused):
    """An exponential search (automorphism search or simplex pivots) spent its budget."""


class BadParams(Refused):
    """Generator parameters outside their admissible window."""


class DegenerateFacet(SymilpError):
    """A facet vertex set failed to determine a unique valid hyperplane."""


class ResultCheckFailed(SymilpError):
    """A solver result failed the exact check that guards it."""
