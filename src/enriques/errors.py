"""Exception types shared across the library."""


class EnriquesError(Exception):
    """Base class for all domain errors."""


class DivisionByZero(EnriquesError, ZeroDivisionError):
    """Inversion of the zero element of a field tower."""


class ModulusSplit(EnriquesError):
    """A zero divisor was found: an optimistic modulus factors.

    Carries the tower variable owning the modulus and a proper monic
    factor of it (coefficients over the sub-tower).  Callers branch the
    tower into the factor and cofactor and redo the computation in both
    (dynamic evaluation / D5).
    """

    def __init__(self, var, factor):
        super().__init__(f"modulus for {var!r} splits")
        self.var = var
        self.factor = factor


class ForestViolation(EnriquesError):
    """An Enriques forest invariant does not hold."""


class UnrealizableForest(EnriquesError):
    """Forest proximities cannot be realized by an actual blowup sequence."""


class EmptyCluster(EnriquesError):
    """An operation needing at least one cluster point got none."""


class NonReducedGerm(EnriquesError):
    """A germ with a repeated factor where a reduced one is required."""


class BudgetExceeded(EnriquesError):
    """A blowup recursion ran past a bound: its hard depth cap, or, in a
    run truncated to a colength budget, a point that exceeds the budget
    or a truncated transform that is zero."""


class RetryBudgetExceeded(EnriquesError):
    """Seeded sampling failed to produce a certified witness in time."""


class ContractedCurvePresent(EnriquesError):
    """Pullback requested for a map germ that contracts a curve."""


class PlacementConflict(EnriquesError):
    """A configuration placement tag is inconsistent with its cluster data."""


class HypothesisViolated(EnriquesError):
    """A theorem-check was invoked outside its hypotheses."""


class ParseError(EnriquesError):
    """Malformed JSON input."""
