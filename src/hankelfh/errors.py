"""Exception hierarchy shared by all hankelfh modules."""


class HankelFHError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(HankelFHError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested at a pole (or at a zero whose logarithm is
    requested) of a special function."""


class SupportError(HankelFHError):
    """The equilibrium measure of the supplied potential is not the unit
    measure on [-1, 1]; the problem must be rescaled first."""


class EquilibriumConsistencyError(HankelFHError):
    """Variational data evaluated at different interior points disagree,
    signalling that the supplied density does not solve the equilibrium
    problem for the supplied potential."""


class RegularityError(HankelFHError):
    """A one-cut regularity condition failed.

    Attributes
    ----------
    condition : int
        Which of the four one-cut regularity conditions failed
        (see :mod:`hankelfh.equilibrium` for the numbering).
    location : float or None
        Point at which the violation was detected, when applicable.
    """

    def __init__(self, message, condition, location=None):
        super().__init__(message)
        self.condition = condition
        self.location = location


class HypothesisError(DomainError):
    """Singularity parameters violate the hypotheses of the asymptotic
    expansion (Re alpha <= -1, Re beta outside (-1/4, 1/4), or coincident
    singularity locations)."""


class SeparationError(HypothesisError):
    """Singularity locations are not separated from each other or from the
    endpoints by a positive distance."""


class PositivityError(HankelFHError):
    """The orthogonal-polynomial recurrence path requires a positive weight
    (all alpha real, all beta purely imaginary)."""


class ConvergenceError(HankelFHError):
    """A quadrature or precision-refinement loop stalled before reaching the
    requested accuracy."""

