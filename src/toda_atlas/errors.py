"""Exception types shared across the package."""

__all__ = [
    "TodaAtlasError",
    "FactorizationError",
    "ChartDomainError",
    "ProfileError",
    "StiffnessError",
]


class TodaAtlasError(Exception):
    """Base class for errors raised by this package."""


class FactorizationError(TodaAtlasError):
    """A triangular factorization does not exist for the given input.

    When the failure is a vanishing pivot, ``minor_index`` holds the
    1-based size of the first trailing principal minor that vanished.
    """

    def __init__(self, message, minor_index=None):
        super().__init__(message)
        self.minor_index = minor_index


class ChartDomainError(TodaAtlasError):
    """A point lies outside the domain of the requested chart."""


class ProfileError(TodaAtlasError):
    """A pair set violates one of the profile axioms ('a' or 'b')."""

    def __init__(self, message, axiom, witness):
        super().__init__(message)
        self.axiom = axiom
        self.witness = witness


class StiffnessError(TodaAtlasError):
    """The adaptive step size underflowed; the partial trajectory is attached."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory
