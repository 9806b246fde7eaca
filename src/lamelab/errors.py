"""Exception types shared across the toolkit."""


class LamelabError(Exception):
    """Base class for all toolkit errors."""


class PoleProximity(LamelabError):
    """Argument is too close to a pole (lattice point or shifted source)."""


class NoConvergence(LamelabError):
    """An iterative solve (Newton, bisection) failed to converge."""


class RamifiedPoint(LamelabError):
    """Spectral parameter sits on the branch locus l_n(B) = 0."""


class NoSignPattern(LamelabError):
    """No sign assignment satisfies the curve equations within tolerance."""


class DistinctnessViolation(LamelabError):
    """Source points collide modulo the lattice."""


class EvenTotalWeight(LamelabError):
    """Operation requires odd total weight."""


class PoleAtInteger(LamelabError):
    """Universal recursion evaluated at one of its integer poles."""


class PartialEnumeration(LamelabError):
    """Root search stopped short of the predicted count.

    Carries the roots found so far in ``solutions`` and the predicted
    count in ``expected``.
    """

    def __init__(self, message, solutions, expected):
        super().__init__(message)
        self.solutions = solutions
        self.expected = expected


class PathTooClose(LamelabError):
    """Integration path enters the clearance disk of a singular point."""


class Inconsistent(LamelabError):
    """Monodromy data violates the homotopy relation beyond tolerance."""


class NotDiagonalizable(LamelabError):
    """Unitarizability test applied to a non-diagonalizable pair."""


class HalfPeriodInput(LamelabError):
    """Period integral requested at a half-period, where it degenerates."""


class CriticalPointOfF(LamelabError):
    """Density formula evaluated where the developing map is critical."""
