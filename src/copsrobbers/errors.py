"""Exception types shared across the package."""


class CopsRobbersError(Exception):
    """Base class for all package-specific errors."""


class DisconnectedGraph(CopsRobbersError):
    pass


class SearchSpaceTooLarge(CopsRobbersError):
    pass


class NotIsometric(CopsRobbersError):
    pass


class NotATree(CopsRobbersError):
    pass


class SizeCap(CopsRobbersError):
    pass


class BadBox(CopsRobbersError):
    pass


class ParseError(CopsRobbersError):
    def __init__(self, message, line_no=None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class NonSymmetricInput(ParseError):
    pass


class StateBudgetExceeded(CopsRobbersError):
    pass


class CoverageGap(CopsRobbersError):
    pass


class RetractInvalid(CopsRobbersError):
    pass


class TooFewCops(CopsRobbersError):
    pass


class SubcubeTooLarge(CopsRobbersError):
    pass


class PackingImpossible(CopsRobbersError):
    pass


class IllegalMove(CopsRobbersError):
    """A policy emitted a move the game rules forbid.

    `offender` identifies who broke the rules: "cops" (optionally with the
    cop index) or "robber".
    """

    def __init__(self, offender, message):
        self.offender = offender
        super().__init__(f"{offender}: {message}")


class DomainError(CopsRobbersError):
    pass


class AmbiguousRegime(CopsRobbersError):
    pass


class TeamBudgetExceeded(CopsRobbersError):
    def __init__(self, demand, budget):
        self.demand = demand
        self.budget = budget
        super().__init__(f"needs {demand} cops but only {budget} available")


class ProgressStall(CopsRobbersError):
    pass


class UnknownSuite(CopsRobbersError):
    pass


class UnknownPolicy(CopsRobbersError):
    pass
