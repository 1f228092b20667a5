"""Exception taxonomy shared across the package.

Exit-code mapping used by the CLI: usage errors -> 1, ScpSyntaxError -> 2,
instance/feasibility errors -> 3, budget or iteration limits -> 4,
NumericalFailure (a fault or a float limit of the LP solver) -> 5.
"""


class ScpError(Exception):
    """Base class for all package errors."""


class ScpSyntaxError(ScpError):
    """Malformed input file; carries 1-based line/column of the offending token."""

    def __init__(self, message, line=None, column=None):
        loc = f" (line {line}, col {column})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.column = column


class InvalidInstance(ScpError):
    """An Instance invariant is violated."""

    def __init__(self, message, set_index=None):
        super().__init__(message)
        self.set_index = set_index


class ElementOutOfRange(InvalidInstance):
    pass


class EmptySet(InvalidInstance):
    pass


class NegativeWeight(InvalidInstance):
    pass


class UnionNotUniverse(InvalidInstance):
    def __init__(self, message, missing_element=None):
        super().__init__(message)
        self.missing_element = missing_element


class IndexOutOfRange(ScpError):
    pass


class NonPositiveWeight(ScpError):
    """Greedy and the bound machinery require strictly positive weights."""


class NonPositiveArgument(ScpError):
    pass


class ArgumentTooSmall(ScpError):
    pass


class InvalidTrace(ScpError):
    pass


class TraceMismatch(ScpError):
    pass


class LengthMismatch(ScpError):
    pass


class NonOptimalLp(ScpError):
    pass


class NumericalFailure(ScpError):
    pass


class KOutOfRange(ScpError):
    pass


class EpsilonOutOfRange(ScpError):
    pass


class MTooLargeForMode(ScpError):
    pass
