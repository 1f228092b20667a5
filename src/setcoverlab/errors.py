"""Exception taxonomy shared across the package, and the CLI's exit codes.

Each class's `exit_code` and `label` are the mapping: `cover` prints
`<label>: <message>` and exits with `exit_code`.  Usage errors exit 1,
ScpSyntaxError 2, instance/feasibility errors 3, budget or iteration
limits 4, NumericalFailure (a fault or a float limit of the LP solver) 5.
"""

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_BUDGET = 4
EXIT_SOLVER = 5


class ScpError(Exception):
    """Base class for all package errors."""

    exit_code = EXIT_INVALID
    label = "error"


class ScpSyntaxError(ScpError):
    """Malformed input file; carries 1-based line/column of the offending token."""

    exit_code = EXIT_PARSE
    label = "parse error"

    def __init__(self, message, line=None, column=None):
        loc = f" (line {line}, col {column})" if line is not None else ""
        super().__init__(message + loc)
        self.line = line
        self.column = column


class InvalidInstance(ScpError):
    """An Instance invariant is violated."""

    label = "invalid instance"

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

    label = "invalid instance"


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
    exit_code = EXIT_SOLVER
    label = "solver error"


class KOutOfRange(ScpError):
    exit_code = EXIT_USAGE
    label = "usage error"


class EpsilonOutOfRange(ScpError):
    exit_code = EXIT_USAGE
    label = "usage error"


class MTooLargeForMode(ScpError):
    exit_code = EXIT_BUDGET
    label = "limit exceeded"
