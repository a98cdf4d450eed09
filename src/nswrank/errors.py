"""Exception hierarchy shared across the package.  Each class carries its
command-line exit code as ``exit_code``, the one place that mapping lives."""


class NswrankError(Exception):
    """Base class for all package-specific errors."""


class InputError(NswrankError, ValueError):
    """An argument, flag or config value lies outside its domain."""
    exit_code = 2


class DimensionError(NswrankError):
    """Shapes of two inputs disagree."""
    exit_code = 6


class NotDoublyStochastic(NswrankError):
    """A ranking mixture is not a doubly stochastic policy: a prefix repeats
    an item, or a user's weights are negative or miss 1 by more than DS_TOL."""
    exit_code = 3


class InfeasibleError(NswrankError):
    """The exposure targets cannot be realized by any valid policy."""
    exit_code = 5


class ZeroMeritError(NswrankError):
    """An operation that divides by merit met a zero-merit item."""
    exit_code = 5


class DegenerateMarketError(NswrankError):
    """Every impact is 0 under every policy: every item has zero merit, or
    the exposure model examines no rank."""
    exit_code = 5


class SolverError(NswrankError):
    """A solve stopped without an optimum: the LP solver is missing or stopped
    for a reason other than infeasibility (iteration limit, numerical
    trouble), or a solve's numbers left the float range."""
    exit_code = 8


class SizeError(NswrankError):
    """An instance exceeds a size bound: the brute-force oracle's enumeration,
    or ``core.MAX_ENTRIES``, which bounds the n x n entries per user of a
    policy's dense marginals, those of an audit's envy grid and the m x n
    entries of a synthetic market."""
    exit_code = 9


class ParseError(NswrankError):
    """A file does not conform to its format."""
    exit_code = 3

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class SchemaError(NswrankError):
    """A JSON artifact declares an unknown or mismatched schema."""
    exit_code = 3
