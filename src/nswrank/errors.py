"""Exception hierarchy shared across the package."""


class NswrankError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(NswrankError):
    """Shapes of two inputs disagree."""


class NotDoublyStochastic(NswrankError):
    """A ranking mixture is not a doubly stochastic policy: a prefix repeats
    an item, or a user's weights are negative or miss 1 by more than DS_TOL."""


class InfeasibleError(NswrankError):
    """The exposure targets cannot be realized by any valid policy."""


class ZeroMeritError(NswrankError):
    """An operation that divides by merit met a zero-merit item."""


class DegenerateMarketError(NswrankError):
    """Every impact is 0 under every policy: every item has zero merit, or
    the exposure model examines no rank."""


class SolverError(NswrankError):
    """The LP solver stopped without an optimum for a reason other than
    infeasibility (iteration limit, numerical trouble)."""


class SizeError(NswrankError):
    """An instance exceeds a size bound: the brute-force oracle's enumeration
    or the n x n entries per user of a decomposition's check."""


class ParseError(NswrankError):
    """A file does not conform to its format."""

    def __init__(self, message, line=None, column=None):
        loc = ""
        if line is not None:
            loc = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + loc)
        self.line = line
        self.column = column


class SchemaError(NswrankError):
    """A JSON artifact declares an unknown or mismatched schema."""
