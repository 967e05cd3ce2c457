"""Exception types shared across the package."""


class ParastdError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(ParastdError):
    pass


class ZeroPolynomialError(ParastdError):
    pass


class NonTerminatingOrder(ParastdError):
    """Full division requested under a non-well order on inhomogeneous data."""


class NonTerminatingDivision(ParastdError):
    """Truncated division hit the step guard without reaching a stopping state."""


class ExponentOverflow(ParastdError):
    """An exponent or a weight row too large for the packed order keys."""


class DenominatorVanishes(ParastdError):
    """Specialization point lies on the vanishing locus of a coefficient denominator."""


class DenominatorInQ(ParastdError):
    pass


class AllCoefficientsInQ(ParastdError):
    pass


class QContainsOne(ParastdError):
    pass


class TruncationTooSmall(ParastdError):
    pass


class SampleOffVariety(ParastdError):
    pass


class SampleOnExcludedLocus(ParastdError):
    pass


class DepthExceeded(ParastdError):
    def __init__(self, message, frontier=()):
        super().__init__(message)
        self.frontier = tuple(frontier)


class NoCell(ParastdError):
    pass


class MultipleCells(ParastdError):
    pass


class ProblemSyntaxError(ParastdError):
    def __init__(self, message, line=None, col=None):
        loc = "" if line is None else f" (line {line}, col {col})"
        super().__init__(message + loc)
        self.line = line
        self.col = col


class UnknownIdentifier(ProblemSyntaxError):
    pass


class DuplicateSection(ProblemSyntaxError):
    pass
