"""Exception types shared across the package."""


class PolycellError(Exception):
    pass


class TooFewSides(PolycellError):
    pass


class BadDenominator(PolycellError):
    pass


class NonHyperbolic(PolycellError):
    pass


class BadConfig(PolycellError):
    pass


class BadArgument(PolycellError):
    pass


class UnknownGenerator(PolycellError):
    pass


class ResourceLimit(PolycellError):
    pass


class StateBlowup(ResourceLimit):
    pass


class AlphabetMismatch(PolycellError):
    pass


class PatternNotReduced(PolycellError):
    pass


class KNotValidated(PolycellError):
    pass


class InvalidDescentClass(PolycellError):
    pass


class NoFiniteVertex(PolycellError):
    pass


class BallTooSmall(PolycellError):
    pass


class CorruptCache(PolycellError):
    pass


class SolverDiverged(PolycellError):
    pass


class VerificationDisagreement(PolycellError, ArithmeticError):
    """A check found two routes that disagree; the command line exits 1."""
