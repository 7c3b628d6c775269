"""Exception taxonomy shared across the package.

Exit codes: 4 for DivergenceError; 3 for a failed certification, including a
ConvexityGapError in `certify` (a run takes weight 1); 2 for any other error.
"""


class OfoError(Exception):
    """Base class for all package errors."""


class InputError(OfoError):
    """Invalid user input: bad dimensions, malformed scenario, bad parameters."""


class StepLimitError(InputError):
    """The default step would have to fall below its floor to keep explicit
    stepping stable, so the run is refused instead of stepped."""


class ConvexityGapError(InputError):
    """The cost's strong convexity does not exceed its coupling modulus, so the
    dominance parameters are undefined (the loop is simply not certifiable)."""


class SingularMatrixError(OfoError):
    """A matrix that must be inverted is singular ('singular plant matrix')."""


class NotStabilizedError(OfoError):
    """The plant matrix is not Hurwitz ('plant not pre-stabilized')."""


class DivergenceError(OfoError):
    """A simulated state stopped being finite."""

    def __init__(self, message: str, time: float | None = None, segment: int | None = None):
        super().__init__(message)
        self.time = time
        self.segment = segment
