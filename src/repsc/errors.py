"""Exception types raised by the public API.

Every error signalling a violated precondition derives from RepscError so
callers can catch the package's failures with a single except clause while
tests can still pin down the exact condition. ``_naming_file`` makes a file
reader's decode error name its file.
"""

from contextlib import contextmanager


@contextmanager
def _naming_file(path):
    """Append ``path`` to the message of a UnicodeDecodeError raised in the
    block, so a file that is not valid UTF-8 is named."""
    try:
        yield
    except UnicodeDecodeError as exc:
        exc.reason += f" in file {path}"
        raise


class RepscError(Exception):
    """Base class for all errors raised by this package."""


class NonSquareError(RepscError):
    """A square matrix was required but a rectangular one was given."""


class NotSymmetricError(RepscError):
    """Symmetry violated beyond the admitted tolerance."""


class EigenConvergenceError(RepscError):
    """The eigenvalue backend failed to converge."""


class RankTooLargeError(RepscError):
    """Requested approximation rank exceeds what the input admits."""


class DivisibilityError(RepscError):
    """An integer divisibility or parity requirement does not hold."""


class DegreeRangeError(RepscError):
    """Requested regular degree is outside the feasible range."""


class EmptyClusterError(RepscError):
    """A cluster referenced by an assignment contains no nodes."""


class ZeroVolumeClusterError(RepscError):
    """A cluster has zero total degree, so a volume-normalized quantity is undefined."""


class SizeMismatchError(RepscError):
    """Two arguments that must agree in shape or node count do not."""


class KTooLargeError(RepscError):
    """More clusters requested than there are points."""


class NullSpaceTooSmallError(RepscError):
    """The constraint null space has fewer dimensions than clusters requested."""


class IsolatedNodeError(RepscError):
    """A degree-based operation met a node with zero degree."""


class MalformedLineError(RepscError):
    """A text input line does not follow the documented format.

    Carries the 1-based line number in ``line_number``.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class IndexOutOfRangeError(RepscError):
    """A node index lies outside the valid range."""


class LayerOutOfRangeError(RepscError):
    """A layer index lies outside the valid range."""


class NoLayersError(RepscError):
    """A multiplex input contained no edge at all."""


class AssumptionViolatedError(RepscError):
    """Input does not satisfy the structural assumption a closed form requires."""


class ZeroGapError(RepscError):
    """A spectral gap required to be positive is zero (or negative)."""


class ConfigError(RepscError):
    """An experiment configuration is malformed or inconsistent."""
