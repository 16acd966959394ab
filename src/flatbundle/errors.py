"""Exception hierarchy shared across the package."""


class FlatBundleError(Exception):
    """Base class for all package errors."""


class DomainError(FlatBundleError):
    """Parameter point (or a differentiation stencil around it) leaves the
    declared chart domain."""


class ModelConsistencyError(FlatBundleError):
    """An image point violates the ambient model constraint beyond tolerance."""


class DegenerateMetricError(FlatBundleError):
    """The induced first fundamental form is not positive definite."""


class FrameError(FlatBundleError):
    """A full orthonormal normal frame could not be constructed."""


class HypothesisViolation(FlatBundleError):
    """A precondition inherited from the theorem's hypotheses fails
    (e.g. C <= 0, a repeated principal normal, or a vanishing lambda)."""


class CoherenceError(FlatBundleError):
    """Principal fields could not be gauge-aligned across a stencil."""


class NumericalError(FlatBundleError):
    """An iterative numerical procedure failed to converge."""


class DomainExitError(FlatBundleError):
    """An integral curve left the usable domain; carries the exit time and
    the last in-domain point."""

    def __init__(self, message, exit_time, last_point):
        super().__init__(message)
        self.exit_time = exit_time
        self.last_point = last_point


class ConfigError(FlatBundleError):
    """Configuration or expression-file parse/validation failure."""


def read_text(path, what):
    """The text of the UTF-8 input file at path; a file that cannot be read
    as such is a ConfigError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = (exc.strerror or str(exc) if isinstance(exc, OSError)
                  else "not UTF-8 text")
        raise ConfigError(f"cannot read {what} {path!r}: {reason}") from None
