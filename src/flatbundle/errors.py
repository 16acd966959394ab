"""Exception hierarchy shared across the package, and the value types
that read input files."""

import contextlib
import math


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


# Value types of the config and chart-file keys: each one parses a key's
# text and raises ValueError naming the rule the text breaks.

def _type(rule, convert, ok=lambda value: True):
    """convert(text), refused as 'expected <rule>' when it fails or ok of
    the value is false."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise ValueError(f"expected {rule}")
    return parse


def integer(least=None):
    return _type("an integer" + (f" >= {least}" if least is not None else ""),
                 int, lambda v: least is None or v >= least)


def real(finite=False, positive=False):
    return _type("a" + " finite" * finite + " positive" * positive
                 + " number", float,
                 lambda v: (math.isfinite(v) or not finite)
                 and (v > 0 or not positive))


def interval(finite=False):
    """The text 'lo : hi' with lo < hi, both finite where asked."""
    return _type(f"'lo : hi' with {'finite ' * finite}lo < hi",
                 lambda text: tuple(map(float, text.split(":"))),
                 lambda iv: len(iv) == 2 and iv[0] < iv[1]
                 and (all(map(math.isfinite, iv)) or not finite))


def each(parse, increasing=False):
    """A comma-separated list of values of one type."""
    def parse_each(text):
        values = tuple(parse(part) for part in text.split(","))
        if increasing and any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("expected strictly increasing values")
        return values
    return parse_each


def choice(*words):
    return _type("one of " + ", ".join(words), lambda t: t.strip().lower(),
                 lambda word: word in words)


def boolean(true=("true",), false=("false",)):
    word = choice(*true, *false)
    return lambda text: word(text) in true


def none_or(parse):
    """'none' (any case) as None, else a value of the given type."""
    return lambda text: (None if text.strip().lower() == "none"
                         else parse(text))


@contextlib.contextmanager
def naming(key, text):
    """Word a ValueError raised in the block as a ConfigError naming the
    key and its text, on one line."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{key} = {' '.join(text.split())}: {exc}") from None
