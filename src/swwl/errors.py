"""Exception hierarchy shared across the package.

Exit codes of ``swwl``, which each class declares as ``exit_code``:

- 0: success.
- 2: input validation: ``SwwlError`` and every subclass not named below;
  also any ``OSError`` (a path that cannot be opened, read or written) and
  any other ``ValueError``.
- 3: configuration or fingerprint mismatch: ``ConfigMismatchError``.
- 4: numerical failure: ``OptimizationError``, ``ConstantTargetError``,
  ``NonSymmetricError``, ``DegenerateDrawError``;
  also ``numpy.linalg.LinAlgError``, and ``check-psd`` on a matrix that is
  not PSD.
"""

import operator


class SwwlError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class ParseError(SwwlError):
    """A dataset file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(SwwlError):
    """Records within one dataset disagree on dimensions or targets."""


class ValidationError(SwwlError):
    """A graph or record violates a structural invariant."""


class EmptyInputError(SwwlError):
    """An operation received an empty sample."""


class DimensionMismatchError(SwwlError):
    """Arrays that must live in one space do not, such as projection
    directions and a measure's support, or test and training features."""


class ConfigMismatchError(SwwlError):
    """Artifacts built under different configurations were combined."""

    exit_code = 3


class LengthMismatchError(SwwlError):
    """Sequences that must be aligned have different lengths."""


class DegenerateDrawError(SwwlError):
    """Repeated Gaussian draws failed to produce a usable direction."""

    exit_code = 4


class NonSymmetricError(SwwlError):
    """A matrix expected to be symmetric is not."""

    exit_code = 4


class OptimizationError(SwwlError):
    """Hyperparameter optimization failed for every start."""

    exit_code = 4


class ConstantTargetError(SwwlError):
    """All training targets are identical; the variance estimate degenerates."""

    exit_code = 4


def refusal(path, message: str) -> SwwlError:
    """The error of a file rule that refuses what ``path`` holds: the
    ParseError naming ``path``, or the ValidationError of ``message`` when
    ``path`` is None, as a writer checks what it is about to write."""
    return ValidationError(message) if path is None else ParseError(f"{path}: {message}")


def integer(name: str, value, least: int = 0, most: int | None = None) -> int:
    """``value`` as a Python int from ``least`` to ``most`` (no bound when
    None): any integer, numpy's included, but not a boolean, a float or a
    string. The rule of every seed, count and level; ValidationError naming
    ``name`` otherwise."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:  # no __index__, or numpy's, which takes one integer only
        index = None
    if index is None:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = index
    if value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value}")
    if most is not None and value > most:
        raise ValidationError(f"{name} must be at most {most}, got {value}")
    return value
