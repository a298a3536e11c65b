"""Exception taxonomy for the package.

Every error raised on purpose derives from DeskLMError so callers (and the
CLI exit-code mapping) can tell deliberate contract failures apart from
plain bugs.  check_field_types lives here too: every config dataclass
calls it, and this module imports nothing of the package.
"""

import dataclasses
import functools
import math
import numbers
import types
import typing


class DeskLMError(Exception):
    """Base class for all deliberate errors raised by this package."""


class ConfigError(DeskLMError):
    """A configuration value is missing, malformed, or out of range."""


def _has_type(value, hint) -> bool:
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_has_type(value, arg) for arg in typing.get_args(hint))
    if hint is type(None):
        return value is None
    if hint is int:  # a bool is an int to Python, never to a config
        return isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if hint is float:  # a config file may well say 1 for 1.0
        return isinstance(value, numbers.Real) and not isinstance(value, bool)
    return isinstance(value, hint)


@functools.lru_cache(maxsize=None)
def _field_hints(cls) -> tuple:
    # get_type_hints evaluates the annotation strings: once per class
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.type, hints[f.name]) for f in dataclasses.fields(cls))


def check_field_types(obj) -> None:
    """ConfigError unless every field of the dataclass instance obj holds
    a value of its annotated type: int, float (an int also passes),
    bool, str, a class, or a union of these with None.  A float must
    also be finite: JSON readers accept NaN and Infinity, and a range
    check written x <= 0 lets NaN through."""
    for name, written, hint in _field_hints(type(obj)):
        value = getattr(obj, name)
        if not _has_type(value, hint):
            raise ConfigError(f"{type(obj).__name__}.{name} must be "
                              f"{written}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{type(obj).__name__}.{name} must be finite, "
                              f"got {value!r}")


class ContractError(DeskLMError):
    """A function precondition was violated by the caller."""


class ShapeError(ContractError):
    """Tensor shapes are incompatible for the requested operation."""


class IndexBoundsError(ContractError):
    """An integer index lies outside the valid range for a lookup."""


class DegenerateRowError(DeskLMError):
    """A softmax row had every entry masked out; the result is undefined."""


class IngestionError(DeskLMError):
    """The corpus could not be read or produced no usable tokens."""


class DivergenceError(DeskLMError):
    """Training produced a non-finite loss and was aborted."""


class CheckpointError(DeskLMError):
    """Base class for checkpoint read/write failures."""


class CheckpointFormatError(CheckpointError):
    """The file does not follow the checkpoint layout: bad magic bytes,
    metadata that is not valid JSON or not a JSON object, a tensor name
    that is not UTF-8, trailing bytes after the last tensor, metadata
    without a config object or with a config or seed no model can be
    built from, a vocabulary that is not a list of strings, or a train
    section that is not an object or holds a mask_rate or span_max that
    TrainConfig refuses."""


class CheckpointVersionError(CheckpointError):
    """The magic bytes are recognisable but the version is unsupported."""


class CheckpointTruncatedError(CheckpointError):
    """The file ended before the declared payload was complete."""


class CheckpointShapeError(CheckpointError):
    """A stored tensor does not match the shape the model expects."""
