"""Exception types shared across the toolkit.

Each type carries the CLI's exit code: a ``UsageError`` means the
caller's input or configuration is at fault and exits 2; any other
``FleetrankError`` is a runtime or numeric failure and exits 1.
"""

from __future__ import annotations

import numpy as np


class FleetrankError(Exception):
    """Base class for all toolkit errors.

    Every error survives a pickle round trip with its type, message and
    attributes, so an error raised in a worker process can be raised again
    in its parent.
    """

    def __reduce__(self):
        # the default reduction calls the type with ``args``, the message, which
        # a type whose constructor builds the message from its fields would garble
        return _restore, (type(self), self.args), self.__dict__


def _restore(error_type: type, args: tuple) -> FleetrankError:
    """An error of ``error_type`` with ``args``, its constructor not run; pickle adds the fields."""
    error = error_type.__new__(error_type)
    error.args = args
    return error


class UsageError(FleetrankError):
    """The caller's input or configuration is at fault."""


class MissingColumn(UsageError):
    """A schema column is absent from the file header."""

    def __init__(self, name: str):
        super().__init__(f"column {name!r} not found in header")
        self.name = name


class BadValue(UsageError):
    """A cell could not be parsed as a finite number."""

    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"row {row}: bad value {value!r} in column {column!r}")
        self.row = row
        self.column = column
        self.value = value


class DuplicateTripId(UsageError):
    """A trip id repeats one given on an earlier row."""

    def __init__(self, row: int, trip_id: str):
        super().__init__(f"row {row}: trip id {trip_id!r} repeats an earlier row")
        self.row = row
        self.trip_id = trip_id


class EmptyDataset(UsageError):
    """No valid rows were found."""


class TooFewSamples(UsageError):
    """The operation needs more samples than the dataset provides."""


class DimensionMismatch(UsageError):
    """Vector or matrix dimensions do not agree with the expected layout."""


class NonFiniteLoss(FleetrankError):
    """Training produced a NaN or infinite loss. The network keeps its last finite weights."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


class NonFiniteStats(FleetrankError):
    """A column's mean or std overflowed while fitting normalization stats."""

    def __init__(self, column: str):
        super().__init__(f"non-finite mean or std in column {column!r}")
        self.column = column


class NonFiniteObjective(FleetrankError):
    """The objective returned NaN or infinity at some candidate point.

    The exception carries the offending point and the best result found
    before the abort (``best`` is None if nothing was evaluated yet).
    """

    def __init__(self, point, best=None):
        super().__init__("objective returned a non-finite value")
        self.point = point
        self.best = best


class NonFiniteAdvantage(FleetrankError):
    """An advantage, a driver's mean or std of them, or a match distance came out NaN or infinite.

    Inputs far outside the training data's range overflow the nets' arithmetic,
    and a behavior template near the float limit the distance to a driver's profile.
    """

    def __init__(self, what: str):
        super().__init__(f"non-finite {what}")
        self.what = what


class InvalidConfig(UsageError):
    """A configuration value violates its documented constraints."""


class CorruptBundle(UsageError):
    """A model bundle file is unreadable, incomplete or inconsistent."""


class EmptyProfiles(UsageError):
    """No driver profiles were supplied to match against."""


class UnknownDimension(UsageError):
    def __init__(self, name: str):
        super().__init__(f"unknown behavior dimension {name!r}")
        self.name = name


class UnreadableFile(UsageError):
    """An input file is not UTF-8 CSV text that the csv module can split."""


class NotARegularFile(UsageError):
    """A trips path names a pipe, socket or device; trips are read more than once."""

    def __init__(self, path):
        super().__init__(f"{path}: not a regular file; pass a saved trips file, not a pipe")
        self.path = path


def require_array_fits(values: int, what: str) -> None:
    """Raise ``MemoryError`` past the largest float64 array; numpy would raise ``ValueError``."""
    if values * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"{what} is larger than any array can be")
