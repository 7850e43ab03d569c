"""Exception types shared across the toolkit."""

from __future__ import annotations


class FleetrankError(Exception):
    """Base class for all toolkit errors."""


class MissingColumn(FleetrankError):
    """A schema column is absent from the file header."""

    def __init__(self, name: str):
        super().__init__(f"column {name!r} not found in header")
        self.name = name


class BadValue(FleetrankError):
    """A cell could not be parsed as a finite number."""

    def __init__(self, row: int, column: str, value: str):
        super().__init__(f"row {row}: bad value {value!r} in column {column!r}")
        self.row = row
        self.column = column
        self.value = value


class DuplicateTripId(FleetrankError):
    """A trip id repeats one given on an earlier row."""

    def __init__(self, row: int, trip_id: str):
        super().__init__(f"row {row}: trip id {trip_id!r} repeats an earlier row")
        self.row = row
        self.trip_id = trip_id


class EmptyDataset(FleetrankError):
    """No valid rows were found."""


class UnknownDriver(FleetrankError):
    def __init__(self, driver_id: str):
        super().__init__(f"unknown driver {driver_id!r}")
        self.driver_id = driver_id


class TooFewSamples(FleetrankError):
    """The operation needs more samples than the dataset provides."""


class DimensionMismatch(FleetrankError):
    """Vector or matrix dimensions do not agree with the expected layout."""


class NonFiniteLoss(FleetrankError):
    """Training produced a NaN or infinite loss. The network keeps its last finite weights."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


class NonFiniteObjective(FleetrankError):
    """The objective returned NaN or infinity at some candidate point.

    The exception carries the offending point and the best result found
    before the abort (``best`` is None if nothing was evaluated yet).
    """

    def __init__(self, point, best=None):
        super().__init__("objective returned a non-finite value")
        self.point = point
        self.best = best


class InvalidConfig(FleetrankError):
    """A configuration value violates its documented constraints."""


class CorruptBundle(FleetrankError):
    """A model bundle file is unreadable, incomplete or inconsistent."""


class EmptyProfiles(FleetrankError):
    """No driver profiles were supplied to match against."""


class UnknownDimension(FleetrankError):
    def __init__(self, name: str):
        super().__init__(f"unknown behavior dimension {name!r}")
        self.name = name
