"""Columnar trip data model and CSV ingestion.

A trip is summarized by four blocks: identifiers (trip and driver),
environmental characteristics outside the driver's control, behavioral
characteristics the driver does control, and measured performance
outcomes. A declarative schema maps file columns onto those blocks.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import (
    BadValue,
    DimensionMismatch,
    DuplicateTripId,
    EmptyDataset,
    InvalidConfig,
    MissingColumn,
    UnknownDriver,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class DatasetSchema:
    """Maps file columns onto the env / behavior / performance blocks.

    ``target_metric`` names the single performance column used for
    ranking and placement (the remaining performance columns are still
    modeled, just not ranked on).
    """

    env_columns: tuple[str, ...]
    behavior_columns: tuple[str, ...]
    performance_columns: tuple[str, ...]
    trip_id_column: str = "trip_id"
    driver_id_column: str = "driver_id"
    target_metric: str = "total_mpg"

    def __post_init__(self):
        object.__setattr__(self, "env_columns", tuple(self.env_columns))
        object.__setattr__(self, "behavior_columns", tuple(self.behavior_columns))
        object.__setattr__(self, "performance_columns", tuple(self.performance_columns))
        if not self.env_columns or not self.behavior_columns:
            raise ValueError("a schema needs at least one env and one behavior column")
        groups = [set(self.env_columns), set(self.behavior_columns), set(self.performance_columns)]
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                overlap = groups[i] & groups[j]
                if overlap:
                    raise ValueError(f"column groups overlap: {sorted(overlap)}")
        if self.target_metric not in self.performance_columns:
            raise ValueError(
                f"target_metric {self.target_metric!r} is not a performance column"
            )

    @property
    def d_env(self) -> int:
        return len(self.env_columns)

    @property
    def d_behavior(self) -> int:
        return len(self.behavior_columns)

    @property
    def d_performance(self) -> int:
        return len(self.performance_columns)

    @property
    def numeric_columns(self) -> tuple[str, ...]:
        """Every numeric column in stored order: env, then behavior, then performance."""
        return self.env_columns + self.behavior_columns + self.performance_columns

    @property
    def metric_index(self) -> int:
        """Index of the target metric within the performance block."""
        return self.performance_columns.index(self.target_metric)

    def to_dict(self) -> dict:
        return {
            "env_columns": list(self.env_columns),
            "behavior_columns": list(self.behavior_columns),
            "performance_columns": list(self.performance_columns),
            "trip_id_column": self.trip_id_column,
            "driver_id_column": self.driver_id_column,
            "target_metric": self.target_metric,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DatasetSchema":
        return cls(
            env_columns=tuple(data["env_columns"]),
            behavior_columns=tuple(data["behavior_columns"]),
            performance_columns=tuple(data["performance_columns"]),
            trip_id_column=data.get("trip_id_column", "trip_id"),
            driver_id_column=data.get("driver_id_column", "driver_id"),
            target_metric=data.get("target_metric", "total_mpg"),
        )

    def save(self, path: str | Path) -> None:
        with atomic_open(path) as handle:
            handle.write(json.dumps(self.to_dict(), indent=2))

    @classmethod
    def load(cls, path: str | Path) -> "DatasetSchema":
        """Read a schema file; ``InvalidConfig`` naming the file if it holds no valid schema."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))
        except KeyError as exc:
            raise InvalidConfig(f"schema {path}: missing entry {exc}") from None
        except (TypeError, ValueError) as exc:  # JSON errors are ValueErrors
            raise InvalidConfig(f"schema {path}: {exc}") from None




@dataclass(frozen=True, eq=False)
class Dataset:
    """Trips stored column-wise.

    ``values`` holds one row per trip laid out as [env, behavior,
    performance]; ``env``, ``behavior`` and ``performance`` are read-only
    views into it. Keeping the blocks in one matrix lets statistics over
    the stacked layout read it without a copy, with the same per-column
    summation order as a freshly stacked matrix. ``driver_ids`` lists
    the distinct drivers in sorted order and ``driver_codes[i]`` is the
    position of trip ``i``'s driver in it.
    """

    schema: DatasetSchema
    trip_ids: tuple[str, ...]
    driver_ids: tuple[str, ...]
    driver_codes: np.ndarray
    values: np.ndarray
    skipped_rows: int = 0

    def __post_init__(self):
        # read-only views: the dataset cannot change its arrays, and takes no copy
        values = np.ascontiguousarray(self.values, dtype=float).view()
        codes = np.ascontiguousarray(self.driver_codes, dtype=np.intp).view()
        columns = self.schema.numeric_columns
        if values.ndim != 2 or values.shape[1] != len(columns):
            raise DimensionMismatch(
                f"values must have shape (n, {len(columns)}), got {values.shape}"
            )
        n = values.shape[0]
        if n == 0:
            raise EmptyDataset("dataset has no records")
        if len(self.trip_ids) != n or codes.shape != (n,):
            raise DimensionMismatch("trip_ids, driver_codes and values need one entry per trip")
        if list(self.driver_ids) != sorted(set(self.driver_ids)):
            raise ValueError("driver_ids must be sorted and unique")
        if not all(self.driver_ids):
            raise ValueError("driver_id must be non-empty")
        if codes.min() < 0 or codes.max() >= len(self.driver_ids):
            raise ValueError("driver_codes must index driver_ids")
        finite = np.isfinite(values).all(axis=0)
        if not finite.all():
            column = columns[int(np.argmin(finite))]
            raise ValueError(f"column {column!r} contains non-finite entries")
        values.flags.writeable = False
        codes.flags.writeable = False
        object.__setattr__(self, "trip_ids", tuple(self.trip_ids))
        object.__setattr__(self, "driver_ids", tuple(self.driver_ids))
        object.__setattr__(self, "driver_codes", codes)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_rows(
        cls,
        schema: DatasetSchema,
        trip_ids: list[str],
        drivers: list[str],
        values: np.ndarray,
        skipped_rows: int = 0,
    ) -> "Dataset":
        """Build from one driver id per trip; the ids are coded into sorted order."""
        driver_ids = sorted(set(drivers))
        code_of = {driver_id: k for k, driver_id in enumerate(driver_ids)}
        codes = np.fromiter(map(code_of.__getitem__, drivers), dtype=np.intp, count=len(drivers))
        return cls(
            schema=schema,
            trip_ids=trip_ids,
            driver_ids=driver_ids,
            driver_codes=codes,
            values=values,
            skipped_rows=skipped_rows,
        )

    def __len__(self) -> int:
        return len(self.trip_ids)

    @property
    def n_drivers(self) -> int:
        return len(self.driver_ids)

    @property
    def env(self) -> np.ndarray:
        return self.values[:, : self.schema.d_env]

    @property
    def behavior(self) -> np.ndarray:
        return self.values[:, self.schema.d_env : self.schema.d_env + self.schema.d_behavior]

    @property
    def performance(self) -> np.ndarray:
        return self.values[:, self.schema.d_env + self.schema.d_behavior :]

    @cached_property
    def driver_index(self) -> dict[str, tuple[int, ...]]:
        """Row indices of every driver's trips, in dataset order, keyed by sorted driver id."""
        order = np.argsort(self.driver_codes, kind="stable")
        offsets = group_offsets(self.driver_codes, self.n_drivers)
        return {
            driver_id: tuple(order[offsets[k] : offsets[k + 1]].tolist())
            for k, driver_id in enumerate(self.driver_ids)
        }

    def driver_indices(self, driver_id: str) -> tuple[int, ...]:
        """Indices of all records belonging to one driver."""
        try:
            return self.driver_index[driver_id]
        except KeyError:
            raise UnknownDriver(driver_id) from None


def group_offsets(codes: np.ndarray, n_groups: int) -> np.ndarray:
    """Where each code's rows start once rows are sorted by code.

    Group ``k`` occupies ``offsets[k]:offsets[k + 1]`` of the sorted rows.
    """
    offsets = np.zeros(n_groups + 1, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=n_groups), out=offsets[1:])
    return offsets


# Cells converted per numpy call. Bounding cells rather than rows keeps the
# parsed strings held at once small for wide files too. A chunk holding a bad
# row is parsed again cell by cell, so each bad row costs at most one chunk.
CHUNK_CELLS = 1 << 14


def chunk_rows(width: int) -> int:
    """Rows per chunk for a file whose header has ``width`` columns."""
    return max(1, CHUNK_CELLS // max(width, 1))


def _parse_cell(raw: str | None, row: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise BadValue(row, column, raw) from None
    if not math.isfinite(value):
        raise BadValue(row, column, raw)
    return value


def _row_chunks(reader, size: int):
    """Data rows in chunks of up to ``size``, blank lines dropped.

    Blank lines are neither returned nor numbered. A read error is raised
    only after the rows read before it have been handed out, so a bad value
    on an earlier row is still the error a strict load reports.
    """
    rows = filter(None, reader)
    while True:
        chunk: list[list[str]] = []
        try:
            chunk.extend(itertools.islice(rows, size))  # keeps the rows read before an error
        except (csv.Error, ValueError, OSError):
            if chunk:
                yield chunk
            raise
        if not chunk:
            return
        yield chunk


def load_dataset(path: str | Path, schema: DatasetSchema, lenient: bool = False) -> Dataset:
    """Load a CSV file into a Dataset.

    The file must have a header row naming every schema column; column
    order is irrelevant. In strict mode (default) any unparsable or
    non-finite value aborts the load with a ``BadValue`` naming the first
    offending row (1-based, blank lines not counted) and column. With
    ``lenient=True`` such rows are skipped and counted instead. A row
    shorter than the header reads its missing cells as absent. Trip ids
    are checked once every row is parsed: a repeat of an earlier row's id
    raises ``DuplicateTripId`` naming its row, or in lenient mode is
    skipped and counted, so each id keeps its first valid row.

    Numeric cells are converted a chunk of rows at a time; only a chunk
    that fails to convert, or holds a non-finite value or an empty driver
    id, is parsed again cell by cell to find or skip the bad rows.
    """
    path = Path(path)
    columns = schema.numeric_columns
    blocks: list[np.ndarray] = []
    trip_ids: list[str] = []
    drivers: list[str] = []
    skipped = 0
    rows_read = 0
    with path.open("r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        # a repeated header name reads its last column
        position = {name: i for i, name in enumerate(header)}
        for name in (*columns, schema.trip_id_column, schema.driver_id_column):
            if name not in position:
                raise MissingColumn(name)
        fields = [(name, position[name]) for name in columns]
        numeric = operator.itemgetter(*(pos for _, pos in fields))
        trip_of = operator.itemgetter(position[schema.trip_id_column])
        driver_of = operator.itemgetter(position[schema.driver_id_column])
        for chunk in _row_chunks(reader, chunk_rows(len(header))):
            first_row = rows_read + 1
            rows_read += len(chunk)
            try:
                block = np.array(list(map(numeric, chunk)), dtype=float)
                chunk_trips = list(map(trip_of, chunk))
                chunk_drivers = list(map(driver_of, chunk))
            except (IndexError, ValueError):
                block = None
            if block is None or not np.isfinite(block).all() or not all(chunk_drivers):
                block, chunk_trips, chunk_drivers = _parse_rows(
                    chunk, first_row, len(header), fields, position, schema, lenient
                )
                skipped += len(chunk) - len(chunk_trips)
            blocks.append(block.reshape(len(chunk_trips), len(columns)))
            trip_ids += chunk_trips
            drivers += chunk_drivers
    if not trip_ids:
        raise EmptyDataset(f"no valid rows in {path}")
    values = np.concatenate(blocks)
    if len(set(trip_ids)) != len(trip_ids):
        keep = _first_occurrences(trip_ids, lenient)
        skipped += len(trip_ids) - len(keep)
        values = values[keep]
        trip_ids = [trip_ids[i] for i in keep]
        drivers = [drivers[i] for i in keep]
    if skipped:
        log.warning("skipped %d unparsable or repeated rows while loading %s", skipped, path)
    return Dataset.from_rows(schema, trip_ids, drivers, values, skipped)


def _first_occurrences(trip_ids: list[str], lenient: bool) -> list[int]:
    """Positions of each trip id's first row; a later repeat raises, or is left out if lenient."""
    seen: set[str] = set()
    keep = []
    for i, trip_id in enumerate(trip_ids):
        if trip_id in seen:
            if not lenient:
                # a strict load keeps every row it read, so position i is data row i + 1
                raise DuplicateTripId(i + 1, trip_id)
            continue
        seen.add(trip_id)
        keep.append(i)
    return keep


def _parse_rows(rows, first_row, width, fields, position, schema, lenient):
    """Cell-by-cell parse of rows that failed the chunked conversion.

    Checks cells in stored column order, then the driver id, and raises
    (strict) or skips the row (lenient) at the first bad one.
    """
    trip_pos = position[schema.trip_id_column]
    driver_pos = position[schema.driver_id_column]
    values, trips, drivers = [], [], []
    for row_num, row in enumerate(rows, start=first_row):
        cells = row + [None] * (width - len(row))  # a short row's missing cells read as None
        try:
            parsed = [_parse_cell(cells[pos], row_num, name) for name, pos in fields]
            driver_id = cells[driver_pos]
            if not driver_id:
                raise BadValue(row_num, schema.driver_id_column, driver_id)
        except BadValue:
            if lenient:
                continue
            raise
        values.append(parsed)
        trips.append(cells[trip_pos] or "")
        drivers.append(driver_id)
    return np.array(values, dtype=float), trips, drivers


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def save_dataset(ds: Dataset, path: str | Path) -> None:
    """Write a Dataset back to CSV at full float precision.

    Values are emitted with ``repr`` so a reload reproduces them bitwise.
    """
    schema = ds.schema
    header = [schema.trip_id_column, schema.driver_id_column, *schema.numeric_columns]
    driver_ids = ds.driver_ids
    with atomic_open(path) as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(
            [trip_id, driver_ids[code], *map(repr, row)]
            for trip_id, code, row in zip(ds.trip_ids, ds.driver_codes.tolist(), ds.values.tolist())
        )
