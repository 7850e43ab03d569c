"""Columnar trip data model and CSV ingestion.

A trip is summarized by four blocks: identifiers (trip and driver),
environmental characteristics outside the driver's control, behavioral
characteristics the driver does control, and measured performance
outcomes. A declarative schema maps file columns onto those blocks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import stat
import warnings
from array import array
from dataclasses import dataclass
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
    NotARegularFile,
    UnreadableFile,
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
        for key in ("trip_id_column", "driver_id_column"):
            name = getattr(self, key)
            if not (isinstance(name, str) and name):
                raise ValueError(f"{key} must be a non-empty column name, got {name!r}")
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
        groups = {}
        for key in ("env_columns", "behavior_columns", "performance_columns"):
            names = data[key]
            if not (isinstance(names, list) and all(isinstance(n, str) and n for n in names)):
                raise ValueError(f"{key} must be a list of non-empty column names, got {names!r}")
            groups[key] = tuple(names)
        return cls(
            **groups,
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


def group_rows(codes: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows in stable order of their code, and where each code's rows start in it.

    Every code is in ``range(n_groups)``. Group ``k`` is
    ``order[offsets[k]:offsets[k + 1]]``, its rows in their original order.
    Codes that fit 16 bits are sorted as such, which numpy does as a radix
    sort; a stable sort's permutation is unique, so the order is the same.
    """
    keys = codes.astype(np.int16) if n_groups <= np.iinfo(np.int16).max else codes
    order = np.argsort(keys, kind="stable")
    offsets = np.zeros(n_groups + 1, dtype=np.intp)
    np.cumsum(np.bincount(codes, minlength=n_groups), out=offsets[1:])
    return order, offsets


def _parse_cell(raw: str | None, row: int, column: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise BadValue(row, column, raw) from None
    if not math.isfinite(value):
        raise BadValue(row, column, raw)
    return value


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
    skipped and counted, so each id keeps its first valid row. Bytes that
    are not UTF-8, or a cell past the csv module's field limit, raise
    ``UnreadableFile`` naming the last data row read, in either mode. A
    pipe, socket or device raises ``NotARegularFile`` before any read.

    A file is read by one of two tiers that give the same bits. The
    whole-file tier reads it with numpy's C text reader. It serves a file
    that holds no ``"``, NUL or 0x1C-0x1F byte and no line as long as the
    csv module's field limit, whose header is UTF-8 and names every column,
    and whose rows the C reader accepts, with at least one row, every value
    finite and every driver id non-empty. Any other file goes to the csv
    tier, which parses it row by row, every cell as Python's ``float()``
    does, and reports the errors and skipped rows above. The trip id check
    runs on either tier's rows.
    """
    path = _require_regular_file(path)
    values, trip_ids, drivers, skipped = (
        _read_plain(path, schema) or _read_csv(path, schema, lenient)
    )
    if len(set(trip_ids)) != len(trip_ids):
        keep = _first_occurrences(trip_ids, lenient)
        skipped += len(trip_ids) - len(keep)
        values = values[keep]
        trip_ids = [trip_ids[i] for i in keep]
        drivers = [drivers[i] for i in keep]
    log_skipped(skipped, path)
    return Dataset.from_rows(schema, trip_ids, drivers, values, skipped)


def log_skipped(skipped: int, path: str | Path) -> None:
    """The warning a lenient load of ``path`` gives when it skipped rows."""
    if skipped:
        log.warning("skipped %d unparsable or repeated rows while loading %s", skipped, path)


def _require_regular_file(path: str | Path) -> Path:
    """``path``, or ``NotARegularFile`` if it names a pipe, socket or device.

    Trips are read more than once (hashed, scanned, parsed), which a pipe
    cannot serve: a read waits forever on a pipe that no one writes, or
    finds it drained. A missing path raises ``FileNotFoundError``; a
    directory is left to the open that follows, which raises
    ``IsADirectoryError``.
    """
    path = Path(path)
    mode = os.stat(path).st_mode
    if not (stat.S_ISREG(mode) or stat.S_ISDIR(mode)):
        raise NotARegularFile(path)
    return path


# Bytes that send a file to the csv tier: a quote, which the csv module reads
# as quoting and numpy as text; NUL, which Python 3.10's csv module rejects;
# and the separators 0x1C-0x1F, which numpy strips around a number as
# whitespace and ``float()`` does not.
UNPLAIN_BYTES = (b'"', b"\0", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _read_plain(path: Path, schema: DatasetSchema):
    """The whole-file tier: ``(values, trip_ids, drivers, 0)``, or None for the csv tier.

    One ``np.loadtxt`` pass reads each row into a record of the trip id,
    the driver id and the numeric columns in schema order. In a file free
    of ``UNPLAIN_BYTES``, numpy's float converter accepts a subset of what
    ``float()`` accepts (no ``_`` separators, ASCII digits only) and gives
    the same double for it, so a cell it reads has the bits the csv tier
    would give.
    """
    if not _plain_bytes(path, csv.field_size_limit()):
        return None
    try:
        with path.open("r", newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), [])
    except (UnicodeDecodeError, csv.Error):
        return None
    position = {name: i for i, name in enumerate(header)}
    needed = (schema.trip_id_column, schema.driver_id_column, *schema.numeric_columns)
    if not all(name in position for name in needed):
        return None

    row = np.dtype([
        ("trip", object), ("driver", object), ("values", float, (len(schema.numeric_columns),)),
    ])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file with no data rows
            # an open handle, so that numpy does not decompress a path ending in .gz
            with path.open("r", encoding="utf-8") as handle:
                rows = np.loadtxt(
                    handle, dtype=row, delimiter=",", comments=None, skiprows=1, ndmin=1,
                    usecols=[position[name] for name in needed],
                )
    except ValueError:  # a cell or row the C reader rejects, or bytes that are not UTF-8
        return None
    values = np.ascontiguousarray(rows["values"])
    if not len(values) or not np.isfinite(values).all():
        return None
    trip_ids, drivers = rows["trip"].tolist(), rows["driver"].tolist()
    if not all(drivers):
        return None
    return values, trip_ids, drivers, 0


def _plain_bytes(path: Path, limit: int) -> bool:
    """Whether the file holds none of ``UNPLAIN_BYTES`` and no line of ``limit`` bytes or more.

    A line ends at ``\\n`` or ``\\r``, as it does for the csv module; a field
    never holds more characters than its line holds bytes.
    """
    line = 0  # bytes of the line that runs on into the next block
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            if any(byte in block for byte in UNPLAIN_BYTES):
                return False
            codes = np.frombuffer(block, dtype=np.uint8)
            ends = np.flatnonzero((codes == ord("\n")) | (codes == ord("\r")))
            if not len(ends):
                line += len(block)
                continue
            if max(line + ends[0], int(np.diff(ends).max(initial=1)) - 1) >= limit:
                return False
            line = len(block) - 1 - int(ends[-1])
    return line < limit


def _read_csv(path: Path, schema: DatasetSchema, lenient: bool):
    """The csv tier: ``(values, trip_ids, drivers, skipped)``, parsed row by row.

    Each row's numeric cells are parsed in stored column order, then its
    driver id is checked; the first bad one raises (strict) or skips the
    row (lenient). Values collect in an ``array("d")``, 8 bytes a cell.
    """
    columns = schema.numeric_columns
    values = array("d")
    trip_ids: list[str] = []
    drivers: list[str] = []
    skipped = 0
    row_num = 0
    try:
        with path.open("r", newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            header = next(reader, [])
            width = len(header)
            # a repeated header name reads its last column
            position = {name: i for i, name in enumerate(header)}
            for name in (*columns, schema.trip_id_column, schema.driver_id_column):
                if name not in position:
                    raise MissingColumn(name)
            fields = [(name, position[name]) for name in columns]
            trip_pos = position[schema.trip_id_column]
            driver_pos = position[schema.driver_id_column]
            for row in filter(None, reader):  # blank lines are neither kept nor numbered
                row_num += 1
                if len(row) < width:  # a short row's missing cells read as None
                    row += [None] * (width - len(row))
                try:
                    parsed = [_parse_cell(row[pos], row_num, name) for name, pos in fields]
                    driver_id = row[driver_pos]
                    if not driver_id:
                        raise BadValue(row_num, schema.driver_id_column, driver_id)
                except BadValue:
                    if lenient:
                        skipped += 1
                        continue
                    raise
                values.extend(parsed)
                trip_ids.append(row[trip_pos] or "")
                drivers.append(driver_id)
    except UnicodeDecodeError as exc:
        # the position in ``exc`` counts from a decoder buffer, not from the file
        reason = f"not UTF-8 text ({exc.reason})"
        raise UnreadableFile(f"{path}: after data row {row_num}: {reason}") from None
    except csv.Error as exc:
        raise UnreadableFile(f"{path}: after data row {row_num}: {exc}") from None
    if not trip_ids:
        raise EmptyDataset(f"no valid rows in {path}")
    return np.frombuffer(values).reshape(len(trip_ids), len(columns)), trip_ids, drivers, skipped


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


def file_sha256(path: str | Path) -> str:
    """Hex SHA-256 of a file's bytes, read 1 MiB at a time; ``NotARegularFile`` for a pipe."""
    digest = hashlib.sha256()
    with _require_regular_file(path).open("rb") as handle:
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
