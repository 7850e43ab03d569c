"""Baseline and behavior regressors plus their advantage composition.

The baseline network maps environment features to expected performance,
acting as a conditional averager over all drivers seen in training. The
behavior network maps environment plus behavior features to performance.
Their difference on a chosen performance metric is the behavioral
advantage: how much better or worse a given behavior profile performs
than the fleet norm under identical conditions. The environment input
feeds both networks while behavior feeds only the behavior network, so
the baseline term cancels from any comparison between two behaviors at
a fixed environment. Both networks are a :class:`Regressor`; which
blocks one reads follows from its input width.

Fits share no state. :func:`train_regressors` runs a list of them in
order: the first in this process, the rest in one forked child meanwhile,
where the host has a second core and the process runs one OS thread
(``cores.why_one_process``), or else here next.

A bundle is a directory whose every file :func:`save_bundle` writes, each
fact once: the nets, the statistics and ``meta.json`` as JSON, the nets'
learning curves as CSV, and ``train``'s record of the trips it read as two
numpy ``.npy`` arrays of records, ``trips.npy`` (one per trip) and
``drivers.npy`` (one per driver). ``meta.json`` holds the record's
provenance: the trips file's SHA-256, the rows its load skipped and the
driver ids. The record stands in for a parse of the trips file, in
``rank`` and ``place``, by one rule (:func:`recorded_trips`,
:func:`recorded_profiles`), and one checked reader reads both arrays.
"""

from __future__ import annotations

import csv
import json
import math
import os
import pickle
import signal
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NoReturn

import numpy as np

from .atomic import atomic_open
from .cores import why_one_process
from .errors import CorruptBundle, DimensionMismatch, FleetrankError, InvalidConfig
from .neural import Mlp, MlpConfig, TrainReport, load_mlp, save_mlp, train
from .normalization import NormalizationStats
from .trip_data import Dataset, DatasetSchema, file_sha256, log_skipped

TOOL_VERSION = "0.2.0"

# Fractional padding applied per side when deriving the behavior search
# box from observed data ranges, keeping the search in-distribution.
BOX_MARGIN = 0.1


@dataclass(frozen=True)
class TrainingParams:
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1e-3
    hidden_widths: tuple[int, int, int] = (64, 64, 64)
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(self.hidden_widths))
        if self.epochs < 1:
            raise InvalidConfig(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise InvalidConfig(f"learning rate must be finite and > 0, got {self.learning_rate}")
        if len(self.hidden_widths) != 3 or min(self.hidden_widths) < 1:
            raise InvalidConfig(
                f"hidden widths must be three integers >= 1, got {self.hidden_widths}"
            )
        if self.seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {self.seed}")


@dataclass
class Regressor:
    """Performance regressor in normalized units.

    The net reads env columns, then behavior columns when its input width
    is ``d_env + d_behavior``: the behavior model. A net of width
    ``d_env`` is the baseline, which reads env columns only.
    """

    net: Mlp
    stats: NormalizationStats

    def __post_init__(self):
        d_env, d_behavior = self.stats.d_env, self.stats.d_behavior
        if self.net.config.input_dim not in (d_env, d_env + d_behavior):
            raise DimensionMismatch(
                f"input width {self.net.config.input_dim} is neither the env block ({d_env}) "
                f"nor the env+behavior blocks ({d_env + d_behavior})"
            )
        if self.net.config.output_dim != self.stats.d_performance:
            raise DimensionMismatch("output width does not match performance block")

    @property
    def reads_behavior(self) -> bool:
        return self.net.config.input_dim != self.stats.d_env

    def inputs(self, s_norm: np.ndarray, a_norm: np.ndarray | None = None) -> np.ndarray:
        """The net's input rows: normalized env rows, then behavior rows if given.

        One env vector is broadcast against every behavior row.
        """
        s_rows = np.atleast_2d(s_norm)
        if a_norm is None:
            return s_rows
        a_rows = np.atleast_2d(a_norm)
        return np.concatenate(
            [np.broadcast_to(s_rows, (len(a_rows), s_rows.shape[1])), a_rows], axis=1
        )

    def predict(self, s: np.ndarray, a: np.ndarray | None = None) -> np.ndarray:
        """Predicted normalized performance for a raw env and, if the net reads it, behavior."""
        a_norm = None if a is None else self.stats.normalize_behavior(a)
        return self.predict_normalized(self.stats.normalize_env(s), a_norm)

    def predict_normalized(self, s_norm: np.ndarray, a_norm: np.ndarray | None = None):
        """``(d_performance,)`` for one input vector, ``(n, d_performance)`` for rows."""
        out = self.net.forward_batch(self.inputs(s_norm, a_norm))
        single = np.ndim(s_norm) == 1 and (a_norm is None or np.ndim(a_norm) == 1)
        return out[0] if single else out


def _check_role(name: str, regressor: Regressor) -> None:
    """The ``baseline`` must read env only, the ``behavior`` model env and behavior."""
    if regressor.reads_behavior != (name == "behavior"):
        reads = "env and behavior" if name == "behavior" else "env only"
        raise DimensionMismatch(
            f"{name} net has input width {regressor.net.config.input_dim}; "
            f"a {name} net reads {reads}"
        )


@dataclass
class AdvantageModel:
    """Behavioral advantage on one performance metric.

    Both sub-models must share one normalization (checked by
    fingerprint). ``behavior_box`` holds per-dimension normalized search
    bounds derived from training data, used by the placement search.
    """

    baseline: Regressor
    behavior: Regressor
    metric_index: int
    behavior_box: np.ndarray

    def __post_init__(self):
        if self.baseline.stats.fingerprint() != self.behavior.stats.fingerprint():
            raise DimensionMismatch("sub-models were fitted with different normalizations")
        _check_role("baseline", self.baseline)
        _check_role("behavior", self.behavior)
        if not 0 <= self.metric_index < self.stats.d_performance:
            raise DimensionMismatch(f"metric_index {self.metric_index} out of range")
        self.behavior_box = np.asarray(self.behavior_box, dtype=float)
        if self.behavior_box.shape != (self.stats.d_behavior, 2):
            raise DimensionMismatch("behavior_box must have shape (d_behavior, 2)")

    @property
    def stats(self) -> NormalizationStats:
        return self.baseline.stats

    def advantage(self, s: np.ndarray, a: np.ndarray) -> float:
        """Advantage of behavior ``a`` in environment ``s`` (normalized units)."""
        return self.advantage_normalized(
            self.stats.normalize_env(s), self.stats.normalize_behavior(a)
        )

    def advantage_normalized(self, s_norm: np.ndarray, a_norm: np.ndarray):
        """Advantage for pre-normalized inputs.

        ``a_norm`` may be a single vector or a matrix of candidate rows;
        the baseline is evaluated once either way.
        """
        base = float(self.baseline.predict_normalized(s_norm)[self.metric_index])
        advantages = self.behavior.predict_normalized(s_norm, a_norm)[..., self.metric_index] - base
        return float(advantages) if advantages.ndim == 0 else advantages

    def advantage_delta(self, s: np.ndarray, a1: np.ndarray, a2: np.ndarray) -> float:
        """Difference advantage(s, a1) - advantage(s, a2).

        Computed directly from the behavior network: the baseline term is
        identical on both sides and cancels algebraically, so the result
        is exact rather than the difference of two rounded subtractions.
        """
        q1 = float(self.behavior.predict(s, a1)[self.metric_index])
        q2 = float(self.behavior.predict(s, a2)[self.metric_index])
        return q1 - q2


@dataclass
class Fits:
    """Fitted regressors and their learning curves, in plan order, and how they were fitted."""

    regressors: list[Regressor]
    reports: list[TrainReport]
    processes: int  # 2 when a forked child ran every fit after the first
    one_process_because: str | None  # the unmet condition, when ``processes`` is 1


def train_regressors(
    ds: Dataset, stats: NormalizationStats, plan: list[tuple[TrainingParams, bool]]
) -> Fits:
    """Fit a fresh regressor on every record per ``(params, with_behavior)`` entry of ``plan``.

    A ``with_behavior`` regressor reads behavior too. This process runs the
    first fit. When there are more and :func:`why_one_process` finds no
    obstacle, one child made with ``os.fork`` runs the rest meanwhile, in
    order, and sends back the fitted nets and their learning curves;
    otherwise this process runs them next. Both ways give the same bits.
    The first failing fit in list order raises: when the first fails, a
    child is killed and reaped at once, without waiting for its fits.
    """
    s_norm = stats.normalize_env(ds.env)
    targets = stats.normalize_performance(ds.performance)
    a_norm = stats.normalize_behavior(ds.behavior) if any(b for _, b in plan) else None
    # every fit's rows are built before a fork, so that the child allocates nothing the
    # size of the trips: a child's peak RSS counts the pages it inherited as well
    fits = [_Fit(stats, params, s_norm, a_norm if with_behavior else None, targets)
            for params, with_behavior in plan]
    reason, child = (why_one_process() if len(fits) > 1 else "one fit"), None
    if reason is None:
        try:
            child = _ForkedFits(fits[1:])
        except OSError as exc:  # no process or pipe to be had
            reason = f"fork failed: {exc}"
    try:
        reports = [fits[0].run()]
        reports += [fit.run() for fit in fits[1:]] if child is None else child.result()
    finally:
        if child is not None:
            child.close()
    return Fits([fit.regressor for fit in fits], reports,
                processes=1 if reason else 2, one_process_because=reason)


class _Fit:
    """One regressor's fit, its input and target rows built; :meth:`run` trains the net in place."""

    def __init__(self, stats: NormalizationStats, params: TrainingParams, s_norm: np.ndarray,
                 a_norm: np.ndarray | None, targets: np.ndarray):
        config = MlpConfig(
            input_dim=stats.d_env + (0 if a_norm is None else stats.d_behavior),
            hidden_widths=params.hidden_widths,
            output_dim=stats.d_performance,
            seed=params.seed,
        )
        self.regressor = Regressor(net=Mlp.init(config), stats=stats)
        self.inputs = self.regressor.inputs(s_norm, a_norm)
        self.targets = targets
        self.params = params

    def run(self) -> TrainReport:
        return train(
            self.regressor.net,
            self.inputs,
            self.targets,
            epochs=self.params.epochs,
            batch_size=self.params.batch_size,
            learning_rate=self.params.learning_rate,
            seed=self.params.seed,
        )


class _ForkedFits:
    """Fits run in order by a forked child, which pickles their outcome into a pipe.

    :meth:`result` waits for the outcome and reaps the child; :meth:`close`
    kills and reaps a child whose result was not taken.
    """

    def __init__(self, fits: list[_Fit]):
        self.fits = fits
        read_fd, write_fd = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if self.pid == 0:
            os.close(read_fd)
            _run_in_child(fits, write_fd)
        os.close(write_fd)
        self.pipe = os.fdopen(read_fd, "rb")

    def result(self) -> list[TrainReport]:
        """The fits' learning curves, their regressors now holding the child's nets; or an error."""
        message = self.pipe.read()
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            names = {number.value: number.name for number in signal.Signals}
            how = f"was killed by {names.get(-code, -code)}" if code < 0 else f"exited {code}"
            nets = " and ".join("the behavior net" if fit.regressor.reads_behavior
                                else "the baseline net" for fit in self.fits)
            raise FleetrankError(f"the process fitting {nets} {how}")
        outcome = pickle.loads(message)  # bytes our own child wrote
        if isinstance(outcome, Exception):
            raise outcome
        for fit, (_, net) in zip(self.fits, outcome):
            fit.regressor.net = net
        return [report for report, _ in outcome]

    def close(self) -> None:
        self.pipe.close()
        if self.pid is not None:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pid = None


def _run_in_child(fits: list[_Fit], write_fd: int) -> NoReturn:
    """The forked child's whole life: run ``fits`` in order, send their outcome, and leave.

    It leaves through ``os._exit``, whatever happens, so that it never returns
    into its parent's code, runs its exit handlers or flushes its buffers.
    """
    code = 1
    try:
        try:
            outcome = [(fit.run(), fit.regressor.net) for fit in fits]
        except Exception as exc:  # the parent raises it again
            outcome = exc
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcome, pipe, protocol=pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def behavior_box_from(ds: Dataset, stats: NormalizationStats) -> np.ndarray:
    """Per-dimension [lo, hi] over normalized behaviors, padded by ``BOX_MARGIN`` of the span.

    Dimensions with zero observed span get a hairline box so downstream
    bound checks remain well-formed.
    """
    a = stats.normalize_behavior(ds.behavior)
    lo = a.min(axis=0)
    hi = a.max(axis=0)
    span = hi - lo
    pad = np.where(span > 0, BOX_MARGIN * span, 1e-6)
    return np.stack([lo - pad, hi + pad], axis=1)


def save_bundle(
    directory: str | Path,
    model: AdvantageModel,
    ds: Dataset,
    profiles: list[DriverProfile],
    *,
    data_sha256: str,
    baseline_report: TrainReport,
    behavior_report: TrainReport,
    params: TrainingParams,
) -> list[str]:
    """Write every file of the bundle of a model fitted on ``ds``; returns their names.

    The nets, the statistics and ``meta.json`` are JSON, each net's learning
    curve ``<net>_curve.csv``. The record is ``trips.npy``, the columns
    ranking reads, one record per trip in dataset order, and ``drivers.npy``,
    ``profiles`` as one record per driver. ``meta.json`` holds its
    provenance: ``data_sha256`` (of the trips file's bytes), the rows the
    load skipped and the driver ids.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    save_mlp(model.baseline.net, directory / "baseline.json")
    save_mlp(model.behavior.net, directory / "behavior.json")
    model.stats.save(directory / "stats.json")
    meta = {
        "version": TOOL_VERSION,
        "schema": ds.schema.to_dict(),
        "metric_index": model.metric_index,
        "stats_fingerprint": model.stats.fingerprint(),
        "behavior_box": model.behavior_box.tolist(),
        "training": asdict(params),
        "data_sha256": data_sha256,
        "skipped_rows": ds.skipped_rows,
        "driver_ids": list(ds.driver_ids),
    }
    with atomic_open(directory / "meta.json") as handle:
        handle.write(json.dumps(meta, indent=2))
    trips = np.empty(len(ds), dtype=_trips_dtype(ds.schema))
    trips["env"] = ds.env
    trips["performance"] = ds.performance
    trips["driver_code"] = ds.driver_codes
    drivers = np.empty(len(profiles), dtype=_drivers_dtype(ds.schema))
    drivers["trip_count"] = [p.trip_count for p in profiles]
    drivers["mean_behavior"] = [p.mean_behavior for p in profiles]
    for name, table in ((TRIPS_FILE, trips), (DRIVERS_FILE, drivers)):
        # a fixed header and then the records' bytes, so the same records give the same bytes
        with atomic_open(directory / name, binary=True) as handle:
            np.save(handle, table, allow_pickle=False)
    for name, report in (("baseline", baseline_report), ("behavior", behavior_report)):
        with atomic_open(directory / f"{name}_curve.csv") as handle:
            writer = csv.writer(handle)
            writer.writerow(["epoch", "mse"])
            for epoch, loss in enumerate(report.epoch_losses, start=1):
                writer.writerow([epoch, repr(loss)])
    return ["baseline.json", "behavior.json", "stats.json", "meta.json", TRIPS_FILE, DRIVERS_FILE,
            "baseline_curve.csv", "behavior_curve.csv"]


def load_bundle(directory: str | Path) -> tuple[AdvantageModel, DatasetSchema, dict]:
    """Read and verify a bundle written by :func:`save_bundle`.

    Raises ``CorruptBundle`` for a file that is not valid JSON, a
    ``meta.json`` written by another tool version, a missing or ill-typed
    entry, a ``true`` or ``false`` among the statistics, the box bounds or
    a net's config (the weights and biases go unscanned, for speed), a
    non-finite weight, bias, statistic or box bound, a net whose
    input width does not fit its file's role (``baseline.json`` and
    ``behavior.json`` swapped), statistics whose fingerprint differs
    from the one recorded in ``meta.json``, a schema in ``meta.json``
    whose block widths differ from the statistics' or whose target metric
    is not at ``metric_index``, or driver ids that are not a non-empty,
    unique and sorted list of non-empty strings. The record's arrays are
    read only where they stand in for a trips file (:func:`recorded_trips`,
    :func:`recorded_profiles`).
    """
    directory = Path(directory)
    meta_path = directory / "meta.json"
    with bundle_file(meta_path):
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if type(meta) is not dict:
            raise TypeError(f"expected a JSON object, got {type(meta).__name__}")
        if meta.get("version") != TOOL_VERSION:
            raise ValueError(
                f"written by tool version {meta.get('version')!r}, "
                f"this is version {TOOL_VERSION!r}"
            )
    with bundle_file(directory / "stats.json"):
        document = json.loads((directory / "stats.json").read_text(encoding="utf-8"))
        reject_booleans(document)
        stats = NormalizationStats.from_dict(document)
        require_finite(stats.mean, stats.std)
    parts = {}
    for name in ("baseline", "behavior"):
        path = directory / f"{name}.json"
        with bundle_file(path):
            parts[name] = Regressor(net=load_mlp(path), stats=stats)
            _check_role(name, parts[name])
            require_finite(*parts[name].net.weights, *parts[name].net.biases)
    with bundle_file(meta_path):
        if meta["stats_fingerprint"] != stats.fingerprint():
            raise ValueError("stats_fingerprint does not match stats.json")
        if type(meta["metric_index"]) is not int:  # bool is an int subclass
            raise TypeError(f"metric_index must be an integer, got {meta['metric_index']!r}")
        schema = DatasetSchema.from_dict(meta["schema"])
        widths = (schema.d_env, schema.d_behavior, schema.d_performance)
        stats_widths = (stats.d_env, stats.d_behavior, stats.d_performance)
        if widths != stats_widths:
            raise ValueError(
                f"schema block widths {widths} do not match stats.json's {stats_widths}"
            )
        if schema.metric_index != meta["metric_index"]:
            raise ValueError(
                f"metric_index {meta['metric_index']} does not match the schema's "
                f"target metric {schema.target_metric!r} at index {schema.metric_index}"
            )
        if type(meta["data_sha256"]) is not str:
            raise TypeError(f"data_sha256 must be a string, got {meta['data_sha256']!r}")
        skipped_rows = meta["skipped_rows"]
        if type(skipped_rows) is not int or skipped_rows < 0:  # bool is an int subclass
            raise TypeError(f"skipped_rows must be an integer >= 0, got {skipped_rows!r}")
        ids = meta["driver_ids"]
        if type(ids) is not list or not ids or not all(type(i) is str and i for i in ids):
            raise TypeError(
                f"driver_ids must be a non-empty list of non-empty strings, got {ids!r}"
            )
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("driver ids must be unique and sorted")
        box = meta["behavior_box"]
        if type(box) is not list:
            raise TypeError(f"behavior_box must be a list of [lo, hi] pairs, got {box!r}")
        reject_booleans(box)
        box = np.array(box, dtype=float)
        require_finite(box)
        model = AdvantageModel(
            baseline=parts["baseline"],
            behavior=parts["behavior"],
            metric_index=meta["metric_index"],
            behavior_box=box,
        )
    return model, schema, meta


@contextmanager
def bundle_file(path: Path):
    """Re-raise what a bundle file's content breaks as ``CorruptBundle`` naming the file."""
    try:
        yield
    except KeyError as exc:
        raise CorruptBundle(f"corrupt bundle file {path}: missing entry {exc}") from None
    except (TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        # JSON errors are ValueErrors; a JSON integer too large for a float, an OverflowError
        raise CorruptBundle(f"corrupt bundle file {path}: {exc}") from None


def require_finite(*arrays: np.ndarray) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("non-finite value")


def reject_booleans(value) -> None:
    """Raise ``TypeError`` at a JSON ``true`` or ``false`` in ``value`` or in its lists and objects.

    ``np.array(..., dtype=float)`` would read them as 1.0 and 0.0.
    """
    if type(value) is dict:
        value = list(value.values())
    if type(value) is not list:
        value = [value]
    for item in value:
        if type(item) is bool:
            raise TypeError("true and false are not numbers")
        if type(item) is list or type(item) is dict:
            reject_booleans(item)


TRIPS_FILE = "trips.npy"
DRIVERS_FILE = "drivers.npy"


@dataclass(frozen=True)
class DriverProfile:
    """A driver's mean normalized behavior vector over their trips."""

    driver_id: str
    mean_behavior: np.ndarray
    trip_count: int


@dataclass(frozen=True)
class StoredTrips:
    """The columns of a trips file that ranking reads, as a bundle stores them.

    ``env`` and ``performance`` hold the raw blocks in file order, and
    trip ``i`` belongs to driver ``driver_ids[driver_codes[i]]``, as in a
    ``Dataset``.
    """

    schema: DatasetSchema
    env: np.ndarray
    performance: np.ndarray
    driver_ids: tuple[str, ...]
    driver_codes: np.ndarray


def _trips_dtype(schema: DatasetSchema) -> np.dtype:
    """One record per trip: the raw env block, the raw performance block, the driver code."""
    return np.dtype([
        ("env", "<f8", (schema.d_env,)),
        ("performance", "<f8", (schema.d_performance,)),
        ("driver_code", "<i8"),
    ])


def _drivers_dtype(schema: DatasetSchema) -> np.dtype:
    """One record per driver, in driver-id order: the trip count, the mean normalized behavior."""
    return np.dtype([("trip_count", "<i8"), ("mean_behavior", "<f8", (schema.d_behavior,))])


def _read_records(path: Path, dtype: np.dtype) -> np.ndarray:
    """A one-dimensional array of records of exactly ``dtype``, every float finite.

    Raises ``CorruptBundle`` naming the file for a file that is not an
    array file, holds pickled data, or holds records of another layout,
    type or shape or a non-finite float.
    """
    with bundle_file(path):
        with path.open("rb") as handle:
            table = np.lib.format.read_array(handle, allow_pickle=False)
        if table.dtype != dtype:
            raise TypeError(f"expected records {dtype}, got {table.dtype}")
        if table.ndim != 1:
            raise DimensionMismatch(f"expected a one-dimensional array, got shape {table.shape}")
        require_finite(*(table[name] for name in dtype.names if dtype[name].base.kind == "f"))
    return table


def recorded_profiles(
    bundle: str | Path, schema: DatasetSchema, meta: dict, data: str | None, *, lenient: bool
) -> list[DriverProfile] | None:
    """The profiles ``train`` stored, if they stand in for the trips file ``data``.

    With no ``data`` they always do. ``None`` means ``data`` must be parsed.
    """
    if data is not None and not _stands_in(meta, data, lenient):
        return None
    drivers = _stored_drivers(bundle, schema, meta)
    return [DriverProfile(driver_id=driver_id, mean_behavior=mean, trip_count=count)
            for driver_id, count, mean in zip(meta["driver_ids"], drivers["trip_count"].tolist(),
                                              drivers["mean_behavior"])]


def recorded_trips(
    bundle: str | Path, schema: DatasetSchema, meta: dict, data: str, *, lenient: bool
) -> StoredTrips | None:
    """The trips ``train`` stored, if they stand in for the trips file ``data``.

    They hold the same rows in the same order as a parse of ``data`` when
    they do, so both give the same bits. ``None`` means ``data`` must be
    parsed.
    """
    if not _stands_in(meta, data, lenient):
        return None
    driver_ids = tuple(meta["driver_ids"])
    counts = _stored_drivers(bundle, schema, meta)["trip_count"]
    path = Path(bundle) / TRIPS_FILE
    table = _read_records(path, _trips_dtype(schema))
    codes = table["driver_code"]
    with bundle_file(path):
        if len(codes) and (codes.min() < 0 or codes.max() >= len(driver_ids)):
            outside = codes[(codes < 0) | (codes >= len(driver_ids))][0]
            raise ValueError(
                f"driver code {outside} is outside the bundle's {len(driver_ids)} drivers"
            )
        found = np.bincount(codes, minlength=len(driver_ids))
        if not np.array_equal(found, counts):
            k = int(np.flatnonzero(found != counts)[0])
            raise ValueError(
                f"driver {driver_ids[k]!r} has {found[k]} trips here and "
                f"{counts[k]} in {DRIVERS_FILE}"
            )
    return StoredTrips(schema, table["env"], table["performance"], driver_ids, codes)


def _stored_drivers(bundle: str | Path, schema: DatasetSchema, meta: dict) -> np.ndarray:
    """``drivers.npy``: one record per id in ``meta["driver_ids"]``, each with a trip or more."""
    path = Path(bundle) / DRIVERS_FILE
    table = _read_records(path, _drivers_dtype(schema))
    driver_ids = meta["driver_ids"]
    with bundle_file(path):
        if len(table) != len(driver_ids):
            raise ValueError(
                f"{len(table)} records for the {len(driver_ids)} drivers in meta.json"
            )
        counts = table["trip_count"]
        if counts.min() < 1:
            k = int(np.argmin(counts))
            raise ValueError(f"trip count of {driver_ids[k]!r} must be >= 1, got {counts[k]}")
    return table


def _stands_in(meta: dict, data: str, lenient: bool) -> bool:
    """Whether the bundle's record stands in for the trips file ``data``.

    It does only when ``train`` read the same bytes and, unless ``lenient``,
    skipped no row of them: a strict parse of those bytes would raise
    instead. When it stands in, the skipped rows are reported as a parse
    reports them.
    """
    skipped = meta["skipped_rows"]
    if not ((skipped == 0 or lenient) and file_sha256(data) == meta["data_sha256"]):
        return False
    log_skipped(skipped, Path(data))
    return True
