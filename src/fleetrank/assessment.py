"""Per-trip behavioral advantage and driver ranking.

A trip's advantage is its observed performance minus the baseline
model's prediction for the same environment: what remains after the
conditions are accounted for. Averaging over each driver's trips gives
an environment-debiased quality estimate, and sorting those means gives
the ranking.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyDataset
from .models import Regressor
from .trip_data import Dataset, group_offsets

log = logging.getLogger(__name__)

LOW_TRIP_WARN_THRESHOLD = 10


@dataclass(frozen=True)
class DriverAssessment:
    driver_id: str
    mean_advantage: float
    std_advantage: float
    trip_count: int


@dataclass(frozen=True)
class Ranking:
    """Assessments sorted by mean advantage, best first; ties by driver id."""

    entries: tuple[DriverAssessment, ...]


def trip_advantages(
    ds: Dataset,
    model: Regressor,
    metric_index: int | None = None,
    raw_units: bool = False,
) -> np.ndarray:
    """Observed-minus-baseline advantage for every trip, in dataset order.

    Values are in normalized target-metric units unless ``raw_units`` is
    set, which scales by the metric's fitted standard deviation.
    """
    stats = model.stats
    if ds.schema.d_env != stats.d_env or ds.schema.d_performance != stats.d_performance:
        raise DimensionMismatch("dataset layout does not match the model's normalization")
    if metric_index is None:
        metric_index = ds.schema.metric_index
    if not 0 <= metric_index < stats.d_performance:
        raise DimensionMismatch(f"metric_index {metric_index} out of range")

    observed = stats.normalize_performance(ds.performance)[:, metric_index]
    predicted = model.predict_normalized(stats.normalize_env(ds.env))[:, metric_index]
    values = observed - predicted
    if raw_units:
        values = values * stats.performance_std(metric_index)
    return values


def assess_drivers(
    driver_ids: Sequence[str],
    driver_codes: np.ndarray,
    advantages: np.ndarray,
    min_trips_warn: int = LOW_TRIP_WARN_THRESHOLD,
) -> Ranking:
    """Aggregate trip advantages per driver and sort into a ranking.

    Trip ``i`` belongs to driver ``driver_ids[driver_codes[i]]``, as in a
    ``Dataset``. Mean uses all of a driver's trips; std is the unbiased
    sample standard deviation (0 for a single trip). A driver with fewer
    than ``min_trips_warn`` trips is reported with a warning, not
    excluded, since a thin trip history may not cover enough driving
    conditions. Drivers without trips are left out.
    """
    codes = np.asarray(driver_codes, dtype=np.intp)
    advantages = np.asarray(advantages, dtype=float)
    if advantages.ndim != 1 or codes.shape != advantages.shape:
        raise DimensionMismatch("need one driver code per trip advantage")
    if len(advantages) == 0:
        raise EmptyDataset("no trip advantages to aggregate")
    if codes.min() < 0 or codes.max() >= len(driver_ids):
        raise DimensionMismatch("driver code out of range")
    # each driver's values in ascending order: a canonical summation order
    # that makes the result independent of row order
    ordered = advantages[np.lexsort((advantages, codes))]
    offsets = group_offsets(codes, len(driver_ids))

    assessments = []
    thin = 0
    for k, driver_id in enumerate(driver_ids):
        arr = ordered[offsets[k] : offsets[k + 1]]
        if len(arr) == 0:
            continue
        std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        assessments.append(
            DriverAssessment(
                driver_id=driver_id,
                mean_advantage=float(arr.mean()),
                std_advantage=std,
                trip_count=len(arr),
            )
        )
        if len(arr) < min_trips_warn:
            thin += 1
    if thin:
        log.warning(
            "%d of %d drivers have fewer than %d trips; their estimates may be unstable",
            thin,
            len(assessments),
            min_trips_warn,
        )
    assessments.sort(key=lambda a: (-a.mean_advantage, a.driver_id))
    return Ranking(entries=tuple(assessments))


RANKING_HEADER = "rank  driver  advantage (std)  trips"


def render_ranking(ranking: Ranking) -> str:
    """Plain-text ranking: one line per driver, best first."""
    lines = [RANKING_HEADER]
    for rank, entry in enumerate(ranking.entries, start=1):
        lines.append(
            f"{rank}  {entry.driver_id}  "
            f"{entry.mean_advantage:.6f} ({entry.std_advantage:.6f})  n={entry.trip_count}"
        )
    return "\n".join(lines) + "\n"


def ranking_rows(ranking: Ranking) -> list[list]:
    """CSV-ready rows: rank, driver_id, mean, std, trip_count."""
    rows = [["rank", "driver_id", "mean_advantage", "std_advantage", "trip_count"]]
    for rank, entry in enumerate(ranking.entries, start=1):
        rows.append(
            [
                rank,
                entry.driver_id,
                repr(entry.mean_advantage),
                repr(entry.std_advantage),
                entry.trip_count,
            ]
        )
    return rows
