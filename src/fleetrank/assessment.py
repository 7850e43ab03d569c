"""Per-trip behavioral advantage and driver ranking.

A trip's advantage is its observed performance minus the baseline
model's prediction for the same environment: what remains after the
conditions are accounted for. Averaging over each driver's trips gives
an environment-debiased quality estimate, and sorting those means gives
the ranking.

``train`` scores the trips it read with :func:`trip_advantages` once and
stores each trip's advantage in the bundle's ``trips.npy``, so ``rank`` of
those trips reads them back and runs no forward pass; ``rank`` of other
trips scores a parse of them. :func:`in_units` gives either in the units
a report asks for.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyDataset, NonFiniteAdvantage
from .models import Regressor
from .trip_data import Dataset, group_rows

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


def trip_advantages(ds: Dataset, model: Regressor, raw_units: bool = False) -> np.ndarray:
    """Observed-minus-baseline advantage for every trip, in dataset order.

    The advantage is taken on the schema's target metric, in the units
    :func:`in_units` gives for ``raw_units``. Trips whose values lie far
    outside the training data's range can overflow; a non-finite advantage
    raises ``NonFiniteAdvantage`` naming the first such trip.
    """
    stats = model.stats
    if ds.schema.d_env != stats.d_env or ds.schema.d_performance != stats.d_performance:
        raise DimensionMismatch("dataset layout does not match the model's normalization")
    metric_index = ds.schema.metric_index

    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
        observed = stats.normalize_performance(ds.performance)[:, metric_index]
        predicted = model.predict_normalized(stats.normalize_env(ds.env))[:, metric_index]
        values = observed - predicted
    return in_units(values, stats.performance_std(metric_index) if raw_units else None,
                    ds.driver_ids, ds.driver_codes)


def in_units(
    advantages: np.ndarray,
    raw_std: float | None,
    driver_ids: Sequence[str],
    driver_codes: np.ndarray,
) -> np.ndarray:
    """Normalized trip advantages, scaled by ``raw_std`` to raw units if one is given.

    ``raw_std`` is the target metric's fitted standard deviation. A
    non-finite result raises ``NonFiniteAdvantage`` naming the first such
    trip and its driver ``driver_ids[driver_codes[k]]``.
    """
    if raw_std is not None:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
            advantages = advantages * raw_std
    finite = np.isfinite(advantages)
    if not finite.all():
        k = int(np.argmin(finite))
        raise NonFiniteAdvantage(f"advantage for trip {k + 1} of {len(advantages)} "
                                 f"(driver {driver_ids[driver_codes[k]]!r})")
    return advantages


def assess_drivers(
    driver_ids: Sequence[str],
    driver_codes: np.ndarray,
    advantages: np.ndarray,
) -> Ranking:
    """Aggregate trip advantages per driver and sort into a ranking.

    Trip ``i`` belongs to driver ``driver_ids[driver_codes[i]]``, as in a
    ``Dataset``. Mean uses all of a driver's trips; std is the unbiased
    sample standard deviation (0 for a single trip). A driver with fewer
    than ``LOW_TRIP_WARN_THRESHOLD`` trips is reported with a warning, not
    excluded, since a thin trip history may not cover enough driving
    conditions. Drivers without trips are left out. A mean or std that
    overflows raises ``NonFiniteAdvantage``.
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
    # that makes the result independent of row order. Two stable sorts give
    # the order of np.lexsort((advantages, codes)) in a quarter of its time:
    # by driver, then each driver's values in place.
    order, offsets = group_rows(codes, len(driver_ids))
    ordered = advantages[order]

    assessments = []
    thin = 0
    for k, driver_id in enumerate(driver_ids):
        arr = ordered[offsets[k] : offsets[k + 1]]
        if len(arr) == 0:
            continue
        arr.sort(kind="stable")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
            mean = float(arr.mean())
            std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise NonFiniteAdvantage(f"mean or std advantage of driver {driver_id!r}")
        assessments.append(
            DriverAssessment(
                driver_id=driver_id,
                mean_advantage=mean,
                std_advantage=std,
                trip_count=len(arr),
            )
        )
        if len(arr) < LOW_TRIP_WARN_THRESHOLD:
            thin += 1
    if thin:
        log.warning(
            "%d of %d drivers have fewer than %d trips; their estimates may be unstable",
            thin,
            len(assessments),
            LOW_TRIP_WARN_THRESHOLD,
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
