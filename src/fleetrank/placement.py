"""Optimal driver placement for a given trip environment.

Finds the behavior profile maximizing the advantage surface at a fixed
environment via CMA-ES over a data-derived box in normalized behavior
space, then matches the real driver whose averaged behavior profile
lies nearest (Euclidean) to that optimum. Matching happens in
normalized space so no single raw unit dominates the distance.

``train`` stores the profiles in the bundle as ``profiles.json``, with
the SHA-256 of the trips file they were built from, so ``place`` can
match against them without reading the trips again.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .cmaes import CmaesConfig, CmaesResult, maximize
from .errors import DimensionMismatch, EmptyProfiles, InvalidConfig
from .models import AdvantageModel, bundle_file, require_finite
from .normalization import NormalizationStats
from .trip_data import Dataset, group_offsets

DEFAULT_SIGMA = 0.3
DEFAULT_MAX_GENERATIONS = 300
DEFAULT_RUNNER_UPS = 5
PROFILES_FILE = "profiles.json"


@dataclass(frozen=True)
class DriverProfile:
    """A driver's mean normalized behavior vector over their trips."""

    driver_id: str
    mean_behavior: np.ndarray
    trip_count: int


@dataclass
class PlacementResult:
    env: np.ndarray
    optimal_behavior: np.ndarray
    optimal_behavior_raw: np.ndarray
    optimal_advantage: float
    matched_driver: str
    match_distance: float
    runner_ups: list[tuple[str, float]]
    argmax_consistent: bool
    generations_used: int
    termination: str
    search_history: list[float] | None = None  # running best advantage per generation

    def to_dict(self) -> dict:
        return {
            "env": self.env.tolist(),
            "optimal_behavior_normalized": self.optimal_behavior.tolist(),
            "optimal_behavior_raw": self.optimal_behavior_raw.tolist(),
            # count-like behavior dimensions are searched as continuous
            # values; the rounded view reads naturally for those
            "optimal_behavior_raw_rounded": np.round(self.optimal_behavior_raw).tolist(),
            "optimal_advantage": self.optimal_advantage,
            "matched_driver": self.matched_driver,
            "match_distance": self.match_distance,
            "runner_ups": [[d, dist] for d, dist in self.runner_ups],
            "argmax_consistent": self.argmax_consistent,
            "generations_used": self.generations_used,
            "termination": self.termination,
        }


def build_profiles(ds: Dataset, stats: NormalizationStats) -> list[DriverProfile]:
    """Mean normalized behavior per driver, sorted by driver id."""
    # a stable sort keeps each driver's rows, and so the summation order, in dataset order
    order = np.argsort(ds.driver_codes, kind="stable")
    behaviors = stats.normalize_behavior(ds.behavior)[order]
    offsets = group_offsets(ds.driver_codes, ds.n_drivers)
    return [
        DriverProfile(
            driver_id=driver_id,
            mean_behavior=behaviors[offsets[k] : offsets[k + 1]].mean(axis=0),
            trip_count=int(offsets[k + 1] - offsets[k]),
        )
        for k, driver_id in enumerate(ds.driver_ids)
    ]


@dataclass(frozen=True)
class StoredProfiles:
    """Driver profiles as a bundle stores them, with the trips file they came from."""

    profiles: list[DriverProfile]
    data_sha256: str  # of the trips file's bytes
    skipped_rows: int  # rows the load that built them skipped


def save_profiles(
    path: str | Path,
    profiles: list[DriverProfile],
    *,
    data_sha256: str,
    skipped_rows: int,
    stats_fingerprint: str,
) -> None:
    """Write profiles as JSON; floats go out as ``repr``, so a load gives back the same bits."""
    document = {
        "data_sha256": data_sha256,
        "skipped_rows": skipped_rows,
        "stats_fingerprint": stats_fingerprint,
        "drivers": [[p.driver_id, p.trip_count, p.mean_behavior.tolist()] for p in profiles],
    }
    with atomic_open(path) as handle:
        handle.write(json.dumps(document, indent=2))


def load_profiles(path: str | Path, d_behavior: int, stats_fingerprint: str) -> StoredProfiles:
    """Read and verify profiles written by :func:`save_profiles`.

    Raises ``CorruptBundle`` naming the file for invalid JSON, a missing or
    ill-typed entry, an empty driver list, driver ids that are not unique
    and sorted, a trip count that is not an integer >= 1, a mean behavior
    that is not ``d_behavior`` finite numbers, or a ``stats_fingerprint``
    other than the bundle's.
    """
    path = Path(path)
    with bundle_file(path):
        document = json.loads(path.read_text(encoding="utf-8"))
        if type(document) is not dict:
            raise TypeError(f"expected a JSON object, got {type(document).__name__}")
        if document["stats_fingerprint"] != stats_fingerprint:
            raise ValueError("stats_fingerprint does not match meta.json")
        data_sha256, skipped_rows = document["data_sha256"], document["skipped_rows"]
        if type(data_sha256) is not str:
            raise TypeError(f"data_sha256 must be a string, got {data_sha256!r}")
        if type(skipped_rows) is not int or skipped_rows < 0:  # bool is an int subclass
            raise TypeError(f"skipped_rows must be an integer >= 0, got {skipped_rows!r}")
        profiles = [_stored_profile(entry, d_behavior) for entry in document["drivers"]]
        if not profiles:
            raise ValueError("no drivers")
        ids = [p.driver_id for p in profiles]
        if any(a >= b for a, b in zip(ids, ids[1:])):
            raise ValueError("driver ids must be unique and sorted")
    return StoredProfiles(profiles, data_sha256, skipped_rows)


def _stored_profile(entry, d_behavior: int) -> DriverProfile:
    """One ``[driver_id, trip_count, mean_behavior]`` entry of ``profiles.json``."""
    if type(entry) is not list or len(entry) != 3:
        raise TypeError(f"expected [driver_id, trip_count, mean_behavior], got {entry!r}")
    driver_id, trip_count, mean = entry
    if type(driver_id) is not str or not driver_id:
        raise TypeError(f"driver id must be a non-empty string, got {driver_id!r}")
    if type(trip_count) is not int or trip_count < 1:
        raise ValueError(f"trip count of {driver_id!r} must be an integer >= 1, got {trip_count!r}")
    mean = np.array(mean, dtype=float)
    if mean.shape != (d_behavior,):
        raise DimensionMismatch(
            f"mean behavior of {driver_id!r} has shape {mean.shape}, expected ({d_behavior},)"
        )
    require_finite(mean)
    return DriverProfile(driver_id=driver_id, mean_behavior=mean, trip_count=trip_count)


def optimize_behavior(
    model: AdvantageModel,
    s: np.ndarray,
    *,
    seed: int = 0,
    sigma0: float = DEFAULT_SIGMA,
    population: int | None = None,
    max_generations: int = DEFAULT_MAX_GENERATIONS,
    tolerance: float = 1e-9,
    restarts: int = 0,
    template_norm: np.ndarray | None = None,
    free_indices: list[int] | None = None,
    s_normalized: bool = False,
) -> tuple[np.ndarray, float, CmaesResult, bool]:
    """Maximize the advantage surface over behavior at a fixed environment.

    The search runs in normalized behavior space over the model's
    data-derived box. With ``template_norm`` and
    ``free_indices`` only the listed dimensions are searched while the
    rest stay fixed at the template values. The initial mean is the
    dataset-wide mean behavior (the origin in normalized units), clipped
    into the box.

    The baseline term is constant in behavior, so it is evaluated once;
    each generation then costs one batched behavior-network pass over its
    candidates.

    Returns the full normalized optimum, its advantage, the raw optimizer
    result, and whether in every generation the candidate with the
    highest advantage also had the highest behavior-model output (it
    must, since the baseline term is constant in behavior).
    """
    s = np.asarray(s, dtype=float)
    stats = model.stats
    s_norm = s if s_normalized else stats.normalize_env(s)
    if s_norm.shape != (stats.d_env,):
        raise DimensionMismatch(f"expected env vector of length {stats.d_env}")

    d_behavior = stats.d_behavior
    if model.behavior_box is None:
        raise InvalidConfig("no behavior search box: the model has none")

    if free_indices is None:
        free = np.arange(d_behavior)
        base = np.zeros(d_behavior)
    else:
        free = np.asarray(sorted(free_indices), dtype=int)
        if len(free) == 0 or len(set(free.tolist())) != len(free):
            raise InvalidConfig("free_indices must be non-empty and unique")
        if free.min() < 0 or free.max() >= d_behavior:
            raise DimensionMismatch("free index out of range")
        if template_norm is None:
            raise InvalidConfig("a template is required when fixing dimensions")
        base = np.asarray(template_norm, dtype=float).copy()
        if base.shape != (d_behavior,):
            raise DimensionMismatch(f"template must have length {d_behavior}")

    sub_bounds = model.behavior_box[free]
    start = np.clip(np.zeros(len(free)), sub_bounds[:, 0], sub_bounds[:, 1])

    baseline_value = float(model.baseline.predict_normalized(s_norm)[model.metric_index])
    argmax_consistent = True

    def objective(a_free: np.ndarray) -> np.ndarray:
        nonlocal argmax_consistent
        candidates = np.tile(base, (len(a_free), 1))
        candidates[:, free] = a_free
        q = model.behavior.predict_normalized(s_norm, candidates)[:, model.metric_index]
        advantages = q - baseline_value
        argmax_consistent &= bool(q[np.argmax(advantages)] == q.max())
        return advantages

    config = CmaesConfig(
        dim=len(free),
        initial_mean=start,
        initial_sigma=sigma0,
        population=population,
        max_generations=max_generations,
        target_tolerance=tolerance,
        seed=seed,
        bounds=sub_bounds,
        restarts=restarts,
    )
    result = maximize(objective, config)
    optimum = base.copy()
    optimum[free] = result.best_point
    return optimum, float(result.best_fitness), result, argmax_consistent


def match_driver(
    profiles: list[DriverProfile],
    target: np.ndarray,
) -> tuple[str, float, list[tuple[str, float]]]:
    """Driver whose mean profile is nearest the target behavior vector.

    Returns (driver_id, distance, full ascending-distance list). Ties
    break on ascending driver id.
    """
    if not profiles:
        raise EmptyProfiles("no profiles to match against")
    target = np.asarray(target, dtype=float)
    dim = profiles[0].mean_behavior.shape[0]
    if target.shape != (dim,):
        raise DimensionMismatch(f"target length {target.shape} does not match profiles ({dim})")
    distances = []
    for p in profiles:
        if p.mean_behavior.shape != (dim,):
            raise DimensionMismatch("profiles have inconsistent dimensions")
        distances.append((p.driver_id, float(np.linalg.norm(p.mean_behavior - target))))
    ranked = sorted(distances, key=lambda t: (t[1], t[0]))
    return ranked[0][0], ranked[0][1], ranked


def place(
    model: AdvantageModel,
    profiles: list[DriverProfile],
    s: np.ndarray,
    *,
    seed: int = 0,
    top_m: int = DEFAULT_RUNNER_UPS,
    **search_kwargs,
) -> PlacementResult:
    """End-to-end placement: optimize behavior, then match the nearest driver."""
    s = np.asarray(s, dtype=float)
    optimum, value, result, consistent = optimize_behavior(model, s, seed=seed, **search_kwargs)

    driver_id, distance, ranked = match_driver(profiles, optimum)
    runner_ups = [r for r in ranked if r[0] != driver_id][:top_m]
    return PlacementResult(
        env=s,
        optimal_behavior=optimum,
        optimal_behavior_raw=model.stats.denormalize_behavior(optimum),
        optimal_advantage=value,
        matched_driver=driver_id,
        match_distance=distance,
        runner_ups=runner_ups,
        argmax_consistent=consistent,
        generations_used=result.generations_used,
        termination=result.termination,
        search_history=list(result.history),
    )
