"""Optimal driver placement for a given trip environment.

Finds the behavior profile maximizing the advantage surface at a fixed
environment via CMA-ES over a data-derived box in normalized behavior
space, then matches the real driver whose averaged behavior profile
lies nearest (Euclidean) to that optimum. Matching happens in
normalized space so no single raw unit dominates the distance.

``train`` stores the profiles :func:`build_profiles` gives in the bundle,
one record per driver in ``drivers.npy`` (see ``models``), so ``place``
can match against them without reading the trips again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cmaes import CmaesConfig, CmaesResult, maximize
from .errors import DimensionMismatch, EmptyProfiles, InvalidConfig, NonFiniteAdvantage
from .models import AdvantageModel, DriverProfile
from .normalization import NormalizationStats
from .trip_data import Dataset, group_rows

DEFAULT_SIGMA = 0.3
DEFAULT_TOLERANCE = 1e-9
DEFAULT_MAX_GENERATIONS = 300
DEFAULT_RUNNER_UPS = 5


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
    order, offsets = group_rows(ds.driver_codes, ds.n_drivers)
    behaviors = stats.normalize_behavior(ds.behavior)[order]
    return [
        DriverProfile(
            driver_id=driver_id,
            mean_behavior=behaviors[offsets[k] : offsets[k + 1]].mean(axis=0),
            trip_count=int(offsets[k + 1] - offsets[k]),
        )
        for k, driver_id in enumerate(ds.driver_ids)
    ]


def optimize_behavior(
    model: AdvantageModel,
    s: np.ndarray,
    *,
    seed: int = 0,
    sigma0: float = DEFAULT_SIGMA,
    population: int | None = None,
    max_generations: int = DEFAULT_MAX_GENERATIONS,
    tolerance: float = DEFAULT_TOLERANCE,
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
    candidates. The net's input rows live in one prebuilt block per
    population size, whose env and template columns are written once; a
    generation writes its candidates into the searched columns, so the
    rows, and every bit of the result, are those of concatenating the env
    with each candidate.

    An input far outside the training data's range can overflow the nets:
    the search then raises ``NonFiniteObjective``, without numpy's warnings.

    Returns the full normalized optimum, its advantage, the raw optimizer
    result, and whether in every generation the candidate with the
    highest advantage also had the highest behavior-model output (it
    must, since the baseline term is constant in behavior).
    """
    s = np.asarray(s, dtype=float)
    stats = model.stats
    with np.errstate(over="ignore"):
        s_norm = s if s_normalized else stats.normalize_env(s)
    if s_norm.shape != (stats.d_env,):
        raise DimensionMismatch(f"expected env vector of length {stats.d_env}")

    d_behavior = stats.d_behavior
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

    with np.errstate(over="ignore", invalid="ignore"):
        baseline_value = float(model.baseline.predict_normalized(s_norm)[model.metric_index])
    argmax_consistent = True
    row = np.concatenate([s_norm, base])
    searched = stats.d_env + free
    block = np.empty((0, len(row)))  # built anew when a restart doubles the population

    def objective(a_free: np.ndarray) -> np.ndarray:
        nonlocal argmax_consistent, block
        if len(block) != len(a_free):
            block = np.tile(row, (len(a_free), 1))
        block[:, searched] = a_free
        with np.errstate(over="ignore", invalid="ignore"):
            q = model.behavior.net.forward_batch(block)[:, model.metric_index]
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
    break on ascending driver id. A distance that overflows, from a target
    near the float limit, raises ``NonFiniteAdvantage``.
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
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is raised below instead
            distance = float(np.linalg.norm(p.mean_behavior - target))
        if not np.isfinite(distance):
            raise NonFiniteAdvantage(f"match distance to driver {p.driver_id!r}")
        distances.append((p.driver_id, distance))
    ranked = sorted(distances, key=lambda t: (t[1], t[0]))
    return ranked[0][0], ranked[0][1], ranked


def place(
    model: AdvantageModel,
    profiles: list[DriverProfile],
    s: np.ndarray,
    *,
    seed: int = 0,
    **search_kwargs,
) -> PlacementResult:
    """End-to-end placement: optimize behavior, then match the nearest driver.

    The result lists the ``DEFAULT_RUNNER_UPS`` next-nearest drivers.
    ``search_kwargs`` go to :func:`optimize_behavior`.
    """
    s = np.asarray(s, dtype=float)
    optimum, value, result, consistent = optimize_behavior(model, s, seed=seed, **search_kwargs)

    driver_id, distance, ranked = match_driver(profiles, optimum)
    runner_ups = [r for r in ranked if r[0] != driver_id][:DEFAULT_RUNNER_UPS]
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
