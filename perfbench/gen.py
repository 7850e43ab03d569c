"""Seeded fleet generator owned by the benchmark.

It is separate from ``fleetrank.synth`` on purpose: a change to the
program's own generator must not change the benchmark's inputs.

Each driver has a known skill and a behavior center. Better drivers are
given harder environments, so raw mean MPG misorders them and only an
environment-debiased ranking recovers the skill order. Behavior centers
sit on one sphere around the behavior optimum, so every driver's expected
behavior effect is the same and the skill order is the true quality
order. Trip counts per driver are uneven and rows are shuffled across
drivers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TARGET = "total_mpg"
MIN_TRIPS = 20
ENV_TREND = 2.0          # total downward pull of the environment on MPG
ENV_NET_HIDDEN = 16
ENV_NET_AMPLITUDE = 0.5
SKILL_RANGE = 1.0        # best minus worst driver skill, in MPG
DIFFICULTY_SLOPE = 0.8   # env shift per unit of normalized skill (harder for better drivers)
DIFFICULTY_NOISE = 0.3
BEHAVIOR_RADIUS = 1.5
BEHAVIOR_NOISE = 0.7
BEHAVIOR_CURVATURE = 1.8  # spread over the behavior dims: curvature / d_behavior each
NOISE = 0.05
DECIMALS = 5             # trip logs carry a fixed number of decimals


@dataclass
class Fleet:
    """Generated trips plus the ground truth they were drawn from."""

    env_columns: list[str]
    behavior_columns: list[str]
    performance_columns: list[str]
    trip_ids: list[str]
    driver_ids: list[str]       # one per driver, sorted
    driver_of_trip: np.ndarray  # (n,) index into driver_ids
    env: np.ndarray
    behavior: np.ndarray
    performance: np.ndarray
    skills: np.ndarray          # (k,) true skill per driver, same order as driver_ids

    @property
    def n_trips(self) -> int:
        return len(self.trip_ids)

    def schema(self) -> dict:
        return {
            "env_columns": self.env_columns,
            "behavior_columns": self.behavior_columns,
            "performance_columns": self.performance_columns,
            "trip_id_column": "trip_id",
            "driver_id_column": "driver_id",
            "target_metric": TARGET,
        }

    def csv_text(self) -> str:
        header = ["trip_id", "driver_id", *self.env_columns, *self.behavior_columns,
                  *self.performance_columns]
        values = np.hstack([self.env, self.behavior, self.performance]).tolist()
        lines = [",".join(header)]
        for trip_id, code, row in zip(self.trip_ids, self.driver_of_trip.tolist(), values):
            lines.append(f"{trip_id},{self.driver_ids[code]}," + ",".join(map(repr, row)))
        return "\n".join(lines) + "\n"

    def write(self, directory: Path) -> tuple[Path, Path]:
        """Write ``trips.csv`` and ``schema.json``; returns their paths."""
        directory.mkdir(parents=True, exist_ok=True)
        data, schema = directory / "trips.csv", directory / "schema.json"
        data.write_text(self.csv_text(), encoding="utf-8")
        schema.write_text(json.dumps(self.schema(), indent=2), encoding="utf-8")
        return data, schema


def trip_counts(rng: np.random.Generator, n_drivers: int, n_trips: int) -> np.ndarray:
    """Uneven per-driver trip counts summing to ``n_trips``, each >= MIN_TRIPS."""
    if n_trips < n_drivers * MIN_TRIPS:
        raise ValueError("too few trips for the number of drivers")
    weights = rng.lognormal(0.0, 0.6, size=n_drivers)
    return MIN_TRIPS + rng.multinomial(n_trips - n_drivers * MIN_TRIPS, weights / weights.sum())


def generate(seed: int, n_drivers: int, n_trips: int, d_env: int, d_behavior: int) -> Fleet:
    """Deterministic fleet: the same arguments give the same arrays and CSV bytes."""
    rng = np.random.default_rng(seed)
    w1 = rng.normal(size=(ENV_NET_HIDDEN, d_env)) / math.sqrt(d_env)
    b1 = rng.uniform(-1.0, 1.0, size=ENV_NET_HIDDEN)
    w2 = rng.normal(size=ENV_NET_HIDDEN)
    w2 *= ENV_NET_AMPLITUDE / np.abs(w2).sum()
    trend = np.full(d_env, -ENV_TREND / d_env)
    harder = -trend / np.linalg.norm(trend)

    skills = rng.permutation(np.linspace(-SKILL_RANGE / 2, SKILL_RANGE / 2, n_drivers))
    z_skill = (skills - skills.mean()) / skills.std()
    difficulty = DIFFICULTY_SLOPE * z_skill + DIFFICULTY_NOISE * rng.normal(size=n_drivers)

    optimum = rng.uniform(-0.5, 0.5, size=d_behavior)
    directions = rng.normal(size=(n_drivers, d_behavior))
    centers = optimum + BEHAVIOR_RADIUS * directions / np.linalg.norm(directions, axis=1)[:, None]

    counts = trip_counts(rng, n_drivers, n_trips)
    driver_of_trip = rng.permutation(np.repeat(np.arange(n_drivers), counts))
    env = difficulty[driver_of_trip, None] * harder + rng.normal(size=(n_trips, d_env))
    behavior = centers[driver_of_trip] + BEHAVIOR_NOISE * rng.normal(size=(n_trips, d_behavior))

    env_effect = env @ trend + np.tanh(env @ w1.T + b1) @ w2
    gap = behavior - optimum
    behavior_effect = -(BEHAVIOR_CURVATURE / d_behavior) * np.einsum("ij,ij->i", gap, gap)
    mpg = 6.0 + env_effect + behavior_effect + skills[driver_of_trip] + NOISE * rng.normal(size=n_trips)
    fuel_rate = 5.0 - 0.4 * mpg + NOISE * rng.normal(size=n_trips)

    width = len(str(n_drivers - 1))
    return Fleet(
        env_columns=[f"env_{i:02d}" for i in range(d_env)],
        behavior_columns=[f"beh_{i:02d}" for i in range(d_behavior)],
        performance_columns=[TARGET, "fuel_rate"],
        trip_ids=[f"t{i:06d}" for i in range(n_trips)],
        driver_ids=[f"drv{i:0{width}d}" for i in range(n_drivers)],
        driver_of_trip=driver_of_trip,
        env=np.round(env, DECIMALS),
        behavior=np.round(behavior, DECIMALS),
        performance=np.round(np.column_stack([mpg, fuel_rate]), DECIMALS),
        skills=skills,
    )
