"""Synthetic trip dataset generator with a stored ground truth.

The target metric decomposes additively: an environment effect (a frozen
random tanh network plus a linear trend), a behavior effect (a concave
quadratic peaking at a known optimum), a per-driver skill offset, and
Gaussian noise. Because every component is stored, tests can verify
ranking recovery, environment-bias removal, and placement against the
generator itself instead of against the model under test.

Driver behavior centers sit on a sphere around the behavior optimum so
their average behavior contribution is identical, except for the top
skill driver whose center is placed exactly at the optimum. That makes
the skill order the true quality order and gives placement a unique
correct answer.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .atomic import atomic_open
from .errors import InvalidConfig
from .trip_data import Dataset, DatasetSchema

# Bounded amplitude of the tanh component keeps the environment-shift
# penalty dominant by construction in env_shift_mode.
ENV_NET_AMPLITUDE = 1.0
ENV_NET_HIDDEN = 16
ENV_TREND = 2.0
ENV_SHIFT_DELTA = 2.0
BEHAVIOR_CURVATURE = 0.3
BEHAVIOR_SPREAD = 2.0
BEHAVIOR_NOISE = 1.0
FUEL_OFFSET = 5.0
FUEL_SLOPE = -0.8


@dataclass(frozen=True)
class SynthConfig:
    n_drivers: int = 20
    trips_per_driver: int = 100
    d_env: int = 8
    d_behavior: int = 6
    skill_spacing: float = 0.25
    noise_sigma: float = 0.05
    env_shift_mode: bool = False
    interaction_scale: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_drivers < 2:
            raise InvalidConfig("need at least 2 drivers")
        if self.trips_per_driver < 1:
            raise InvalidConfig("trips_per_driver must be >= 1")
        if self.d_env < 1 or self.d_behavior < 1:
            raise InvalidConfig("feature dimensions must be >= 1")
        if not (self.skill_spacing > 0 and math.isfinite(self.skill_spacing)):
            raise InvalidConfig("skill_spacing must be finite and > 0")
        if not (self.noise_sigma >= 0 and math.isfinite(self.noise_sigma)):
            raise InvalidConfig("noise_sigma must be finite and >= 0")
        if not math.isfinite(self.interaction_scale):
            raise InvalidConfig("interaction_scale must be finite")


@dataclass
class GroundTruth:
    """Frozen generator internals, sufficient to recompute any noiseless row."""

    config: SynthConfig
    net_w1: np.ndarray
    net_b1: np.ndarray
    net_w2: np.ndarray
    env_trend: np.ndarray
    env_means: np.ndarray
    driver_skills: np.ndarray
    behavior_centers: np.ndarray
    optimum_behavior: np.ndarray
    curvature: float
    driver_ids: list[str]
    optimum_driver_id: str

    def env_effect(self, s: np.ndarray) -> float:
        hidden = np.tanh(self.net_w1 @ s + self.net_b1)
        return float(self.net_w2 @ hidden + self.env_trend @ s)

    def behavior_effect(self, a: np.ndarray) -> float:
        diff = a - self.optimum_behavior
        return float(-self.curvature * (diff @ diff))

    def performance(self, s: np.ndarray, a: np.ndarray, driver_index: int) -> np.ndarray:
        """Noiseless performance vector for one trip."""
        base = self.env_effect(s) + self.behavior_effect(a) + float(
            self.driver_skills[driver_index]
        )
        if self.config.interaction_scale != 0.0:
            base = base + self.config.interaction_scale * self.env_effect(s) * self.behavior_effect(a)
        return np.array([base, FUEL_OFFSET + FUEL_SLOPE * base])

    def to_dict(self) -> dict:
        return {
            "config": asdict(self.config),
            "net_w1": self.net_w1.tolist(),
            "net_b1": self.net_b1.tolist(),
            "net_w2": self.net_w2.tolist(),
            "env_trend": self.env_trend.tolist(),
            "env_means": self.env_means.tolist(),
            "driver_skills": self.driver_skills.tolist(),
            "behavior_centers": self.behavior_centers.tolist(),
            "optimum_behavior": self.optimum_behavior.tolist(),
            "curvature": self.curvature,
            "driver_ids": self.driver_ids,
            "optimum_driver_id": self.optimum_driver_id,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroundTruth":
        return cls(
            config=SynthConfig(**data["config"]),
            net_w1=np.array(data["net_w1"], dtype=float),
            net_b1=np.array(data["net_b1"], dtype=float),
            net_w2=np.array(data["net_w2"], dtype=float),
            env_trend=np.array(data["env_trend"], dtype=float),
            env_means=np.array(data["env_means"], dtype=float),
            driver_skills=np.array(data["driver_skills"], dtype=float),
            behavior_centers=np.array(data["behavior_centers"], dtype=float),
            optimum_behavior=np.array(data["optimum_behavior"], dtype=float),
            curvature=data["curvature"],
            driver_ids=list(data["driver_ids"]),
            optimum_driver_id=data["optimum_driver_id"],
        )

    def save(self, path: str | Path) -> None:
        with atomic_open(path) as handle:
            handle.write(json.dumps(self.to_dict()))

    @classmethod
    def load(cls, path: str | Path) -> "GroundTruth":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _default_schema(config: SynthConfig) -> DatasetSchema:
    return DatasetSchema(
        env_columns=tuple(f"env_{i:02d}" for i in range(config.d_env)),
        behavior_columns=tuple(f"beh_{i:02d}" for i in range(config.d_behavior)),
        performance_columns=("total_mpg", "fuel_rate"),
        trip_id_column="trip_id",
        driver_id_column="driver_id",
        target_metric="total_mpg",
    )


def generate(config: SynthConfig) -> tuple[Dataset, GroundTruth]:
    """Generate a dataset plus its ground truth, deterministically from the seed.

    In ``env_shift_mode`` odd-indexed drivers draw environments from a
    uniformly shifted (harder) distribution and all skill offsets are set
    to zero, so any measured performance gap is environmental by
    construction.
    """
    rng = np.random.default_rng(config.seed)
    k = config.n_drivers

    # frozen smooth environment effect: bounded tanh net + linear trend
    w1 = rng.normal(0.0, 1.0, size=(ENV_NET_HIDDEN, config.d_env)) / math.sqrt(config.d_env)
    b1 = rng.uniform(-1.0, 1.0, size=ENV_NET_HIDDEN)
    w2_raw = rng.normal(0.0, 1.0, size=ENV_NET_HIDDEN)
    w2 = w2_raw * (ENV_NET_AMPLITUDE / np.abs(w2_raw).sum())
    env_trend = np.full(config.d_env, -ENV_TREND / config.d_env)

    optimum = rng.uniform(-0.5, 0.5, size=config.d_behavior)
    centers = np.empty((k, config.d_behavior))
    for i in range(k - 1):
        direction = rng.normal(size=config.d_behavior)
        centers[i] = optimum + BEHAVIOR_SPREAD * direction / np.linalg.norm(direction)
    centers[k - 1] = optimum  # top-skill driver sits exactly at the optimum

    if config.env_shift_mode:
        skills = np.zeros(k)
    else:
        skills = (np.arange(k) - (k - 1) / 2) * config.skill_spacing

    env_means = np.zeros((k, config.d_env))
    if config.env_shift_mode:
        env_means[1::2] = ENV_SHIFT_DELTA

    width = max(2, len(str(k - 1)))
    driver_ids = [f"driver_{i:0{width}d}" for i in range(k)]

    truth = GroundTruth(
        config=config,
        net_w1=w1,
        net_b1=b1,
        net_w2=w2,
        env_trend=env_trend,
        env_means=env_means,
        driver_skills=skills,
        behavior_centers=centers,
        optimum_behavior=optimum,
        curvature=BEHAVIOR_CURVATURE,
        driver_ids=driver_ids,
        optimum_driver_id=driver_ids[k - 1],
    )

    # each trip's draws are consecutive in the stream, env then behavior then
    # noise; another layout would change every fleet generated from a seed
    n = k * config.trips_per_driver
    d_env, d_behavior = config.d_env, config.d_behavior
    codes = np.repeat(np.arange(k), config.trips_per_driver)
    draws = rng.normal(size=(n, d_env + d_behavior + 2))
    env = env_means[codes] + draws[:, :d_env]
    behavior = centers[codes] + BEHAVIOR_NOISE * draws[:, d_env : d_env + d_behavior]
    performance = np.array(
        [truth.performance(s, a, i) for s, a, i in zip(env, behavior, codes)]
    ) + config.noise_sigma * draws[:, d_env + d_behavior :]
    if not np.isfinite(performance).all():
        raise InvalidConfig(
            "generated performance overflows: lower the noise, skill spacing or interaction scale"
        )

    ds = Dataset(
        schema=_default_schema(config),
        trip_ids=[f"t{trip:06d}" for trip in range(n)],
        driver_ids=driver_ids,
        driver_codes=codes,
        values=np.hstack([env, behavior, performance]),
    )
    return ds, truth
