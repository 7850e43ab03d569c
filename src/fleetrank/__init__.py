"""Environment-debiased driver performance assessment and placement.

Pipeline: load or synthesize trip data, fit normalization statistics,
train a baseline (environment -> performance) and a behavior
(environment + behavior -> performance) ``Regressor``, subtract the
baseline from observed performance to rank drivers fairly across
conditions, and search the resulting advantage surface to place the
best-suited driver on a new trip.
"""

from .assessment import (
    DriverAssessment,
    Ranking,
    assess_drivers,
    render_ranking,
    trip_advantages,
)
from .cmaes import CmaesConfig, CmaesResult, maximize, minimize
from .models import (
    AdvantageModel,
    Regressor,
    TrainingParams,
    behavior_box_from,
    load_bundle,
    save_bundle,
    train_regressor,
)
from .neural import Mlp, MlpConfig, TrainReport, gradient, train
from .normalization import NormalizationStats, fit_stats
from .placement import (
    DriverProfile,
    PlacementResult,
    build_profiles,
    match_driver,
    optimize_behavior,
    place,
)
from .synth import GroundTruth, SynthConfig, generate
from .trip_data import Dataset, DatasetSchema, load_dataset, save_dataset

__version__ = "0.1.0"

__all__ = [
    "AdvantageModel",
    "CmaesConfig",
    "CmaesResult",
    "Dataset",
    "DatasetSchema",
    "DriverAssessment",
    "DriverProfile",
    "GroundTruth",
    "Mlp",
    "MlpConfig",
    "NormalizationStats",
    "PlacementResult",
    "Ranking",
    "Regressor",
    "SynthConfig",
    "TrainReport",
    "TrainingParams",
    "assess_drivers",
    "behavior_box_from",
    "build_profiles",
    "fit_stats",
    "generate",
    "gradient",
    "load_bundle",
    "load_dataset",
    "match_driver",
    "maximize",
    "minimize",
    "optimize_behavior",
    "place",
    "render_ranking",
    "save_bundle",
    "save_dataset",
    "train",
    "train_regressor",
    "trip_advantages",
]
